/**
 * @file
 * Malicious device model for the threat-model experiments (§2.1, §3.2).
 * Implements the attack classes the paper defends against:
 *
 *  - ArbitraryScan: probe a physical address range with DMA reads and
 *    writes, hunting for secrets or corruptible state (classic DMA
 *    attack over PCIe/Thunderbolt-style connectivity).
 *  - Replay: record a legitimate write the device was once allowed to
 *    perform, then re-issue it later after the mapping was revoked —
 *    the attack memory encryption alone cannot stop.
 *  - RingTamper: overwrite another device's descriptor ring to
 *    redirect its DMA (the Thunderclap-style shared-structure attack).
 *
 * The device records which of its attack accesses appeared to succeed
 * (non-masked, non-denied data); tests assert the count is zero under
 * sIOPMP protection.
 */

#ifndef DEVICES_MALICIOUS_HH
#define DEVICES_MALICIOUS_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "devices/device.hh"

namespace siopmp {
namespace dev {

enum class AttackKind { ArbitraryScan, Replay, RingTamper };

struct AttackPlan {
    AttackKind kind = AttackKind::ArbitraryScan;
    Addr target_base = 0;   //!< region to probe / ring to tamper
    Addr target_size = 0;
    unsigned probes = 16;   //!< number of attack accesses
    std::uint64_t payload = 0x4141'4141'4141'4141ULL;
};

class MaliciousDevice : public DmaMaster
{
  public:
    MaliciousDevice(std::string name, DeviceId device, bus::Link *link);

    void startAttack(const AttackPlan &plan, Cycle now);
    bool done() const;

    /** Reads that returned non-zero, non-denied data (leaks). */
    std::uint64_t leakedWords() const { return leaked_; }
    /** Writes acknowledged without a bus error. An ack alone does NOT
     * prove success under packet masking; tests must also check the
     * target memory. */
    std::uint64_t unflaggedWrites() const { return unflagged_writes_; }
    std::uint64_t deniedAttacks() const { return denied_attacks_; }

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

  private:
    struct Probe {
        Addr addr;
        bool is_write;
    };

    AttackPlan plan_;
    std::deque<Probe> queue_;
    std::unordered_map<std::uint64_t, bool> outstanding_; //!< txn->write
    bool write_inflight_ = false;
    std::uint64_t leaked_ = 0;
    std::uint64_t unflagged_writes_ = 0;
    std::uint64_t denied_attacks_ = 0;
};

} // namespace dev
} // namespace siopmp

#endif // DEVICES_MALICIOUS_HH
