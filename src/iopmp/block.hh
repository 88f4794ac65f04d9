/**
 * @file
 * SID block bitmap (§5.3). Software sets a per-SID block bit before
 * modifying that SID's IOPMP entries; the checker stalls new DMA
 * requests from blocked SIDs, and — together with the bus monitor —
 * the firmware waits for in-flight transactions to drain so the old
 * and new rule sets are never observable simultaneously.
 *
 * Blocking is per-SID by design: other devices keep full line rate
 * while one device's entries are being rewritten.
 *
 * The bitmap is backed by ceil(num_sids / 64) 64-bit words so that
 * paper-scale configurations (§6: 1000+ devices) keep the §5.3
 * atomic-update guarantee for every SID, not just the first 64. Word
 * k covers SIDs [64k, 64k+63] and is exposed over MMIO as a windowed
 * register (regmap::kBlockBitmap + 8*k).
 */

#ifndef IOPMP_BLOCK_HH
#define IOPMP_BLOCK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

class SidBlockBitmap
{
  public:
    explicit SidBlockBitmap(unsigned num_sids = 64);

    /** Assert the block bit for @p sid. */
    void block(Sid sid);

    /** Deassert the block bit for @p sid. */
    void unblock(Sid sid);

    bool blocked(Sid sid) const;

    /** Block/unblock every SID (global quiesce; coarse). */
    void blockAll();
    void unblockAll();

    /** Number of 64-bit backing words: ceil(num_sids / 64). */
    unsigned numWords() const
    {
        return static_cast<unsigned>(words_.size());
    }

    /** Word @p k of the bitmap; bit b is SID 64k + b. */
    std::uint64_t word(unsigned k) const;

    /** Replace word @p k wholesale (MMIO write). Bits beyond
     * num_sids are ignored. */
    void setWord(unsigned k, std::uint64_t bits);

    unsigned numSids() const { return num_sids_; }

    /**
     * Install @p hook, called after every mutating call (block,
     * unblock, blockAll, unblockAll, setWord). The owning SIopmp wakes
     * checker nodes parked on a blocked beat through it, so direct
     * callers (CPU node, firmware, workloads) need no wake of their
     * own.
     */
    void setChangeHook(std::function<void()> hook)
    {
        on_change_ = std::move(hook);
    }

  private:
    bool valid(Sid sid) const { return sid < num_sids_; }

    void changed()
    {
        if (on_change_)
            on_change_();
    }

    /** Valid-bit mask for word @p k (partial in the last word). */
    std::uint64_t wordMask(unsigned k) const;

    std::vector<std::uint64_t> words_;
    unsigned num_sids_;
    std::function<void()> on_change_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_BLOCK_HH
