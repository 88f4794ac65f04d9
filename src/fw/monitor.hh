/**
 * @file
 * The secure monitor (§5.4): the lightweight M-mode firmware in the
 * TCB. It is the only software allowed to touch the sIOPMP registers,
 * the PMP-protected extended IOPMP table and the PMP itself.
 *
 * Structure follows the paper: a hardware-controller half (sIOPMP
 * driver, PMP controller, interrupt controller) and a capability layer
 * (TEE manager, device manager, memory manager with ownership chains).
 *
 * Exposed operations:
 *  - createTee(): mint a TEE and transfer memory/device capabilities;
 *  - deviceMap()/deviceUnmap(): ownership-validated binding of a
 *    memory range to a device's IOPMP entries, with the per-SID
 *    blocking primitive making each update atomic (Fig 13 costs);
 *  - cold-device switching on SID-missing interrupts (§4.2) and
 *    explicit/implicit hot promotion via the DeviceID2SID CAM (§4.3);
 *  - S-mode delegation: a range of low-priority entries the untrusted
 *    kernel may program directly, always dominated by the monitor's
 *    high-priority entries.
 *
 * Every operation returns its CPU cycle cost, assembled from actual
 * MMIO accesses on the periphery bus, extended-table memory loads and
 * documented software overheads (named constants in monitor.cc). The
 * monitor writes the unit's registers only through its MMIO window.
 */

#ifndef FW_MONITOR_HH
#define FW_MONITOR_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bus/monitor.hh"
#include "fw/cap_space.hh"
#include "fw/interrupt_ctrl.hh"
#include "fw/pmp.hh"
#include "fw/tee.hh"
#include "iopmp/mountable.hh"
#include "iopmp/siopmp.hh"
#include "mem/mmio.hh"
#include "sim/stats.hh"

namespace siopmp {
namespace fw {

/**
 * The monitor's policy: how it partitions the entry table and when it
 * promotes a cold device. Its cycle costs are fixed, not configured.
 */
struct MonitorConfig {
    unsigned entries_per_hot_md = 8; //!< entry window per hot device
    //! MD62's entry window, and so an extended-table record's size.
    unsigned cold_window_entries = 8;
    unsigned promote_threshold = 3; //!< SID misses before implicit promote
};

/** Result of a monitor call: success plus CPU cycles consumed. */
struct FwResult {
    bool ok = false;
    Cycle cost = 0;
    unsigned entry_index = 0; //!< for deviceMap: installed entry
};

class SecureMonitor
{
  public:
    /**
     * @param unit        the sIOPMP hardware (functional model)
     * @param mmio        periphery bus carrying the register window
     * @param mmio_base   base address of the sIOPMP window
     * @param ext_table   extended IOPMP table in protected memory
     *                    (may be null: no cold devices, and a
     *                    promotion that must evict fails)
     * @param bus_monitor block-state monitor (may be null: the drain
     *                    wait is a fixed cost either way)
     * @param cfg         entry partition and promotion policy
     */
    SecureMonitor(iopmp::SIopmp *unit, mem::MmioBus *mmio, Addr mmio_base,
                  iopmp::ExtendedTable *ext_table,
                  bus::BusMonitor *bus_monitor, MonitorConfig cfg = {});

    // ---- boot-time setup -------------------------------------------------

    /**
     * Partition the entry table into per-MD windows (hot MDs 0..61 get
     * entries_per_hot_md each, MD62 gets the cold window), program the
     * PMP to protect the extended table, and mint root capabilities.
     */
    void init(mem::Range dram, mem::Range protected_region);

    /** Register a device at boot; returns its root capability. */
    CapId registerDevice(DeviceId device);

    // ---- TEE lifecycle (ownership-based interface, Fig 9) --------------

    /**
     * Create_TEE(): mint a TEE, derive the requested memory range from
     * the DRAM root capability and transfer it plus the device caps.
     */
    OwnerId createTee(const std::string &name, mem::Range memory,
                      const std::vector<CapId> &devices);

    Tee *tee(OwnerId owner);

    /**
     * Destroy_TEE(): tear a domain down. Every device mapping is
     * removed under the per-SID block, the TEE's devices are demoted
     * out of the CAM (their extended-table records dropped — a
     * destroyed TEE's rules must not be remountable), and every
     * capability the TEE held is revoked through the ownership chain.
     */
    FwResult destroyTee(OwnerId owner, Cycle now = 0);

    // ---- device mapping --------------------------------------------------

    /**
     * Device_map(): bind [range] with @p perm to @p device for the TEE
     * @p owner. Validates the ownership chain (TEE must own the device
     * capability and a memory capability covering the range), ensures
     * the device is hot (promoting it if a CAM row is free), and
     * installs an IOPMP entry in the device's MD window under the
     * per-SID block: deviceMapSg() with the one segment.
     */
    FwResult deviceMap(OwnerId owner, DeviceId device, mem::Range range,
                       Perm perm, Cycle now = 0);

    /** Device_unmap(): remove a mapping installed by deviceMap. */
    FwResult deviceUnmap(OwnerId owner, DeviceId device,
                         unsigned entry_index, Cycle now = 0);

    /**
     * Scatter-gather Device_map (§2's motivating workload: DMA
     * controllers with hundreds of scatter buffers). Installs one
     * IOPMP entry per segment under a single per-SID block bracket —
     * the whole list becomes visible atomically, at the Fig 13 cost of
     * 35 + 14 * segments cycles. Every segment must be covered by the
     * TEE's memory capabilities.
     */
    FwResult deviceMapSg(OwnerId owner, DeviceId device,
                         const std::vector<mem::Range> &segments,
                         Perm perm, Cycle now = 0);

    /**
     * Atomically replace @p count entries of @p device's window
     * starting at its window base (the Fig 13 experiment: cost =
     * blocking + 14 per entry). With @p atomic false the block step is
     * skipped — insecure, shown only as the Fig 13 "No-atomic" bar.
     */
    FwResult modifyEntries(DeviceId device,
                           const std::vector<iopmp::Entry> &entries,
                           bool atomic, Cycle now = 0);

    // ---- hot/cold management --------------------------------------------

    /**
     * Register a cold device: its rules live in the extended table
     * only, to be mounted on first use.
     */
    bool registerColdDevice(const iopmp::MountRecord &record);

    /**
     * Explicit switching: force @p device into a hot CAM row, the one
     * the CAM's clock chooses. A victim's window is saved to the
     * extended table first (on a full table the promotion fails with
     * no register written), then, under the victim SID's block, its
     * entries are written off, @p device's record is loaded and the
     * row is rewritten. A free row is loaded before its row write.
     */
    FwResult promoteToHot(DeviceId device, Cycle now = 0);

    /** Explicit switching: demote a hot device to the extended table. */
    FwResult demoteToCold(DeviceId device, Cycle now = 0);

    /** Service pending sIOPMP interrupts; returns CPU cycles. */
    Cycle serviceInterrupts(Cycle now);

    // ---- S-mode delegation ----------------------------------------------

    /**
     * Delegate the low-priority entry window [lo, hi) to S-mode. The
     * kernel may then program those entries directly (smodeSetEntry),
     * but monitor-owned high-priority entries always dominate.
     */
    void delegateToSmode(unsigned lo, unsigned hi);

    /** S-mode attempt to program an entry; honors the delegation. */
    FwResult smodeSetEntry(unsigned index, const iopmp::Entry &entry,
                           Cycle now = 0);

    // ---- accessors --------------------------------------------------------

    CapSpace &caps() { return caps_; }
    Pmp &pmp() { return pmp_; }
    InterruptController &irqController() { return irq_ctrl_; }
    std::uint64_t coldSwitches() const { return cold_switches_; }
    std::uint64_t violationsHandled() const { return violations_; }

    /**
     * Lifecycle statistics: "cold_switch_cycles" distribution (full
     * handler cost per cold switch, implicit promotions included) plus
     * promotion/demotion/eviction counters. Registered with
     * stats::Registry::global() like every component group.
     */
    stats::Group &statsGroup() { return stats_; }

    /** Hot SID for a device, if currently assigned. */
    std::optional<Sid> hotSid(DeviceId device) const;

    /** Entry window [lo, hi) of the MD paired with SID @p sid. */
    std::pair<unsigned, unsigned> mdWindow(Sid sid) const;

  private:
    Cycle mmioWrite(Addr offset, std::uint64_t value);
    Cycle mmioRead(Addr offset, std::uint64_t *value = nullptr);

    /** Write one entry via its three MMIO registers. */
    Cycle writeEntry(unsigned index, const iopmp::Entry &entry);

    /** Per-SID block / drain / unblock bracket. */
    Cycle blockSid(Sid sid, DeviceId device);
    Cycle unblockSid(Sid sid);

    /** Cold switch: mount @p device from the extended table. */
    Cycle coldSwitch(DeviceId device, Cycle now);

    /**
     * Flush a hot device out of the hardware: write off its used
     * window entries and invalidate its CAM row, all under the per-SID
     * block. The caller decides what happens to the rules (preserve
     * them in the extended table *before* calling, or drop them on TEE
     * destruction) — this helper only guarantees no stale entry
     * survives in the window for the next occupant to inherit.
     */
    Cycle evictHot(DeviceId device, Sid sid);

    /** @p device's extended-table record of hot SID @p sid's used
     * window entries, to be mounted through MD62. */
    iopmp::MountRecord saveHotWindow(DeviceId device, Sid sid) const;

    /** Write off hot SID @p sid's used window entries; the caller
     * holds the SID's block. */
    Cycle clearHotWindow(Sid sid);

    /** Write @p entries into MD62's window from its base and write off
     * the rest of the window. */
    Cycle loadColdWindow(const std::vector<iopmp::Entry> &entries);

    /**
     * Clear the eSID slot while @p device is mounted there: write off
     * MD62's whole entry window and zero the eSID register under the
     * cold SID's block. A pre-existing block (e.g. the CPU's in-flight
     * interrupt-handler latency window) is preserved — only a bracket
     * this call opened is closed.
     */
    Cycle flushMountedCold(DeviceId device);

    /**
     * Rewrite MD62's window from @p record (unused tail written off)
     * while its device stays mounted, preserving any pre-existing
     * block like flushMountedCold().
     */
    Cycle remountCold(const iopmp::MountRecord &record);

    Cycle handleViolation(const iopmp::Irq &irq, Cycle now);
    Cycle handleSidMissing(const iopmp::Irq &irq, Cycle now);

    iopmp::SIopmp *unit_;
    mem::MmioBus *mmio_;
    Addr mmio_base_;
    iopmp::ExtendedTable *ext_table_;
    bus::BusMonitor *bus_monitor_;
    MonitorConfig cfg_;

    CapSpace caps_;
    Pmp pmp_;
    InterruptController irq_ctrl_;

    CapId dram_root_ = kNoCap;
    std::unordered_map<DeviceId, CapId> device_roots_;
    std::unordered_map<OwnerId, std::unique_ptr<Tee>> tees_;
    OwnerId next_owner_ = 1;

    //! Per-entry-window occupancy bitmap, one bool per hardware entry.
    std::vector<bool> entry_used_;
    //! S-mode delegated window.
    unsigned smode_lo_ = 0, smode_hi_ = 0;
    //! Implicit-promotion miss counters.
    std::unordered_map<DeviceId, unsigned> miss_counts_;

    std::uint64_t cold_switches_ = 0;
    std::uint64_t violations_ = 0;

    stats::Group stats_{"monitor"};
    stats::Distribution *st_cold_switch_cycles_;
    stats::Scalar *st_promotions_;
    stats::Scalar *st_demotions_;
    stats::Scalar *st_cam_evictions_;
    stats::Scalar *st_evict_save_failures_;
    stats::Scalar *st_demote_save_failures_;
    stats::Scalar *st_mounted_cold_flushes_;
};

} // namespace fw
} // namespace siopmp

#endif // FW_MONITOR_HH
