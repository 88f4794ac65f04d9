/**
 * @file
 * SIopmp: the functional top of the sIOPMP extension. Owns every
 * architectural structure — entry table, SRC2MD, MDCFG, DeviceID2SID
 * CAM, eSID register, SID block bitmap, violation record — plus the
 * configured checker geometry, and exposes:
 *
 *  - authorize(): the data-path decision for one DMA access, including
 *    CAM lookup, cold (eSID) matching and SID-missing detection;
 *  - an MMIO register window (mem::MmioDevice) used by the secure
 *    monitor over the periphery bus;
 *  - an interrupt callback through which SID-missing and violation
 *    interrupts reach the CPU.
 *
 * authorize() decides by one priority first-match over the requesting
 * SID's MD windows (matchWindows), whatever the checker kind: kinds
 * differ only in geometry (CheckerGeometry), fixed when the unit is
 * built, which sets the pipeline depth. The bus-facing cycle model
 * wrapping this object is CheckerNode; every node of a unit authorizes
 * through the unit.
 */

#ifndef IOPMP_SIOPMP_HH
#define IOPMP_SIOPMP_HH

#include <functional>
#include <optional>
#include <vector>

#include "iopmp/block.hh"
#include "iopmp/checker.hh"
#include "iopmp/remap_cam.hh"
#include "iopmp/tables.hh"
#include "iopmp/violation.hh"
#include "mem/mmio.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace siopmp {

class Tickable;

namespace iopmp {

/** Data-path outcome for one access. */
enum class AuthStatus {
    Allow,   //!< permitted; forward to memory
    Deny,    //!< IOPMP violation; apply the violation policy
    Blocked, //!< SID block bit set; stall the request
    SidMiss, //!< unknown device; raise SID-missing interrupt
};

struct AuthResult {
    AuthStatus status = AuthStatus::Deny;
    Sid sid = kNoSid;   //!< resolved SID (valid unless SidMiss)
    int entry = -1;     //!< deciding entry index, -1 if none
};

/** Interrupts the module can raise. */
enum class IrqKind { Violation, SidMissing };

struct Irq {
    IrqKind kind;
    DeviceId device;
    Addr addr;
    Perm attempted;
};

/** MMIO register map offsets (64-bit registers). */
namespace regmap {
//! Entry CFG mode encodings (bits 3:2).
inline constexpr unsigned kModeOff = 0;
inline constexpr unsigned kModeRange = 1;
inline constexpr unsigned kModeNapot = 2;
//! PMP-heritage top-of-range: region = [previous entry's end, ADDR).
inline constexpr unsigned kModeTor = 3;

inline constexpr Addr kSrc2MdBase = 0x00000; //!< + sid * 8
inline constexpr Addr kMdCfgBase = 0x01000;  //!< + md * 8
//! Windowed block bitmap: word k at kBlockBitmap + 8*k covers SIDs
//! [64k, 64k+63]; ceil(num_sids/64) words are mapped (window reserved
//! up to kEsid, i.e. 2048 SIDs).
inline constexpr Addr kBlockBitmap = 0x02000;
inline constexpr Addr kEsid = 0x02800;       //!< valid<<63 | device id
inline constexpr Addr kErrAddr = 0x02808;
inline constexpr Addr kErrDevice = 0x02810;
inline constexpr Addr kErrInfo = 0x02818;    //!< valid<<63 | perm
//! Count of config writes rejected by lock/validity rules (read-only;
//! writing any value clears it).
inline constexpr Addr kWriteRejects = 0x02820;
inline constexpr Addr kCamBase = 0x03000;    //!< + sid * 8; valid<<63|dev
inline constexpr Addr kEntryBase = 0x10000;  //!< + idx * 32
inline constexpr Addr kEntryStride = 32;     //!< base,size,cfg,pad
inline constexpr Addr kWindowSize = 0x20000;
} // namespace regmap

/** A write to an entry's cfg register, decoded. */
struct EntryCommit {
    Entry entry; //!< the entry the write commits
    bool lock = false;
};

/**
 * Decode a write of @p cfg to entry @p idx's cfg register, which
 * commits the staged @p base and @p size as a Range, a NAPOT region or
 * a TOR region (from entry idx-1's end in @p entries up to @p base).
 * A malformed encoding (empty range, invalid NAPOT, empty TOR) commits
 * an off entry: hardware ignores it rather than trapping. The unit's
 * MMIO window commits through it, and so do fault injections that
 * replay the commit.
 */
EntryCommit decodeEntryCommit(const EntryTable &entries, unsigned idx,
                              std::uint64_t base, std::uint64_t size,
                              std::uint64_t cfg);

class SIopmp : public mem::MmioDevice
{
  public:
    using IrqHandler = std::function<void(const Irq &)>;

    /** A unit of @p cfg's sizing whose checker has @p kind and
     * @p stages pipeline stages; an invalid sizing or a checker the
     * hardware could not build (CheckerGeometry::validate) is fatal. */
    SIopmp(IopmpConfig cfg, CheckerKind kind, unsigned stages);

    // The entry, MDCFG, SRC2MD, CAM and block-bitmap change hooks
    // capture this object.
    SIopmp(const SIopmp &) = delete;
    SIopmp &operator=(const SIopmp &) = delete;

    // ---- data path -----------------------------------------------------

    /**
     * Authorize one DMA access of @p len bytes at @p addr from
     * @p device. Raises interrupts through the handler as a side
     * effect (SID-missing on unknown device, violation on deny).
     */
    AuthResult authorize(DeviceId device, Addr addr, Addr len, Perm perm,
                         Cycle now = 0);

    /** Resolve a device to a SID without side effects (tests). */
    std::optional<Sid> resolveSid(DeviceId device) const;

    // ---- architectural state -------------------------------------------

    EntryTable &entryTable() { return entries_; }
    const EntryTable &entryTable() const { return entries_; }
    Src2MdTable &src2md() { return src2md_; }
    MdCfgTable &mdcfg() { return mdcfg_; }
    DeviceId2SidCam &cam() { return cam_; }
    SidBlockBitmap &blockBitmap() { return blocks_; }
    const IopmpConfig &config() const { return cfg_; }

    /** The cold-device slot: SID used for the mounted cold device. */
    Sid coldSid() const { return cfg_.num_sids - 1; }

    /** Currently mounted cold device (eSID register), if any. */
    std::optional<DeviceId> mountedCold() const { return esid_; }

    /** The checker's geometry: its kind, stages and entry count. */
    const CheckerGeometry &geometry() const { return geometry_; }

    /**
     * Monotone configuration epoch: moves once per accepted MMIO write
     * that can change an authorization outcome (entry commit, SRC2MD,
     * MDCFG, CAM remap, block-bitmap word, and the eSID register that
     * mounts and unmounts the cold device). A CheckerNode stalled on a
     * SID miss re-arms when it moves without resolving the SID. Each
     * such write moves stateVersion() once as well.
     */
    std::uint64_t configEpoch() const { return config_epoch_; }

    /**
     * Monotone state version: moves on every change that can alter
     * any authorize() outcome, whether made through MMIO or by a
     * direct call — every entry, MDCFG, SRC2MD, CAM and block-bitmap
     * mutation (through the change hooks of those structures) and
     * every config-epoch bump no hook covered; an accepted MMIO write
     * moves it exactly once. Each move wakes the stall waiters. A
     * CheckerNode holds its head beat's Blocked verdict, or an Allow its
     * downlink cannot take, while the version stands still.
     */
    std::uint64_t stateVersion() const { return state_version_; }

    /** Latched violation record, if an unread one exists. */
    std::optional<ViolationRecord> violationRecord() const;

    /**
     * MMIO configuration writes rejected since the last clear: entry
     * rewrites blocked by a lock, locked/invalid SRC2MD bitmaps,
     * non-monotone MDCFG tops. Also exposed as the kWriteRejects
     * register and the "mmio_write_rejects" stat, so silently-ignored
     * programming shows up in the CLI and in --stats-json.
     */
    std::uint64_t rejectedWrites() const { return write_rejects_; }

    void setIrqHandler(IrqHandler handler) { irq_ = std::move(handler); }

    // ---- stall waiters -------------------------------------------------

    /**
     * Register @p node as a stall waiter: a component that may park on
     * a beat stalled on a SID miss or a block bit, or holding an Allow
     * behind a full downlink (CheckerNode). Every stateVersion() move
     * wakes all waiters, so every change that can decide such a stall
     * does. A waiter unregisters before it is destroyed.
     */
    void addStallWaiter(Tickable *node);
    void removeStallWaiter(Tickable *node);

    stats::Group &statsGroup() { return stats_; }

    // ---- MmioDevice ------------------------------------------------------

    std::uint64_t mmioRead(Addr offset) override;
    void mmioWrite(Addr offset, std::uint64_t value) override;

  private:
    void raise(const Irq &irq);

    /** Note one rejected MMIO config write at @p offset. */
    void rejectWrite(Addr offset);

    /** Advance the configuration epoch after an accepted MMIO write,
     * and move the state version unless the written structure's change
     * hook already moved it from @p version. */
    void
    bumpEpoch(std::uint64_t version)
    {
        ++config_epoch_;
        if (state_version_ == version)
            stateChanged();
    }

    /** Move the state version and wake the stall waiters. */
    void stateChanged();

    IopmpConfig cfg_;
    CheckerGeometry geometry_;
    EntryTable entries_;
    Src2MdTable src2md_;
    MdCfgTable mdcfg_;
    DeviceId2SidCam cam_;
    SidBlockBitmap blocks_;
    std::optional<DeviceId> esid_;
    std::optional<ViolationRecord> violation_;
    IrqHandler irq_;
    std::vector<Tickable *> stall_waiters_;
    stats::Group stats_;
    //! Hot-path counters, resolved once in the ctor: scalar() does a
    //! map lookup and its first call inserts — neither belongs on the
    //! per-check path.
    stats::Scalar *st_checks_;
    stats::Scalar *st_sid_misses_;
    stats::Scalar *st_blocked_;
    stats::Scalar *st_allows_;
    stats::Scalar *st_denies_;
    stats::Scalar *st_write_rejects_;
    std::uint64_t write_rejects_ = 0;
    std::uint64_t config_epoch_ = 0;
    std::uint64_t state_version_ = 0;

    // MMIO staging for entry writes, one slot per entry: base/size
    // latch, a cfg write commits and resets the slot.
    struct EntryStage {
        std::uint64_t base = 0;
        std::uint64_t size = 0;
    };
    std::vector<EntryStage> entry_stage_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_SIOPMP_HH
