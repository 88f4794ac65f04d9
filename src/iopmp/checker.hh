/**
 * @file
 * Permission checker interface shared by the baseline linear checker,
 * the tree-arbitration checker and the Multi-stage-Tree (MT) pipelined
 * checker (§4.1). All checkers implement identical *functional*
 * semantics — priority first-match over the entries of the requesting
 * SID's memory domains — and differ in microarchitecture: combinational
 * depth (clock frequency), pipeline stages (added latency) and area.
 */

#ifndef IOPMP_CHECKER_HH
#define IOPMP_CHECKER_HH

#include <cstdint>
#include <memory>

#include "iopmp/tables.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

/** One access to authorize. */
struct CheckRequest {
    Addr addr = 0;
    Addr len = 0;
    Perm perm = Perm::Read;
    std::uint64_t md_bitmap = 0; //!< memory domains of the requesting SID
};

/** Outcome of a permission check. */
struct CheckResult {
    bool allowed = false;
    //! Index of the deciding entry; -1 if no entry overlapped at all.
    int entry = -1;
    //! True iff the deciding entry only partially covered the request
    //! (always a denial: a DMA access must be wholly inside one rule).
    bool partial = false;
};

/** Microarchitectural flavour of a checker. */
enum class CheckerKind {
    Linear,       //!< baseline: serial priority chain, single cycle
    Tree,         //!< tree-based arbitration, single cycle
    PipelineLinear, //!< pipelined stages of linear units
    PipelineTree, //!< MT checker: pipelined stages of tree units
};

const char *checkerKindName(CheckerKind kind);

/**
 * Abstract checker: the microarchitecture model. Holds references to
 * the shared hardware tables; it never copies them, so configuration
 * changes are visible immediately (the atomicity of such changes is
 * the job of the SID block bitmap). An SIopmp owns one, fixed when the
 * unit is built: its stages() set every CheckerNode's request delay,
 * and its walk is the reference the unit's window walk (matchWindows)
 * is tested against.
 */
class CheckerLogic
{
  public:
    CheckerLogic(const EntryTable &entries, const MdCfgTable &mdcfg)
        : entries_(entries), mdcfg_(mdcfg)
    {
    }

    virtual ~CheckerLogic() = default;

    CheckerLogic(const CheckerLogic &) = delete;
    CheckerLogic &operator=(const CheckerLogic &) = delete;

    /** Authorize one access with this microarchitecture's own walk.
     * Pure function of tables + request. */
    virtual CheckResult check(const CheckRequest &req) const = 0;

    /** Pipeline stages; 1 means fully combinational (no extra cycles). */
    virtual unsigned stages() const = 0;

    virtual CheckerKind kind() const = 0;

    /** Extra bus cycles this checker adds to a request beat. */
    Cycle extraLatency() const { return stages() - 1; }

    const EntryTable &entries() const { return entries_; }

  protected:
    /**
     * Reference semantics: priority first-match over the entry window
     * [lo, hi). The first (lowest-index) entry that overlaps the
     * request decides: full containment checks the permission, partial
     * overlap denies. No overlap leaves entry == -1 (default deny at
     * the top level).
     */
    CheckResult firstMatch(const CheckRequest &req, unsigned lo,
                           unsigned hi) const;

    /** True iff entry @p idx belongs to an MD selected by the bitmap. */
    bool
    entryEnabledFor(unsigned idx, std::uint64_t md_bitmap) const
    {
        const int md = mdcfg_.mdOfEntry(idx);
        if (md < 0)
            return false;
        return (md_bitmap >> md) & 1;
    }

    const EntryTable &entries_;
    const MdCfgTable &mdcfg_;
};

/** Factory covering every evaluated configuration: the bare walk of
 * @p kind, nothing attached. */
std::unique_ptr<CheckerLogic>
makeChecker(CheckerKind kind, unsigned stages, const EntryTable &entries,
            const MdCfgTable &mdcfg);

/**
 * The unit's check (SIopmp::authorize): priority first-match over the
 * entry windows (MdCfgTable::window) of the MDs set in req.md_bitmap,
 * visited in ascending MD order. The windows of ascending MDs ascend
 * and never overlap, so the first overlapping entry found is the
 * lowest-index one, and the verdict is every kind's: full containment
 * checks the permission, partial overlap denies, no overlap leaves
 * entry == -1 (default deny).
 */
CheckResult matchWindows(const EntryTable &entries, const MdCfgTable &mdcfg,
                         const CheckRequest &req);

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_CHECKER_HH
