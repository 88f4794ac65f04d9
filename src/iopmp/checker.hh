/**
 * @file
 * The permission check and the checker geometry (§4.1). The baseline
 * linear checker, the tree-arbitration checker and the Multi-stage-Tree
 * (MT) pipelined checker implement one function — priority first-match
 * over the entries of the requesting SID's memory domains — and differ
 * only in microarchitecture: combinational depth (clock frequency),
 * pipeline stages (added latency) and area. So the check is two free
 * functions, the unit's window walk (matchWindows) and the serial
 * reference walk it is tested against (firstMatch), and the
 * microarchitecture is one value, CheckerGeometry, which the checker
 * node and the timing models read.
 */

#ifndef IOPMP_CHECKER_HH
#define IOPMP_CHECKER_HH

#include <cstdint>

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
 * The shape of one checker. The entry table is split into @c stages
 * windows of widestStageWindow() entries (the last may be shorter),
 * stage 0 holding the lowest-index, highest-priority entries. Each
 * stage decides its window with a serial priority chain (linear kinds)
 * or a priority tree of @c arity-input nodes (tree kinds) and forwards
 * its verdict in a register, so every stage after the first adds one
 * cycle of latency and none costs throughput (Fig 3a).
 */
struct CheckerGeometry {
    CheckerKind kind = CheckerKind::Linear;
    unsigned entries = 64;
    unsigned stages = 1; //!< pipeline stages (1 = combinational)
    unsigned arity = 2;  //!< tree reduction arity

    /**
     * nullptr when the hardware could build this checker, or the first
     * problem: fewer than one stage, or more than one stage on a kind
     * that is not pipelined.
     */
    const char *validate() const;

    /** True for the tree-arbitrated kinds. */
    bool
    tree() const
    {
        return kind == CheckerKind::Tree || kind == CheckerKind::PipelineTree;
    }

    /** Entries the widest pipeline stage evaluates. */
    unsigned widestStageWindow() const;

    /**
     * Inputs of one tree node: the arity, but no more than the widest
     * stage window (a wider node has nothing to merge) and no fewer
     * than 2, so a one-entry window still has a binary node.
     */
    unsigned treeNodeInputs() const;

    /** Pipeline stage whose window holds entry @p entry. */
    unsigned stageOf(unsigned entry) const;

    /** Extra bus cycles the pipeline adds to a request beat. */
    Cycle extraLatency() const { return stages - 1; }
};

/**
 * The reference walk: the baseline checker's serial priority chain,
 * ported from the CPU-side PMP. Visits every entry in index order,
 * skipping those outside the domains set in req.md_bitmap; the first
 * entry that overlaps the request decides: full containment checks the
 * permission, partial overlap denies, no overlap leaves entry == -1
 * (default deny). Tables are read, never copied.
 */
CheckResult firstMatch(const EntryTable &entries, const MdCfgTable &mdcfg,
                       const CheckRequest &req);

/**
 * The unit's check (SIopmp::authorize): priority first-match over the
 * entry windows (MdCfgTable::window) of the MDs set in req.md_bitmap,
 * visited in ascending MD order. The windows of ascending MDs ascend
 * and never overlap, so the first overlapping entry found is the
 * lowest-index one, and the verdict is firstMatch's: full containment
 * checks the permission, partial overlap denies, no overlap leaves
 * entry == -1 (default deny).
 */
CheckResult matchWindows(const EntryTable &entries, const MdCfgTable &mdcfg,
                         const CheckRequest &req);

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_CHECKER_HH
