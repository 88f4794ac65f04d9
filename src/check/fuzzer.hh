/**
 * @file
 * Differential oracle fuzzer for the sIOPMP authorization path.
 *
 * Generates deterministic, seeded streams of MMIO programming ops
 * (entry stage/commit incl. TOR/NAPOT/Range encodings, SRC2MD rows
 * with lock bits, MDCFG tops, CAM bind/invalidate, eSID, windowed
 * block-bitmap words, error acknowledges) interleaved with DMA check
 * ops and register read-backs, applies every op to a fresh SIopmp
 * (the device under test) and to the spec-direct ReferenceOracle,
 * and reports the first spot where the two disagree — on a check
 * verdict (status/SID/deciding entry) or a register read-back. The
 * DUT decides by its window walk (matchWindows); the oracle decides
 * by its own serial walk over its own tables, so every check compares
 * two independent implementations. The checker kind and stage count
 * set only the DUT's geometry, which no verdict depends on.
 *
 * A divergence is minimized by ddmin-style chunk removal into the
 * shortest op trace that still reproduces, and every case is fully
 * replayable from (seed, case index, config). When a trace sink is
 * installed (trace::on()), replays emit "fuzz" category events so a
 * failure dumps a Perfetto-loadable trace of the divergent
 * transaction; counters flow through stats::Registry ("fuzz" group).
 *
 * Tests can install a DUT write hook to re-introduce historical bugs
 * (e.g. the MMIO lock bypass or the >64-SID blocking hole) and prove
 * the fuzzer still catches them — the in-tree guarantee that future
 * checker or remapping changes get differential coverage for free.
 */

#ifndef CHECK_FUZZER_HH
#define CHECK_FUZZER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "iopmp/siopmp.hh"
#include "sim/stats.hh"

namespace siopmp {
namespace check {

/** One fuzz operation: an MMIO write, an MMIO read-back compare, or
 * a DMA authorization check. */
struct FuzzOp {
    enum class Kind : std::uint8_t { Write, Read, Check };

    Kind kind = Kind::Write;
    Addr offset = 0;          //!< Write/Read: register offset
    std::uint64_t value = 0;  //!< Write: value
    DeviceId device = 0;      //!< Check: requesting device
    Addr addr = 0;            //!< Check: target address
    Addr len = 0;             //!< Check: burst length
    Perm perm = Perm::Read;   //!< Check: requested access

    /** Replayable one-line rendering (offset decode included). */
    std::string toString() const;
};

/**
 * Op-mix profile for generated cases.
 *
 * Default leans toward a realistic boot-then-run mix (mostly
 * programming early, checks throughout). Churn models a monitor that
 * reprograms tables continuously at a high rate relative to traffic,
 * so entry commits and MDCFG top moves dominate, with checks
 * interleaved to catch a verdict that missed a change.
 */
enum class FuzzProfile : std::uint8_t { Default, Churn };

/** Per-case shape: architecture sizing + checker geometry + op count.
 * The kind and stages must form a valid CheckerGeometry; they set the
 * DUT's geometry and nothing a replay compares. */
struct FuzzCaseConfig {
    unsigned num_entries = 24;
    unsigned num_sids = 16;
    unsigned num_mds = 8;
    iopmp::CheckerKind kind = iopmp::CheckerKind::Linear;
    unsigned stages = 1;
    unsigned ops_per_case = 96;
    FuzzProfile profile = FuzzProfile::Default;
};

/** First point where DUT and oracle disagreed. */
struct Divergence {
    std::size_t op_index = 0;
    std::string detail;
};

/** Outcome of a fuzz campaign. */
struct FuzzReport {
    bool diverged = false;
    std::uint64_t seed = 0;      //!< base seed of the campaign
    unsigned case_index = 0;     //!< failing case, if diverged
    std::vector<FuzzOp> trace;   //!< minimized reproducer
    std::string detail;          //!< human-readable dut-vs-oracle
    std::uint64_t cases_run = 0;
    std::uint64_t ops_run = 0;
    std::uint64_t checks_run = 0;
};

class DifferentialFuzzer
{
  public:
    /**
     * Optional fault injector: called for every Write op before it is
     * applied to the DUT; returning true means the hook already
     * applied (a possibly distorted version of) the write, and the
     * normal DUT write is skipped. The oracle always sees the real
     * op. Used by tests and by `siopmp_fuzz --inject` to prove
     * detection of deliberately re-introduced bugs.
     */
    using DutWriteHook =
        std::function<bool(iopmp::SIopmp &, const FuzzOp &)>;

    DifferentialFuzzer(FuzzCaseConfig cfg, std::uint64_t seed);

    /** Install a fault injector. @p reset, if set, runs at the start
     * of every replay so stateful hooks match the fresh DUT. */
    void
    setDutWriteHook(DutWriteHook hook, std::function<void()> reset = {})
    {
        hook_ = std::move(hook);
        hook_reset_ = std::move(reset);
    }

    /** Run @p num_cases independent cases; stops at (and minimizes)
     * the first divergence. */
    FuzzReport run(unsigned num_cases);

    /** Deterministically regenerate one case's op stream. */
    std::vector<FuzzOp> generateCase(unsigned case_index) const;

    /**
     * Apply @p ops to a fresh DUT + oracle pair; returns the first
     * divergence, if any. With @p emit_trace, every op is emitted
     * through the global tracer (category "fuzz").
     */
    std::optional<Divergence> replay(const std::vector<FuzzOp> &ops,
                                     bool emit_trace = false);

    /** ddmin-style reduction of a diverging trace. */
    std::vector<FuzzOp> minimize(std::vector<FuzzOp> ops);

    const FuzzCaseConfig &config() const { return cfg_; }
    std::uint64_t seed() const { return seed_; }
    stats::Group &statsGroup() { return stats_; }

  private:
    FuzzCaseConfig cfg_;
    std::uint64_t seed_;
    DutWriteHook hook_;
    std::function<void()> hook_reset_;
    stats::Group stats_;
};

/**
 * A packaged fault injector: a DUT write hook plus the per-replay
 * reset it needs. Pass both to setDutWriteHook.
 */
struct FaultInjection {
    DifferentialFuzzer::DutWriteHook hook;
    std::function<void()> reset;
};

/**
 * Re-introduce the historical MMIO lock-bypass bug: entry commits are
 * applied with machine-mode privilege, silently overriding entry
 * locks (EntryTable::set's old machine_mode=true default). The fuzzer
 * must diverge on a locked entry that changes anyway.
 */
FaultInjection makeLockBypassInjection();

/**
 * Re-introduce the historical >64-SID blocking hole: writes to block
 * bitmap words past the first are dropped, as when the bitmap was a
 * single 64-bit word. The fuzzer must diverge once a SID >= 64 is
 * blocked in a wide configuration.
 */
FaultInjection makeBlockHoleInjection();

/**
 * Drop every destroy-class write — CAM row invalidates and eSID
 * unmounts — on the floor. The replay loop's residue oracle (the
 * tenant-churn post-destroy invariants, run after every unbinding
 * write) must flag the evicted device at the dropped op itself, not
 * cycles later when a check happens to hit the stale binding.
 */
FaultInjection makeUnbindDropInjection();

} // namespace check
} // namespace siopmp

#endif // CHECK_FUZZER_HH
