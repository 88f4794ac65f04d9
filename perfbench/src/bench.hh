/**
 * @file
 * Shared pieces of the host-time benchmark: the workload interface,
 * the in-memory span recorder used by the traced run, a StatsVisitor
 * that totals counters, and small numeric helpers.
 *
 * Every workload drives the simulator through the public APIs of its
 * modules. One repetition builds a fresh system from a repetition
 * seed, times its operations, checks its outputs, and (for the first
 * few repetitions of a run, the "counted" ones) reads the simulated
 * counters. Counted repetitions are the same for a given --seed on
 * every host, so everything derived from them repeats exactly.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace perfbench {

/** Host nanoseconds from a steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a accumulator for per-repetition fingerprints. */
struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

/** SplitMix64 step: derives independent seeds from (seed, index). */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** Calls into a module that the traced run wraps in a span. */
enum class SpanName : std::uint8_t {
    Rep,            //!< one repetition (root; the benchmark's own time)
    SocBuild,       //!< soc::Soc construction
    FwCreateTee,    //!< registerDevice + deriveDevice + createTee
    FwMap,          //!< deviceMap or registerColdDevice
    FwUnmap,        //!< deviceUnmap
    FwDestroyTee,   //!< destroyTee
    DevicesStart,   //!< DmaEngine::setDeviceId + start
    SimStep,        //!< Simulator::step (aggregated, see stretch())
    SimRun,         //!< Simulator::run
    CheckGenerate,  //!< DifferentialFuzzer::generateCase
    CheckReplay,    //!< DifferentialFuzzer::replay
    IopmpAuthorize, //!< a batch of SIopmp::authorize calls
    Count
};

const char *spanName(SpanName name);

/** Module (layer) a span's self time is charged to. */
const char *spanModule(SpanName name);

struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = 0; //!< index + 1 of the enclosing span; 0 = root
    std::uint32_t rep = 0;    //!< repetition id
    std::uint32_t calls = 1;  //!< calls this span covers (batches)
    SpanName name = SpanName::Rep;
};

/**
 * In-memory span recorder. Off by default; when off, begin/end are
 * never called (Scope checks on()), so untraced repetitions pay one
 * branch per call site.
 */
class Spans
{
  public:
    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }
    void setRep(std::uint32_t rep) { rep_ = rep; }

    std::uint32_t begin(SpanName name, std::uint32_t calls = 1);
    void end(std::uint32_t index);

    /**
     * Count one call into an aggregated span. Simulator::step runs
     * about once per simulated cycle at well under a microsecond, so
     * consecutive step calls share one span (its `calls` counts them)
     * that stays open until another span begins or its parent ends.
     * It therefore also covers the benchmark's polling between the calls.
     */
    void stretch(SpanName name);

    /** Measure the clock time an empty span reads (the two clock
     * reads it brackets), to subtract from every span's duration. */
    void calibrate();
    double overheadNs() const { return overhead_ns_; }

    /** A span's duration without the calibrated clock overhead. */
    double
    durationNs(const Span &span) const
    {
        const double raw = static_cast<double>(span.end_ns - span.start_ns);
        return raw > overhead_ns_ ? raw - overhead_ns_ : 0.0;
    }

    const std::vector<Span> &all() const { return spans_; }

  private:
    void closeStretch();

    bool on_ = false;
    std::uint32_t rep_ = 0;
    bool stretch_open_ = false;
    std::uint32_t stretch_ = 0;
    double overhead_ns_ = 0.0;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** RAII span around one call into a module (no-op while tracing is
 * off). */
class Scope
{
  public:
    Scope(Spans &spans, SpanName name, std::uint32_t calls = 1)
        : spans_(spans.on() ? &spans : nullptr)
    {
        if (spans_)
            index_ = spans_->begin(name, calls);
    }
    ~Scope()
    {
        if (spans_)
            spans_->end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans *spans_;
    std::uint32_t index_ = 0;
};

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/**
 * Totals counters by stat name over every visited group that passes
 * an optional group-name filter. Averages keep (sum, count) so they
 * can be pooled; distributions keep their p99.
 */
class StatTotals : public siopmp::stats::StatsVisitor
{
  public:
    using Filter = std::function<bool(const std::string &group)>;

    StatTotals() = default;
    explicit StatTotals(Filter filter) : filter_(std::move(filter)) {}

    void visitScalar(const siopmp::stats::Group &group,
                     const std::string &name,
                     const siopmp::stats::Scalar &s) override;
    void visitAverage(const siopmp::stats::Group &group,
                      const std::string &name,
                      const siopmp::stats::Average &a) override;
    void visitDistribution(const siopmp::stats::Group &group,
                           const std::string &name,
                           const siopmp::stats::Distribution &d) override;
    void visitHistogram(const siopmp::stats::Group &,
                        const std::string &,
                        const siopmp::stats::Histogram &) override {}

    double scalar(const std::string &name) const;
    double averageSum(const std::string &name) const;
    double averageCount(const std::string &name) const;
    double p99(const std::string &name) const;

  private:
    bool pass(const siopmp::stats::Group &group) const;

    Filter filter_;
    std::map<std::string, double> scalars_;
    std::map<std::string, std::pair<double, double>> averages_;
    std::map<std::string, double> p99_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** What one repetition did. */
struct RepResult {
    double setup_s = 0.0;   //!< host seconds before the first timed op
    double run_s = 0.0;     //!< host seconds of the timed ops
    std::uint64_t ops = 0;  //!< ops attempted
    std::uint64_t failed = 0; //!< ops whose output check failed
    std::uint64_t fingerprint = 0; //!< FNV over the simulated counters
    std::uint64_t executed_cycles = 0; //!< simulated cycles not skipped
    bool timed = true;      //!< counts toward the host-time metrics
    std::string failure;    //!< first failed check, if any
};

/** Metric name -> value; per-layer counts and ratios. */
using Values = std::map<std::string, double>;

/**
 * Simulated counters both SoC workloads report, totalled over their
 * counted repetitions. The workload adds the per-burst latencies,
 * bytes, cycles and activity samples itself, and the stats through
 * addStats().
 */
struct SocTotals {
    std::vector<double> latencies; //!< per-burst DMA latency, cycles
    double bytes = 0;      //!< bytes of bursts completed without a deny
    double cycles = 0;     //!< simulated cycles the ops took
    double run_cycles = 0; //!< Simulator::now() at the end
    double skipped = 0;    //!< Simulator::idleCyclesSkipped()
    double active_sum = 0, active_n = 0; //!< activeComponents() samples
    double denied = 0;     //!< denied bursts
    double checks = 0, allows = 0, forwarded = 0;
    double sid_miss_stalls = 0, block_stalls = 0;
    double cache_hits = 0, cache_misses = 0;
    double bus_beats = 0, mem_beats = 0;
    double burst_latency_sum = 0, burst_latency_n = 0;

    /** Add a repetition's stats: @p soc visited through Soc::accept,
     * @p registry through stats::Registry (for the CheckAccel groups),
     * @p devices through the DMA engines' groups. */
    void addStats(const StatTotals &soc, const StatTotals &registry,
                  const StatTotals &devices);

    double simCheckP99Cycles() const;
    double simBytesPerCycle() const;

    /** The sim, iopmp, bus, mem and devices per-layer counts. */
    void report(Values &out) const;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Repetitions whose counters are read (the first N of a run). */
    virtual unsigned countedReps() const = 0;

    /**
     * Run one repetition. @p counted repetitions also read the
     * simulated counters (after the timed ops, outside the timing)
     * into the workload's totals. @p spans is on for traced ones.
     */
    virtual RepResult rep(std::uint64_t seed, bool counted,
                          Spans &spans) = 0;

    /** End-to-end simulated metrics over the counted repetitions. */
    virtual double simCheckP99Cycles() const = 0;
    virtual double simBytesPerCycle() const = 0;

    /** Per-layer counts over the counted repetitions. */
    virtual void layerCounts(Values &out) const = 0;
};

/** Workload factories; @p inject names a self-test fault ("" = none). */
std::unique_ptr<Workload> makeChurn();
std::unique_ptr<Workload> makeSaturated(const std::string &inject);
std::unique_ptr<Workload> makeFuzz(const std::string &inject);

/** Nearest-rank percentile of @p v (sorted in place), pct in [0, 100]. */
double percentile(std::vector<double> &v, double pct);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
