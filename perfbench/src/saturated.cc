/**
 * @file
 * soc_saturated16: 16 DMA engines, one per master port of a SoC with
 * the default IopmpConfig and a pipelined tree checker x2. Each engine
 * is bound to its own SID and window at set-up; half stream reads and
 * half stream writes with deep outstanding queues, so every component
 * is busy every cycle. One op is one simulated cycle.
 *
 * Output checks: zero denies and zero bus errors, every job moves its
 * bytes, and sampled words of every write window read back the fill
 * pattern. A failed check fails every op of the repetition.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "devices/dma_engine.hh"
#include "sim/random.hh"
#include "soc/soc.hh"

namespace perfbench {

namespace {

using namespace siopmp;

constexpr unsigned kEngines = 16;
constexpr Addr kRegionBase = 0x8800'0000;
constexpr Addr kRegionSize = 0x0100'0000; //!< one window per engine
constexpr std::uint64_t kJobBytes = 16 * 1024;
constexpr unsigned kOutstanding = 8;
constexpr Cycle kChunk = 2'000;          //!< cycles per Simulator::run
constexpr Cycle kHorizon = 2'000'000;    //!< every job is done by then
constexpr unsigned kReadbackWords = 8;   //!< sampled per write window
constexpr unsigned kCountedReps = 32;
constexpr unsigned kAuthorizeBatch = 64; //!< calls per traced span
constexpr std::uint64_t kBurstBytes =
    static_cast<std::uint64_t>(bus::kBurstBeats) * bus::kBeatBytes;

struct EngineJob {
    DeviceId device = 0;
    dev::DmaJob job;
    Addr window = 0;
    std::vector<std::uint64_t> readback; //!< word offsets to verify
};

/** Per-engine jobs: which half writes, where in its window each job
 * lands and its fill pattern all come from the seed. */
std::vector<EngineJob>
makeJobs(std::uint64_t seed, bool outside_window)
{
    Rng rng(seed);
    std::vector<unsigned> order(kEngines);
    for (unsigned i = 0; i < kEngines; ++i)
        order[i] = i;
    for (unsigned i = kEngines - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);

    std::vector<EngineJob> jobs(kEngines);
    for (unsigned i = 0; i < kEngines; ++i) {
        EngineJob &e = jobs[i];
        e.device = static_cast<DeviceId>(i + 1);
        e.window = kRegionBase + i * kRegionSize;
        const Addr offset =
            rng.below((kRegionSize - kJobBytes) / 4096) * 4096;
        const bool write = order[i] < kEngines / 2;
        e.job.kind = write ? dev::DmaKind::Write : dev::DmaKind::Read;
        e.job.bytes = kJobBytes;
        e.job.max_outstanding = kOutstanding;
        e.job.fill_pattern = rng.next();
        (write ? e.job.dst : e.job.src) = e.window + offset;
        if (write) {
            for (unsigned w = 0; w < kReadbackWords; ++w)
                e.readback.push_back(rng.below(kJobBytes / 8));
        }
    }
    if (outside_window) {
        // Self-test: aim engine 0 below its window, where no entry of
        // its SID matches.
        Addr &base = jobs[0].job.kind == dev::DmaKind::Write
                         ? jobs[0].job.dst
                         : jobs[0].job.src;
        base = jobs[0].window - kRegionSize / 2;
    }
    return jobs;
}

/** Word @p w of a write job's stream, as DmaEngine fills it. */
std::uint64_t
expectedWord(const dev::DmaJob &job, std::uint64_t w)
{
    const std::uint64_t beats = bus::kBurstBeats;
    return job.fill_pattern + w / beats + w % beats;
}

class Saturated : public Workload
{
  public:
    explicit Saturated(bool outside_window)
        : outside_window_(outside_window) {}

    unsigned countedReps() const override { return kCountedReps; }
    RepResult rep(std::uint64_t seed, bool counted, Spans &spans) override;
    double
    simCheckP99Cycles() const override
    {
        return totals_.simCheckP99Cycles();
    }
    double
    simBytesPerCycle() const override
    {
        return totals_.simBytesPerCycle();
    }
    void layerCounts(Values &out) const override { totals_.report(out); }

  private:
    bool outside_window_;
    SocTotals totals_; //!< over the counted repetitions
};

RepResult
Saturated::rep(std::uint64_t seed, bool counted, Spans &spans)
{
    RepResult result;
    const std::int64_t t_setup = nowNs();

    const std::vector<EngineJob> jobs = makeJobs(seed, outside_window_);

    soc::SocConfig cfg;
    cfg.num_masters = kEngines;
    cfg.checker_kind = iopmp::CheckerKind::PipelineTree;
    cfg.checker_stages = 2;
    std::unique_ptr<soc::Soc> owned;
    {
        Scope span(spans, SpanName::SocBuild);
        owned = std::make_unique<soc::Soc>(cfg);
    }
    soc::Soc &soc = *owned;

    std::vector<std::unique_ptr<dev::DmaEngine>> engines;
    std::vector<std::vector<Cycle>> latencies(kEngines);
    std::vector<std::uint64_t> denied(kEngines, 0);
    for (unsigned i = 0; i < kEngines; ++i) {
        engines.push_back(std::make_unique<dev::DmaEngine>(
            "sat" + std::to_string(i), jobs[i].device, soc.masterLink(i)));
        soc.add(engines.back().get());
        engines.back()->setBurstObserver(
            [&latencies, &denied, i](Cycle latency, bool was_denied) {
                latencies[i].push_back(latency);
                if (was_denied)
                    ++denied[i];
            });
    }

    // Bind engine i to SID i, MD i and a 4-entry window whose first
    // entry covers its region.
    iopmp::SIopmp &unit = soc.iopmp();
    for (MdIndex md = 0; md < unit.config().num_mds; ++md)
        unit.mdcfg().setTop(md, std::min(4 * kEngines, (md + 1) * 4));
    for (unsigned i = 0; i < kEngines; ++i) {
        const Sid sid = static_cast<Sid>(i);
        unit.cam().set(sid, jobs[i].device);
        unit.src2md().associate(sid, i);
        unit.entryTable().set(
            i * 4, iopmp::Entry::range(jobs[i].window, kRegionSize,
                                       Perm::ReadWrite));
    }
    Simulator &sim = soc.sim();

    const std::int64_t t_run = nowNs();
    result.setup_s = static_cast<double>(t_run - t_setup) * 1e-9;

    for (unsigned i = 0; i < kEngines; ++i) {
        Scope span(spans, SpanName::DevicesStart);
        engines[i]->start(jobs[i].job, sim.now());
    }
    const auto allDone = [&] {
        for (const auto &engine : engines) {
            if (!engine->done())
                return false;
        }
        return true;
    };
    double active_sum = 0, active_n = 0;
    while (!allDone() && sim.now() < kHorizon) {
        {
            Scope span(spans, SpanName::SimRun);
            sim.run(kChunk);
        }
        active_sum += static_cast<double>(sim.activeComponents());
        ++active_n;
    }
    result.run_s = static_cast<double>(nowNs() - t_run) * 1e-9;

    Cycle cycles = 0;
    for (const auto &engine : engines)
        cycles = std::max(cycles, engine->completedAt());
    result.ops = cycles;
    result.executed_cycles = sim.now() - sim.idleCyclesSkipped();

    // Output checks (every repetition, outside the timing).
    StatTotals soc_stats;
    soc.accept(soc_stats);
    StatTotals all_stats; // error nodes and CheckAccel groups
    stats::Registry::global().accept(all_stats);
    std::uint64_t bytes = 0, denied_total = 0, mismatches = 0;
    unsigned unfinished = 0;
    Fnv fnv;
    for (unsigned i = 0; i < kEngines; ++i) {
        const dev::DmaEngine &engine = *engines[i];
        // Bytes of the bursts that completed without a deny.
        const std::uint64_t moved =
            (latencies[i].size() - denied[i]) * kBurstBytes;
        bytes += moved;
        denied_total += denied[i];
        if (!engine.done() || moved != kJobBytes)
            ++unfinished;
        const dev::DmaJob &job = jobs[i].job;
        for (std::uint64_t w : jobs[i].readback) {
            if (soc.memory().read64(job.dst + 8 * w) != expectedWord(job, w))
                ++mismatches;
        }
        fnv.mix(moved);
        fnv.mix(engine.completedAt());
        fnv.mix(latencies[i].size());
        for (Cycle latency : latencies[i])
            fnv.mix(latency);
    }
    const double denies = soc_stats.scalar("denies");
    const double bus_errors = all_stats.scalar("bus_errors");
    fnv.mix(cycles);
    fnv.mix(denied_total);
    fnv.mix(mismatches);
    fnv.mix(static_cast<std::uint64_t>(denies));
    fnv.mix(static_cast<std::uint64_t>(bus_errors));
    result.fingerprint = fnv.h;
    if (denies > 0 || bus_errors > 0 || denied_total > 0) {
        result.failure = std::to_string(static_cast<std::uint64_t>(denies)) +
                         " denies, " +
                         std::to_string(
                             static_cast<std::uint64_t>(bus_errors)) +
                         " bus errors";
    } else if (unfinished > 0) {
        result.failure =
            std::to_string(unfinished) + " jobs did not move their bytes";
    } else if (mismatches > 0) {
        result.failure = std::to_string(mismatches) +
                         " sampled write words differ from the fill pattern";
    }
    if (!result.failure.empty())
        result.failed = result.ops;

    if (counted) {
        StatTotals dev_stats;
        for (const auto &engine : engines)
            engine->statsGroup().accept(dev_stats);
        for (const auto &series : latencies) {
            for (Cycle latency : series)
                totals_.latencies.push_back(static_cast<double>(latency));
        }
        totals_.bytes += static_cast<double>(bytes);
        totals_.cycles += static_cast<double>(cycles);
        totals_.run_cycles += static_cast<double>(sim.now());
        totals_.skipped += static_cast<double>(sim.idleCyclesSkipped());
        totals_.active_sum += active_sum;
        totals_.active_n += active_n;
        totals_.denied += static_cast<double>(denied_total);
        totals_.addStats(soc_stats, all_stats, dev_stats);
    }

    if (spans.on()) {
        // Replay the repetition's request tuples through the unit's
        // authorization path, now that its stats have been read: reads
        // are checked per burst, writes per beat.
        struct Request {
            DeviceId device;
            Addr addr;
            Addr len;
            Perm perm;
        };
        std::vector<Request> requests;
        for (const EngineJob &e : jobs) {
            const bool write = e.job.kind == dev::DmaKind::Write;
            const Addr base = write ? e.job.dst : e.job.src;
            const std::uint64_t step = write ? bus::kBeatBytes : kBurstBytes;
            for (std::uint64_t off = 0; off < e.job.bytes; off += step)
                requests.push_back({e.device, base + off, step,
                                    write ? Perm::Write : Perm::Read});
        }
        std::size_t replayed = 0, allowed = 0;
        const Cycle now = sim.now();
        for (; replayed + kAuthorizeBatch <= requests.size();
             replayed += kAuthorizeBatch) {
            Scope span(spans, SpanName::IopmpAuthorize, kAuthorizeBatch);
            for (std::size_t j = replayed; j < replayed + kAuthorizeBatch;
                 ++j) {
                const Request &r = requests[j];
                allowed += unit.authorize(r.device, r.addr, r.len, r.perm,
                                          now)
                               .status == iopmp::AuthStatus::Allow;
            }
        }
        if (!outside_window_ && allowed != replayed &&
            result.failure.empty()) {
            result.failure = "authorize replay denied a request";
            result.failed = result.ops;
        }
    }
    return result;
}

} // namespace

std::unique_ptr<Workload>
makeSaturated(const std::string &inject)
{
    return std::make_unique<Saturated>(inject == "outside-window");
}

} // namespace perfbench
