/**
 * @file
 * Simulation-core microbenchmark: measures the host cost of simulated
 * time under the fast-forward scheduler vs the naive tick-everything
 * loop, in host seconds per simulated megacycle.
 *
 * Three workloads bracket the design space:
 *
 *  - idle-heavy: short DMA bursts separated by long quiet windows
 *    (the shape of interrupt-driven and latency-measuring experiments,
 *    e.g. Fig 17's cold-switch probes). Fast-forward collapses the
 *    gaps, so this is where the speedup target (>= 3x) applies.
 *  - saturated: two DMA engines with deep outstanding queues keep the
 *    fabric busy every cycle, so almost no cycle is skipped. The xbar
 *    takes about one beat per cycle, so the checker node that lost
 *    arbitration holds its head beat behind a full downlink, and its
 *    engine waits behind a full uplink: both park until the pop that
 *    frees a slot wakes them. The row measures what parking saves
 *    against the bookkeeping it costs.
 *  - saturated16: the same at 16 masters, in the shape of perfbench's
 *    soc_saturated16 (per-device checkers, half the engines reading
 *    and half writing 16 KiB with 8 outstanding bursts): 50 registered
 *    components, of which about four are awake in a cycle. The row
 *    measures how the loop's cost scales with registered components
 *    that sleep.
 *
 * Every workload is run in both modes, and their final cycle counts
 * and full stats dumps (every live stats group) are asserted equal — a
 * built-in differential check. Results go to BENCH_sim_core.json (path
 * overridable via argv), under a provenance header: the checkout's
 * commit ("+dirty" when tracked files differ from it, so a file
 * committed with its change names the parent), the CMake build type,
 * the compiler, the host's core count and iters.
 *
 * Usage: sim_core_micro [iters] [out.json]
 *   iters scales the workload length (default 40; run_bench.sh uses a
 *   small value for the smoke test).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "provenance.hh"
#include "sim/logging.hh"
#include "soc/soc.hh"

using namespace siopmp;

namespace {

constexpr Addr kDmaRegion = 0x8800'0000;
constexpr Addr kRegionSize = 0x0100'0000;
constexpr Cycle kIdleGap = 20'000;

struct Measurement {
    double host_seconds = 0;
    Cycle simulated = 0;
    Cycle skipped = 0;
    std::string stats; //!< every live stats group, after the run

    double
    secondsPerMegacycle() const
    {
        return simulated == 0
                   ? 0.0
                   : host_seconds / (static_cast<double>(simulated) / 1e6);
    }
};

struct Bench {
    soc::Soc soc;
    std::vector<std::unique_ptr<dev::DmaEngine>> dma;

    /** Engine i is device i + 1, bound to SID i, MD i and window i. */
    Bench(bool fast_forward, unsigned engines) : soc(cfg(engines))
    {
        soc.sim().setFastForward(fast_forward);
        for (unsigned i = 0; i < engines; ++i) {
            dma.push_back(std::make_unique<dev::DmaEngine>(
                "dma" + std::to_string(i), i + 1, soc.masterLink(i)));
            soc.add(dma.back().get());
        }

        auto &unit = soc.iopmp();
        const unsigned top = std::max(16u, 4 * engines);
        for (MdIndex md = 0; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, std::min(top, (md + 1) * 4));
        for (Sid sid = 0; sid < engines; ++sid) {
            unit.cam().set(sid, sid + 1);
            unit.src2md().associate(sid, sid);
            unit.entryTable().set(
                sid * 4, iopmp::Entry::range(kDmaRegion + sid * kRegionSize,
                                             kRegionSize, Perm::ReadWrite));
        }
    }

    static soc::SocConfig
    cfg(unsigned engines)
    {
        soc::SocConfig c;
        c.num_masters = engines;
        c.checker_kind = iopmp::CheckerKind::PipelineTree;
        c.checker_stages = 2;
        return c;
    }
};

Measurement
measure(Bench &bench, std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    Measurement m;
    m.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    m.simulated = bench.soc.sim().now();
    m.skipped = bench.soc.sim().idleCyclesSkipped();
    std::ostringstream os;
    stats::TextStatsWriter writer(os);
    stats::Registry::global().accept(writer);
    m.stats = os.str();
    return m;
}

dev::DmaJob
burstJob(unsigned engine, std::uint64_t bytes, unsigned outstanding)
{
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = kDmaRegion + engine * kRegionSize;
    job.bytes = bytes;
    job.max_outstanding = outstanding;
    return job;
}

Measurement
runIdleHeavy(bool fast_forward, unsigned iters)
{
    Bench bench(fast_forward, 2);
    dev::DmaEngine &dma0 = *bench.dma[0];
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        // A small burst of real traffic...
        dma0.start(burstJob(0, 512, 1), bench.soc.sim().now());
        bench.soc.sim().runUntil([&] { return dma0.done(); }, 100'000);
        // ...then a long quiet window (device idle, nothing in flight).
        bench.soc.sim().run(kIdleGap);
    }
    const auto t1 = std::chrono::steady_clock::now();

    return measure(bench, t0, t1);
}

Measurement
runSaturated(bool fast_forward, unsigned iters)
{
    Bench bench(fast_forward, 2);
    const Cycle budget = static_cast<Cycle>(iters) * 25'000;
    const auto t0 = std::chrono::steady_clock::now();
    while (bench.soc.sim().now() < budget) {
        // Keep both engines permanently busy with deep queues.
        for (unsigned i = 0; i < 2; ++i) {
            if (bench.dma[i]->done())
                bench.dma[i]->start(burstJob(i, 64 * 1024, 8),
                                    bench.soc.sim().now());
        }
        bench.soc.sim().run(1'000);
    }
    const auto t1 = std::chrono::steady_clock::now();

    return measure(bench, t0, t1);
}

Measurement
runSaturated16(bool fast_forward, unsigned iters)
{
    constexpr unsigned kEngines = 16;
    Bench bench(fast_forward, kEngines);
    const Cycle budget = static_cast<Cycle>(iters) * 25'000;
    const auto t0 = std::chrono::steady_clock::now();
    while (bench.soc.sim().now() < budget) {
        // Odd engines write their window, even ones read theirs.
        for (unsigned i = 0; i < kEngines; ++i) {
            if (!bench.dma[i]->done())
                continue;
            dev::DmaJob job = burstJob(i, 16 * 1024, 8);
            if (i % 2 == 1) {
                job.kind = dev::DmaKind::Write;
                job.dst = job.src;
            }
            bench.dma[i]->start(job, bench.soc.sim().now());
        }
        bench.soc.sim().run(1'000);
    }
    const auto t1 = std::chrono::steady_clock::now();

    return measure(bench, t0, t1);
}

void
emitWorkload(std::FILE *f, const char *name, const Measurement &ff,
             const Measurement &naive, bool last)
{
    const double speedup =
        ff.host_seconds > 0 ? naive.host_seconds / ff.host_seconds : 0.0;
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"simulated_cycles\": %llu,\n"
                 "    \"fast_forward_s_per_mcycle\": %.9f,\n"
                 "    \"naive_s_per_mcycle\": %.9f,\n"
                 "    \"idle_cycles_skipped\": %llu,\n"
                 "    \"speedup\": %.3f\n"
                 "  }%s\n",
                 name, static_cast<unsigned long long>(ff.simulated),
                 ff.secondsPerMegacycle(), naive.secondsPerMegacycle(),
                 static_cast<unsigned long long>(ff.skipped), speedup,
                 last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned iters =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 40;
    const std::string out_path =
        argc > 2 ? argv[2] : "BENCH_sim_core.json";

    std::printf("sim_core_micro: iters=%u\n", iters);

    const Measurement idle_ff = runIdleHeavy(true, iters);
    const Measurement idle_naive = runIdleHeavy(false, iters);
    SIOPMP_ASSERT(idle_ff.simulated == idle_naive.simulated,
                  "idle-heavy cycle counts diverged between modes");
    SIOPMP_ASSERT(idle_ff.stats == idle_naive.stats,
                  "idle-heavy stats dumps diverged between modes");
    SIOPMP_ASSERT(idle_naive.skipped == 0,
                  "naive mode must not skip cycles");

    const Measurement sat_ff = runSaturated(true, iters);
    const Measurement sat_naive = runSaturated(false, iters);
    SIOPMP_ASSERT(sat_ff.simulated == sat_naive.simulated,
                  "saturated cycle counts diverged between modes");
    SIOPMP_ASSERT(sat_ff.stats == sat_naive.stats,
                  "saturated stats dumps diverged between modes");

    const Measurement sat16_ff = runSaturated16(true, iters);
    const Measurement sat16_naive = runSaturated16(false, iters);
    SIOPMP_ASSERT(sat16_ff.simulated == sat16_naive.simulated,
                  "saturated16 cycle counts diverged between modes");
    SIOPMP_ASSERT(sat16_ff.stats == sat16_naive.stats,
                  "saturated16 stats dumps diverged between modes");

    std::printf("idle-heavy: %.3f s/Mcycle naive, %.3f s/Mcycle ff "
                "(%.1fx, %llu of %llu cycles skipped)\n",
                idle_naive.secondsPerMegacycle(),
                idle_ff.secondsPerMegacycle(),
                idle_ff.host_seconds > 0
                    ? idle_naive.host_seconds / idle_ff.host_seconds
                    : 0.0,
                static_cast<unsigned long long>(idle_ff.skipped),
                static_cast<unsigned long long>(idle_ff.simulated));
    std::printf("saturated:  %.3f s/Mcycle naive, %.3f s/Mcycle ff "
                "(%llu cycles skipped)\n",
                sat_naive.secondsPerMegacycle(),
                sat_ff.secondsPerMegacycle(),
                static_cast<unsigned long long>(sat_ff.skipped));
    std::printf("saturated16: %.3f s/Mcycle naive, %.3f s/Mcycle ff "
                "(%llu cycles skipped)\n",
                sat16_naive.secondsPerMegacycle(),
                sat16_ff.secondsPerMegacycle(),
                static_cast<unsigned long long>(sat16_ff.skipped));

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    bench::writeProvenance(f, "sim_core_micro");
    std::fprintf(f, "  \"iters\": %u,\n", iters);
    emitWorkload(f, "idle_heavy", idle_ff, idle_naive, false);
    emitWorkload(f, "saturated", sat_ff, sat_naive, false);
    emitWorkload(f, "saturated16", sat16_ff, sat16_naive, true);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
