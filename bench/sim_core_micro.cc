/**
 * @file
 * Simulation-core microbenchmark: measures the host cost of simulated
 * time under the fast-forward scheduler vs the naive tick-everything
 * loop, in host seconds per simulated megacycle.
 *
 * Two workloads bracket the design space:
 *
 *  - idle-heavy: short DMA bursts separated by long quiet windows
 *    (the shape of interrupt-driven and latency-measuring experiments,
 *    e.g. Fig 17's cold-switch probes). Fast-forward collapses the
 *    gaps, so this is where the speedup target (>= 3x) applies.
 *  - saturated: two DMA engines with deep outstanding queues keep the
 *    fabric busy every cycle, so there is nothing to skip and the
 *    measurement bounds the bookkeeping overhead (<= 5% target).
 *
 * Both workloads are run in both modes and their final cycle counts
 * are asserted equal — a built-in differential check. Results go to
 * BENCH_sim_core.json (path overridable via argv).
 *
 * Usage: sim_core_micro [iters] [out.json]
 *   iters scales the workload length (default 40; run_bench.sh uses a
 *   small value for the smoke test).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "devices/dma_engine.hh"
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
    dev::DmaEngine dma0;
    dev::DmaEngine dma1;

    explicit Bench(bool fast_forward)
        : soc(cfg()),
          dma0("dma0", 1, soc.masterLink(0)),
          dma1("dma1", 2, soc.masterLink(1))
    {
        soc.sim().setFastForward(fast_forward);
        soc.add(&dma0);
        soc.add(&dma1);

        auto &unit = soc.iopmp();
        for (MdIndex md = 0; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, std::min(16u, (md + 1) * 4));
        for (Sid sid = 0; sid < 2; ++sid) {
            unit.cam().set(sid, sid + 1);
            unit.src2md().associate(sid, sid);
            unit.entryTable().set(
                sid * 4, iopmp::Entry::range(kDmaRegion + sid * kRegionSize,
                                             kRegionSize, Perm::ReadWrite));
        }
    }

    static soc::SocConfig
    cfg()
    {
        soc::SocConfig c;
        c.num_masters = 2;
        c.checker_kind = iopmp::CheckerKind::PipelineTree;
        c.checker_stages = 2;
        return c;
    }
};

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
    Bench bench(fast_forward);
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        // A small burst of real traffic...
        bench.dma0.start(burstJob(0, 512, 1), bench.soc.sim().now());
        bench.soc.sim().runUntil([&] { return bench.dma0.done(); },
                                 100'000);
        // ...then a long quiet window (device idle, nothing in flight).
        bench.soc.sim().run(kIdleGap);
    }
    const auto t1 = std::chrono::steady_clock::now();

    Measurement m;
    m.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    m.simulated = bench.soc.sim().now();
    m.skipped = bench.soc.sim().idleCyclesSkipped();
    return m;
}

Measurement
runSaturated(bool fast_forward, unsigned iters)
{
    Bench bench(fast_forward);
    const Cycle budget = static_cast<Cycle>(iters) * 25'000;
    const auto t0 = std::chrono::steady_clock::now();
    while (bench.soc.sim().now() < budget) {
        // Keep both engines permanently busy with deep queues.
        if (bench.dma0.done())
            bench.dma0.start(burstJob(0, 64 * 1024, 8),
                             bench.soc.sim().now());
        if (bench.dma1.done())
            bench.dma1.start(burstJob(1, 64 * 1024, 8),
                             bench.soc.sim().now());
        bench.soc.sim().run(1'000);
    }
    const auto t1 = std::chrono::steady_clock::now();

    Measurement m;
    m.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    m.simulated = bench.soc.sim().now();
    m.skipped = bench.soc.sim().idleCyclesSkipped();
    return m;
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
    SIOPMP_ASSERT(idle_naive.skipped == 0,
                  "naive mode must not skip cycles");

    const Measurement sat_ff = runSaturated(true, iters);
    const Measurement sat_naive = runSaturated(false, iters);
    SIOPMP_ASSERT(sat_ff.simulated == sat_naive.simulated,
                  "saturated cycle counts diverged between modes");

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

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"sim_core_micro\",\n"
                    "  \"iters\": %u,\n", iters);
    emitWorkload(f, "idle_heavy", idle_ff, idle_naive, false);
    emitWorkload(f, "saturated", sat_ff, sat_naive, true);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
