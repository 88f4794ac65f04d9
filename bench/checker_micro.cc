/**
 * @file
 * Google-benchmark microbenchmarks of the host-side cost of the
 * checker logic itself (functional model speed, not simulated cycles).
 * Useful for keeping the simulator fast: the checker runs on every
 * simulated DMA beat, so its host cost bounds simulation throughput.
 *
 * Two modes:
 *
 *  - default: the classic google-benchmark BM_* suite over the bare
 *    checker walks (makeChecker attaches nothing), which guard the
 *    baseline walk cost;
 *  - `--json OUT [--checks N]`: emit BENCH_checker.json — a saturated
 *    128-SID check stream replayed against every checker kind x entry
 *    count x {path walk: the kind's walk, path windows: the window
 *    walk an SIopmp authorizes by (matchWindows)}, reporting ns/check,
 *    simulated seconds per million cycles (one check per simulated
 *    beat cycle) and the windows/walk speedup; plus a "churn" series
 *    where the entry table is rewritten every N checks (mutation:check
 *    ratios 1:10, 1:100, 1:1000) under sparse per-SID MD bitmaps, the
 *    realistic sharing shape. The file opens with the provenance
 *    header of provenance.hh and the run size ("checks_per_config").
 *    Schema is validated by tools/run_bench.sh and documented in
 *    docs/PERFORMANCE.md.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "iopmp/checker.hh"
#include "provenance.hh"
#include "sim/random.hh"

using namespace siopmp;
using namespace siopmp::iopmp;

namespace {

struct Fixture {
    explicit Fixture(unsigned n) : entries(n), mdcfg(63, n)
    {
        Rng rng(1);
        for (MdIndex md = 0; md < 63; ++md)
            mdcfg.setTop(md, (md + 1) * n / 63);
        for (unsigned i = 0; i < n; ++i) {
            entries.set(i, Entry::range(rng.below(1 << 20) * 8,
                                        (1 + rng.below(256)) * 8,
                                        Perm::ReadWrite));
        }
    }

    EntryTable entries;
    MdCfgTable mdcfg;
};

template <typename MakeChecker>
void
runCheck(benchmark::State &state, MakeChecker make)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    Fixture fixture(n);
    auto checker = make(fixture);
    Rng rng(2);
    for (auto _ : state) {
        CheckRequest req;
        req.addr = rng.below(1 << 23);
        req.len = 64;
        req.perm = Perm::Read;
        req.md_bitmap = ~std::uint64_t{0} >> 1;
        benchmark::DoNotOptimize(checker->check(req));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_LinearChecker(benchmark::State &state)
{
    runCheck(state, [](Fixture &f) {
        return makeChecker(CheckerKind::Linear, 1, f.entries, f.mdcfg);
    });
}

void
BM_TreeChecker(benchmark::State &state)
{
    runCheck(state, [](Fixture &f) {
        return makeChecker(CheckerKind::Tree, 1, f.entries, f.mdcfg);
    });
}

void
BM_MtChecker3Stage(benchmark::State &state)
{
    runCheck(state, [](Fixture &f) {
        return makeChecker(CheckerKind::PipelineTree, 3, f.entries,
                           f.mdcfg);
    });
}

// ---- BENCH_checker.json mode --------------------------------------------

/**
 * Saturated check stream at paper scale: 128 SIDs, each with its own
 * MD bitmap, issuing bursts over a bounded per-SID address pool (DMA
 * streams revisit their buffers). The stream is a pure function of
 * the seed, so the walk and window runs replay identical requests.
 */
struct SidStream {
    static constexpr unsigned kSids = 128;
    static constexpr unsigned kAddrsPerSid = 16;

    explicit SidStream(std::uint64_t seed)
    {
        Rng rng(seed);
        bitmaps.reserve(kSids);
        addrs.reserve(kSids * kAddrsPerSid);
        for (unsigned s = 0; s < kSids; ++s) {
            // Dense-ish domains: roughly half of the 63 MDs each.
            bitmaps.push_back(rng.next() & (~std::uint64_t{0} >> 1));
            for (unsigned a = 0; a < kAddrsPerSid; ++a)
                addrs.push_back(rng.below(1 << 23) & ~Addr{7});
        }
    }

    CheckRequest
    request(std::uint64_t i) const
    {
        const unsigned sid = static_cast<unsigned>(i % kSids);
        CheckRequest req;
        req.addr = addrs[sid * kAddrsPerSid +
                         static_cast<unsigned>((i / kSids) % kAddrsPerSid)];
        req.len = 64;
        req.perm = Perm::Read;
        req.md_bitmap = bitmaps[sid];
        return req;
    }

    std::vector<std::uint64_t> bitmaps;
    std::vector<Addr> addrs;
};

/** Measured cost of one configuration leg. */
struct LegResult {
    double ns_per_check = 0.0;
};

/**
 * One leg's check path over @p fixture's tables: the kind's bare walk
 * (path walk), or the window walk an SIopmp authorizes by (path
 * windows).
 */
class CheckPath
{
  public:
    CheckPath(CheckerKind kind, unsigned stages, const Fixture &fixture,
              bool windows)
        : fixture_(fixture),
          walk_(makeChecker(kind, stages, fixture.entries, fixture.mdcfg)),
          windows_(windows)
    {
    }

    CheckResult
    check(const CheckRequest &req) const
    {
        return windows_
                   ? matchWindows(fixture_.entries, fixture_.mdcfg, req)
                   : walk_->check(req);
    }

  private:
    const Fixture &fixture_;
    std::unique_ptr<CheckerLogic> walk_;
    bool windows_;
};

LegResult
runLeg(CheckerKind kind, unsigned stages, unsigned num_entries,
       bool windows, std::uint64_t checks)
{
    Fixture fixture(num_entries);
    const CheckPath path(kind, stages, fixture, windows);
    const SidStream stream(3);

    // Warm-up: page in the tables.
    const std::uint64_t warmup = checks / 8 + 1;
    for (std::uint64_t i = 0; i < warmup; ++i)
        benchmark::DoNotOptimize(path.check(stream.request(i)));

    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < checks; ++i)
        benchmark::DoNotOptimize(path.check(stream.request(i)));
    const auto stop = std::chrono::steady_clock::now();

    LegResult result;
    result.ns_per_check =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(checks);
    return result;
}

/**
 * Churn-workload stream: like SidStream, but each SID's MD bitmap is
 * sparse (2-3 of the 63 MDs). That is the realistic sharing shape: a
 * device sees a few domains, not half the machine.
 */
struct ChurnStream {
    static constexpr unsigned kSids = 128;
    static constexpr unsigned kAddrsPerSid = 16;

    explicit ChurnStream(std::uint64_t seed)
    {
        Rng rng(seed);
        bitmaps.reserve(kSids);
        addrs.reserve(kSids * kAddrsPerSid);
        for (unsigned s = 0; s < kSids; ++s) {
            std::uint64_t bitmap = 0;
            const unsigned nmds = 2 + static_cast<unsigned>(rng.below(2));
            for (unsigned k = 0; k < nmds; ++k)
                bitmap |= std::uint64_t{1} << rng.below(63);
            bitmaps.push_back(bitmap);
            for (unsigned a = 0; a < kAddrsPerSid; ++a)
                addrs.push_back(rng.below(1 << 23) & ~Addr{7});
        }
    }

    CheckRequest
    request(std::uint64_t i) const
    {
        const unsigned sid = static_cast<unsigned>(i % kSids);
        CheckRequest req;
        req.addr = addrs[sid * kAddrsPerSid +
                         static_cast<unsigned>((i / kSids) % kAddrsPerSid)];
        req.len = 64;
        req.perm = Perm::Read;
        req.md_bitmap = bitmaps[sid];
        return req;
    }

    std::vector<std::uint64_t> bitmaps;
    std::vector<Addr> addrs;
};

/**
 * Churn leg: the check stream interleaved with an entry rewrite every
 * @p ratio checks (the monitor reprogramming rules under live
 * traffic). The mutation stream is identical for the kind's walk and
 * the window walk, so both replay the same work.
 */
LegResult
runChurnLeg(CheckerKind kind, unsigned stages, unsigned num_entries,
            bool windows, std::uint64_t checks, std::uint64_t ratio)
{
    Fixture fixture(num_entries);
    const CheckPath path(kind, stages, fixture, windows);
    const ChurnStream stream(7);
    Rng mutate_rng(11);

    auto mutate = [&] {
        const unsigned idx =
            static_cast<unsigned>(mutate_rng.below(num_entries));
        fixture.entries.set(idx,
                            Entry::range(mutate_rng.below(1 << 20) * 8,
                                         (1 + mutate_rng.below(256)) * 8,
                                         Perm::ReadWrite),
                            /*machine_mode=*/true);
    };

    const std::uint64_t warmup = checks / 8 + 1;
    for (std::uint64_t i = 0; i < warmup; ++i) {
        if (i % ratio == ratio - 1)
            mutate();
        benchmark::DoNotOptimize(path.check(stream.request(i)));
    }

    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < checks; ++i) {
        if (i % ratio == ratio - 1)
            mutate();
        benchmark::DoNotOptimize(path.check(stream.request(i)));
    }
    const auto stop = std::chrono::steady_clock::now();

    LegResult result;
    result.ns_per_check =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(checks);
    return result;
}

int
jsonMain(const char *path, std::uint64_t checks)
{
    struct KindSpec {
        const char *name;
        CheckerKind kind;
        unsigned stages;
    };
    static constexpr KindSpec kKinds[] = {
        {"linear", CheckerKind::Linear, 1},
        {"tree", CheckerKind::Tree, 1},
        {"mt3", CheckerKind::PipelineTree, 3},
    };
    static constexpr unsigned kEntryCounts[] = {64, 256, 1024};

    std::FILE *out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 2;
    }

    // One simulated DMA beat per simulated cycle at saturation, so
    // seconds-per-million-simulated-cycles == ns_per_check / 1000.
    bench::writeProvenance(out, "checker_micro");
    std::fprintf(out,
                 "  \"checks_per_config\": %llu,\n"
                 "  \"num_sids\": %u,\n"
                 "  \"num_mds\": 63,\n"
                 "  \"configs\": [\n",
                 static_cast<unsigned long long>(checks),
                 SidStream::kSids);

    bool first = true;
    for (const KindSpec &spec : kKinds) {
        for (unsigned n : kEntryCounts) {
            const LegResult walk =
                runLeg(spec.kind, spec.stages, n, false, checks);
            const LegResult windowed =
                runLeg(spec.kind, spec.stages, n, true, checks);
            const double speedup =
                windowed.ns_per_check > 0.0
                    ? walk.ns_per_check / windowed.ns_per_check
                    : 0.0;
            for (int windows = 0; windows < 2; ++windows) {
                const LegResult &leg = windows ? windowed : walk;
                std::fprintf(
                    out,
                    "%s    {\"kind\": \"%s\", \"entries\": %u, "
                    "\"path\": \"%s\", \"ns_per_check\": %.3f, "
                    "\"s_per_mcycle\": %.6f, \"speedup\": %.3f}",
                    first ? "" : ",\n", spec.name, n,
                    windows ? "windows" : "walk", leg.ns_per_check,
                    leg.ns_per_check / 1000.0 * 1e-3,
                    windows ? speedup : 1.0);
                first = false;
            }
            std::fprintf(stderr,
                         "checker_micro: %s entries=%u walk=%.1fns "
                         "windows=%.1fns speedup=%.2fx\n",
                         spec.name, n, walk.ns_per_check,
                         windowed.ns_per_check, speedup);
        }
    }
    std::fprintf(out, "\n  ],\n  \"churn\": [\n");

    // Churn series: 1024-entry tables, sparse MD bitmaps, mutation
    // every {10, 100, 1000} checks. The 1:100 point is the headline
    // ratio gated by tools/run_bench.sh.
    static constexpr std::uint64_t kRatios[] = {10, 100, 1000};
    first = true;
    for (const KindSpec &spec : kKinds) {
        for (std::uint64_t ratio : kRatios) {
            const LegResult walk =
                runChurnLeg(spec.kind, spec.stages, 1024, false, checks,
                            ratio);
            const LegResult windowed =
                runChurnLeg(spec.kind, spec.stages, 1024, true, checks,
                            ratio);
            const double speedup =
                windowed.ns_per_check > 0.0
                    ? walk.ns_per_check / windowed.ns_per_check
                    : 0.0;
            for (int windows = 0; windows < 2; ++windows) {
                const LegResult &leg = windows ? windowed : walk;
                std::fprintf(
                    out,
                    "%s    {\"kind\": \"%s\", \"entries\": 1024, "
                    "\"ratio\": %llu, \"path\": \"%s\", "
                    "\"ns_per_check\": %.3f, \"speedup\": %.3f}",
                    first ? "" : ",\n", spec.name,
                    static_cast<unsigned long long>(ratio),
                    windows ? "windows" : "walk", leg.ns_per_check,
                    windows ? speedup : 1.0);
                first = false;
            }
            std::fprintf(stderr,
                         "checker_micro: churn %s ratio=1:%llu "
                         "walk=%.1fns windows=%.1fns speedup=%.2fx\n",
                         spec.name,
                         static_cast<unsigned long long>(ratio),
                         walk.ns_per_check, windowed.ns_per_check, speedup);
        }
    }

    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    return 0;
}

} // namespace

BENCHMARK(BM_LinearChecker)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_TreeChecker)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_MtChecker3Stage)->Arg(64)->Arg(256)->Arg(1024);

int
main(int argc, char **argv)
{
    const char *json_out = nullptr;
    std::uint64_t checks = 400000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_out = argv[++i];
        else if (std::strcmp(argv[i], "--checks") == 0 && i + 1 < argc)
            checks = std::strtoull(argv[++i], nullptr, 10);
    }
    if (json_out != nullptr)
        return jsonMain(json_out, checks);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
