/**
 * @file
 * siopmp_fuzz: differential fuzzer driving random MMIO programming
 * and DMA check streams through SIopmp and the first-principles
 * reference oracle (src/check) in lockstep.
 *
 *   siopmp_fuzz [--cases N] [--wide-cases N] [--ops N] [--seed S]
 *               [--checker linear|tree|pipe-linear|pipe-tree|all]
 *               [--stages N] [--entries N] [--sids N] [--mds N]
 *               [--profile default|churn] [--jobs N]
 *               [--replay CASE] [--inject lock-bypass|block-hole|unbind-drop]
 *               [--trace-out FILE] [--stats-json FILE|-] [--verbose]
 *
 * Default campaign: for every checker kind and stage count (linear,
 * tree, pipe-linear x{2,4}, pipe-tree x{2,4}) run --cases seeded
 * cases on a small dense configuration and --wide-cases on a 128-SID
 * configuration (which exercises multi-word SID blocking). Each leg
 * draws its own seed from (--seed, its combo's index): the first combo
 * of each sizing keeps the sizing's seed (--seed, and --seed ^ 0x57ede
 * for the wide one), the others run op streams of their own. Any
 * divergence is minimized to the shortest op trace that still
 * reproduces, printed with its replay coordinates (the leg's seed
 * among them), and exits 1.
 *
 * --stages sets the stage count of the one kind --checker names
 * (default 1, or 2 for a pipelined kind). It is refused with
 * --checker all, whose legs set their own, and for a pair the
 * hardware could not build (iopmp::CheckerGeometry::validate: no
 * stages, or more than one on linear or tree).
 *
 * --jobs N shards the campaign legs over N worker threads. Every leg
 * is a pure function of (seed, config), so the sharding changes
 * nothing about which cases run — results and exit code are identical
 * to the single-threaded default; only wall-clock differs. Output is
 * buffered per leg and printed in deterministic leg order after the
 * workers join. Tracing (--trace-out) forces --jobs 1: the trace sink
 * serializes one event stream.
 *
 * Every kind decides by the unit's window walk (docs/PERFORMANCE.md);
 * the kind and stage count set only the DUT's checker geometry, so
 * what tells the legs apart is their op streams.
 *
 * --profile churn switches the op mix to continuous high-rate table
 * mutation interleaved with checks, so every check runs against
 * freshly moved tables.
 *
 *   --replay K  regenerate case K of the selected checker/sizing,
 *               print every op, and replay it (with trace emission if
 *               --trace-out is given)
 *   --inject X  deliberately re-introduce a historical bug in the DUT
 *               write path to prove the harness catches it (expects
 *               to exit 1 with a minimized trace)
 *
 * An unknown flag, a value outside its list or a count that is not a
 * whole non-negative number exits with status 2 and a message naming
 * the flag (tools/args.hh). See docs/FUZZING.md for the op grammar
 * and workflow.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "args.hh"
#include "check/fuzzer.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace siopmp;

namespace {

using tools::Args;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: siopmp_fuzz [--cases N] [--wide-cases N] [--ops N]\n"
        "                   [--seed S] [--checker linear|tree|"
        "pipe-linear|pipe-tree|all]\n"
        "                   [--stages N] [--entries N] [--sids N] "
        "[--mds N]\n"
        "                   [--profile default|churn] [--jobs N]\n"
        "                   [--replay CASE] [--inject "
        "lock-bypass|block-hole|unbind-drop]\n"
        "                   [--trace-out FILE] [--stats-json FILE|-] "
        "[--verbose]\n");
}

/** One (kind, stages) pair of the campaign. */
struct Combo {
    iopmp::CheckerKind kind;
    unsigned stages;
};

/**
 * The campaign's (kind, stages) pairs: the six of the default campaign
 * for --checker all, whose legs set their own stages, or the one kind
 * named, at --stages (default 1, or 2 for a pipelined kind). --stages
 * with --checker all, or a pair the hardware could not build
 * (iopmp::CheckerGeometry::validate), is refused.
 */
std::vector<Combo>
campaignCombos(const Args &args)
{
    using iopmp::CheckerKind;
    const std::string checker =
        args.choice("--checker", "all",
                    {"linear", "tree", "pipe-linear", "pipe-tree", "all"});
    if (checker == "all") {
        if (args.flag("--stages")) {
            args.reject("--stages", args.value("--stages", ""),
                        "accepted with --checker all, whose legs set "
                        "their own stages");
        }
        return {
            {CheckerKind::Linear, 1},
            {CheckerKind::Tree, 1},
            {CheckerKind::PipelineLinear, 2},
            {CheckerKind::PipelineLinear, 4},
            {CheckerKind::PipelineTree, 2},
            {CheckerKind::PipelineTree, 4},
        };
    }
    iopmp::CheckerGeometry geometry;
    geometry.kind = checker == "linear"        ? CheckerKind::Linear
                    : checker == "tree"        ? CheckerKind::Tree
                    : checker == "pipe-linear" ? CheckerKind::PipelineLinear
                                               : CheckerKind::PipelineTree;
    const bool pipelined = checker.rfind("pipe-", 0) == 0;
    geometry.stages =
        static_cast<unsigned>(args.number("--stages", pipelined ? 2 : 1));
    if (const char *error = geometry.validate()) {
        args.reject("--stages", args.value("--stages", ""),
                    "a stage count --checker " + checker +
                        " can build: " + error);
    }
    return {{geometry.kind, geometry.stages}};
}

/**
 * The seed of the leg that runs combo @p index in a sizing whose
 * campaign seed is @p seed. Combo 0 keeps @p seed; every other combo
 * draws its own from (seed, index), so no two legs replay one op
 * stream under different labels. A divergence's replay line prints
 * its leg's seed.
 */
std::uint64_t
legSeed(std::uint64_t seed, std::size_t index)
{
    return index == 0 ? seed : Rng(seed + index).next();
}

/** @p inject is empty or one of the --inject choices. */
void
installInjection(check::DifferentialFuzzer &fuzzer,
                 const std::string &inject)
{
    if (inject.empty())
        return;
    const check::FaultInjection injection =
        inject == "lock-bypass"  ? check::makeLockBypassInjection()
        : inject == "block-hole" ? check::makeBlockHoleInjection()
                                 : check::makeUnbindDropInjection();
    fuzzer.setDutWriteHook(injection.hook, injection.reset);
}

void
printFailure(const check::FuzzCaseConfig &cfg,
             const check::FuzzReport &report)
{
    std::printf("DIVERGENCE: %s\n", report.detail.c_str());
    std::printf("  checker=%s stages=%u entries=%u sids=%u mds=%u\n",
                iopmp::checkerKindName(cfg.kind), cfg.stages,
                cfg.num_entries, cfg.num_sids, cfg.num_mds);
    std::printf("  replay: --seed %llu --replay %u --checker %s "
                "--stages %u --entries %u --sids %u --mds %u --ops %u"
                "%s\n",
                static_cast<unsigned long long>(report.seed),
                report.case_index, iopmp::checkerKindName(cfg.kind),
                cfg.stages, cfg.num_entries, cfg.num_sids, cfg.num_mds,
                cfg.ops_per_case,
                cfg.profile == check::FuzzProfile::Churn
                    ? " --profile churn"
                    : "");
    std::printf("  minimized to %zu ops:\n", report.trace.size());
    for (std::size_t i = 0; i < report.trace.size(); ++i)
        std::printf("    [%2zu] %s\n", i, report.trace[i].toString().c_str());
}

/** One campaign leg: a fully specified (config, seed, cases) triple.
 * Legs are independent and deterministic, which is what makes the
 * --jobs sharding trivially sound. */
struct Leg {
    check::FuzzCaseConfig cfg;
    std::uint64_t seed = 0;
    unsigned cases = 0;
};

/**
 * Run the legs with @p jobs worker threads (1 = inline on the caller).
 * Workers claim legs off a shared atomic cursor; a divergence stops
 * further claims but in-flight legs finish. Nothing is printed from
 * workers — reports land in the returned vector, indexed like @p legs,
 * so the caller renders them in deterministic order. Legs never run
 * (claimed after a stop) report cases_run == 0.
 */
std::vector<check::FuzzReport>
runLegs(const std::vector<Leg> &legs, unsigned jobs,
        const std::string &inject)
{
    std::vector<check::FuzzReport> reports(legs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};

    auto worker = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= legs.size())
                return;
            const Leg &leg = legs[i];
            check::DifferentialFuzzer fuzzer(leg.cfg, leg.seed);
            installInjection(fuzzer, inject);
            reports[i] = fuzzer.run(leg.cases);
            if (reports[i].diverged)
                stop.store(true, std::memory_order_relaxed);
        }
    };

    if (jobs <= 1 || legs.size() <= 1) {
        worker();
        return reports;
    }

    // Workers warn concurrently through the process-wide Logger;
    // silence it for the parallel phase (replay() does the same for
    // the rejected-programming chatter anyway).
    const bool was_quiet = Logger::quiet();
    Logger::setQuiet(true);
    std::vector<std::thread> pool;
    const unsigned nworkers =
        std::min<std::size_t>(jobs, legs.size());
    pool.reserve(nworkers);
    for (unsigned t = 0; t < nworkers; ++t)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();
    Logger::setQuiet(was_quiet);
    return reports;
}

int
cmdReplay(const Args &args, const check::FuzzCaseConfig &cfg,
          std::uint64_t seed, const std::string &inject)
{
    check::DifferentialFuzzer fuzzer(cfg, seed);
    installInjection(fuzzer, inject);
    const unsigned case_index =
        static_cast<unsigned>(args.number("--replay", 0));
    const std::vector<check::FuzzOp> ops = fuzzer.generateCase(case_index);
    std::printf("case %u (%s, %u stages, seed %llu): %zu ops\n",
                case_index, iopmp::checkerKindName(cfg.kind), cfg.stages,
                static_cast<unsigned long long>(seed), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        std::printf("  [%3zu] %s\n", i, ops[i].toString().c_str());
    if (const auto div = fuzzer.replay(ops, /*emit_trace=*/true)) {
        std::printf("DIVERGENCE at op %zu: %s\n", div->op_index,
                    div->detail.c_str());
        return 1;
    }
    std::printf("replay clean\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args("siopmp_fuzz", argc - 1, argv + 1,
                    {{"--cases", "--wide-cases", "--ops", "--seed",
                      "--checker", "--stages", "--entries", "--sids",
                      "--mds", "--profile", "--jobs", "--replay",
                      "--inject", "--trace-out", "--stats-json"},
                     {"--verbose", "--help", "-h"}});
    if (args.flag("--help") || args.flag("-h")) {
        usage();
        return 2;
    }

    const std::uint64_t seed = args.number(
        "--seed", 1, std::numeric_limits<std::uint64_t>::max());
    const auto cases = static_cast<unsigned>(args.number("--cases", 10000));
    const auto wide_cases = static_cast<unsigned>(
        args.number("--wide-cases", cases / 5));
    const std::vector<Combo> combos = campaignCombos(args);
    const std::string inject =
        args.flag("--inject")
            ? args.choice("--inject", "",
                          {"lock-bypass", "block-hole", "unbind-drop"})
            : "";
    const bool verbose = args.flag("--verbose");
    auto jobs = std::max(1u, static_cast<unsigned>(args.number("--jobs", 1)));

    check::FuzzCaseConfig base;
    base.num_entries = static_cast<unsigned>(args.number("--entries", 24));
    base.num_sids = static_cast<unsigned>(args.number("--sids", 16));
    base.num_mds = static_cast<unsigned>(args.number("--mds", 8));
    base.ops_per_case = static_cast<unsigned>(args.number("--ops", 96));
    if (args.choice("--profile", "default", {"default", "churn"}) ==
        "churn")
        base.profile = check::FuzzProfile::Churn;

    // Observability plumbing (same conventions as siopmp-cli).
    const std::string trace_path = args.value("--trace-out", "");
    const std::string stats_path = args.value("--stats-json", "");
    std::ofstream trace_file;
    std::unique_ptr<trace::ChromeTraceSink> trace_sink;
    if (!trace_path.empty()) {
        trace_file.open(trace_path);
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
            return 2;
        }
        trace_sink = std::make_unique<trace::ChromeTraceSink>(trace_file);
        trace::tracer().setSink(trace_sink.get());
    }
    if (!stats_path.empty())
        stats::Registry::global().setRetainRetired(true);

    int rc = 0;
    if (args.flag("--replay")) {
        check::FuzzCaseConfig cfg = base;
        cfg.kind = combos[0].kind;
        cfg.stages = combos[0].stages;
        rc = cmdReplay(args, cfg, seed, inject);
    } else {
        // Wide profile: multi-word SID blocking, paper-scale SID count.
        check::FuzzCaseConfig wide = base;
        wide.num_sids = 128;
        wide.num_entries = base.num_entries * 2;

        std::vector<Leg> legs;
        for (std::size_t i = 0; i < combos.size(); ++i) {
            check::FuzzCaseConfig cfg = base;
            cfg.kind = combos[i].kind;
            cfg.stages = combos[i].stages;
            legs.push_back({cfg, legSeed(seed, i), cases});
            if (wide_cases > 0) {
                wide.kind = combos[i].kind;
                wide.stages = combos[i].stages;
                legs.push_back(
                    {wide, legSeed(seed ^ 0x57ede, i), wide_cases});
            }
        }

        if (trace_sink && jobs > 1) {
            std::fprintf(stderr,
                         "note: --trace-out serializes one event "
                         "stream; forcing --jobs 1\n");
            jobs = 1;
        }

        const std::vector<check::FuzzReport> reports =
            runLegs(legs, jobs, inject);

        // Render in leg order: the first (lowest-index) divergence is
        // reported, matching the single-threaded walk.
        std::uint64_t total_cases = 0, total_ops = 0, total_checks = 0;
        for (std::size_t i = 0; i < legs.size(); ++i) {
            const check::FuzzReport &report = reports[i];
            total_cases += report.cases_run;
            total_ops += report.ops_run;
            total_checks += report.checks_run;
            if (report.diverged) {
                printFailure(legs[i].cfg, report);
                rc = 1;
                break;
            }
            if (verbose && report.cases_run > 0) {
                std::printf(
                    "  ok: checker=%s stages=%u sids=%u: %llu cases, "
                    "%llu ops, %llu checks\n",
                    iopmp::checkerKindName(legs[i].cfg.kind),
                    legs[i].cfg.stages, legs[i].cfg.num_sids,
                    static_cast<unsigned long long>(report.cases_run),
                    static_cast<unsigned long long>(report.ops_run),
                    static_cast<unsigned long long>(report.checks_run));
            }
        }
        if (rc == 0) {
            std::printf("fuzz: clean — %llu cases (%llu ops, %llu "
                        "checks) across %zu legs, seed %llu, jobs %u\n",
                        static_cast<unsigned long long>(total_cases),
                        static_cast<unsigned long long>(total_ops),
                        static_cast<unsigned long long>(total_checks),
                        legs.size(),
                        static_cast<unsigned long long>(seed), jobs);
        }
    }

    if (trace_sink) {
        trace::tracer().setSink(nullptr);
        trace_sink->flush();
        std::fprintf(stderr, "trace: %llu events -> %s\n",
                     static_cast<unsigned long long>(
                         trace_sink->eventsWritten()),
                     trace_path.c_str());
    }
    if (!stats_path.empty()) {
        std::ofstream file;
        std::ostream *os = &std::cout;
        if (stats_path != "-") {
            file.open(stats_path);
            if (!file) {
                std::fprintf(stderr, "cannot open %s\n",
                             stats_path.c_str());
                return rc ? rc : 2;
            }
            os = &file;
        }
        stats::JsonStatsWriter writer(*os);
        stats::Registry::global().accept(writer);
        writer.finish();
    }
    return rc;
}
