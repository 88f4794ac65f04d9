/**
 * @file
 * siopmp-cli: command-line driver for the simulator's experiment
 * runners. Lets a user poke at any configuration point without
 * writing code:
 *
 *   siopmp-cli latency   [--stages N] [--policy be|mask] [--write]
 *                        [--violating] [--bursts N]
 *   siopmp-cli bandwidth [--scenario rr|rw|ww] [--stages N]
 *                        [--outstanding N]
 *   siopmp-cli network   [--tx] [--cores N] [--packets N]
 *   siopmp-cli memcached [--qps N] [--scheme none|siopmp|strict]
 *   siopmp-cli hotcold   [--ratio N] [--mismatched] [--bursts N]
 *   siopmp-cli churn     [--tenants N] [--devices N] [--ports N]
 *                        [--arrival X] [--cold X] [--seed N]
 *   siopmp-cli freq      [--entries N] [--stages N] [--kind lin|tree]
 *                        [--arity N]
 *
 * Flags accepted by every command:
 *
 *   --trace-out FILE   write a Chrome trace-event JSON of the run
 *                      (load in Perfetto / chrome://tracing)
 *   --stats-json FILE  write every stats group the run touched as JSON
 *                      ("-" for stdout); see docs/OBSERVABILITY.md
 *
 * Every command prints a single result line plus the key parameters,
 * suitable for scripting sweeps. A flag the command does not read, a
 * flag value outside its list, or a number that is not a whole
 * non-negative integer (a non-negative real for --arrival and --cold;
 * at least 1 for latency's --stages and --bursts, bandwidth's --stages
 * and --outstanding, network's --cores, at most 64, and --packets,
 * hotcold's --ratio and --bursts, churn's --devices and --ports, and
 * freq's --entries and --stages; at least 2 for freq's --arity) exits
 * with status 2 and a message naming the flag (tools/args.hh).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "args.hh"
#include "iommu/iova.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "timing/frequency.hh"
#include "timing/resource.hh"
#include "workloads/churn.hh"
#include "workloads/hotcold.hh"
#include "workloads/memcached.hh"
#include "workloads/network.hh"
#include "workloads/traffic.hh"

using namespace siopmp;

namespace {

using tools::Args;

int
cmdLatency(const Args &args)
{
    wl::BurstLatencyConfig cfg;
    cfg.stages = static_cast<unsigned>(args.count("--stages", 2));
    cfg.policy = args.choice("--policy", "be", {"be", "mask"}) == "mask"
                     ? iopmp::ViolationPolicy::PacketMasking
                     : iopmp::ViolationPolicy::BusError;
    cfg.write = args.flag("--write");
    cfg.violating = args.flag("--violating");
    cfg.bursts = static_cast<unsigned>(args.count("--bursts", 64));
    const Cycle cycles = wl::runBurstLatency(cfg);
    std::printf("latency: %llu cycles (%u bursts, %u stages, %s, %s%s)\n",
                static_cast<unsigned long long>(cycles), cfg.bursts,
                cfg.stages, iopmp::violationPolicyName(cfg.policy),
                cfg.write ? "write" : "read",
                cfg.violating ? ", violating" : "");
    return 0;
}

int
cmdBandwidth(const Args &args)
{
    wl::BandwidthConfig cfg;
    const std::string scenario =
        args.choice("--scenario", "rr", {"rr", "rw", "ww"});
    cfg.scenario = scenario == "ww" ? wl::BandwidthScenario::WriteWrite
                   : scenario == "rw" ? wl::BandwidthScenario::ReadWrite
                                      : wl::BandwidthScenario::ReadRead;
    cfg.stages = static_cast<unsigned>(args.count("--stages", 2));
    cfg.max_outstanding =
        static_cast<unsigned>(args.count("--outstanding", 8));
    const double bpc = wl::runBandwidth(cfg);
    std::printf("bandwidth: %.2f bytes/cycle (%s, %u stages, %u "
                "outstanding)\n",
                bpc, scenario.c_str(), cfg.stages, cfg.max_outstanding);
    return 0;
}

int
cmdNetwork(const Args &args)
{
    wl::NetworkConfig cfg;
    cfg.rx = !args.flag("--tx");
    // The IOMMU's IOVA allocator keeps one magazine per CPU.
    cfg.cores = static_cast<unsigned>(
        args.count("--cores", 1, iommu::IovaAllocator::kMaxCpus));
    cfg.packets = static_cast<unsigned>(args.count("--packets", 10000));
    std::printf("network (%s, %u core%s):\n", cfg.rx ? "RX" : "TX",
                cfg.cores, cfg.cores == 1 ? "" : "s");
    for (const auto &result : wl::runNetworkSweep(cfg)) {
        std::printf("  %-16s %6.1f%%%s\n",
                    wl::protectionName(result.scheme),
                    result.throughput_pct,
                    result.attack_window ? "  [attack window OPEN]" : "");
    }
    return 0;
}

int
cmdMemcached(const Args &args)
{
    const double qps = static_cast<double>(args.number("--qps", 30000));
    const std::string scheme_name =
        args.choice("--scheme", "siopmp", {"none", "siopmp", "strict"});
    const wl::Protection scheme =
        scheme_name == "none" ? wl::Protection::None
        : scheme_name == "strict" ? wl::Protection::IommuStrict
                                  : wl::Protection::Siopmp;
    const auto point = wl::runMemcached(scheme, qps);
    std::printf("memcached @%0.f QPS (%s): p50=%.0fus p99=%.0fus "
                "achieved=%.0f\n",
                qps, scheme_name.c_str(), point.p50_us, point.p99_us,
                point.achieved_qps);
    return 0;
}

int
cmdHotCold(const Args &args)
{
    wl::HotColdConfig cfg;
    cfg.ratio = static_cast<unsigned>(args.count("--ratio", 100));
    cfg.matched = !args.flag("--mismatched");
    cfg.hot_bursts = static_cast<unsigned>(args.count("--bursts", 2000));
    const auto result = wl::runHotCold(cfg);
    std::printf("hotcold 1:%u (%s): hot throughput %.1f%%, %llu SID "
                "misses, switch cost %llu cycles\n",
                cfg.ratio, cfg.matched ? "matched" : "mismatched",
                result.hot_throughput_pct,
                static_cast<unsigned long long>(result.sid_misses),
                static_cast<unsigned long long>(wl::coldSwitchCost(8)));
    return 0;
}

int
cmdChurn(const Args &args)
{
    wl::ChurnConfig cfg;
    cfg.tenants = static_cast<unsigned>(args.number("--tenants", 400));
    cfg.devices = static_cast<unsigned>(args.count("--devices", 64));
    cfg.ports = static_cast<unsigned>(args.count("--ports", 4));
    cfg.seed = args.number("--seed", 1,
                           std::numeric_limits<std::uint64_t>::max());
    cfg.arrival_mean = args.real("--arrival", cfg.arrival_mean);
    cfg.cold_fraction = args.real("--cold", cfg.cold_fraction);
    const auto r = wl::runChurn(cfg);
    std::printf(
        "churn %llu/%llu tenants over %u devices in %llu cycles "
        "(%.0f TEE/s): check p50=%.0f p99=%.0f, cold-switch "
        "p50=%.0f p99=%.0f, %llu misses, %llu promotions, %llu "
        "evictions, %llu block windows (mean %.1f), fp=%016llx%s\n",
        static_cast<unsigned long long>(r.tenants_destroyed),
        static_cast<unsigned long long>(r.tenants_created),
        cfg.devices, static_cast<unsigned long long>(r.cycles),
        r.churn_per_sim_s, r.check_p50, r.check_p99, r.cold_switch_p50,
        r.cold_switch_p99, static_cast<unsigned long long>(r.sid_misses),
        static_cast<unsigned long long>(r.promotions),
        static_cast<unsigned long long>(r.cam_evictions),
        static_cast<unsigned long long>(r.block_windows),
        r.block_window_mean,
        static_cast<unsigned long long>(r.fingerprint),
        r.invariant_violations ? "  [INVARIANT VIOLATIONS]" : "");
    return r.invariant_violations == 0 ? 0 : 1;
}

int
cmdFreq(const Args &args)
{
    iopmp::CheckerGeometry geometry;
    geometry.entries = static_cast<unsigned>(args.count("--entries", 1024));
    geometry.stages = static_cast<unsigned>(args.count("--stages", 3));
    // A tree reduces by log(arity) per level: arity 1 never reduces.
    geometry.arity = static_cast<unsigned>(args.count(
        "--arity", 2, std::numeric_limits<unsigned>::max(), 2));
    const std::string kind = args.choice("--kind", "tree", {"lin", "tree"});
    geometry.kind = kind == "lin"
                        ? (geometry.stages > 1
                               ? iopmp::CheckerKind::PipelineLinear
                               : iopmp::CheckerKind::Linear)
                        : (geometry.stages > 1
                               ? iopmp::CheckerKind::PipelineTree
                               : iopmp::CheckerKind::Tree);
    const double mhz = timing::achievableFrequencyMhz(geometry);
    const auto usage = timing::estimateResources(geometry);
    std::printf("freq: %s @ %u entries, %u stages, arity %u -> ",
                kind.c_str(), geometry.entries, geometry.stages,
                geometry.arity);
    if (mhz <= 0.0)
        std::printf("FAILS timing; ");
    else
        std::printf("%.1f MHz; ", mhz);
    std::printf("%.2f%% LUT, %.2f%% FF\n", usage.lut_pct, usage.ff_pct);
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: siopmp-cli <latency|bandwidth|network|memcached|"
                 "hotcold|churn|freq> [flags]\n"
                 "       [--trace-out FILE] [--stats-json FILE|-]\n"
                 "run with a command and no flags for sane defaults; see "
                 "the file header for flags.\n");
}

/**
 * Observability plumbing around one command: installs a Chrome trace
 * sink for --trace-out, and turns on registry retention for
 * --stats-json so groups owned by Socs that die inside the workload
 * runner still appear in the dump.
 */
class Observability
{
  public:
    explicit Observability(const Args &args)
        : trace_path_(args.value("--trace-out", "")),
          stats_path_(args.value("--stats-json", ""))
    {
        if (!trace_path_.empty()) {
            trace_file_.open(trace_path_);
            if (!trace_file_) {
                std::fprintf(stderr, "cannot open %s\n",
                             trace_path_.c_str());
                std::exit(2);
            }
            trace_sink_ =
                std::make_unique<trace::ChromeTraceSink>(trace_file_);
            trace::tracer().setSink(trace_sink_.get());
        }
        if (!stats_path_.empty())
            stats::Registry::global().setRetainRetired(true);
    }

    ~Observability()
    {
        if (trace_sink_) {
            trace::tracer().setSink(nullptr);
            trace_sink_->flush();
            std::fprintf(stderr, "trace: %llu events -> %s\n",
                         static_cast<unsigned long long>(
                             trace_sink_->eventsWritten()),
                         trace_path_.c_str());
        }
        if (!stats_path_.empty()) {
            std::ofstream file;
            std::ostream *os = &std::cout;
            if (stats_path_ != "-") {
                file.open(stats_path_);
                if (!file) {
                    std::fprintf(stderr, "cannot open %s\n",
                                 stats_path_.c_str());
                    return;
                }
                os = &file;
            }
            stats::JsonStatsWriter writer(*os);
            stats::Registry::global().accept(writer);
            writer.finish();
        }
    }

  private:
    std::string trace_path_;
    std::string stats_path_;
    std::ofstream trace_file_;
    std::unique_ptr<trace::ChromeTraceSink> trace_sink_;
};

/** One command: its runner and the flags it reads (besides the
 * observability flags every command takes). */
struct Command {
    const char *name;
    int (*run)(const Args &);
    Args::Spec flags;
};

} // namespace

int
main(int argc, char **argv)
{
    const Command commands[] = {
        {"latency", cmdLatency,
         {{"--stages", "--policy", "--bursts"}, {"--write", "--violating"}}},
        {"bandwidth", cmdBandwidth,
         {{"--scenario", "--stages", "--outstanding"}, {}}},
        {"network", cmdNetwork, {{"--cores", "--packets"}, {"--tx"}}},
        {"memcached", cmdMemcached, {{"--qps", "--scheme"}, {}}},
        {"hotcold", cmdHotCold, {{"--ratio", "--bursts"}, {"--mismatched"}}},
        {"churn", cmdChurn,
         {{"--tenants", "--devices", "--ports", "--arrival", "--cold",
           "--seed"},
          {}}},
        {"freq", cmdFreq,
         {{"--entries", "--stages", "--arity", "--kind"}, {}}},
    };
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    for (const Command &command : commands) {
        if (cmd != command.name)
            continue;
        Args::Spec flags = command.flags;
        flags.valued.insert(flags.valued.end(),
                            {"--trace-out", "--stats-json"});
        const Args args("siopmp-cli " + cmd, argc - 2, argv + 2, flags);
        const Observability observability(args);
        return command.run(args);
    }
    usage();
    return 2;
}
