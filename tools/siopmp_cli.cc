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
 *   siopmp-cli memcached [--qps X] [--scheme none|siopmp|strict]
 *   siopmp-cli hotcold   [--ratio N] [--mismatched] [--bursts N]
 *   siopmp-cli churn     [--tenants N] [--devices N] [--ports N]
 *                        [--arrival X] [--cold X] [--seed N]
 *   siopmp-cli freq      [--entries N] [--stages N] [--kind lin|tree]
 *                        [--arity N]
 *
 * Flags accepted by every command:
 *
 *   --accel MODE       check-path acceleration mode for every sIOPMP
 *                      the command builds: off | plans | plans+cache
 *                      (default: CheckAccel::defaultMode(), i.e. the
 *                      SIOPMP_ACCEL_MODE env var or plans+cache)
 *   --trace-out FILE   write a Chrome trace-event JSON of the run
 *                      (load in Perfetto / chrome://tracing)
 *   --stats-json FILE  write every stats group the run touched as JSON
 *                      ("-" for stdout); see docs/OBSERVABILITY.md
 *
 * Every command prints a single result line plus the key parameters,
 * suitable for scripting sweeps.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "iopmp/accel.hh"
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

/** Tiny flag parser: --name value / --name (boolean). */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i)
            tokens_.emplace_back(argv[i]);
    }

    bool
    flag(const char *name) const
    {
        for (const auto &token : tokens_) {
            if (token == name)
                return true;
        }
        return false;
    }

    std::string
    value(const char *name, const std::string &fallback) const
    {
        for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
            if (tokens_[i] == name)
                return tokens_[i + 1];
        }
        return fallback;
    }

    long
    number(const char *name, long fallback) const
    {
        const std::string v = value(name, "");
        return v.empty() ? fallback : std::atol(v.c_str());
    }

  private:
    std::vector<std::string> tokens_;
};

int
cmdLatency(const Args &args)
{
    wl::BurstLatencyConfig cfg;
    cfg.stages = static_cast<unsigned>(args.number("--stages", 2));
    cfg.policy = args.value("--policy", "be") == "mask"
                     ? iopmp::ViolationPolicy::PacketMasking
                     : iopmp::ViolationPolicy::BusError;
    cfg.write = args.flag("--write");
    cfg.violating = args.flag("--violating");
    cfg.bursts = static_cast<unsigned>(args.number("--bursts", 64));
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
    const std::string scenario = args.value("--scenario", "rr");
    cfg.scenario = scenario == "ww" ? wl::BandwidthScenario::WriteWrite
                   : scenario == "rw" ? wl::BandwidthScenario::ReadWrite
                                      : wl::BandwidthScenario::ReadRead;
    cfg.stages = static_cast<unsigned>(args.number("--stages", 2));
    cfg.max_outstanding =
        static_cast<unsigned>(args.number("--outstanding", 8));
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
    cfg.cores = static_cast<unsigned>(args.number("--cores", 1));
    cfg.packets = static_cast<unsigned>(args.number("--packets", 10000));
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
    const std::string scheme_name = args.value("--scheme", "siopmp");
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
    cfg.ratio = static_cast<unsigned>(args.number("--ratio", 100));
    cfg.matched = !args.flag("--mismatched");
    cfg.hot_bursts =
        static_cast<unsigned>(args.number("--bursts", 2000));
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
    cfg.devices = static_cast<unsigned>(args.number("--devices", 64));
    cfg.ports = static_cast<unsigned>(args.number("--ports", 4));
    cfg.seed = static_cast<std::uint64_t>(args.number("--seed", 1));
    const std::string arrival = args.value("--arrival", "");
    if (!arrival.empty())
        cfg.arrival_mean = std::atof(arrival.c_str());
    const std::string cold = args.value("--cold", "");
    if (!cold.empty())
        cfg.cold_fraction = std::atof(cold.c_str());
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
    timing::CheckerGeometry geometry;
    geometry.entries = static_cast<unsigned>(args.number("--entries", 1024));
    geometry.stages = static_cast<unsigned>(args.number("--stages", 3));
    geometry.arity = static_cast<unsigned>(args.number("--arity", 2));
    const std::string kind = args.value("--kind", "tree");
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
                 "       [--accel off|plans|plans+cache]\n"
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const Args args(argc, argv);

    // Process-wide acceleration-mode selection: every Soc/SIopmp the
    // commands build below picks this up through makeChecker's
    // CheckAccel::defaultMode() resolution.
    const std::string accel = args.value("--accel", "");
    if (!accel.empty()) {
        iopmp::AccelMode mode;
        if (!iopmp::parseAccelMode(accel, &mode)) {
            std::fprintf(stderr, "unknown accel mode '%s'\n",
                         accel.c_str());
            return 2;
        }
        iopmp::CheckAccel::setDefaultMode(mode);
    }

    const Observability observability(args);
    if (cmd == "latency")
        return cmdLatency(args);
    if (cmd == "bandwidth")
        return cmdBandwidth(args);
    if (cmd == "network")
        return cmdNetwork(args);
    if (cmd == "memcached")
        return cmdMemcached(args);
    if (cmd == "hotcold")
        return cmdHotCold(args);
    if (cmd == "churn")
        return cmdChurn(args);
    if (cmd == "freq")
        return cmdFreq(args);
    usage();
    return 2;
}
