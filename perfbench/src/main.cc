/**
 * @file
 * Benchmark entry point. Runs one workload for --seconds of repetitions
 * (never fewer than its counted repetitions) and prints, as the last
 * line of standard output, one JSON object with the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1). The line before it
 * records provenance and the counted repetitions' fingerprints.
 *
 *   perfbench --workload churn|soc_saturated16|fuzz --seed N
 *             --seconds S --trace 0|1 [--commit ID] [--out DIR]
 *             [--inject lock-bypass|outside-window]
 *
 * Host-time metrics are statistics over the repetitions of one run. The
 * traced run runs every repetition seed untraced and traced, so the
 * tracing overhead compares like with like, and writes every span to
 * DIR/<workload>-seed<N>-spans.csv at exit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

namespace perfbench {

namespace {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Options and provenance
// ---------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string out_dir;
    std::string inject;
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !value.empty();
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end && *end == '\0' && opt.seconds > 0.0;
        } else if (key == "--trace") {
            have_trace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (key == "--commit") {
            opt.commit = value;
        } else if (key == "--out") {
            opt.out_dir = value;
        } else if (key == "--inject") {
            opt.inject = value;
        } else {
            std::fprintf(stderr, "unknown option %s\n", key.c_str());
            return false;
        }
    }
    if (argc % 2 == 0) {
        std::fprintf(stderr, "option %s has no value\n", argv[argc - 1]);
        return false;
    }
    if (!have_seed || !have_seconds || !have_trace || opt.workload.empty()) {
        std::fprintf(stderr, "usage: perfbench --workload W --seed N "
                             "--seconds S --trace 0|1 [--commit ID] "
                             "[--out DIR] [--inject FAULT]\n");
        return false;
    }
    return true;
}

/** Why this build must not be timed, or nullptr. */
const char *
buildProblem()
{
#if !defined(__OPTIMIZE__)
    return "the benchmark was compiled without optimisation";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "the benchmark was compiled with a sanitizer";
#endif
    const std::string flags = PERFBENCH_CORE_FLAGS;
    if (flags.find("-fsanitize") != std::string::npos)
        return "siopmp_core was compiled with a sanitizer";
    // The last -O flag wins; none at all means -O0.
    std::string level = "0";
    for (auto pos = flags.find("-O"); pos != std::string::npos;
         pos = flags.find("-O", pos + 2)) {
        level = pos + 2 < flags.size() ? flags.substr(pos + 2, 1) : " ";
    }
    if (level == "0" || level == "g")
        return "siopmp_core was compiled without optimisation";
    return nullptr;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics every traced run reports, in output order. A
 * metric a workload does not exercise reads 0 (and its .n reads 0). */
struct LayerSpec {
    const char *name;
    const char *unit;
    bool timing; //!< expands to name, .tail, .tail_pct, .n
};

constexpr LayerSpec kLayerSpecs[] = {
    {"sim.host_share", "ratio", false},
    {"sim.ns_per_executed_cycle", "ns", true},
    {"sim.executed_cycle_ratio", "ratio", false},
    {"sim.active_components_mean", "count", false},
    {"soc.build_us", "us", true},
    {"fw.create_tee_us", "us", true},
    {"fw.map_us", "us", true},
    {"fw.unmap_us", "us", true},
    {"fw.destroy_tee_us", "us", true},
    {"fw.host_share", "ratio", false},
    {"fw.cold_switches_per_tee", "1/tee", false},
    {"fw.cam_evictions_per_tee", "1/tee", false},
    {"fw.cold_switch_p99_cycles", "cycles", false},
    {"iopmp.checks_per_kcycle", "1/kcycle", false},
    {"iopmp.useful_check_ratio", "ratio", false},
    {"iopmp.sid_miss_stalls_per_kcycle", "1/kcycle", false},
    {"iopmp.block_stalls_per_kcycle", "1/kcycle", false},
    {"iopmp.verdict_cache_hit_ratio", "ratio", false},
    {"iopmp.plan_compiles_per_case", "1/case", false},
    {"iopmp.authorize_ns", "ns", true},
    {"bus.beats_per_cycle", "beats/cycle", false},
    {"bus.block_windows_per_tee", "1/tee", false},
    {"bus.block_window_mean_cycles", "cycles", false},
    {"mem.beats_per_cycle", "beats/cycle", false},
    {"devices.burst_latency_mean_cycles", "cycles", false},
    {"devices.denied_bursts", "count", false},
    {"devices.start_us", "us", true},
    {"check.generate_us_per_case", "us", true},
    {"check.replay_us_per_case", "us", true},
    {"check.ops_per_case", "1/case", false},
    {"check.checks_per_case", "1/case", false},
    {"self.bench", "ratio", false},
    {"self.sim", "ratio", false},
    {"self.soc", "ratio", false},
    {"self.fw", "ratio", false},
    {"self.devices", "ratio", false},
    {"self.iopmp", "ratio", false},
    {"self.check", "ratio", false},
    {"trace.overhead", "ratio", false},
    {"trace.reps_traced", "count", false},
    {"counts.reps", "count", false},
};

/** Median, highest percentile with at least ten samples beyond it
 * (of 99.9, 99, 90, 50; 0 when there are fewer than 20 samples), and
 * sample count. */
void
timingMetrics(const LayerSpec &spec, std::vector<double> samples,
              std::vector<Metric> &out)
{
    const std::size_t n = samples.size();
    double pct = 0.0, tail = 0.0;
    for (double p : {99.9, 99.0, 90.0, 50.0}) {
        const double rank = std::ceil(p / 100.0 * n - 1e-9);
        if (static_cast<double>(n) - rank >= 10.0) {
            pct = p;
            tail = percentile(samples, p);
            break;
        }
    }
    const std::string name = spec.name;
    out.push_back({name, median(samples), spec.unit});
    out.push_back({name + ".tail", tail, spec.unit});
    out.push_back({name + ".tail_pct", pct, "%"});
    out.push_back({name + ".n", static_cast<double>(n), "count"});
}

/** One repetition as run: traced runs repeat each repetition seed
 * twice, once traced and once not, in alternating order. */
struct Record {
    RepResult result;
    std::uint32_t index = 0; //!< repetition index (seed derivation)
    bool traced = false;
    bool counted = false;
};

/** Per-layer metrics from the traced repetitions' spans and the
 * workload's counts. */
std::vector<Metric>
layerMetrics(const Workload &workload, const Spans &recorder,
             const std::vector<Record> &records)
{
    const std::vector<Span> &spans = recorder.all();
    std::map<std::string, std::vector<double>> timings;
    Values values;
    workload.layerCounts(values);
    for (const auto &[name, value] : values) {
        const bool known = std::any_of(
            std::begin(kLayerSpecs), std::end(kLayerSpecs),
            [&](const LayerSpec &s) { return name == s.name && !s.timing; });
        if (!known) {
            std::fprintf(stderr, "internal error: unknown metric %s\n",
                         name.c_str());
            std::exit(3);
        }
    }

    // Self time: a span's duration minus what its children cover.
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent != 0)
            child_ns[s.parent - 1] += recorder.durationNs(s);
    }
    std::map<std::string, double> self_ns;
    std::map<std::uint32_t, double> sim_ns_by_record;
    double rep_ns = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double dur = recorder.durationNs(s);
        self_ns[spanModule(s.name)] += std::max(0.0, dur - child_ns[i]);
        const double per_call = dur / s.calls;
        switch (s.name) {
          case SpanName::Rep: rep_ns += dur; break;
          case SpanName::SocBuild:
            timings["soc.build_us"].push_back(per_call / 1e3); break;
          case SpanName::FwCreateTee:
            timings["fw.create_tee_us"].push_back(per_call / 1e3); break;
          case SpanName::FwMap:
            timings["fw.map_us"].push_back(per_call / 1e3); break;
          case SpanName::FwUnmap:
            timings["fw.unmap_us"].push_back(per_call / 1e3); break;
          case SpanName::FwDestroyTee:
            timings["fw.destroy_tee_us"].push_back(per_call / 1e3); break;
          case SpanName::DevicesStart:
            timings["devices.start_us"].push_back(per_call / 1e3); break;
          case SpanName::SimStep:
          case SpanName::SimRun:
            sim_ns_by_record[s.rep] += dur; break;
          case SpanName::CheckGenerate:
            timings["check.generate_us_per_case"].push_back(per_call / 1e3);
            break;
          case SpanName::CheckReplay:
            timings["check.replay_us_per_case"].push_back(per_call / 1e3);
            break;
          case SpanName::IopmpAuthorize:
            timings["iopmp.authorize_ns"].push_back(per_call); break;
          case SpanName::Count: break;
        }
    }
    for (const auto &[record, ns] : sim_ns_by_record) {
        const std::uint64_t cycles = records[record].result.executed_cycles;
        if (cycles > 0)
            timings["sim.ns_per_executed_cycle"].push_back(
                ns / static_cast<double>(cycles));
    }
    const auto share = [&](const char *module) {
        return rep_ns > 0 ? self_ns[module] / rep_ns : 0.0;
    };
    values["sim.host_share"] = share("sim");
    values["fw.host_share"] = share("fw");
    for (const char *module :
         {"bench", "sim", "soc", "fw", "devices", "iopmp", "check"})
        values[std::string("self.") + module] = share(module);

    // Tracing overhead: each traced repetition against the untraced
    // run of the same seed next to it.
    std::vector<double> slowdown;
    for (std::size_t i = 0; i + 1 < records.size(); i += 2) {
        const RepResult &a = records[i].result, &b = records[i + 1].result;
        if (!a.timed || !b.timed || a.run_s <= 0 || b.run_s <= 0)
            continue;
        slowdown.push_back(records[i].traced ? a.run_s / b.run_s
                                             : b.run_s / a.run_s);
    }
    values["trace.overhead"] = slowdown.empty() ? 0.0 : median(slowdown) - 1;
    values["trace.reps_traced"] = static_cast<double>(
        std::count_if(records.begin(), records.end(),
                      [](const Record &r) { return r.traced; }));
    values["counts.reps"] = static_cast<double>(
        std::count_if(records.begin(), records.end(),
                      [](const Record &r) { return r.counted; }));

    std::vector<Metric> out;
    for (const LayerSpec &spec : kLayerSpecs) {
        if (spec.timing)
            timingMetrics(spec, timings[spec.name], out);
        else
            out.push_back({spec.name, values[spec.name], spec.unit});
    }
    return out;
}

/** Peak resident set of this process image. VmHWM, unlike
 * getrusage's ru_maxrss, does not carry over the peak of the process
 * that exec'd us. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * End-to-end metrics. ops_per_host_s is the rate 90% of the timed
 * repetitions reach (the 10th percentile of per-repetition rates, i.e.
 * the p90 of time per op): on a shared host whose speed alternates
 * between levels every few seconds, the median of a run flips between
 * the levels while this percentile stays on the slower one.
 */
std::vector<Metric>
endToEndMetrics(const Workload &workload, const std::vector<Record> &records)
{
    std::vector<double> rates, setups;
    for (const Record &record : records) {
        const RepResult &r = record.result;
        if (!r.timed || r.run_s <= 0)
            continue;
        rates.push_back(static_cast<double>(r.ops) / r.run_s);
        setups.push_back(r.setup_s);
    }
    return {
        {"ops_per_host_s", percentile(rates, 10.0), "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"sim_check_p99_cycles", workload.simCheckP99Cycles(), "cycles"},
        {"sim_bytes_per_cycle", workload.simBytesPerCycle(), "B/cycle"},
    };
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

/** Every span, one CSV line each; durations exclude the calibrated
 * clock overhead, starts are relative to the first span. */
void
writeSpans(const std::string &path, const Spans &recorder,
           const std::vector<Record> &records)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    const std::vector<Span> &spans = recorder.all();
    os << "# clock overhead subtracted: " << recorder.overheadNs() << " ns\n"
       << "span,parent,rep,name,start_ns,dur_ns,calls\n";
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << i + 1 << ',' << s.parent << ',' << records[s.rep].index << ','
           << spanName(s.name) << ',' << s.start_ns - t0 << ','
           << static_cast<std::int64_t>(recorder.durationNs(s)) << ','
           << s.calls << '\n';
    }
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> workload;
    if (opt.workload == "churn" && opt.inject.empty())
        workload = makeChurn();
    else if (opt.workload == "soc_saturated16" &&
             (opt.inject.empty() || opt.inject == "outside-window"))
        workload = makeSaturated(opt.inject);
    else if (opt.workload == "fuzz" &&
             (opt.inject.empty() || opt.inject == "lock-bypass"))
        workload = makeFuzz(opt.inject);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s' or fault '%s'\n",
                     opt.workload.c_str(), opt.inject.c_str());
        return 2;
    }

    // Every repetition runs a fresh system from a seed derived from
    // (--seed, repetition index); the counted ones come first, so a
    // run always completes them, however slow the host. A traced run
    // runs each seed untraced and traced, alternating which goes
    // first, and requires both to produce the same fingerprint.
    Spans spans;
    if (opt.trace)
        spans.calibrate();
    std::vector<Record> records;
    const unsigned counted = workload->countedReps();
    const std::int64_t t0 = nowNs();
    for (std::uint32_t i = 0;; ++i) {
        if (i >= counted && (nowNs() - t0) * 1e-9 >= opt.seconds)
            break;
        const std::uint64_t seed = deriveSeed(opt.seed, i);
        const int members = opt.trace ? 2 : 1;
        for (int m = 0; m < members; ++m) {
            Record record;
            record.index = i;
            record.traced = opt.trace && (m == 1) != (i % 2 == 1);
            record.counted = !record.traced && i < counted;
            spans.setOn(record.traced);
            spans.setRep(static_cast<std::uint32_t>(records.size()));
            {
                Scope root(spans, SpanName::Rep);
                record.result = workload->rep(seed, record.counted, spans);
            }
            records.push_back(std::move(record));
        }
        spans.setOn(false);
        if (members == 2) {
            RepResult &a = records[records.size() - 2].result;
            RepResult &b = records.back().result;
            if (a.fingerprint != b.fingerprint) {
                RepResult &traced = records.back().traced ? b : a;
                traced.failed = traced.ops;
                traced.failure = "tracing changed the simulated counters";
            }
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    std::string first_failure;
    for (const Record &record : records) {
        attempted += record.result.ops;
        failed += record.result.failed;
        if (first_failure.empty() && !record.result.failure.empty())
            first_failure = record.result.failure;
    }
    const std::vector<Metric> metrics =
        opt.trace ? layerMetrics(*workload, spans, records)
                  : endToEndMetrics(*workload, records);

    std::string fingerprints;
    for (const Record &record : records) {
        if (record.counted)
            fingerprints += (fingerprints.empty() ? "\"" : ", \"") +
                            hex(record.result.fingerprint) + "\"";
    }
    const auto timed =
        std::count_if(records.begin(), records.end(),
                      [](const Record &r) { return r.result.timed; });
    const std::string provenance =
        "{\"provenance\": {\"workload\": " + jsonString(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"seconds\": " + jsonNumber(opt.seconds) +
        ", \"trace\": " + (opt.trace ? "1" : "0") +
        ", \"inject\": " + jsonString(opt.inject) +
        ", \"commit\": " + jsonString(opt.commit) +
        ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
        ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
        ", \"core_flags\": " + jsonString(PERFBENCH_CORE_FLAGS) +
        ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"reps\": " + std::to_string(records.size()) +
        ", \"timed_reps\": " + std::to_string(timed) +
        ", \"counted_reps\": " + std::to_string(counted) +
        ", \"fingerprints\": [" + fingerprints + "]" +
        ", \"first_failure\": " + jsonString(first_failure) + "}}";
    const std::string result =
        std::string("{\"correct\": ") + (failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + metricsJson(metrics) + "}";

    if (!opt.out_dir.empty()) {
        const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed);
        std::ofstream os(stem + "-trace" + (opt.trace ? "1" : "0") +
                         ".json");
        os << "{\"provenance\": " << provenance << ",\n \"result\": "
           << result << ",\n \"reps\": [";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const RepResult &r = records[i].result;
            os << (i ? ",\n  " : "\n  ") << "{\"index\": " << records[i].index
               << ", \"setup_s\": " << jsonNumber(r.setup_s)
               << ", \"run_s\": " << jsonNumber(r.run_s)
               << ", \"ops\": " << r.ops << ", \"failed\": " << r.failed
               << ", \"executed_cycles\": " << r.executed_cycles
               << ", \"timed\": " << (r.timed ? "true" : "false")
               << ", \"traced\": " << (records[i].traced ? "true" : "false")
               << ", \"fingerprint\": \"" << hex(r.fingerprint) << "\"}";
        }
        os << "]}\n";
        if (opt.trace)
            writeSpans(stem + "-spans.csv", spans, records);
    }

    std::printf("%s\n%s\n", provenance.c_str(), result.c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    if (!perfbench::parseOptions(argc, argv, opt))
        return 2;
    if (const char *problem = perfbench::buildProblem()) {
        std::fprintf(stderr, "refusing to time this build: %s (flags: %s)\n",
                     problem, PERFBENCH_CORE_FLAGS);
        return 2;
    }
    return perfbench::run(opt);
}
