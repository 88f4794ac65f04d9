/**
 * @file
 * Shared pieces of the benchmark declared in bench.hh: span names and
 * recorder, the stats visitor, percentiles and the SoC counters.
 */

#include <algorithm>
#include <cmath>

#include "bench.hh"

namespace perfbench {

const char *
spanName(SpanName name)
{
    switch (name) {
      case SpanName::Rep: return "rep";
      case SpanName::SocBuild: return "soc.build";
      case SpanName::FwCreateTee: return "fw.create_tee";
      case SpanName::FwMap: return "fw.map";
      case SpanName::FwUnmap: return "fw.unmap";
      case SpanName::FwDestroyTee: return "fw.destroy_tee";
      case SpanName::DevicesStart: return "devices.start";
      case SpanName::SimStep: return "sim.step";
      case SpanName::SimRun: return "sim.run";
      case SpanName::CheckGenerate: return "check.generate";
      case SpanName::CheckReplay: return "check.replay";
      case SpanName::IopmpAuthorize: return "iopmp.authorize";
      case SpanName::Count: break;
    }
    return "?";
}

const char *
spanModule(SpanName name)
{
    switch (name) {
      case SpanName::Rep: return "bench";
      case SpanName::SocBuild: return "soc";
      case SpanName::FwCreateTee:
      case SpanName::FwMap:
      case SpanName::FwUnmap:
      case SpanName::FwDestroyTee: return "fw";
      case SpanName::DevicesStart: return "devices";
      case SpanName::SimStep:
      case SpanName::SimRun: return "sim";
      case SpanName::CheckGenerate:
      case SpanName::CheckReplay: return "check";
      case SpanName::IopmpAuthorize: return "iopmp";
      case SpanName::Count: break;
    }
    return "?";
}

std::uint32_t
Spans::begin(SpanName name, std::uint32_t calls)
{
    closeStretch();
    Span span;
    span.name = name;
    span.rep = rep_;
    span.calls = calls;
    span.parent = open_.empty() ? 0 : open_.back() + 1;
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    open_.push_back(index);
    spans_.back().start_ns = nowNs(); // last, so bookkeeping is outside
    return index;
}

void
Spans::end(std::uint32_t index)
{
    if (index != stretch_)
        closeStretch();
    const std::int64_t t = nowNs(); // first, likewise
    spans_[index].end_ns = t;
    open_.pop_back();
}

void
Spans::stretch(SpanName name)
{
    if (stretch_open_ && spans_[stretch_].name == name) {
        ++spans_[stretch_].calls;
        return;
    }
    stretch_ = begin(name);
    stretch_open_ = true;
}

void
Spans::closeStretch()
{
    if (!stretch_open_)
        return;
    stretch_open_ = false;
    end(stretch_);
}

void
Spans::calibrate()
{
    constexpr int kSamples = 4001;
    const bool was_on = on_;
    on_ = true;
    std::vector<double> empty;
    for (int i = 0; i < kSamples; ++i) {
        const std::uint32_t index = begin(SpanName::Rep);
        end(index);
        empty.push_back(
            static_cast<double>(spans_[index].end_ns - spans_[index].start_ns));
    }
    spans_.clear();
    on_ = was_on;
    overhead_ns_ = percentile(empty, 50.0);
}

bool
StatTotals::pass(const siopmp::stats::Group &group) const
{
    return !filter_ || filter_(group.name());
}

void
StatTotals::visitScalar(const siopmp::stats::Group &group,
                        const std::string &name,
                        const siopmp::stats::Scalar &s)
{
    if (pass(group))
        scalars_[name] += s.value();
}

void
StatTotals::visitAverage(const siopmp::stats::Group &group,
                         const std::string &name,
                         const siopmp::stats::Average &a)
{
    if (!pass(group))
        return;
    auto &[sum, count] = averages_[name];
    sum += a.sum();
    count += static_cast<double>(a.count());
}

void
StatTotals::visitDistribution(const siopmp::stats::Group &group,
                              const std::string &name,
                              const siopmp::stats::Distribution &d)
{
    if (pass(group) && d.count() > 0)
        p99_[name] = d.percentile(99.0);
}

double
StatTotals::scalar(const std::string &name) const
{
    const auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

double
StatTotals::averageSum(const std::string &name) const
{
    const auto it = averages_.find(name);
    return it == averages_.end() ? 0.0 : it->second.first;
}

double
StatTotals::averageCount(const std::string &name) const
{
    const auto it = averages_.find(name);
    return it == averages_.end() ? 0.0 : it->second.second;
}

double
StatTotals::p99(const std::string &name) const
{
    const auto it = p99_.find(name);
    return it == p99_.end() ? 0.0 : it->second;
}

double
percentile(std::vector<double> &v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(pct / 100.0 * v.size() - 1e-9);
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(index, v.size() - 1)];
}

void
SocTotals::addStats(const StatTotals &soc, const StatTotals &registry,
                    const StatTotals &devices)
{
    checks += soc.scalar("checks");
    allows += soc.scalar("allows");
    forwarded += soc.scalar("beats_forwarded");
    sid_miss_stalls += soc.scalar("sid_miss_stalls");
    block_stalls += soc.scalar("block_stalls");
    cache_hits += registry.scalar("check_cache_hits");
    cache_misses += registry.scalar("check_cache_misses");
    bus_beats += soc.scalar("a_beats") + soc.scalar("d_beats");
    mem_beats += soc.scalar("read_beats") + soc.scalar("write_beats");
    burst_latency_sum += devices.averageSum("burst_latency");
    burst_latency_n += devices.averageCount("burst_latency");
}

double
SocTotals::simCheckP99Cycles() const
{
    std::vector<double> copy = latencies;
    return percentile(copy, 99.0);
}

double
SocTotals::simBytesPerCycle() const
{
    return cycles > 0 ? bytes / cycles : 0.0;
}

void
SocTotals::report(Values &out) const
{
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out["sim.executed_cycle_ratio"] = 1.0 - ratio(skipped, run_cycles);
    out["sim.active_components_mean"] = ratio(active_sum, active_n);
    out["iopmp.checks_per_kcycle"] = 1000.0 * ratio(checks, cycles);
    out["iopmp.useful_check_ratio"] = ratio(forwarded, allows);
    out["iopmp.sid_miss_stalls_per_kcycle"] =
        1000.0 * ratio(sid_miss_stalls, cycles);
    out["iopmp.block_stalls_per_kcycle"] = 1000.0 * ratio(block_stalls, cycles);
    out["iopmp.verdict_cache_hit_ratio"] =
        ratio(cache_hits, cache_hits + cache_misses);
    out["bus.beats_per_cycle"] = ratio(bus_beats, cycles);
    out["mem.beats_per_cycle"] = ratio(mem_beats, cycles);
    out["devices.burst_latency_mean_cycles"] =
        ratio(burst_latency_sum, burst_latency_n);
    out["devices.denied_bursts"] = denied;
}

} // namespace perfbench
