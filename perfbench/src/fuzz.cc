/**
 * @file
 * fuzz: DifferentialFuzzer cases with the mutation-heavy
 * FuzzProfile::Churn op mix over the six checker kind/stage
 * combinations of the siopmp_fuzz campaign, in its dense and 128-SID
 * sizings. Cases are generated during set-up; one op is one replay():
 * a fresh DUT plus oracle, verdicts and read-backs cross-checked. A
 * divergence fails its op.
 *
 * There is no simulator loop and no bus, so the two sim_* metrics are
 * not measurements here. Every run must print every end-to-end metric,
 * so fuzz reports two constants of its inputs and configuration, which
 * no change to the program can move: sim_bytes_per_cycle is 8 bytes
 * (one 64-bit register access) times the share of non-check ops in the
 * generated cases, and sim_check_p99_cycles is the p99 over check ops
 * of the configured checker stage count.
 */

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hh"
#include "check/fuzzer.hh"

namespace perfbench {

namespace {

using namespace siopmp;

constexpr unsigned kCasesPerLeg = 32;
constexpr unsigned kOpsPerCase = 96;
constexpr unsigned kCountedReps = 8;

struct Combo {
    iopmp::CheckerKind kind;
    unsigned stages;
};

/** The siopmp_fuzz campaign's checker combinations. */
constexpr Combo kCombos[] = {
    {iopmp::CheckerKind::Linear, 1},
    {iopmp::CheckerKind::Tree, 1},
    {iopmp::CheckerKind::PipelineLinear, 2},
    {iopmp::CheckerKind::PipelineLinear, 4},
    {iopmp::CheckerKind::PipelineTree, 2},
    {iopmp::CheckerKind::PipelineTree, 4},
};

/** Dense and 128-SID sizings of every combination. */
std::vector<check::FuzzCaseConfig>
legConfigs()
{
    std::vector<check::FuzzCaseConfig> legs;
    for (const Combo &combo : kCombos) {
        check::FuzzCaseConfig dense;
        dense.num_entries = 24;
        dense.num_sids = 16;
        dense.num_mds = 8;
        dense.kind = combo.kind;
        dense.stages = combo.stages;
        dense.ops_per_case = kOpsPerCase;
        dense.profile = check::FuzzProfile::Churn;
        legs.push_back(dense);
        check::FuzzCaseConfig wide = dense;
        wide.num_sids = 128;
        wide.num_entries = 48;
        legs.push_back(wide);
    }
    return legs;
}

class Fuzz : public Workload
{
  public:
    explicit Fuzz(bool lock_bypass)
        : lock_bypass_(lock_bypass), legs_(legConfigs()) {}

    unsigned countedReps() const override { return kCountedReps; }
    RepResult rep(std::uint64_t seed, bool counted, Spans &spans) override;
    double simCheckP99Cycles() const override;
    double simBytesPerCycle() const override;
    void layerCounts(Values &out) const override;

  private:
    bool lock_bypass_;
    std::vector<check::FuzzCaseConfig> legs_;

    // Totals over the counted repetitions.
    std::vector<double> check_stages_;
    double cases_ = 0, ops_ = 0, mmio_bytes_ = 0;
    double dut_checks_ = 0, plan_compiles_ = 0;
    double cache_hits_ = 0, cache_misses_ = 0;
};

RepResult
Fuzz::rep(std::uint64_t seed, bool counted, Spans &spans)
{
    RepResult result;
    // Counted repetitions keep the DUTs' retired stats groups to read
    // their counters, which costs host time: they are not timed.
    result.timed = !counted;
    const std::int64_t t_setup = nowNs();

    std::vector<std::unique_ptr<check::DifferentialFuzzer>> fuzzers;
    std::vector<std::vector<check::FuzzOp>> cases;
    std::vector<unsigned> case_leg;
    for (std::size_t leg = 0; leg < legs_.size(); ++leg) {
        fuzzers.push_back(std::make_unique<check::DifferentialFuzzer>(
            legs_[leg], deriveSeed(seed, leg)));
        if (lock_bypass_) {
            check::FaultInjection injection =
                check::makeLockBypassInjection();
            fuzzers.back()->setDutWriteHook(std::move(injection.hook),
                                            std::move(injection.reset));
        }
        for (unsigned c = 0; c < kCasesPerLeg; ++c) {
            Scope span(spans, SpanName::CheckGenerate);
            cases.push_back(fuzzers.back()->generateCase(c));
            case_leg.push_back(static_cast<unsigned>(leg));
        }
    }

    stats::Registry &registry = stats::Registry::global();
    if (counted)
        registry.setRetainRetired(true);

    const std::int64_t t_run = nowNs();
    result.setup_s = static_cast<double>(t_run - t_setup) * 1e-9;

    std::vector<std::size_t> divergence_at(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        std::optional<check::Divergence> divergence;
        {
            Scope span(spans, SpanName::CheckReplay);
            divergence = fuzzers[case_leg[i]]->replay(cases[i]);
        }
        if (divergence) {
            divergence_at[i] = divergence->op_index;
            ++result.failed;
            if (result.failure.empty())
                result.failure = "divergence: " + divergence->detail;
        } else {
            divergence_at[i] = std::numeric_limits<std::size_t>::max();
        }
    }
    result.run_s = static_cast<double>(nowNs() - t_run) * 1e-9;
    result.ops = cases.size();

    Fnv fnv;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        std::uint64_t checks = 0;
        for (const check::FuzzOp &op : cases[i])
            checks += op.kind == check::FuzzOp::Kind::Check;
        fnv.mix(cases[i].size());
        fnv.mix(checks);
        fnv.mix(divergence_at[i]);
    }
    result.fingerprint = fnv.h;

    if (counted) {
        // The DUTs are gone; their snapshots are the retired groups.
        StatTotals dut_stats([](const std::string &group) {
            return group != "fuzz";
        });
        registry.accept(dut_stats);
        registry.setRetainRetired(false);
        registry.clearRetired();
        dut_checks_ += dut_stats.scalar("checks");
        plan_compiles_ += dut_stats.scalar("plan_compiles");
        cache_hits_ += dut_stats.scalar("check_cache_hits");
        cache_misses_ += dut_stats.scalar("check_cache_misses");
        for (std::size_t i = 0; i < cases.size(); ++i) {
            for (const check::FuzzOp &op : cases[i]) {
                if (op.kind == check::FuzzOp::Kind::Check)
                    check_stages_.push_back(legs_[case_leg[i]].stages);
                else
                    mmio_bytes_ += 8; // one 64-bit register access
            }
            ops_ += static_cast<double>(cases[i].size());
        }
        cases_ += static_cast<double>(cases.size());
    }
    return result;
}

double
Fuzz::simCheckP99Cycles() const
{
    std::vector<double> copy = check_stages_;
    return percentile(copy, 99.0);
}

double
Fuzz::simBytesPerCycle() const
{
    return ops_ > 0 ? mmio_bytes_ / ops_ : 0.0;
}

void
Fuzz::layerCounts(Values &out) const
{
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out["iopmp.plan_compiles_per_case"] = ratio(plan_compiles_, cases_);
    out["iopmp.verdict_cache_hit_ratio"] =
        ratio(cache_hits_, cache_hits_ + cache_misses_);
    out["check.ops_per_case"] = ratio(ops_, cases_);
    out["check.checks_per_case"] = ratio(dut_checks_, cases_);
}

} // namespace

std::unique_ptr<Workload>
makeFuzz(const std::string &inject)
{
    return std::make_unique<Fuzz>(inject == "lock-bypass");
}

} // namespace perfbench
