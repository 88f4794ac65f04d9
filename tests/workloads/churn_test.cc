/**
 * @file
 * Tenant-churn workload smoke + regression tests: the fleet scenario
 * completes, sustains the required churn rate, leaves no post-destroy
 * residue, is deterministic per seed and bit-identical without
 * fast-forward — and the concurrent-cold-miss case that
 * livelocked the pre-fix checker (batched SID-missing interrupts, the
 * second mount evicting the first) makes progress.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "workloads/churn.hh"

namespace siopmp {
namespace wl {
namespace {

ChurnConfig
smallConfig()
{
    ChurnConfig cfg;
    cfg.tenants = 60;
    cfg.arrival_mean = 400.0;
    cfg.seed = 7;
    return cfg;
}

TEST(Churn, CompletesAndSustainsChurnRate)
{
    const ChurnResult r = runChurn(smallConfig());
    EXPECT_EQ(r.tenants_created, 60u);
    EXPECT_EQ(r.tenants_destroyed, 60u);
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_GT(r.bursts_completed, 0u);
    // The mechanisms under test actually fired.
    EXPECT_GT(r.cold_switches, 0u);
    EXPECT_GT(r.sid_misses, 0u);
    EXPECT_GT(r.promotions, 0u);
    EXPECT_GT(r.block_windows, 0u);
    // Acceptance: >= 1000 TEE create/destroy cycles per simulated
    // second (the configured arrival rate is far above that).
    EXPECT_GE(r.churn_per_sim_s, 1000.0);
    EXPECT_GE(r.check_p99, r.check_p50);
    EXPECT_GT(r.check_p99, 0.0);
}

TEST(Churn, CamContentionDrivesEvictions)
{
    // All-hot tenants with fast arrivals: once the backlog keeps all
    // four ports occupied, four live hot tenants contend for three
    // CAM rows, so a promotion must evict a live victim — whose next
    // burst SID-misses and re-promotes mid-DMA.
    ChurnConfig cfg = smallConfig();
    cfg.tenants = 40;
    cfg.arrival_mean = 4.0;
    cfg.cold_fraction = 0.0;
    const ChurnResult r = runChurn(cfg);
    EXPECT_GT(r.cam_evictions, 0u);
    EXPECT_GT(r.sid_misses, 0u); // evicted live victims re-mount
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_EQ(r.tenants_destroyed, 40u);
}

TEST(Churn, DeterministicPerSeed)
{
    const ChurnResult a = runChurn(smallConfig());
    const ChurnResult b = runChurn(smallConfig());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.cycles, b.cycles);

    ChurnConfig other = smallConfig();
    other.seed = 8;
    const ChurnResult c = runChurn(other);
    EXPECT_NE(a.fingerprint, c.fingerprint);
}

/** Run @p cfg and return the text dump of every stats group it left
 * behind (the Soc's groups retire with it, so retention is on). */
std::string
statsOf(const ChurnConfig &cfg, ChurnResult *result)
{
    stats::Registry &registry = stats::Registry::global();
    const bool retain = registry.retainRetired();
    registry.clearRetired();
    registry.setRetainRetired(true);
    *result = runChurn(cfg);
    std::ostringstream os;
    stats::TextStatsWriter writer(os);
    registry.accept(writer);
    registry.clearRetired();
    registry.setRetainRetired(retain);
    return os.str();
}

/**
 * Regression: the control loop runs between sim.step() calls, so the
 * quiescence fast-forward scheduler must hand control back at exactly
 * the cycles the naive per-cycle loop would act on. Two bugs hid
 * here: arrival pins scheduled *at* the arrival cycle made the idle
 * skip return one cycle late, and a retired port with a backlogged
 * tenant slept until the next event instead of re-activating at the
 * retire cycle. The whole stats dump must match too: the fingerprint
 * does not cover the check and block-stall counters that checker
 * nodes credit after parking on a stall.
 */
TEST(Churn, BitIdenticalWithoutFastForward)
{
    ChurnResult ff;
    const std::string ff_stats = statsOf(smallConfig(), &ff);
    ChurnConfig naive = smallConfig();
    naive.fast_forward = false;
    ChurnResult slow;
    const std::string slow_stats = statsOf(naive, &slow);
    EXPECT_EQ(ff.fingerprint, slow.fingerprint);
    EXPECT_EQ(ff.cycles, slow.cycles);
    EXPECT_NE(ff_stats.find("checker0.block_stalls"), std::string::npos);
    EXPECT_EQ(ff_stats, slow_stats);

    // Stalled checkers and a busy CPU park instead of polling, so
    // fast-forward skips most of the run (unless the environment
    // turned it off for the whole process).
    EXPECT_EQ(slow.executed_cycles, slow.cycles);
    if (Simulator::defaultFastForward()) {
        EXPECT_LE(ff.executed_cycles, ff.cycles * 4 / 10);
    }
}

/**
 * Regression: two cold devices missing in the same cycle used to
 * livelock. The interrupt controller drains both SID-missing
 * interrupts in one batch; the second mount evicts the first from the
 * eSID slot, and the first checker's edge-triggered stall never
 * re-raised — its port wedged forever. The config-epoch re-arm in
 * CheckerNode lets the stalled beat re-authorize (and re-raise) when
 * the configuration moves without resolving its SID.
 */
TEST(Churn, ConcurrentColdMissesBothComplete)
{
    ChurnConfig cfg;
    cfg.ports = 2;
    cfg.tenants = 8;
    cfg.cold_fraction = 1.0; // every tenant cold: eSID thrash
    cfg.remap_fraction = cfg.revoke_fraction = cfg.abort_fraction = 0.0;
    cfg.arrival_mean = 1.0; // simultaneous arrivals → concurrent misses
    cfg.horizon = 2'000'000;
    cfg.seed = 3;
    const ChurnResult r = runChurn(cfg);
    EXPECT_EQ(r.tenants_destroyed, 8u); // pre-fix: wedges at horizon
    EXPECT_GT(r.sid_miss_rearms, 0u);   // the fix actually engaged
    EXPECT_EQ(r.invariant_violations, 0u);
}

} // namespace
} // namespace wl
} // namespace siopmp
