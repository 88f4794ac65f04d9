/**
 * @file
 * Differential proof that a producer may park before its consumer
 * pops in the same cycle. A bare rig — one DMA engine feeding one
 * memory controller over one Link, no checker or xbar between — runs a
 * write job and then a read job at 8 outstanding bursts, with the
 * engine registered first (it evaluates, and may park behind its full
 * uplink, before the memory pops) or last (the memory pops before the
 * engine evaluates). Fast-forward and the naive loop must agree on
 * every burst latency, on each job's completedAt() and on the stats of
 * both components, in either order.
 *
 * With the engine first, the pop that gives it room comes after it
 * parked: only a pop wake that counts the items staged this cycle
 * (bus/fifo.hh) re-arms it. A wake keyed on the fifo being full at its
 * last clock edge leaves it parked with room — mid write burst, where
 * no response is due to wake it — and the fast-forward run hangs to
 * the bound.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bus/link.hh"
#include "devices/dma_engine.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace siopmp {
namespace {

constexpr Addr kBase = 0x8000'0000;
constexpr std::uint64_t kJobBytes = 64 * 64; //!< 64 bursts of 64 B
constexpr Cycle kBound = 100'000;

struct RunResult {
    std::vector<Cycle> latencies; //!< every burst, in completion order
    std::vector<Cycle> completed_at; //!< per job
    std::vector<bool> done;          //!< per job, within kBound
    std::string stats;
    Cycle idle_skipped = 0;

    auto
    observables() const
    {
        return std::tie(latencies, completed_at, done, stats);
    }
};

RunResult
run(bool engine_first, bool fast_forward)
{
    Simulator sim;
    sim.setFastForward(fast_forward);
    bus::Link link(sim);
    mem::Backing backing;
    dev::DmaEngine engine("dma0", 1, &link);
    mem::MemoryNode memory("memory", &link, &backing);
    if (engine_first) {
        sim.add(&engine);
        sim.add(&memory);
    } else {
        sim.add(&memory);
        sim.add(&engine);
    }

    RunResult result;
    engine.setBurstObserver([&result](Cycle latency, bool) {
        result.latencies.push_back(latency);
    });
    for (dev::DmaKind kind : {dev::DmaKind::Write, dev::DmaKind::Read}) {
        dev::DmaJob job;
        job.kind = kind;
        job.src = job.dst = kBase;
        job.bytes = kJobBytes;
        job.max_outstanding = 8;
        engine.start(job, sim.now());
        sim.runUntil([&engine] { return engine.done(); }, kBound);
        result.done.push_back(engine.done());
        result.completed_at.push_back(engine.completedAt());
        if (!engine.done())
            break; // hung to the bound: the next job cannot start
    }

    std::ostringstream os;
    stats::TextStatsWriter writer(os);
    engine.statsGroup().accept(writer);
    memory.statsGroup().accept(writer);
    result.stats = os.str();
    result.idle_skipped = sim.idleCyclesSkipped();
    return result;
}

TEST(RegistrationOrder, FastForwardMatchesNaiveEitherOrder)
{
    for (bool engine_first : {true, false}) {
        SCOPED_TRACE(engine_first ? "engine first" : "engine last");
        const RunResult naive = run(engine_first, false);
        const RunResult ff = run(engine_first, true);
        ASSERT_EQ(naive.done, (std::vector<bool>{true, true}));
        ASSERT_EQ(naive.latencies.size(), 2 * kJobBytes / 64);
        EXPECT_EQ(ff.done, naive.done);
        EXPECT_EQ(ff.completed_at, naive.completed_at);
        EXPECT_EQ(ff.latencies, naive.latencies);
        EXPECT_EQ(ff.stats, naive.stats);
        EXPECT_EQ(naive.idle_skipped, 0u);
    }
}

TEST(RegistrationOrder, OrderMovesNothing)
{
    // Every evaluate() reads the state of the last clock edge, so the
    // order components register in changes no result.
    EXPECT_EQ(run(true, true).observables(), run(false, true).observables());
    EXPECT_EQ(run(true, false).observables(),
              run(false, false).observables());
}

} // namespace
} // namespace siopmp
