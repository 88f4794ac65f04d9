/**
 * @file
 * Unit tests for the cycle-driven simulator.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace siopmp {
namespace {

/** Records the phase sequence it observes. */
class Probe : public Tickable
{
  public:
    explicit Probe(std::vector<std::string> *log)
        : Tickable("probe"), log_(log)
    {
    }

    void evaluate(Cycle now) override
    {
        log_->push_back("eval@" + std::to_string(now));
    }

    void advance(Cycle now) override
    {
        log_->push_back("adv@" + std::to_string(now));
    }

  private:
    std::vector<std::string> *log_;
};

TEST(Simulator, TwoPhaseOrderWithinCycle)
{
    Simulator sim;
    std::vector<std::string> log;
    Probe p1(&log), p2(&log);
    sim.add(&p1);
    sim.add(&p2);
    sim.step();
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0], "eval@0");
    EXPECT_EQ(log[1], "eval@0");
    EXPECT_EQ(log[2], "adv@0");
    EXPECT_EQ(log[3], "adv@0");
}

TEST(Simulator, RunAdvancesTime)
{
    Simulator sim;
    sim.run(25);
    EXPECT_EQ(sim.now(), 25u);
}

TEST(Simulator, EventsServicedBeforeComponents)
{
    Simulator sim;
    std::vector<std::string> log;
    Probe p(&log);
    sim.add(&p);
    sim.events().schedule(0, [&] { log.push_back("event"); });
    sim.step();
    ASSERT_GE(log.size(), 2u);
    EXPECT_EQ(log[0], "event");
    EXPECT_EQ(log[1], "eval@0");
}

TEST(Simulator, RunUntilPredicate)
{
    Simulator sim;
    Cycle ran = sim.runUntil([&] { return sim.now() >= 13; });
    EXPECT_EQ(ran, 13u);
}

TEST(Simulator, RunUntilHitsMaxCycles)
{
    Simulator sim;
    Cycle ran = sim.runUntil([] { return false; }, 50);
    EXPECT_EQ(ran, 50u);
}

TEST(Simulator, RemoveStopsTicking)
{
    Simulator sim;
    std::vector<std::string> log;
    Probe p(&log);
    sim.add(&p);
    sim.step();
    sim.remove(&p);
    sim.step();
    EXPECT_EQ(log.size(), 2u); // only the first cycle's eval+adv
}

/** Counts its ticks; quiesces on demand. */
class Sleeper : public Tickable
{
  public:
    Sleeper() : Tickable("sleeper") {}

    void evaluate(Cycle now) override
    {
        ++evals;
        last_eval = now;
    }

    void advance(Cycle) override { ++advs; }
    bool quiescent(Cycle) const override { return sleepy; }

    bool sleepy = true;
    unsigned evals = 0;
    unsigned advs = 0;
    Cycle last_eval = 0;
};

/** Calls an arbitrary action from its evaluate() at one chosen cycle. */
class MutatorNode : public Tickable
{
  public:
    MutatorNode(std::string name, Cycle when, std::function<void()> action)
        : Tickable(std::move(name)), when_(when), action_(std::move(action))
    {
    }

    void
    evaluate(Cycle now) override
    {
        if (now == when_)
            action_();
    }
    void advance(Cycle) override {}

  private:
    Cycle when_;
    std::function<void()> action_;
};

TEST(Simulator, LegacyMidTickRemoveIsDeferred)
{
    // Regression: remove() from inside the naive loop's evaluate phase
    // used to mutate the component list while tickOnce() iterated it.
    // The victim registers after the remover, so an inline erase would
    // have shifted the vector under the running loop.
    Simulator sim;
    sim.setFastForward(false);
    Sleeper victim;
    victim.sleepy = false;
    MutatorNode remover("remover", 3, [&] { sim.remove(&victim); });
    sim.add(&remover);
    sim.add(&victim);
    sim.run(10);

    // The victim completes the cycle of its removal, then stops.
    EXPECT_EQ(victim.evals, 4u);
    EXPECT_EQ(victim.advs, 4u);
    EXPECT_EQ(sim.components(), 1u);
}

TEST(FastForward, MidTickRemoveAndWakeLandInTickOrder)
{
    // A remove and a wake issued from inside evaluate(): the removal
    // lands at the end of the cycle, and the wake puts the sleeper back
    // on the active set without an evaluate in a cycle the loop has
    // already passed it in.
    Simulator sim;
    sim.setFastForward(true);
    Sleeper sleeper;
    Sleeper victim;
    victim.sleepy = false;
    MutatorNode remover("remover", 6, [&] { sim.remove(&victim); });
    MutatorNode waker("waker", 10, [&] { sim.wake(&sleeper); });
    // The sleeper registers before its waker.
    sim.add(&sleeper);
    sim.add(&victim);
    sim.add(&remover);
    sim.add(&waker);
    sim.run(20);

    // The victim still completes the cycle the removal was issued in
    // (cycles 0..6 inclusive).
    EXPECT_EQ(victim.evals, 7u);
    EXPECT_EQ(victim.advs, 7u);
    // The sleeper ticks cycles 0-1, retires, and the cycle-10 wake buys
    // it a same-cycle advance plus a full cycle-11 tick.
    EXPECT_EQ(sleeper.evals, 3u);
    EXPECT_EQ(sleeper.advs, 4u);
}

TEST(FastForward, StepJumpsIdleGapToNextEvent)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    bool fired = false;
    sim.events().schedule(100, [&] { fired = true; });

    // A freshly added component runs two cycles before retiring: the
    // registration wake keeps it hot through cycle 0, and retirement
    // happens at the end of cycle 1.
    sim.step();
    sim.step();
    EXPECT_EQ(sim.activeComponents(), 0u);
    EXPECT_EQ(s.evals, 2u);

    sim.step(); // jumps 2 -> 100, services the event, ticks cycle 100
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 101u);
    EXPECT_EQ(sim.idleCyclesSkipped(), 98u);
    EXPECT_EQ(s.evals, 2u); // the event woke nothing
}

TEST(FastForward, RunCoversExactCycleCountWhileIdle)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    sim.run(1000);
    EXPECT_EQ(sim.now(), 1000u);
    EXPECT_EQ(s.evals, 2u);
    EXPECT_EQ(sim.idleCyclesSkipped(), 998u);
}

TEST(FastForward, ScheduleWakeReactivatesAtTheRightCycle)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    sim.run(2);
    EXPECT_EQ(sim.activeComponents(), 0u);

    sim.events().scheduleWake(50, &s);
    sim.run(100);
    EXPECT_EQ(sim.now(), 102u);
    // Woken at 50, ticked at 50 and (wake grace cycle) 51, retired.
    EXPECT_EQ(s.evals, 4u);
    EXPECT_EQ(s.last_eval, 51u);
}

TEST(FastForward, ManualWakeReactivates)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    sim.run(2);
    EXPECT_EQ(sim.activeComponents(), 0u);

    s.sleepy = false;
    s.wake();
    EXPECT_EQ(sim.activeComponents(), 1u);
    sim.run(3);
    EXPECT_EQ(s.evals, 5u); // cycles 0,1 then 2,3,4
    EXPECT_EQ(sim.now(), 5u);
}

TEST(FastForward, BusyComponentsNeverRetire)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    s.sleepy = false;
    sim.add(&s);
    sim.run(50);
    EXPECT_EQ(s.evals, 50u);
    EXPECT_EQ(sim.idleCyclesSkipped(), 0u);
}

TEST(FastForward, NaiveModeTicksEverything)
{
    Simulator sim;
    sim.setFastForward(false);
    Sleeper s;
    sim.add(&s);
    sim.run(100);
    EXPECT_EQ(s.evals, 100u);
    EXPECT_EQ(sim.idleCyclesSkipped(), 0u);
}

TEST(FastForward, StepWithoutEventsRunsExactlyOneCycle)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    sim.run(2); // retire the sleeper
    sim.step();
    EXPECT_EQ(sim.now(), 3u); // no pending event: no jump
}

TEST(FastForward, ResetTimeReactivatesEveryComponent)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    sim.run(10);
    EXPECT_EQ(sim.activeComponents(), 0u);
    sim.resetTime();
    EXPECT_EQ(sim.activeComponents(), 1u);
    EXPECT_EQ(sim.idleCyclesSkipped(), 0u);
    sim.run(2);
    EXPECT_EQ(s.evals, 4u);
}

TEST(FastForward, AdvancePhaseMatchesEvaluatePhase)
{
    // The retirement guard must keep evaluate/advance counts paired:
    // a component never gets an advance() without its evaluate().
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    sim.events().scheduleWake(40, &s);
    sim.run(200);
    EXPECT_EQ(s.evals, s.advs);
}

} // namespace
} // namespace siopmp
