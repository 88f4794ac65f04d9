/**
 * @file
 * Unit tests for the cycle-driven simulator.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bus/fifo.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace {

/** Records each evaluate() it runs; pushes its cycle into @c out when
 * there is room, and records whether @c in has a readable item. */
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
        if (out != nullptr && out->canPush())
            out->push(static_cast<int>(now));
        if (in != nullptr)
            log_->push_back(in->empty() ? "empty" : "readable");
    }

    bus::Fifo<int> *out = nullptr;
    bus::Fifo<int> *in = nullptr;

  private:
    std::vector<std::string> *log_;
};

TEST(Simulator, TwoPhaseOrderWithinCycle)
{
    // Phase one evaluates every component in registration order; phase
    // two is the clock edge. What the producer pushes at cycle 0 is
    // invisible to the consumer in that cycle and readable at cycle 1,
    // whichever of the two registered first.
    for (bool producer_first : {true, false}) {
        SCOPED_TRACE(producer_first ? "producer first" : "consumer first");
        Simulator sim;
        std::vector<std::string> log;
        bus::Fifo<int> fifo(sim, 2);
        Probe producer(&log), consumer(&log);
        producer.out = &fifo;
        consumer.in = &fifo;
        sim.add(producer_first ? &producer : &consumer);
        sim.add(producer_first ? &consumer : &producer);
        sim.step();
        sim.step();
        const std::vector<std::string> expected =
            producer_first
                ? std::vector<std::string>{"eval@0", "eval@0", "empty",
                                           "eval@1", "eval@1", "readable"}
                : std::vector<std::string>{"eval@0", "empty", "eval@0",
                                           "eval@1", "readable", "eval@1"};
        EXPECT_EQ(log, expected);
    }
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

    bool quiescent(Cycle) const override { return sleepy; }

    bool sleepy = true;
    unsigned evals = 0;
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

  private:
    Cycle when_;
    std::function<void()> action_;
};

TEST(FastForward, WakeOfALaterComponentEvaluatesInTheSameCycle)
{
    // A sleeper registered after its waker is woken from the waker's
    // evaluate(), and the pass reaches it in that same cycle. (A wake
    // of an earlier component waits for the next cycle; the scripted
    // scan-order test below covers both directions.)
    Simulator sim;
    sim.setFastForward(true);
    Sleeper sleeper;
    MutatorNode waker("waker", 10, [&] { sim.wake(&sleeper); });
    sim.add(&waker);
    sim.add(&sleeper);
    sim.run(20);

    // Cycles 0-1, then 10 (the wake) and 11 (its grace cycle).
    EXPECT_EQ(sleeper.evals, 4u);
    EXPECT_EQ(sleeper.last_eval, 11u);
}

TEST(FastForward, StepJumpsIdleGapToNextEvent)
{
    Simulator sim;
    sim.setFastForward(true);
    Sleeper s;
    sim.add(&s);
    bool fired = false;
    sim.events().schedule(100, [&] { fired = true; });

    // A freshly added component runs two cycles before parking: the
    // registration wake keeps it awake through cycle 0, and it parks
    // right after its evaluate() at cycle 1.
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

/**
 * A scripted schedule of wakes for ScriptedNode, with the reference it
 * is checked against: a scan of the component list in registration
 * order, each awake node evaluating and then, unless woken this cycle,
 * parking when its script says it is quiescent. That is the order the
 * active set must keep.
 */
struct Script {
    /** At cycle @p when, during @p actor's evaluate(), @p target is
     * woken. */
    struct Action {
        Cycle when;
        std::size_t actor;
        std::size_t target;
    };

    struct Tick {
        Cycle when;
        std::size_t node;
        bool operator==(const Tick &) const = default;
    };

    std::size_t nodes = 0;
    std::vector<Action> actions;
    std::vector<std::pair<Cycle, std::size_t>> event_wakes;
    std::vector<Cycle> busy_until; //!< quiescent from this cycle on

    /** Ticks and fired actions of a list scan over @p cycles cycles. */
    std::vector<Tick>
    reference(Cycle cycles, std::size_t *fired) const
    {
        std::vector<bool> active(nodes, true);
        std::vector<Cycle> wake_cycle(nodes, 0);
        std::vector<Tick> log;
        for (Cycle t = 0; t < cycles; ++t) {
            for (const auto &[when, target] : event_wakes) {
                if (when == t) {
                    wake_cycle[target] = t;
                    active[target] = true;
                }
            }
            for (std::size_t i = 0; i < nodes; ++i) {
                if (!active[i])
                    continue;
                log.push_back({t, i});
                for (const Action &a : actions) {
                    if (a.when != t || a.actor != i)
                        continue;
                    ++*fired;
                    wake_cycle[a.target] = t;
                    active[a.target] = true;
                }
                if (wake_cycle[i] != t && t >= busy_until[i])
                    active[i] = false;
            }
        }
        return log;
    }
};

/** Logs every evaluate() it runs and performs its scripted actions. */
class ScriptedNode : public Tickable
{
  public:
    ScriptedNode(std::size_t id, const Script &script,
                 std::vector<ScriptedNode *> &all,
                 std::vector<Script::Tick> &log, std::size_t &fired)
        : Tickable("node" + std::to_string(id)), id_(id), script_(script),
          all_(all), log_(log), fired_(fired)
    {
    }

    void
    evaluate(Cycle now) override
    {
        log_.push_back({now, id_});
        for (const Script::Action &a : script_.actions) {
            if (a.when != now || a.actor != id_)
                continue;
            ++fired_;
            all_[a.target]->wake();
        }
    }

    bool
    quiescent(Cycle now) const override
    {
        return now >= script_.busy_until[id_];
    }

  private:
    std::size_t id_;
    const Script &script_;
    std::vector<ScriptedNode *> &all_;
    std::vector<Script::Tick> &log_;
    std::size_t &fired_;
};

/** Runs @p script for @p cycles under fast-forward and checks its tick
 * log against the list-scan reference, action for action. */
void
expectScanOrder(const Script &script, Cycle cycles)
{
    Simulator sim;
    sim.setFastForward(true);
    std::vector<Script::Tick> log;
    std::size_t fired = 0;
    std::vector<std::unique_ptr<ScriptedNode>> owned;
    std::vector<ScriptedNode *> all;
    for (std::size_t i = 0; i < script.nodes; ++i) {
        owned.push_back(std::make_unique<ScriptedNode>(i, script, all,
                                                       log, fired));
        all.push_back(owned.back().get());
        sim.add(all.back());
    }
    for (const auto &[when, target] : script.event_wakes) {
        // Half through the raw-pointer re-arm, half through a closure.
        if (target % 2 == 0)
            sim.events().scheduleWake(when, all[target]);
        else
            sim.events().schedule(when, [&all, target = target] {
                all[target]->wake();
            });
    }
    sim.run(cycles);

    std::size_t ref_fired = 0;
    const std::vector<Script::Tick> ref = script.reference(cycles, &ref_fired);
    // Every scripted action ran: its actor was awake when it was due.
    EXPECT_EQ(fired, script.actions.size());
    EXPECT_EQ(ref_fired, script.actions.size());
    ASSERT_EQ(log.size(), ref.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        ASSERT_EQ(log[i], ref[i])
            << "tick " << i << ": node " << log[i].node << " at cycle "
            << log[i].when << ", expected node " << ref[i].node
            << " at cycle " << ref[i].when;
    }
    // Registration order within each pass; per-node counts follow from
    // the logs being equal.
    for (std::size_t i = 1; i < log.size(); ++i) {
        if (log[i].when == log[i - 1].when) {
            EXPECT_LT(log[i - 1].node, log[i].node);
        }
    }
}

TEST(FastForward, ActiveSetSpanningThreeWordsTicksInRegistrationOrder)
{
    // 130 components span three 64-bit words of the active set. Wakes
    // cross bits 63/64 and 127/128 in both directions, from evaluate
    // and from events, reach nodes that parked earlier in the same
    // pass, and chain through all three words in one pass.
    Script s;
    s.nodes = 130;
    s.busy_until.assign(s.nodes, 0);
    s.busy_until[65] = 35; // two nodes stay awake through the wakes
    s.busy_until[100] = 35;
    s.event_wakes = {{5, 63},  {9, 127},  {13, 129}, {20, 63}, {22, 128},
                     {24, 0},  {30, 63},  {30, 64},  {30, 127},
                     {30, 128}, {31, 0},  {31, 129}, {40, 62}};
    s.actions = {
        // Forward across a word edge runs in the same pass, backward
        // re-arms a node that already ran and waits for the next cycle.
        {5, 63, 64},   {5, 64, 62},
        {9, 127, 128}, {9, 128, 126},
        {13, 129, 0},  {14, 0, 1},
        // The same two directions from nodes an event woke.
        {20, 63, 64},  {22, 128, 127},
        {24, 0, 129},  {24, 0, 64},
        // Node 65 parks right after its evaluate() at cycle 35, then a
        // later node of the same pass re-arms it for cycle 36.
        {35, 100, 65},
        // A chain through all three words within one pass, ending in a
        // backward wake.
        {40, 62, 63},  {40, 63, 64},
        {40, 64, 127}, {40, 127, 128},
        {40, 128, 129}, {40, 129, 1},
    };
    expectScanOrder(s, 60);
}

} // namespace
} // namespace siopmp
