/**
 * @file
 * Unit tests for the registered FIFO and the clock edge that clocks it.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <memory>

#include "bus/fifo.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace bus {
namespace {

// With no component registered, sim.step() runs one cycle that does
// nothing but the clock edge.

TEST(Fifo, PushedItemInvisibleUntilClock)
{
    Simulator sim;
    Fifo<int> f(sim, 2);
    f.push(1);
    EXPECT_TRUE(f.empty());
    sim.step();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, FifoOrderPreserved)
{
    Simulator sim;
    Fifo<int> f(sim, 4);
    f.push(1);
    f.push(2);
    sim.step();
    f.push(3);
    sim.step();
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_EQ(f.front(), 2);
    f.pop();
    EXPECT_EQ(f.front(), 3);
}

TEST(Fifo, CanPushRespectsCapacity)
{
    Simulator sim;
    Fifo<int> f(sim, 2);
    EXPECT_TRUE(f.canPush());
    f.push(1);
    EXPECT_TRUE(f.canPush());
    f.push(2);
    EXPECT_FALSE(f.canPush());
}

TEST(Fifo, PopFreesSpaceOnlyAfterClock)
{
    // Registered-ready semantics: a pop this cycle does not let the
    // producer push beyond capacity until the next clock edge, though
    // canPushNext() already counts the freed slot.
    Simulator sim;
    Fifo<int> f(sim, 1);
    f.push(1);
    EXPECT_FALSE(f.canPushNext());
    sim.step();
    EXPECT_FALSE(f.canPush());
    f.pop();
    EXPECT_FALSE(f.canPush()); // snapshot still counts the popped item
    EXPECT_TRUE(f.canPushNext());
    sim.step();
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, SustainsOneItemPerCycleAtCapacityTwo)
{
    Simulator sim;
    Fifo<int> f(sim, 2);
    int pushed = 0, popped = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        // Consumer first or last — order must not matter for
        // steady-state throughput.
        if (!f.empty()) {
            f.pop();
            ++popped;
        }
        if (f.canPush()) {
            f.push(pushed);
            ++pushed;
        }
        sim.step();
    }
    EXPECT_GE(popped, 98); // full throughput minus pipeline fill
}

TEST(Fifo, OccupancyCountsReadyAndStaged)
{
    Simulator sim;
    Fifo<int> f(sim, 4);
    f.push(1);
    EXPECT_EQ(f.occupancy(), 1u);
    sim.step();
    f.push(2);
    EXPECT_EQ(f.occupancy(), 2u);
}

TEST(Fifo, SettledAndInTransitTrackStagedAndReadyItems)
{
    // A consumer's quiescent() runs before the edge: settled() counts
    // an item staged this cycle as well as a readable one.
    Simulator sim;
    Fifo<int> f(sim, 2);
    EXPECT_TRUE(f.settled());
    f.push(1);
    EXPECT_TRUE(f.empty()); // staged
    EXPECT_FALSE(f.settled());
    sim.step();
    EXPECT_FALSE(f.empty()); // readable
    EXPECT_FALSE(f.settled());
    f.pop();
    EXPECT_TRUE(f.settled());
}

TEST(Fifo, PendingEdgeRunsBeforeAnIdleJump)
{
    // With nothing awake, a step jumps to the next event unless a fifo
    // was pushed or popped since the last edge: then its cycle runs, so
    // the edge lands where the naive loop puts it.
    Simulator sim;
    sim.setFastForward(true);
    Fifo<int> f(sim, 2);
    sim.events().schedule(50, [] {});
    f.push(1);
    f.push(2);
    sim.step();
    EXPECT_EQ(sim.now(), 1u);
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_FALSE(f.canPush());
    sim.step();
    EXPECT_EQ(sim.now(), 2u);
    EXPECT_TRUE(f.canPush());
    EXPECT_EQ(sim.idleCyclesSkipped(), 0u);
    sim.step(); // nothing touched: jumps to the event at 50
    EXPECT_EQ(sim.now(), 51u);
    EXPECT_EQ(sim.idleCyclesSkipped(), 48u);
    EXPECT_EQ(f.front(), 2);
}

TEST(Fifo, DestroyedFifoLeavesTheEdgeList)
{
    // A fifo destroyed between its push and the edge takes itself off
    // the list, so the edge never touches it (ASan would catch it):
    // here the list's head and its tail go.
    Simulator sim;
    Fifo<int> kept(sim, 2);
    {
        auto tail = std::make_unique<Fifo<int>>(sim, 2);
        tail->push(1);
        kept.push(2);
        auto head = std::make_unique<Fifo<int>>(sim, 2);
        head->push(3);
    }
    sim.step();
    ASSERT_FALSE(kept.empty());
    EXPECT_EQ(kept.front(), 2);
}

/** The registered fifo as two deques: the readable items and the
 * items staged since the last clock edge. */
struct TwoDequeFifo {
    std::size_t capacity;
    std::deque<int> ready;
    std::deque<int> staged;
    std::size_t snapshot = 0;

    bool canPush() const { return snapshot + staged.size() < capacity; }
    bool
    canPushNext() const
    {
        return ready.size() + staged.size() < capacity;
    }
    void push(int item) { staged.push_back(item); }
    bool empty() const { return ready.empty(); }
    bool settled() const { return ready.empty() && staged.empty(); }
    int front() const { return ready.front(); }
    /** @return true iff the pop wakes a parked producer: the fifo is
     * full counting its staged items. */
    bool
    pop()
    {
        const bool full = ready.size() + staged.size() == capacity;
        ready.pop_front();
        return full;
    }
    void
    edge()
    {
        while (!staged.empty()) {
            ready.push_back(staged.front());
            staged.pop_front();
        }
        snapshot = ready.size();
    }
    std::size_t occupancy() const { return ready.size() + staged.size(); }
};

/** Does nothing and parks whenever it may. */
class Parked : public Tickable
{
  public:
    explicit Parked(const char *name) : Tickable(name) {}
    void evaluate(Cycle) override {}
    bool quiescent(Cycle) const override { return true; }
};

TEST(FifoDifferential, RingMatchesTwoDequeModel)
{
    // Seeded random pushes, pops and clock edges (simulator steps)
    // against the model, at capacities where the ring wraps at sizes
    // that are not powers of two. A bound producer and consumer,
    // parked on the fifo's simulator, observe the wake-on-pop and
    // wake-on-push; an edge wakes nothing.
    for (std::size_t capacity : {1u, 2u, 3u, 5u}) {
        SCOPED_TRACE(capacity);
        Simulator sim;
        sim.setFastForward(true);
        Parked producer("producer"), consumer("consumer");
        sim.add(&producer);
        sim.add(&consumer);
        sim.run(2);
        ASSERT_FALSE(producer.active());
        ASSERT_FALSE(consumer.active());

        Fifo<int> f(sim, capacity);
        f.bindProducer(&producer);
        f.bindWake(&consumer);
        TwoDequeFifo ref{capacity, {}, {}, 0};
        Rng rng(0x5eed + capacity);
        int next = 0;
        unsigned producer_wakes = 0, full_clocks = 0;
        for (unsigned step = 0; step < 20'000; ++step) {
            const bool producer_was = producer.active();
            const bool consumer_was = consumer.active();
            bool producer_woken = false, consumer_woken = false;
            const std::uint64_t op = rng.below(64);
            if (op < 24) {
                ASSERT_EQ(f.canPush(), ref.canPush());
                if (ref.canPush()) {
                    f.push(next);
                    ref.push(next);
                    ++next;
                    consumer_woken = true;
                }
            } else if (op < 44) {
                ASSERT_EQ(f.empty(), ref.empty());
                if (!ref.empty()) {
                    f.pop();
                    producer_woken = ref.pop();
                }
            } else {
                // A step may park a woken component; it wakes none.
                sim.step();
                ref.edge();
                full_clocks += ref.snapshot == capacity;
                ASSERT_TRUE(producer_was || !producer.active())
                    << "step " << step;
                ASSERT_TRUE(consumer_was || !consumer.active())
                    << "step " << step;
            }
            if (op < 44) {
                producer_wakes += producer_woken && !producer_was;
                ASSERT_EQ(producer.active(), producer_was || producer_woken)
                    << "step " << step;
                ASSERT_EQ(consumer.active(), consumer_was || consumer_woken)
                    << "step " << step;
            }
            ASSERT_EQ(f.canPush(), ref.canPush()) << "step " << step;
            ASSERT_EQ(f.canPushNext(), ref.canPushNext()) << "step " << step;
            ASSERT_EQ(f.empty(), ref.empty()) << "step " << step;
            ASSERT_EQ(f.settled(), ref.settled()) << "step " << step;
            ASSERT_EQ(f.occupancy(), ref.occupancy()) << "step " << step;
            if (!ref.empty()) {
                ASSERT_EQ(f.front(), ref.front()) << "step " << step;
            }
            // Park whatever woke, most of the time: woken between
            // steps, it evaluates twice (its wake's grace cycle) and
            // parks. The first of the two edges clocks the fifo.
            if ((producer.active() || consumer.active()) && rng.below(4) != 0) {
                sim.run(2);
                ref.edge();
            }
        }
        // The walk reached the wake and the full ring.
        EXPECT_GT(producer_wakes, 0u);
        EXPECT_GT(full_clocks, 0u);
    }
}

TEST(FifoDeath, PushWhenFullAsserts)
{
    Simulator sim;
    Fifo<int> f(sim, 1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full");
}

TEST(FifoDeath, PopWhenEmptyAsserts)
{
    Simulator sim;
    Fifo<int> f(sim, 1);
    EXPECT_DEATH(f.pop(), "empty");
}

} // namespace
} // namespace bus
} // namespace siopmp
