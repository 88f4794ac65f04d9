/**
 * @file
 * Unit tests for the registered FIFO.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>

#include "bus/fifo.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace bus {
namespace {

TEST(Fifo, PushedItemInvisibleUntilClock)
{
    Fifo<int> f(2);
    f.push(1);
    EXPECT_TRUE(f.empty());
    f.clock();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, FifoOrderPreserved)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.clock();
    f.push(3);
    f.clock();
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_EQ(f.front(), 2);
    f.pop();
    EXPECT_EQ(f.front(), 3);
}

TEST(Fifo, CanPushRespectsCapacity)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.canPush());
    f.push(1);
    EXPECT_TRUE(f.canPush());
    f.push(2);
    EXPECT_FALSE(f.canPush());
}

TEST(Fifo, PopFreesSpaceOnlyAfterClock)
{
    // Registered-ready semantics: a pop this cycle does not let the
    // producer push beyond capacity until the next clock edge.
    Fifo<int> f(1);
    f.push(1);
    f.clock();
    EXPECT_FALSE(f.canPush());
    f.pop();
    EXPECT_FALSE(f.canPush()); // snapshot still counts the popped item
    f.clock();
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, SustainsOneItemPerCycleAtCapacityTwo)
{
    Fifo<int> f(2);
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
        f.clock();
    }
    EXPECT_GE(popped, 98); // full throughput minus pipeline fill
}

TEST(Fifo, OccupancyCountsReadyAndStaged)
{
    Fifo<int> f(4);
    f.push(1);
    EXPECT_EQ(f.occupancy(), 1u);
    f.clock();
    f.push(2);
    EXPECT_EQ(f.occupancy(), 2u);
}

TEST(Fifo, SettledAndInTransitTrackStagedAndReadyItems)
{
    // CheckerNode::quiescent() relies on both: a consumer may only
    // retire once nothing is staged for it and nothing is readable.
    Fifo<int> f(2);
    EXPECT_TRUE(f.settled());
    EXPECT_FALSE(f.inTransit());
    f.push(1);
    EXPECT_TRUE(f.inTransit()); // staged
    EXPECT_FALSE(f.settled());
    f.clock();
    EXPECT_FALSE(f.inTransit());
    EXPECT_FALSE(f.empty()); // readable
    EXPECT_FALSE(f.settled());
    f.pop();
    EXPECT_TRUE(f.settled());
}

/** The registered fifo as two deques: the readable items and the
 * items staged since the last clock. */
struct TwoDequeFifo {
    std::size_t capacity;
    std::deque<int> ready;
    std::deque<int> staged;
    std::size_t snapshot = 0;

    bool canPush() const { return snapshot + staged.size() < capacity; }
    void push(int item) { staged.push_back(item); }
    bool empty() const { return ready.empty(); }
    bool settled() const { return ready.empty() && staged.empty(); }
    bool inTransit() const { return !staged.empty(); }
    int front() const { return ready.front(); }
    /** @return true iff the pop wakes a parked producer. */
    bool
    pop()
    {
        ready.pop_front();
        return snapshot == capacity;
    }
    void
    clock()
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
    void advance(Cycle) override {}
    bool quiescent(Cycle) const override { return true; }
};

TEST(FifoDifferential, RingMatchesTwoDequeModel)
{
    // Seeded random pushes, pops and clocks against the model,
    // at capacities where the ring wraps at sizes that are not powers
    // of two. A bound producer and consumer, parked on a simulator,
    // observe the wake-on-pop and wake-on-push.
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

        Fifo<int> f(capacity);
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
                f.clock();
                ref.clock();
                full_clocks += ref.snapshot == capacity;
            }
            producer_wakes += producer_woken && !producer_was;
            ASSERT_EQ(producer.active(), producer_was || producer_woken)
                << "step " << step;
            ASSERT_EQ(consumer.active(), consumer_was || consumer_woken)
                << "step " << step;
            ASSERT_EQ(f.canPush(), ref.canPush()) << "step " << step;
            ASSERT_EQ(f.empty(), ref.empty()) << "step " << step;
            ASSERT_EQ(f.settled(), ref.settled()) << "step " << step;
            ASSERT_EQ(f.inTransit(), ref.inTransit()) << "step " << step;
            ASSERT_EQ(f.occupancy(), ref.occupancy()) << "step " << step;
            if (!ref.empty()) {
                ASSERT_EQ(f.front(), ref.front()) << "step " << step;
            }
            // Park whatever woke, most of the time: the fifo is not
            // bound to the simulator's ticking, so this moves only time.
            if ((producer.active() || consumer.active()) && rng.below(4) != 0)
                sim.run(2);
        }
        // The walk reached the wake and the full ring.
        EXPECT_GT(producer_wakes, 0u);
        EXPECT_GT(full_clocks, 0u);
    }
}

TEST(FifoDeath, PushWhenFullAsserts)
{
    Fifo<int> f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full");
}

TEST(FifoDeath, PopWhenEmptyAsserts)
{
    Fifo<int> f(1);
    EXPECT_DEATH(f.pop(), "empty");
}

} // namespace
} // namespace bus
} // namespace siopmp
