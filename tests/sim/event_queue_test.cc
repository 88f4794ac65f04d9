/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace siopmp {
namespace {

TEST(EventQueue, StartsEmptyAtCycleZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.nextEventCycle(), kNever);
}

TEST(EventQueue, RunsEventAtScheduledCycle)
{
    EventQueue q;
    Cycle fired_at = kNever;
    q.schedule(10, [&] { fired_at = q.now(); });
    q.runUntil(20);
    EXPECT_EQ(fired_at, 10u);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, SameCycleEventsFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.runUntil(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsSortedByTimeNotInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(9, [&] { order.push_back(9); });
    q.schedule(3, [&] { order.push_back(3); });
    q.schedule(6, [&] { order.push_back(6); });
    q.runUntil(9);
    EXPECT_EQ(order, (std::vector<int>{3, 6, 9}));
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    std::vector<Cycle> fired;
    std::function<void()> reschedule = [&] {
        fired.push_back(q.now());
        if (fired.size() < 5)
            q.schedule(q.now() + 2, reschedule);
    };
    q.schedule(0, reschedule);
    q.runUntil(100);
    EXPECT_EQ(fired, (std::vector<Cycle>{0, 2, 4, 6, 8}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents)
{
    EventQueue q;
    bool late_fired = false;
    q.schedule(100, [&] { late_fired = true; });
    q.runUntil(50);
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(q.size(), 1u);
    q.runUntil(100);
    EXPECT_TRUE(late_fired);
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue q;
    q.runUntil(10);
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

} // namespace
} // namespace siopmp
