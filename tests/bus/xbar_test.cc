/**
 * @file
 * Unit tests for the crossbar: routing, burst atomicity, round-robin
 * fairness and response steering.
 */

#include <gtest/gtest.h>

#include "bus/xbar.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace bus {
namespace {

/** Drives the xbar from test code on both sides; the simulator's
 * edge clocks every link, the ones test code pushes and pops too. */
struct Harness {
    Harness(unsigned nports)
    {
        for (unsigned i = 0; i < nports; ++i)
            ups.push_back(std::make_unique<Link>(sim));
        std::vector<Link *> raw;
        for (auto &u : ups)
            raw.push_back(u.get());
        xbar = std::make_unique<Xbar>("xbar", raw, &down);
        sim.add(xbar.get());
    }

    /** Step one cycle. */
    void step() { sim.step(); }

    Simulator sim;
    std::vector<std::unique_ptr<Link>> ups;
    Link down{sim};
    std::unique_ptr<Xbar> xbar;
};

TEST(Xbar, ForwardsRequestAndStampsRoute)
{
    Harness h(2);
    h.ups[1]->a.push(makeGet(0x100, 8, /*device=*/9, /*txn=*/1));
    h.step(); // beat becomes visible to xbar
    h.step(); // xbar forwards
    ASSERT_FALSE(h.down.a.empty());
    EXPECT_EQ(h.down.a.front().route, 1u);
    EXPECT_EQ(h.down.a.front().addr, 0x100u);
}

TEST(Xbar, RoutesResponseByRouteTag)
{
    Harness h(3);
    Beat resp = makeGet(0, 1, 1, 1); // reuse fields; opcode irrelevant
    resp.opcode = Opcode::AccessAckData;
    resp.route = 2;
    h.down.d.push(resp);
    h.step();
    h.step();
    EXPECT_TRUE(h.ups[0]->d.empty());
    EXPECT_TRUE(h.ups[1]->d.empty());
    ASSERT_FALSE(h.ups[2]->d.empty());
}

TEST(Xbar, BurstBeatsStayContiguous)
{
    Harness h(2);
    // Port 0 streams a 4-beat write burst; port 1 has a competing Get.
    // Feed beats as backpressure allows and drain down.a as we go.
    unsigned next_beat = 0;
    bool get_sent = false;
    std::vector<DeviceId> order;
    for (int cycle = 0; cycle < 40; ++cycle) {
        if (next_beat < 4 && h.ups[0]->a.canPush())
            h.ups[0]->a.push(makePut(0x0, next_beat++, 4, 0, 1, 1));
        if (!get_sent && h.ups[1]->a.canPush()) {
            h.ups[1]->a.push(makeGet(0x100, 8, 2, 2));
            get_sent = true;
        }
        h.step();
        while (!h.down.a.empty()) {
            order.push_back(h.down.a.front().device);
            h.down.a.pop();
        }
    }
    ASSERT_GE(order.size(), 5u);
    // Whichever burst the arbiter picks first must complete before the
    // other master's beat appears: no interleaving inside the put.
    int transitions = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i] != order[i - 1])
            ++transitions;
    }
    EXPECT_LE(transitions, 1);
}

TEST(Xbar, RoundRobinAlternatesBetweenSingleBeatRequests)
{
    Harness h(2);
    // Keep both ports saturated with single-beat Gets.
    std::vector<DeviceId> order;
    for (int cycle = 0; cycle < 20; ++cycle) {
        if (h.ups[0]->a.canPush())
            h.ups[0]->a.push(makeGet(0x0, 1, 10, cycle));
        if (h.ups[1]->a.canPush())
            h.ups[1]->a.push(makeGet(0x0, 1, 20, cycle));
        h.step();
        while (!h.down.a.empty()) {
            order.push_back(h.down.a.front().device);
            h.down.a.pop();
        }
    }
    // Fairness: both devices appear, roughly alternating.
    int dev10 = 0, dev20 = 0;
    for (auto d : order)
        (d == 10 ? dev10 : dev20)++;
    EXPECT_GT(dev10, 5);
    EXPECT_GT(dev20, 5);
    EXPECT_LE(std::abs(dev10 - dev20), 2);
}

TEST(Xbar, BackpressureFromDownstreamStallsForwarding)
{
    Harness h(1);
    // Fill down.a (capacity 2) and never drain it: no slave pops.
    h.ups[0]->a.push(makeGet(0, 1, 1, 1));
    h.step();
    h.ups[0]->a.push(makeGet(0, 1, 1, 2));
    h.step();
    h.ups[0]->a.push(makeGet(0, 1, 1, 3));
    for (int i = 0; i < 5; ++i)
        h.step();
    // down.a holds its capacity; the third beat stays queued upstream.
    EXPECT_EQ(h.down.a.occupancy(), h.down.a.capacity());
    EXPECT_EQ(h.ups[0]->a.occupancy(), 1u);
}

} // namespace
} // namespace bus
} // namespace siopmp
