/**
 * @file
 * Direct tests for the dummy bus-error node.
 */

#include <gtest/gtest.h>

#include "bus/error_node.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace bus {
namespace {

/** Test code is the master side; the simulator's edge clocks both
 * channels. */
struct Harness {
    Harness() : node("err0", &link) { sim.add(&node); }

    void step() { sim.step(); }

    Simulator sim;
    Link link{sim};
    ErrorNode node;
};

TEST(ErrorNode, DeniesGetWithSingleBeat)
{
    Harness h;
    h.link.a.push(makeGet(0x1000, 8, /*device=*/3, /*txn=*/9));
    std::vector<Beat> resp;
    for (int i = 0; i < 10; ++i) {
        h.step();
        while (!h.link.d.empty()) {
            resp.push_back(h.link.d.front());
            h.link.d.pop();
        }
    }
    ASSERT_EQ(resp.size(), 1u); // burst terminated, not 8 beats
    EXPECT_TRUE(resp[0].denied);
    EXPECT_TRUE(resp[0].last);
    EXPECT_EQ(resp[0].txn, 9u);
    EXPECT_EQ(h.node.errorsGenerated(), 1u);
}

TEST(ErrorNode, ConsumesWholeWriteBurstThenAcks)
{
    Harness h;
    unsigned pushed = 0;
    std::vector<Beat> resp;
    for (int i = 0; i < 20; ++i) {
        if (pushed < 4 && h.link.a.canPush()) {
            h.link.a.push(makePut(0x1000, pushed, 4, 0xbad, 1, 7));
            ++pushed;
        }
        h.step();
        while (!h.link.d.empty()) {
            resp.push_back(h.link.d.front());
            h.link.d.pop();
        }
    }
    ASSERT_EQ(resp.size(), 1u); // one denied ack for the whole burst
    EXPECT_TRUE(resp[0].denied);
    EXPECT_EQ(resp[0].opcode, Opcode::AccessAck);
    EXPECT_EQ(h.node.errorsGenerated(), 1u);
}

TEST(ErrorNode, HandlesBackToBackBursts)
{
    Harness h;
    unsigned sent = 0;
    unsigned denied = 0;
    for (int i = 0; i < 40; ++i) {
        if (sent < 5 && h.link.a.canPush())
            h.link.a.push(makeGet(0x1000, 8, 1, 100 + sent++));
        h.step();
        while (!h.link.d.empty()) {
            denied += h.link.d.front().denied;
            h.link.d.pop();
        }
    }
    EXPECT_EQ(denied, 5u);
}

TEST(ErrorNode, RetriesWhenResponseChannelFull)
{
    Harness h;
    // Never drain d: the node must hold the request until space opens.
    h.link.a.push(makeGet(0x1000, 8, 1, 1));
    h.sim.step(); // d never popped -> occupancy builds
    h.link.a.push(makeGet(0x2000, 8, 1, 2));
    for (int i = 0; i < 6; ++i)
        h.sim.step();
    // Capacity is 2: both denials fit; a third would have to wait.
    h.link.a.push(makeGet(0x3000, 8, 1, 3));
    for (int i = 0; i < 6; ++i)
        h.sim.step();
    EXPECT_LE(h.link.d.occupancy(), h.link.d.capacity());
    EXPECT_EQ(h.node.errorsGenerated(), 2u); // third still pending
    // Drain and let it finish.
    while (!h.link.d.empty())
        h.link.d.pop();
    for (int i = 0; i < 6; ++i)
        h.step();
    EXPECT_EQ(h.node.errorsGenerated(), 3u);
}

} // namespace
} // namespace bus
} // namespace siopmp
