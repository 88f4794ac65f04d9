/**
 * @file
 * Integration tests for the bus-facing memory controller: functional
 * reads/writes over the beat protocol and timing behaviour.
 */

#include <gtest/gtest.h>

#include "mem/memory.hh"
#include "sim/simulator.hh"

namespace siopmp {
namespace mem {
namespace {

struct Harness {
    explicit Harness(MemoryTiming timing = {})
        : node("memory", &link, &backing, timing)
    {
        sim.add(&node);
    }

    /** Test code is the master; the simulator's edge clocks both
     * channels. */
    void step() { sim.step(); }

    Simulator sim;
    bus::Link link{sim};
    Backing backing;
    MemoryNode node;
};

TEST(MemoryNode, ReadReturnsBackingData)
{
    Harness h;
    h.backing.write64(0x1000, 0x1111);
    h.backing.write64(0x1008, 0x2222);
    h.link.a.push(bus::makeGet(0x1000, 2, 1, 42));

    std::vector<bus::Beat> resp;
    for (int i = 0; i < 40 && resp.size() < 2; ++i) {
        h.step();
        while (!h.link.d.empty()) {
            resp.push_back(h.link.d.front());
            h.link.d.pop();
        }
    }
    ASSERT_EQ(resp.size(), 2u);
    EXPECT_EQ(resp[0].data, 0x1111u);
    EXPECT_EQ(resp[1].data, 0x2222u);
    EXPECT_FALSE(resp[0].last);
    EXPECT_TRUE(resp[1].last);
    EXPECT_EQ(resp[0].txn, 42u);
}

TEST(MemoryNode, WriteLandsInBacking)
{
    Harness h;
    unsigned next = 0;
    bool acked = false;
    for (int i = 0; i < 60 && !acked; ++i) {
        if (next < 4 && h.link.a.canPush()) {
            h.link.a.push(bus::makePut(0x2000, next, 4, 0x100 + next,
                                       1, 7));
            ++next;
        }
        h.step();
        while (!h.link.d.empty()) {
            acked |= h.link.d.front().opcode == bus::Opcode::AccessAck;
            h.link.d.pop();
        }
    }
    EXPECT_TRUE(acked);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(h.backing.read64(0x2000 + i * 8), 0x100u + i);
}

TEST(MemoryNode, WriteStrobeRespected)
{
    Harness h;
    h.backing.write64(0x3000, 0xffffffffffffffffULL);
    h.link.a.push(bus::makePut(0x3000, 0, 1, 0, 1, 9, /*strobe=*/0xf0));
    for (int i = 0; i < 20; ++i)
        h.step();
    EXPECT_EQ(h.backing.read64(0x3000), 0x00000000ffffffffULL);
}

TEST(MemoryNode, ReadLatencyHonoured)
{
    MemoryTiming t;
    t.read_latency = 20;
    Harness h(t);
    h.link.a.push(bus::makeGet(0x0, 1, 1, 1));
    Cycle first_beat = 0;
    for (int i = 0; i < 60 && first_beat == 0; ++i) {
        h.step();
        if (!h.link.d.empty()) {
            first_beat = h.sim.now();
            h.link.d.pop();
        }
    }
    // Request visible at cycle 1, accepted then; data after >= 20 more.
    EXPECT_GE(first_beat, 20u);
}

TEST(MemoryNode, ReadInitiationIntervalGapsBursts)
{
    MemoryTiming t;
    t.read_latency = 2;
    t.read_interval = 16;
    Harness h(t);
    h.link.a.push(bus::makeGet(0x0, 1, 1, 1));
    h.step();
    h.link.a.push(bus::makeGet(0x40, 1, 1, 2));

    std::vector<Cycle> beat_times;
    for (int i = 0; i < 80 && beat_times.size() < 2; ++i) {
        h.step();
        while (!h.link.d.empty()) {
            beat_times.push_back(h.sim.now());
            h.link.d.pop();
        }
    }
    ASSERT_EQ(beat_times.size(), 2u);
    EXPECT_GE(beat_times[1] - beat_times[0], 14u);
}

TEST(MemoryNode, WriteAckPriorityOverReadData)
{
    // A completed write acks even while a read burst is streaming.
    Harness h;
    h.link.a.push(bus::makeGet(0x0, 8, 1, 1));
    h.step();
    h.link.a.push(bus::makePut(0x100, 0, 1, 5, 1, 2));

    bool ack_seen = false;
    unsigned data_after_ack = 0;
    for (int i = 0; i < 60; ++i) {
        h.step();
        while (!h.link.d.empty()) {
            if (h.link.d.front().opcode == bus::Opcode::AccessAck)
                ack_seen = true;
            else if (ack_seen)
                ++data_after_ack;
            h.link.d.pop();
        }
    }
    EXPECT_TRUE(ack_seen);
    EXPECT_GT(data_after_ack, 0u); // read data continued after the ack
}

} // namespace
} // namespace mem
} // namespace siopmp
