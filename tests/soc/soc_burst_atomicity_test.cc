/**
 * @file
 * Burst atomicity on the SoC: a write burst is checked once, at its
 * head beat, over all its bytes, and lands all or nothing. Each test
 * runs in the four {BusError, PacketMasking} x {per-device,
 * centralized} cells on 2 masters and a 2-stage pipelined tree:
 *
 *  - a burst whose entry covers only part of it lands no byte, and the
 *    other master's legal traffic still finishes (a mid-burst deny
 *    used to divert the tail and leave the xbar locked on the port);
 *  - a burst admitted before Device_unmap lands whole, however many of
 *    its beats had gone downstream; the device's next burst is denied
 *    whole;
 *  - later beats that stray from the head's range are checked on
 *    their own, so a malformed burst cannot ride its head's Allow.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "soc/firmware.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace soc {
namespace {

using iopmp::Entry;
using iopmp::ViolationPolicy;

constexpr DeviceId kDev0 = 1; //!< master 0
constexpr DeviceId kDev1 = 2; //!< master 1
constexpr Addr kBase0 = 0x8000'0000;
constexpr Addr kBase1 = 0x8100'0000;
constexpr std::uint64_t kSentinel = 0x5a5a'5a5a'5a5a'5a5aull;
constexpr std::uint64_t kFill = 0xdeadbeefcafef00dull; //!< DmaJob default
constexpr unsigned kBurstBytes = bus::kBurstBeats * bus::kBeatBytes;

struct Cell {
    ViolationPolicy policy;
    bool centralized;
};

std::string
cellName(const Cell &cell)
{
    return std::string(cell.policy == ViolationPolicy::BusError
                           ? "BusError"
                           : "PacketMasking") +
           (cell.centralized ? "_Centralized" : "_PerDevice");
}

/** Names the cell in test output (gtest would print its bytes,
 * padding included). */
void
PrintTo(const Cell &cell, std::ostream *os)
{
    *os << cellName(cell);
}

SocConfig
config(const Cell &cell)
{
    SocConfig c;
    c.num_masters = 2;
    c.centralized_checker = cell.centralized;
    c.policy = cell.policy;
    c.checker_kind = iopmp::CheckerKind::PipelineTree;
    c.checker_stages = 2;
    return c;
}

/** Bind master @p port's device to SID and MD @p port and give it
 * @p window as the MD's first entry. */
void
grant(Soc &soc, unsigned port, DeviceId device, const Entry &window)
{
    iopmp::SIopmp &unit = soc.iopmp();
    unit.cam().set(port, device);
    unit.src2md().associate(port, port);
    for (MdIndex md = 0; md < unit.config().num_mds; ++md)
        unit.mdcfg().setTop(md, std::min(8u, (md + 1) * 4));
    unit.entryTable().set(port * 4, window);
}

/** Write @p words sentinel words from @p base. */
void
fillSentinel(Soc &soc, Addr base, unsigned words)
{
    for (unsigned i = 0; i < words; ++i)
        soc.memory().write64(base + i * bus::kBeatBytes, kSentinel);
}

/** Words from @p base still holding the sentinel. */
unsigned
untouched(Soc &soc, Addr base, unsigned words)
{
    unsigned n = 0;
    for (unsigned i = 0; i < words; ++i)
        n += soc.memory().read64(base + i * bus::kBeatBytes) == kSentinel;
    return n;
}

/** True iff burst @p burst of a Write job from @p base landed whole:
 * DmaEngine writes kFill + burst + beat to each beat. */
bool
landed(Soc &soc, Addr base, unsigned burst)
{
    for (unsigned beat = 0; beat < bus::kBurstBeats; ++beat) {
        const Addr addr =
            base + burst * kBurstBytes + beat * bus::kBeatBytes;
        if (soc.memory().read64(addr) != kFill + burst + beat)
            return false;
    }
    return true;
}

dev::DmaJob
writeJob(Addr dst, std::uint64_t bytes, unsigned outstanding)
{
    dev::DmaJob job;
    job.kind = dev::DmaKind::Write;
    job.dst = dst;
    job.bytes = bytes;
    job.max_outstanding = outstanding;
    return job;
}

/** A bus master that sends its A beats in order, one a cycle when the
 * link takes it, and counts the D beats it gets back. */
struct BeatSource : Tickable {
    explicit BeatSource(bus::Link *link) : Tickable("source"), link(link) {}

    void
    evaluate(Cycle) override
    {
        if (next < beats.size() && link->a.canPush())
            link->a.push(beats[next++]);
        if (!link->d.empty()) {
            (link->d.front().denied ? denied : acks) += 1;
            link->d.pop();
        }
    }

    bus::Link *link;
    std::vector<bus::Beat> beats;
    std::size_t next = 0;
    unsigned acks = 0;
    unsigned denied = 0;
};

double
unitStat(Soc &soc, const std::string &name)
{
    return soc.iopmp().statsGroup().scalar(name).value();
}

class BurstAtomicityTest : public ::testing::TestWithParam<Cell>
{
};

/**
 * Master 0 writes one 64-B burst whose entry covers only its first
 * 32 B; master 1 writes a legal 256 B. The burst is denied at its
 * head, so none of its bytes land, and master 1 finishes.
 */
TEST_P(BurstAtomicityTest, PartlyCoveredWriteLandsNothing)
{
    Soc soc(config(GetParam()));
    dev::DmaEngine e0("dma0", kDev0, soc.masterLink(0));
    dev::DmaEngine e1("dma1", kDev1, soc.masterLink(1));
    soc.add(&e0);
    soc.add(&e1);
    grant(soc, 0, kDev0, Entry::range(kBase0, 32, Perm::ReadWrite));
    grant(soc, 1, kDev1, Entry::range(kBase1, 0x1000, Perm::ReadWrite));
    fillSentinel(soc, kBase0, bus::kBurstBeats);

    e0.start(writeJob(kBase0, kBurstBytes, 1), 0);
    e1.start(writeJob(kBase1, 4 * kBurstBytes, 8), 0);
    soc.sim().runUntil([&] { return e0.done() && e1.done(); }, 50'000);

    ASSERT_TRUE(e1.done()) << "master 1 never finished";
    ASSERT_TRUE(e0.done());
    EXPECT_EQ(untouched(soc, kBase0, bus::kBurstBeats), bus::kBurstBeats)
        << "a partly covered write burst landed in part";
    for (unsigned burst = 0; burst < 4; ++burst)
        EXPECT_TRUE(landed(soc, kBase1, burst)) << "burst " << burst;
    EXPECT_EQ(e0.deniedResponses(),
              GetParam().policy == ViolationPolicy::BusError ? 1u : 0u);
    EXPECT_EQ(unitStat(soc, "denies"), 1.0);
}

/**
 * Device_unmap lands after k beats of a write burst went downstream,
 * for k = 1..7: the burst was admitted, so all 8 beats land. The
 * device's next burst is checked against the unmapped window and
 * denied whole.
 */
TEST_P(BurstAtomicityTest, UnmapMidBurstLandsAdmittedBurst)
{
    for (unsigned k = 1; k < bus::kBurstBeats; ++k) {
        SCOPED_TRACE("k = " + std::to_string(k));
        Soc soc(config(GetParam()));
        Firmware firmware(soc);
        fw::SecureMonitor &monitor = firmware.monitor();
        const fw::CapId cap = monitor.registerDevice(kDev0);
        const fw::OwnerId tee =
            monitor.createTee("tee", {kBase0, 0x10000}, {cap});
        const fw::FwResult mapped =
            monitor.deviceMap(tee, kDev0, {kBase0, 0x1000}, Perm::ReadWrite);
        ASSERT_TRUE(mapped.ok);

        dev::DmaEngine engine("dma0", kDev0, soc.masterLink(0));
        soc.add(&engine);
        fillSentinel(soc, kBase0, 2 * bus::kBurstBeats);
        engine.start(writeJob(kBase0, 2 * kBurstBytes, 1), 0);

        stats::Scalar &forwarded =
            soc.checkerNode(0).statsGroup().scalar("beats_forwarded");
        while (forwarded.value() < k && soc.sim().now() < 1'000)
            soc.sim().run(1);
        ASSERT_EQ(forwarded.value(), static_cast<double>(k));
        ASSERT_TRUE(monitor
                        .deviceUnmap(tee, kDev0, mapped.entry_index,
                                     soc.sim().now())
                        .ok);

        soc.sim().runUntil([&] { return engine.done(); }, 50'000);
        ASSERT_TRUE(engine.done());
        EXPECT_TRUE(landed(soc, kBase0, 0)) << "the admitted burst was cut";
        EXPECT_EQ(untouched(soc, kBase0 + kBurstBytes, bus::kBurstBeats),
                  bus::kBurstBeats)
            << "the burst after the unmap landed";
        EXPECT_EQ(unitStat(soc, "denies"), 1.0);
    }
}

/**
 * Master 0 sends a malformed 8-beat burst: its head is in the window,
 * beat 4 strays outside it and beat 6 strays to another address inside
 * it. Each straying beat is checked on its own: beat 4 is denied and
 * lands nothing, beat 6 is allowed; the rest ride the head's Allow.
 * The burst still ends on the fabric, so master 1's legal traffic
 * then finishes.
 */
TEST_P(BurstAtomicityTest, StrayBeatsCheckedOnTheirOwn)
{
    constexpr Addr kOutside = 0x8800'0000;
    constexpr Addr kInside = kBase0 + 0x800;
    Soc soc(config(GetParam()));
    BeatSource source(soc.masterLink(0));
    dev::DmaEngine e1("dma1", kDev1, soc.masterLink(1));
    soc.add(&source);
    soc.add(&e1);
    grant(soc, 0, kDev0, Entry::range(kBase0, 0x1000, Perm::ReadWrite));
    grant(soc, 1, kDev1, Entry::range(kBase1, 0x1000, Perm::ReadWrite));
    fillSentinel(soc, kBase0, bus::kBurstBeats);
    fillSentinel(soc, kOutside, 1);
    fillSentinel(soc, kInside, 1);

    for (unsigned beat = 0; beat < bus::kBurstBeats; ++beat) {
        bus::Beat b = bus::makePut(kBase0, beat, bus::kBurstBeats,
                                   kFill + beat, kDev0, /*txn=*/1);
        if (beat == 4)
            b.addr = kOutside;
        if (beat == 6)
            b.addr = kInside;
        source.beats.push_back(b);
    }
    soc.sim().runUntil([&] { return source.acks + source.denied == 1; },
                       10'000);

    EXPECT_EQ(source.acks, 1u);
    EXPECT_EQ(soc.memory().read64(kOutside), kSentinel);
    EXPECT_EQ(soc.memory().read64(kInside), kFill + 6);
    for (unsigned beat : {0u, 1u, 2u, 3u, 5u, 7u}) {
        EXPECT_EQ(soc.memory().read64(kBase0 + beat * bus::kBeatBytes),
                  kFill + beat)
            << "beat " << beat;
    }
    // The head, beat 4 and beat 6.
    EXPECT_EQ(unitStat(soc, "checks"), 3.0);
    EXPECT_EQ(unitStat(soc, "denies"), 1.0);

    e1.start(writeJob(kBase1, 4 * kBurstBytes, 8), soc.sim().now());
    soc.sim().runUntil([&] { return e1.done(); }, 50'000);
    ASSERT_TRUE(e1.done()) << "master 1 never finished";
    for (unsigned burst = 0; burst < 4; ++burst)
        EXPECT_TRUE(landed(soc, kBase1, burst)) << "burst " << burst;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, BurstAtomicityTest,
    ::testing::Values(Cell{ViolationPolicy::BusError, false},
                      Cell{ViolationPolicy::BusError, true},
                      Cell{ViolationPolicy::PacketMasking, false},
                      Cell{ViolationPolicy::PacketMasking, true}),
    [](const ::testing::TestParamInfo<Cell> &info) {
        return cellName(info.param);
    });

} // namespace
} // namespace soc
} // namespace siopmp
