/**
 * @file
 * Focused tests for the bus-facing CheckerNode: SID-missing stalls
 * with edge-triggered interrupts, per-SID block stalls, block-state
 * monitor bookkeeping and divert-latch behaviour for denied write
 * bursts; the wake sources of a node parked on a SID-miss or
 * block-bit stall, each checked against the tick-every-cycle loop; and
 * each source of SIopmp state-version moves, which must void the held
 * verdict of a head beat waiting on backpressure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "fw/monitor.hh"
#include "sim/trace.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace iopmp {
namespace {

class CheckerNodeTest : public ::testing::Test
{
  protected:
    CheckerNodeTest() : soc(cfg()), engine("dma0", 1, soc.masterLink(0))
    {
        soc.add(&engine);
        auto &unit = soc.iopmp();
        unit.cam().set(0, 1);
        unit.src2md().associate(0, 0);
        for (MdIndex md = 0; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, 16);
        unit.entryTable().set(
            0, Entry::range(0x8000'0000, 0x0100'0000, Perm::ReadWrite));
        unit.setIrqHandler([this](const Irq &irq) { irqs.push_back(irq); });
    }

    static soc::SocConfig
    cfg()
    {
        soc::SocConfig c;
        c.num_masters = 2; // port 1 hosts the "ghost" cold device
        c.checker_kind = CheckerKind::PipelineTree;
        c.checker_stages = 2;
        return c;
    }

    soc::Soc soc;
    dev::DmaEngine engine;
    std::vector<Irq> irqs;
};

TEST_F(CheckerNodeTest, SidMissInterruptIsEdgeTriggered)
{
    dev::DmaEngine ghost("ghost", 999, soc.masterLink(1));
    soc.add(&ghost);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = 0x8000'0000;
    job.bytes = 64;
    ghost.start(job, 0);
    soc.sim().run(5'000);

    // The request stalls forever, but the interrupt fired once, not
    // once per polling cycle.
    EXPECT_FALSE(ghost.done());
    unsigned misses = 0;
    for (const auto &irq : irqs)
        misses += irq.kind == IrqKind::SidMissing;
    EXPECT_EQ(misses, 1u);
}

TEST_F(CheckerNodeTest, StalledRequestProceedsAfterMount)
{
    dev::DmaEngine ghost("ghost", 999, soc.masterLink(1));
    soc.add(&ghost);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = 0x8000'0000;
    job.bytes = 64;
    ghost.start(job, 0);
    soc.sim().run(1'000);
    ASSERT_FALSE(ghost.done());

    // "Monitor" mounts the device: eSID register + cold row rules.
    auto &unit = soc.iopmp();
    unit.setMountedCold(999);
    unit.src2md().setBitmap(unit.coldSid(),
                            std::uint64_t{1} << 62);
    unit.mdcfg().setTop(62, 17); // cold MD owns entry 16
    unit.entryTable().set(
        16, Entry::range(0x8000'0000, 0x0100'0000, Perm::ReadWrite));

    soc.sim().runUntil([&] { return ghost.done(); }, 100'000);
    EXPECT_TRUE(ghost.done());
    EXPECT_EQ(ghost.bytesTransferred(), 64u);
}

TEST_F(CheckerNodeTest, BlockedSidStallsWithoutLosingBeats)
{
    soc.iopmp().blockBitmap().block(0);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = 0x8000'0000;
    job.bytes = 128;
    engine.start(job, 0);
    soc.sim().run(3'000);
    EXPECT_FALSE(engine.done());
    EXPECT_EQ(engine.bytesTransferred(), 0u);

    soc.iopmp().blockBitmap().unblock(0);
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    EXPECT_EQ(engine.bytesTransferred(), 128u);
}

TEST_F(CheckerNodeTest, BusMonitorBalancesStartsAndEnds)
{
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = 0x8000'0000;
    job.bytes = 64 * 10;
    job.max_outstanding = 4;
    engine.start(job, 0);
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    soc.sim().run(50); // drain the response path

    EXPECT_TRUE(soc.monitor().quiesced(1));
    EXPECT_EQ(soc.monitor().totalStarted(),
              soc.monitor().totalCompleted());
    EXPECT_EQ(soc.monitor().totalStarted(), 10u);
}

TEST_F(CheckerNodeTest, DeniedWriteBurstFullyDiverted)
{
    // Every beat of a denied write burst must reach the error node,
    // not memory — even the beats whose own addresses would be legal
    // after the burst crossed back into the granted window.
    soc.memory().write64(0x9000'0000, 0xaa);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Write;
    job.dst = 0x9000'0000;
    job.bytes = 64;
    engine.start(job, 0);
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    EXPECT_EQ(engine.deniedResponses(), 1u);
    for (Addr off = 0; off < 64; off += 8)
        EXPECT_EQ(soc.memory().read64(0x9000'0000 + off), off ? 0u : 0xaau);
}

TEST_F(CheckerNodeTest, ViolationCountsInStats)
{
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = 0x9000'0000;
    job.bytes = 64 * 3;
    engine.start(job, 0);
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    EXPECT_EQ(soc.iopmp().statsGroup().scalar("denies").value(), 3.0);
}

TEST_F(CheckerNodeTest, LiveViolationInterruptReachesMonitor)
{
    // Full loop: device violates -> checker denies -> interrupt ->
    // CpuNode services -> monitor reads and acknowledges the error
    // record, all inside the running simulation.
    iopmp::ExtendedTable ext(&soc.memory(), {0x7000'0000, 0x1000});
    fw::SecureMonitor monitor(&soc.iopmp(), &soc.mmio(),
                              soc::kIopmpMmioBase, &ext, &soc.monitor());
    // Note: the monitor's init() would re-partition the tables the
    // fixture already configured; for this test only the interrupt
    // path matters, so skip init and keep the fixture's rules.
    soc::CpuNode cpu("cpu0", &monitor, &soc.iopmp(), &soc.sim());
    soc.add(&cpu);

    dev::DmaJob job;
    job.kind = dev::DmaKind::Write;
    job.dst = 0x9f00'0000; // violates
    job.bytes = 64;
    engine.start(job, 0);
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    soc.sim().run(500); // let the CPU service the interrupt

    EXPECT_GE(monitor.violationsHandled(), 1u);
    EXPECT_GE(cpu.interruptsServiced(), 1u);
    // Record acknowledged: cleared for the next violation.
    EXPECT_FALSE(soc.iopmp().violationRecord().has_value());
}

// ---- wake sources of a parked checker ---------------------------------

constexpr DeviceId kHot = 1;
constexpr DeviceId kGhost = 999;
constexpr Addr kHotBase = 0x8000'0000;
constexpr Addr kGhostBase = 0x8100'0000;

/** Registered after the checkers: runs @p fn from its evaluate() at
 * cycle @p at, i.e. after the checkers' slots in that cycle. */
struct LateMutator : Tickable {
    LateMutator() : Tickable("late") {}
    void
    evaluate(Cycle now) override
    {
        if (now == at && fn)
            fn();
    }
    void advance(Cycle) override {}

    Cycle at = kNever;
    std::function<void()> fn;
};

/**
 * A 4-SID SoC (3 CAM rows + the cold SID) with device kHot bound to
 * SID 0 on port 0 and an unbound device kGhost on port 1, whose rules
 * already sit in MD 1 (reached by SID 1 and the cold SID). No CPU: the
 * only things that change the state a stall waits on are the events a
 * scenario schedules. Probes record what both loops must agree on,
 * plus whether the node was parked.
 */
struct ParkRig {
    explicit ParkRig(bool fast_forward)
        : soc(config()),
          hot("hot", kHot, soc.masterLink(0)),
          ghost("ghost", kGhost, soc.masterLink(1))
    {
        soc.add(&hot);
        soc.add(&ghost);
        soc.add(&late);
        soc.sim().setFastForward(fast_forward);
        SIopmp &unit = soc.iopmp();
        unit.cam().set(0, kHot);
        unit.src2md().associate(0, 0);
        unit.src2md().associate(1, 1);
        unit.src2md().associate(unit.coldSid(), 1);
        unit.mdcfg().setTop(0, 8);
        for (MdIndex md = 1; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, 16);
        unit.entryTable().set(
            0, Entry::range(kHotBase, 0x0100'0000, Perm::ReadWrite));
        unit.entryTable().set(
            8, Entry::range(kGhostBase, 0x0100'0000, Perm::ReadWrite));
        unit.setIrqHandler([this](const Irq &irq) {
            sid_miss_irqs += irq.kind == IrqKind::SidMissing;
        });
    }

    static soc::SocConfig
    config()
    {
        soc::SocConfig c;
        c.num_masters = 2;
        c.iopmp.num_sids = 4;
        c.iopmp.num_mds = 4;
        c.iopmp.num_entries = 16;
        c.checker_kind = CheckerKind::PipelineTree;
        c.checker_stages = 2;
        return c;
    }

    /** Start a job of @p bytes on @p engine; 4 outstanding reads fill
     * the 3-deep request pipe and leave a beat waiting upstream. */
    void
    start(dev::DmaEngine &engine, dev::DmaKind kind, Addr base,
          std::uint64_t bytes)
    {
        dev::DmaJob job;
        job.kind = kind;
        job.src = job.dst = base;
        job.bytes = bytes;
        job.max_outstanding = 4;
        engine.start(job, soc.sim().now());
    }

    /** Run @p fn at the start of cycle @p when. */
    void
    at(Cycle when, std::function<void()> fn)
    {
        soc.sim().events().schedule(when, std::move(fn));
    }

    /** At cycle @p when, record whether port @p port's node is parked
     * and what the loops must agree on: uplink occupancy and the CAM
     * use bits. */
    void
    probe(Cycle when, unsigned port)
    {
        at(when, [this, port] {
            parked.push_back(!soc.checkerNode(port).active());
            std::ostringstream os;
            os << soc.masterLink(port)->a.occupancy();
            for (Sid sid = 0; sid < soc.iopmp().cam().numRows(); ++sid)
                os << ' ' << soc.iopmp().cam().useBit(sid);
            snapshots.push_back(os.str());
        });
    }

    std::string
    stats()
    {
        std::ostringstream os;
        stats::TextStatsWriter writer(os);
        soc.accept(writer);
        hot.statsGroup().accept(writer);
        ghost.statsGroup().accept(writer);
        return os.str();
    }

    soc::Soc soc;
    dev::DmaEngine hot;
    dev::DmaEngine ghost;
    LateMutator late;
    unsigned sid_miss_irqs = 0;
    std::vector<bool> parked;
    std::vector<std::string> snapshots;
};

struct ParkOutcome {
    Cycle finished = 0;
    std::uint64_t bursts = 0;
    unsigned sid_miss_irqs = 0;
    std::string stats;
    std::vector<bool> parked;
    std::vector<std::string> snapshots;
};

ParkOutcome
runParked(bool fast_forward, const std::function<void(ParkRig &)> &script)
{
    ParkRig rig(fast_forward);
    script(rig);
    rig.soc.sim().runUntil(
        [&] { return rig.hot.done() && rig.ghost.done(); }, 100'000);
    ParkOutcome out;
    out.finished = rig.soc.sim().now();
    out.bursts = rig.hot.burstsCompleted() + rig.ghost.burstsCompleted();
    out.sid_miss_irqs = rig.sid_miss_irqs;
    out.stats = rig.stats();
    out.parked = rig.parked;
    out.snapshots = rig.snapshots;
    return out;
}

/** Run @p script with fast-forward on and off: the jobs finish, both
 * loops agree on everything observable, and under fast-forward every
 * probe found the node parked. Returns the fast-forward outcome. */
ParkOutcome
expectParkedMatchesNaive(const std::function<void(ParkRig &)> &script)
{
    const ParkOutcome ff = runParked(true, script);
    const ParkOutcome naive = runParked(false, script);
    EXPECT_GT(ff.bursts, 0u);
    EXPECT_EQ(ff.finished, naive.finished);
    EXPECT_EQ(ff.bursts, naive.bursts);
    EXPECT_EQ(ff.sid_miss_irqs, naive.sid_miss_irqs);
    EXPECT_EQ(ff.stats, naive.stats);
    EXPECT_EQ(ff.snapshots, naive.snapshots);
    EXPECT_FALSE(ff.parked.empty());
    for (std::size_t i = 0; i < ff.parked.size(); ++i)
        EXPECT_TRUE(ff.parked[i]) << "probe " << i;
    return ff;
}

TEST(CheckerNodeWake, DirectUnblockFromEvent)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        rig.soc.iopmp().blockBitmap().block(0);
        rig.start(rig.hot, dev::DmaKind::Read, kHotBase, 512);
        rig.probe(300, 0);
        rig.at(600, [&rig] { rig.soc.iopmp().blockBitmap().unblock(0); });
    });
}

/**
 * A change made after the node's evaluate slot must wake it even while
 * it is still active: the node saw the old state this cycle and would
 * otherwise park on it for good.
 */
TEST(CheckerNodeWake, ChangeAfterEvaluateSlotWakesActiveNode)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        rig.soc.iopmp().blockBitmap().block(0);
        rig.start(rig.hot, dev::DmaKind::Read, kHotBase, 512);
        rig.probe(300, 0);
        // Wake without resolving the stall: the node re-polls at 600
        // and 601 (the wake's grace cycle) and would retire at 601.
        rig.at(600, [&rig] { rig.soc.iopmp().blockBitmap().block(2); });
        rig.late.at = 601;
        rig.late.fn = [&rig] { rig.soc.iopmp().blockBitmap().unblock(0); };
    });
}

TEST(CheckerNodeWake, MmioBlockWordWrite)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        const Addr word = soc::kIopmpMmioBase + regmap::kBlockBitmap;
        rig.soc.mmio().write(word, 1);
        rig.start(rig.hot, dev::DmaKind::Write, kHotBase, 512);
        rig.probe(300, 0);
        rig.at(600, [&rig, word] { rig.soc.mmio().write(word, 0); });
    });
}

TEST(CheckerNodeWake, EsidMount)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        rig.start(rig.ghost, dev::DmaKind::Read, kGhostBase, 256);
        rig.probe(300, 1);
        rig.at(600, [&rig] { rig.soc.iopmp().setMountedCold(kGhost); });
    });
}

TEST(CheckerNodeWake, CamSet)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        rig.start(rig.ghost, dev::DmaKind::Read, kGhostBase, 256);
        rig.probe(300, 1);
        rig.at(600, [&rig] { rig.soc.iopmp().cam().set(1, kGhost); });
    });
}

TEST(CheckerNodeWake, CamInsertLru)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        rig.start(rig.ghost, dev::DmaKind::Read, kGhostBase, 256);
        rig.probe(300, 1);
        rig.at(600, [&rig] {
            EXPECT_EQ(rig.soc.iopmp().cam().insertLru(kGhost, nullptr), 1u);
        });
    });
}

/**
 * The tick-every-cycle loop re-sets a blocked head's CAM use bit on
 * every poll; a parked node does not. A clock sweep that clears that
 * bit must wake the node so its next poll sets it again on the same
 * cycle — otherwise a later sweep would evict the wrong row.
 */
TEST(CheckerNodeWake, ClockSweepClearingParkedUseBit)
{
    const ParkOutcome ff = expectParkedMatchesNaive([](ParkRig &rig) {
        DeviceId2SidCam &cam = rig.soc.iopmp().cam();
        cam.insertLru(2, nullptr); // rows 1 and 2, use bits clear
        cam.insertLru(3, nullptr);
        rig.soc.iopmp().blockBitmap().block(0);
        rig.start(rig.hot, dev::DmaKind::Read, kHotBase, 512);
        rig.probe(300, 0);
        rig.at(500, [&rig] {
            std::optional<DeviceId> evicted;
            // The sweep clears row 0's use bit, then evicts row 1.
            rig.soc.iopmp().cam().insertLru(4, &evicted);
            ASSERT_TRUE(evicted.has_value());
            EXPECT_EQ(*evicted, 2u);
        });
        rig.probe(700, 0); // re-parked, use bit set again
        rig.at(900, [&rig] { rig.soc.iopmp().blockBitmap().unblock(0); });
    });
    ASSERT_EQ(ff.snapshots.size(), 2u);
    EXPECT_EQ(ff.snapshots[1].substr(ff.snapshots[1].find(' ')), " 1 0 0");
}

TEST(CheckerNodeWake, SetCheckerDuringStall)
{
    expectParkedMatchesNaive([](ParkRig &rig) {
        rig.soc.iopmp().blockBitmap().block(0);
        rig.start(rig.hot, dev::DmaKind::Read, kHotBase, 512);
        rig.probe(300, 0);
        // A deeper pipeline makes room in the request pipe: the node
        // must wake and pull the waiting beat off the uplink.
        rig.at(500, [&rig] {
            rig.soc.iopmp().setChecker(CheckerKind::PipelineTree, 4);
        });
        rig.probe(700, 0);
        rig.at(900, [&rig] { rig.soc.iopmp().blockBitmap().unblock(0); });
    });
}

TEST(CheckerNodeWake, ConfigEpochRearmsPendingSidMiss)
{
    const ParkOutcome ff = expectParkedMatchesNaive([](ParkRig &rig) {
        rig.start(rig.ghost, dev::DmaKind::Read, kGhostBase, 256);
        rig.probe(300, 1);
        // An unrelated config write moves the epoch without resolving
        // the ghost: the stalled beat re-authorizes and re-raises.
        rig.at(400, [&rig] {
            rig.soc.mmio().write(
                soc::kIopmpMmioBase + regmap::kSrc2MdBase + 2 * 8, 0);
        });
        rig.probe(700, 1);
        rig.at(800, [&rig] { rig.soc.iopmp().setMountedCold(kGhost); });
    });
    EXPECT_EQ(ff.sid_miss_irqs, 2u);
}

// ---- held verdicts under backpressure --------------------------------

constexpr DeviceId kHog = 2;
constexpr Addr kHogBase = 0x8200'0000;

/** Scalar (or average's mean) @p stat of the newest live stats group
 * named @p group; 0 when either is missing. Registers nothing. */
double
liveStat(const std::string &group, const std::string &stat)
{
    struct Reader : stats::StatsVisitor {
        explicit Reader(const std::string &name) : want(name) {}
        void
        visitScalar(const stats::Group &, const std::string &name,
                    const stats::Scalar &s) override
        {
            if (name == want)
                value = s.value();
        }
        void
        visitAverage(const stats::Group &, const std::string &name,
                     const stats::Average &a) override
        {
            if (name == want)
                value = a.mean();
        }
        void visitDistribution(const stats::Group &, const std::string &,
                               const stats::Distribution &) override {}
        void visitHistogram(const stats::Group &, const std::string &,
                            const stats::Histogram &) override {}

        const std::string &want;
        double value = 0;
    };
    const auto &live = stats::Registry::global().liveGroups();
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
        if ((*it)->name() == group) {
            Reader reader(stat);
            (*it)->accept(reader);
            return reader.value;
        }
    }
    return 0;
}

/**
 * Backpressure on ParkRig's 4-SID SoC: device kHot (SID 0, MD 0) reads
 * on port 0 while device kHog (SID 1, MD 1) streams write bursts on
 * port 1. The xbar keeps a write burst's beats together, so checker
 * 0's allowed head beat waits behind them on a full downlink and
 * re-polls every cycle with its verdict held. holdHead() steps to such
 * a cycle; each test then changes one piece of state between cycles
 * and checks that the very next poll sees the change.
 */
struct HoldRig {
    /** @p cold: reach kHot through the eSID register, not a CAM row. */
    explicit HoldRig(bool cold = false)
        : soc(ParkRig::config()),
          hot("hot", kHot, soc.masterLink(0)),
          hog("hog", kHog, soc.masterLink(1))
    {
        soc.add(&hot);
        soc.add(&hog);
        SIopmp &unit = soc.iopmp();
        unit.setAccelMode(AccelMode::PlansAndCache);
        if (cold) {
            unit.setMountedCold(kHot);
            unit.src2md().associate(unit.coldSid(), 0);
        } else {
            unit.cam().set(0, kHot);
            unit.src2md().associate(0, 0);
        }
        unit.cam().set(1, kHog);
        unit.src2md().associate(1, 1);
        unit.mdcfg().setTop(0, 8);
        for (MdIndex md = 1; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, 16);
        unit.entryTable().set(
            0, Entry::range(kHotBase, 0x0100'0000, Perm::ReadWrite));
        unit.entryTable().set(
            8, Entry::range(kHogBase, 0x0100'0000, Perm::ReadWrite));
        unit.setIrqHandler([this](const Irq &irq) {
            if (irq.device == kHot)
                ++(irq.kind == IrqKind::SidMissing ? sid_miss_irqs
                                                   : violation_irqs);
        });
    }

    /** Start both streams, then step until checker 0 holds a beat. */
    void
    holdHead()
    {
        start(hog, dev::DmaKind::Write, kHogBase);
        start(hot, dev::DmaKind::Read, kHotBase);
        stepUntilHeld();
    }

    /** Step until checker 0 has re-polled an allowed head beat it could
     * not forward on two cycles in a row. Every burst has its own
     * address, so its first check misses the verdict cache: a hit is a
     * re-poll of the same beat. */
    void
    stepUntilHeld()
    {
        double hits = 0;
        unsigned held_polls = 0;
        while (held_polls < 2 && soc.sim().now() < 10'000) {
            poll();
            const double now_hits = accelStat("check_cache_hits");
            held_polls = now_hits == hits + 1 ? held_polls + 1 : 0;
            hits = now_hits;
        }
        ASSERT_EQ(held_polls, 2u);
        ASSERT_EQ(sid_miss_irqs + violation_irqs, 0u);
    }

    void
    start(dev::DmaEngine &engine, dev::DmaKind kind, Addr base)
    {
        dev::DmaJob job;
        job.kind = kind;
        job.src = job.dst = base;
        job.bytes = 16 * 1024;
        job.max_outstanding = 8;
        engine.start(job, soc.sim().now());
    }

    /** Run one cycle: one poll of checker 0's head beat. */
    void poll() { soc.sim().run(1); }

    double nodeStat(const char *stat) { return liveStat("checker0", stat); }
    double
    accelStat(const char *stat)
    {
        return liveStat("checker0.accel", stat);
    }

    /** The next poll denies the held beat: under BusError it goes to
     * the error node, and the violation interrupt fires. */
    void
    expectDeniedOnNextPoll()
    {
        poll();
        EXPECT_EQ(nodeStat("violations"), 1.0);
        EXPECT_EQ(violation_irqs, 1u);
    }

    /** The next poll finds kHot unmapped and raises SID-missing. */
    void
    expectSidMissOnNextPoll()
    {
        poll();
        EXPECT_EQ(nodeStat("sid_miss_stalls"), 1.0);
        EXPECT_EQ(sid_miss_irqs, 1u);
    }

    soc::Soc soc;
    dev::DmaEngine hot;
    dev::DmaEngine hog;
    unsigned sid_miss_irqs = 0;  //!< kHot's only
    unsigned violation_irqs = 0; //!< kHot's only
};

TEST(CheckerNodeHold, EntryClearDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    ASSERT_TRUE(rig.soc.iopmp().entryTable().clear(0));
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, MmioEntryRevokeDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    // A cfg write with mode OFF commits a disabled entry 0.
    rig.soc.mmio().write(soc::kIopmpMmioBase + regmap::kEntryBase + 16, 0);
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, EntryTableResetDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    rig.soc.iopmp().entryTable().resetAll();
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, MdcfgTopMoveDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    // MD 0's window closes; entry 0 falls to MD 1, which SID 0 lacks.
    ASSERT_TRUE(rig.soc.iopmp().mdcfg().setTop(0, 0));
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, Src2MdDeassociateDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    ASSERT_TRUE(rig.soc.iopmp().src2md().deassociate(0, 0));
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, Src2MdSetBitmapDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    // MD 1 holds only the hog's window.
    ASSERT_TRUE(rig.soc.iopmp().src2md().setBitmap(0, 0b10));
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, Src2MdAssociateDeniesHeldBeat)
{
    HoldRig rig;
    // SID 0 reaches kHot's window through entry 9 (MD 1); MD 0's entry
    // 0 now covers it with no permission.
    SIopmp &unit = rig.soc.iopmp();
    unit.entryTable().set(0, Entry::range(kHotBase, 0x0100'0000, Perm::None));
    unit.entryTable().set(
        9, Entry::range(kHotBase, 0x0100'0000, Perm::ReadWrite));
    unit.src2md().setBitmap(0, 0b10);
    rig.holdHead();
    // Associating MD 0 puts the higher-priority entry 0 in front.
    ASSERT_TRUE(unit.src2md().associate(0, 0));
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, Src2MdResetDeniesHeldBeat)
{
    HoldRig rig;
    rig.holdHead();
    rig.soc.iopmp().src2md().resetAll();
    rig.expectDeniedOnNextPoll();
}

TEST(CheckerNodeHold, CamInvalidateRaisesSidMissing)
{
    HoldRig rig;
    rig.holdHead();
    ASSERT_TRUE(rig.soc.iopmp().cam().invalidate(kHot));
    rig.expectSidMissOnNextPoll();
}

TEST(CheckerNodeHold, CamSetRaisesSidMissing)
{
    HoldRig rig;
    rig.holdHead();
    rig.soc.iopmp().cam().set(0, 7); // row 0 rebound to another device
    rig.expectSidMissOnNextPoll();
}

TEST(CheckerNodeHold, CamInsertLruRaisesSidMissing)
{
    HoldRig rig;
    rig.soc.iopmp().cam().set(2, 3); // every row valid, use bits set
    rig.holdHead();
    // The clock sweep clears rows 0-2 and evicts row 0 on its second
    // pass.
    std::optional<DeviceId> evicted;
    EXPECT_EQ(rig.soc.iopmp().cam().insertLru(4, &evicted), 0u);
    ASSERT_EQ(evicted, std::optional<DeviceId>(kHot));
    rig.expectSidMissOnNextPoll();
}

TEST(CheckerNodeHold, EsidUnmountRaisesSidMissing)
{
    HoldRig rig(/*cold=*/true);
    rig.holdHead();
    rig.soc.iopmp().setMountedCold(std::nullopt);
    rig.expectSidMissOnNextPoll();
}

TEST(CheckerNodeHold, BlockBitOpensWindowThatCycle)
{
    HoldRig rig;
    rig.holdHead();
    rig.soc.iopmp().blockBitmap().block(0);
    rig.poll();
    const Cycle blocked_at = rig.soc.sim().now() - 1;
    EXPECT_EQ(rig.nodeStat("block_stalls"), 1.0);

    // The window opened on that poll: it closes when the beat leaves.
    rig.soc.iopmp().blockBitmap().unblock(0);
    const double forwarded = rig.nodeStat("beats_forwarded");
    while (rig.nodeStat("beats_forwarded") == forwarded &&
           rig.soc.sim().now() < blocked_at + 1'000)
        rig.poll();
    const Cycle left_at = rig.soc.sim().now() - 1;
    EXPECT_EQ(liveStat("busmon", "block_windows"), 1.0);
    EXPECT_EQ(liveStat("busmon", "block_window_mean"),
              static_cast<double>(left_at - blocked_at));
}

TEST(CheckerNodeHold, SetCheckerRechecksThroughNewReplica)
{
    HoldRig rig;
    rig.holdHead();
    rig.soc.iopmp().setChecker(CheckerKind::PipelineTree, 4);
    rig.poll();
    // The node rebuilt its checker and checked the beat through it:
    // one miss in the new, empty verdict cache, not a held hit.
    EXPECT_EQ(rig.accelStat("check_cache_hits"), 0.0);
    EXPECT_EQ(rig.accelStat("check_cache_misses"), 1.0);
    EXPECT_EQ(rig.accelStat("plan_compiles"), 1.0);
}

TEST(CheckerNodeHold, SetAccelModeStopsCacheHits)
{
    HoldRig rig;
    rig.holdHead();
    const double hits = rig.accelStat("check_cache_hits");
    const double checks = liveStat("siopmp", "checks");
    rig.soc.iopmp().setAccelMode(AccelMode::Plans);
    rig.poll();
    rig.poll();
    // Without the cache no poll counts a hit, held or not.
    EXPECT_EQ(rig.accelStat("check_cache_hits"), hits);
    EXPECT_GE(liveStat("siopmp", "checks"), checks + 2);
}

/**
 * An accelerator stamps its invalidation trace instants with the cycle
 * of its last check, and a held poll counts as one.
 */
TEST(CheckerNodeHold, HeldPollStampsInvalidationInstants)
{
    HoldRig rig;
    // Memory's read interval alone backs checker 0 up; checker 1 and
    // the unit's own checker never check.
    rig.start(rig.hot, dev::DmaKind::Read, kHotBase);
    rig.stepUntilHeld();
    trace::RingBufferSink ring(16);
    trace::tracer().setSink(&ring);
    rig.soc.iopmp().entryTable().set(15, Entry::off()); // in MD 1
    trace::tracer().setSink(nullptr);
    std::vector<Cycle> stamps;
    for (const trace::Event &ev : ring.events()) {
        if (std::string(ev.name) == "partial_flush")
            stamps.push_back(ev.when);
    }
    std::sort(stamps.begin(), stamps.end());
    EXPECT_EQ(stamps, (std::vector<Cycle>{0, 0, rig.soc.sim().now() - 1}));
}

/**
 * An interrupt that arrives while the CPU is still inside the previous
 * handler leaves it parked (no polling through busy_until_); the timed
 * wake services it exactly at busy_until_, as the naive loop does.
 */
TEST(CpuNodeWake, PendingInterruptServicedAtBusyUntil)
{
    struct Run {
        Cycle first_done = 0;
        Cycle second_serviced = 0;
        bool parked_while_pending = false;
    };
    const auto run = [](bool fast_forward) {
        soc::Soc soc(ParkRig::config());
        ExtendedTable ext(&soc.memory(), {0x7000'0000, 0x1000});
        fw::SecureMonitor monitor(&soc.iopmp(), &soc.mmio(),
                                  soc::kIopmpMmioBase, &ext,
                                  &soc.monitor());
        soc::CpuNode cpu("cpu0", &monitor, &soc.iopmp(), &soc.sim());
        soc.add(&cpu);
        Simulator &sim = soc.sim();
        sim.setFastForward(fast_forward);
        const Irq irq{IrqKind::Violation, kHot, kHotBase, Perm::Read};

        Run r;
        sim.events().schedule(10, [&] { monitor.irqController().raise(irq); });
        sim.runUntil([&] { return cpu.interruptsServiced() == 1; }, 1'000);
        r.first_done = cpu.busyUntil();
        EXPECT_GT(r.first_done, sim.now() + 5);
        sim.events().schedule(sim.now() + 2, [&] {
            monitor.irqController().raise(irq);
        });
        sim.events().schedule(sim.now() + 4, [&] {
            r.parked_while_pending = !cpu.active() &&
                                     monitor.irqController().pending();
        });
        sim.runUntil([&] { return cpu.interruptsServiced() == 2; }, 1'000);
        r.second_serviced = sim.now() - 1;
        return r;
    };
    const Run ff = run(true);
    const Run naive = run(false);
    EXPECT_TRUE(ff.parked_while_pending);
    EXPECT_EQ(ff.second_serviced, ff.first_done);
    EXPECT_EQ(naive.second_serviced, naive.first_done);
    EXPECT_EQ(ff.first_done, naive.first_done);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
