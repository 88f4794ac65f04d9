/**
 * @file
 * Differential proof for parking on backpressure: a checker node whose
 * allowed head beat waits on a full downlink, and a DMA engine behind a
 * full uplink, leave the active set until the pop that frees a slot
 * wakes them, and a parked node's counters read what the naive loop's
 * do at any time, since polls that reuse a held verdict count nothing.
 * Every test runs the same saturated SoC twice — fast-forward and the naive tick-everything loop — and
 * compares the full stats dump (Soc plus registry) after every run()
 * chunk, the final cycle and the trace event stream.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "devices/dma_engine.hh"
#include "sim/trace.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace soc {
namespace {

using iopmp::CheckerKind;
using iopmp::Entry;
using iopmp::ViolationPolicy;

constexpr Addr kRegionBase = 0x8800'0000;
constexpr Addr kRegionSize = 0x0010'0000;
constexpr std::uint64_t kJobBytes = 2048;
constexpr Cycle kChunk = 37;

/** Registered after every other component: runs the actions due at a
 * cycle from its evaluate(), i.e. mid-tick, after the checker nodes'
 * slots in that cycle. */
struct LateMutator : Tickable {
    LateMutator() : Tickable("late") {}
    void
    evaluate(Cycle now) override
    {
        for (auto &[when, fn] : actions) {
            if (when == now)
                fn();
        }
    }

    std::vector<std::pair<Cycle, std::function<void()>>> actions;
};

struct Shape {
    ViolationPolicy policy;
    bool centralized;
    unsigned masters;
};

std::string
shapeName(const Shape &s)
{
    return std::string(s.policy == ViolationPolicy::BusError
                           ? "BusError"
                           : "PacketMasking") +
           (s.centralized ? "_Centralized_" : "_PerDevice_") +
           std::to_string(s.masters);
}

/** Names the shape in test output (gtest would print its bytes,
 * padding included). */
void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shapeName(shape);
}

/**
 * A SoC with one DMA engine per master port, each bound to its own SID,
 * MD and window. Engine i runs Read, Write or Copy jobs (by i % 3) with
 * 8, 4, 2 or 1 outstanding bursts (by i % 4), restarted whenever one
 * finishes, so the xbar saturates and most nodes and engines wait on
 * backpressure.
 */
struct Rig {
    Rig(const Shape &shape, bool fast_forward)
        : soc([&shape] {
              SocConfig cfg;
              cfg.num_masters = shape.masters;
              cfg.centralized_checker = shape.centralized;
              cfg.policy = shape.policy;
              cfg.checker_kind = CheckerKind::PipelineTree;
              cfg.checker_stages = 2;
              return cfg;
          }())
    {
        soc.sim().setFastForward(fast_forward);
        iopmp::SIopmp &unit = soc.iopmp();
        for (MdIndex md = 0; md < unit.config().num_mds; ++md)
            unit.mdcfg().setTop(md, std::min(4 * shape.masters, (md + 1) * 4));
        for (unsigned i = 0; i < shape.masters; ++i) {
            engines.push_back(std::make_unique<dev::DmaEngine>(
                "dma" + std::to_string(i), i + 1, soc.masterLink(i)));
            soc.add(engines.back().get());
            unit.cam().set(i, i + 1);
            unit.src2md().associate(i, i);
            unit.entryTable().set(i * 4, window(i));
        }
        soc.add(&late);
    }

    static Entry
    window(unsigned i)
    {
        return Entry::range(kRegionBase + i * kRegionSize, kRegionSize,
                            Perm::ReadWrite);
    }

    void
    startIdle()
    {
        for (unsigned i = 0; i < engines.size(); ++i) {
            if (!engines[i]->done())
                continue;
            static constexpr dev::DmaKind kKinds[] = {
                dev::DmaKind::Read, dev::DmaKind::Write, dev::DmaKind::Copy};
            dev::DmaJob job;
            job.kind = kKinds[i % 3];
            job.src = kRegionBase + i * kRegionSize;
            job.dst = job.src + kRegionSize / 2;
            job.bytes = kJobBytes;
            job.max_outstanding = 8u >> (i % 4);
            engines[i]->start(job, soc.sim().now());
        }
    }

    bool
    allDone() const
    {
        for (const auto &engine : engines) {
            if (!engine->done())
                return false;
        }
        return true;
    }

    /** Soc groups, then every live group of the registry. */
    std::string
    dump()
    {
        std::ostringstream os;
        stats::TextStatsWriter writer(os);
        soc.accept(writer);
        stats::Registry::global().accept(writer);
        return os.str();
    }

    /** Checker nodes off the active set. */
    unsigned
    parkedNodes()
    {
        const unsigned nodes = soc.config().centralized_checker
                                   ? 1
                                   : soc.config().num_masters;
        unsigned parked = 0;
        for (unsigned i = 0; i < nodes; ++i)
            parked += !soc.checkerNode(i).active();
        return parked;
    }

    Soc soc;
    std::vector<std::unique_ptr<dev::DmaEngine>> engines;
    LateMutator late;
};

struct Outcome {
    std::vector<std::string> dumps; //!< after every run() chunk
    Cycle final_cycle = 0;
    std::uint64_t version_moves = 0; //!< of SIopmp::stateVersion()
    std::string trace;
    double active_mean = 0;
    std::size_t components = 0;
    unsigned parked_at_mutation = 0;
};

/**
 * Run @p rig for @p chunks chunks of kChunk cycles, restarting idle
 * engines, with @p between(rig) called before every chunk; then drain.
 * Dumps the stats after every chunk and traces the whole run.
 */
Outcome
drive(Rig &rig, unsigned chunks, const std::function<void(Rig &)> &between)
{
    Outcome out;
    std::ostringstream trace_os;
    trace::ChromeTraceSink sink(trace_os);
    trace::tracer().setSink(&sink);
    const std::uint64_t version = rig.soc.iopmp().stateVersion();
    double active_sum = 0;
    for (unsigned c = 0; c < chunks; ++c) {
        rig.startIdle();
        between(rig);
        rig.soc.sim().run(kChunk);
        out.dumps.push_back(rig.dump());
        active_sum += static_cast<double>(rig.soc.sim().activeComponents());
    }
    rig.soc.sim().runUntil([&rig] { return rig.allDone(); }, 200'000);
    out.dumps.push_back(rig.dump());
    trace::tracer().setSink(nullptr);
    sink.flush();
    out.trace = trace_os.str();
    out.final_cycle = rig.soc.sim().now();
    out.version_moves = rig.soc.iopmp().stateVersion() - version;
    out.active_mean = active_sum / chunks;
    out.components = rig.soc.sim().components();
    return out;
}

/** Value of "@p key" in a text dump (its first line), 0 if absent. */
double
statValue(const std::string &dump, const std::string &key)
{
    const std::size_t at = dump.find(key + ' ');
    if (at == std::string::npos || (at != 0 && dump[at - 1] != '\n'))
        return 0;
    return std::stod(dump.substr(at + key.size() + 1));
}

/** Bursts the checker nodes admitted with an Allow: the check spans
 * of a trace that ended "allow". A burst's span ends at its last beat,
 * with the verdict its head beat latched. */
std::size_t
admittedBursts(const std::string &trace)
{
    std::size_t admitted = 0;
    std::istringstream lines(trace);
    for (std::string line; std::getline(lines, line);) {
        admitted += line.find("\"ph\":\"e\"") != std::string::npos &&
                    line.find("\"name\":\"check\"") != std::string::npos &&
                    line.find("\"label\":\"allow\"") != std::string::npos;
    }
    return admitted;
}

void
expectSameRun(const Outcome &ff, const Outcome &naive)
{
    ASSERT_EQ(ff.dumps.size(), naive.dumps.size());
    for (std::size_t i = 0; i < ff.dumps.size(); ++i)
        ASSERT_EQ(ff.dumps[i], naive.dumps[i]) << "after chunk " << i;
    EXPECT_EQ(ff.final_cycle, naive.final_cycle);
    EXPECT_EQ(ff.trace, naive.trace);
}

/**
 * A node parked on a block bit counts its stall once, when authorize()
 * answers Blocked: a dump taken between run() calls inside the block
 * window matches the naive loop's, checker2's block_stalls and
 * siopmp.checks included, not only the dump after the unblock.
 */
TEST(FastForwardDifferential, StatsMatchBetweenRunsInsideBlockWindow)
{
    const Shape shape{ViolationPolicy::BusError, false, 8};
    const auto script = [](Rig &rig) {
        const Cycle now = rig.soc.sim().now();
        if (now == 4 * kChunk)
            rig.soc.iopmp().blockBitmap().block(2);
        if (now == 24 * kChunk)
            rig.soc.iopmp().blockBitmap().unblock(2);
    };
    const auto run = [&shape, &script](bool fast_forward) {
        Rig rig(shape, fast_forward);
        return drive(rig, 32, script);
    };
    const Outcome ff = run(true);
    const Outcome naive = run(false);
    expectSameRun(ff, naive);
    EXPECT_GT(statValue(ff.dumps.back(), "checker2.block_stalls"), 0.0);
}

class BackpressureParkTest : public ::testing::TestWithParam<Shape>
{
};

/**
 * Mutations land while nodes are parked on a held Allow or a block bit,
 * from an event, mid-tick (after the checker nodes' slots) and between
 * run() calls: entry rewrites that change no verdict, a revoke and
 * restore of a read window, CAM and SRC2MD writes for a SID no engine
 * uses (they too move the state version and change no verdict) and a
 * block window. Every dump, the final cycle and the trace must match
 * the naive loop, and under fast-forward parking must have engaged.
 */
TEST_P(BackpressureParkTest, MatchesNaiveLoop)
{
    const Shape shape = GetParam();
    const auto run = [&shape](bool fast_forward) {
        Rig rig(shape, fast_forward);
        iopmp::SIopmp &unit = rig.soc.iopmp();
        unsigned parked_at_mutation = 0;
        // Mutations under fast-forward count the nodes they found
        // parked (the naive loop parks none).
        const auto note = [&rig, &parked_at_mutation] {
            parked_at_mutation += rig.parkedNodes();
        };
        const unsigned last = shape.masters - 1;
        // SIDs past the engines': no traffic ever resolves to them.
        const Sid idle = shape.masters;
        const DeviceId idle_device = 0xd1e;
        Simulator &sim = rig.soc.sim();
        sim.events().schedule(300, [&, note] {
            note();
            unit.entryTable().set(last * 4, Rig::window(last));
        });
        rig.late.actions.emplace_back(450, [&, note] {
            note();
            unit.cam().set(idle, idle_device);
        });
        sim.events().schedule(700, [&, note] {
            note();
            unit.blockBitmap().block(1);
        });
        rig.late.actions.emplace_back(900, [&, note] {
            note();
            unit.blockBitmap().unblock(1);
        });
        sim.events().schedule(1000, [&, note] {
            note();
            unit.src2md().associate(idle + 1, 0);
        });
        rig.late.actions.emplace_back(1100, [&, note] {
            note();
            unit.entryTable().set(last * 4 + 1, Entry::off());
        });
        sim.events().schedule(1600, [&, note] {
            note();
            unit.cam().invalidateSid(idle);
        });
        const auto between = [&](Rig &r) {
            const Cycle now = r.soc.sim().now();
            if (now == 16 * kChunk) {
                note();
                unit.src2md().setBitmap(idle + 1, 0x6);
            } else if (now == 34 * kChunk) {
                note();
                unit.entryTable().clear(0); // engine 0 reads
            } else if (now == 40 * kChunk) {
                note();
                unit.entryTable().set(0, Rig::window(0));
            } else if (now == 46 * kChunk) {
                note();
                unit.entryTable().set(2, Rig::window(0)); // MD 0 only
            }
        };
        Outcome out = drive(rig, 56, between);
        out.parked_at_mutation = parked_at_mutation;
        return out;
    };
    const Outcome ff = run(true);
    const Outcome naive = run(false);
    expectSameRun(ff, naive);

    // The schedule did something: denies from the revoke, a block
    // window. An admitted burst counts one Allow, at its head; a held
    // verdict counts nothing more until the state version moves, and a
    // move re-checks at most one held head per node. So allows exceed
    // admitted bursts by at most nodes x version moves.
    const std::string &end = naive.dumps.back();
    EXPECT_GT(statValue(end, "siopmp.denies"), 0.0);
    EXPECT_GT(statValue(end, "siopmp.blocked_stalls"), 0.0);
    const double allows = statValue(end, "siopmp.allows");
    const auto admitted = static_cast<double>(admittedBursts(naive.trace));
    const double nodes = shape.centralized ? 1 : shape.masters;
    EXPECT_GT(naive.version_moves, 0u);
    EXPECT_GE(allows, admitted);
    EXPECT_LE(allows,
              admitted + nodes * static_cast<double>(naive.version_moves));

    // Parking engaged: mutations found parked nodes, and far fewer
    // components ticked than the naive loop's every one. Eight masters
    // saturate the fabric, so most nodes and engines wait on
    // backpressure (polling through it ticks about half of all
    // components); two leave less to park.
    EXPECT_GT(ff.parked_at_mutation, 0u);
    EXPECT_EQ(naive.parked_at_mutation, 0u);
    EXPECT_EQ(naive.active_mean, static_cast<double>(naive.components));
    EXPECT_LT(ff.active_mean, (shape.masters == 8 ? 0.4 : 0.8) *
                                  static_cast<double>(ff.components));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackpressureParkTest,
    ::testing::Values(Shape{ViolationPolicy::BusError, false, 2},
                      Shape{ViolationPolicy::BusError, false, 8},
                      Shape{ViolationPolicy::BusError, true, 2},
                      Shape{ViolationPolicy::BusError, true, 8},
                      Shape{ViolationPolicy::PacketMasking, false, 2},
                      Shape{ViolationPolicy::PacketMasking, false, 8},
                      Shape{ViolationPolicy::PacketMasking, true, 2},
                      Shape{ViolationPolicy::PacketMasking, true, 8}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return shapeName(info.param);
    });

} // namespace
} // namespace soc
} // namespace siopmp
