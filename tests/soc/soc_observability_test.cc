/**
 * @file
 * Observability integration tests: a scripted DMA burst (and a
 * scripted violation) must produce the documented trace-event
 * sequence with consistent correlation ids, monotonic timestamps and
 * correct span nesting; tracing must be a pure observer (identical
 * results on and off); the redesigned stats API (Soc::accept +
 * visitors) must cover every component in both text and JSON form;
 * and Soc construction must reject checker combinations the hardware
 * could not build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "sim/trace.hh"
#include "soc/soc.hh"
#include "support/capture_sink.hh"

namespace siopmp {
namespace soc {
namespace {

constexpr DeviceId kDevice = 1;
constexpr Addr kAllowed = 0x8000'0000;
constexpr Addr kForbidden = 0x9000'0000;

/** Map the device but only over the first 16 MiB of DRAM. */
void
allowWindow(Soc &soc)
{
    auto &unit = soc.iopmp();
    unit.cam().set(0, kDevice);
    unit.src2md().associate(0, 0);
    for (MdIndex md = 0; md < unit.config().num_mds; ++md)
        unit.mdcfg().setTop(md, 16);
    unit.entryTable().set(
        0, iopmp::Entry::range(kAllowed, 0x0100'0000, Perm::ReadWrite));
}

/** Events of one (category, name) pair, arrival order preserved. */
std::vector<trace::Event>
select(const std::vector<trace::Event> &events, const char *category,
       const char *name)
{
    std::vector<trace::Event> out;
    for (const auto &ev : events) {
        if (std::strcmp(ev.category, category) == 0 &&
            std::strcmp(ev.name, name) == 0)
            out.push_back(ev);
    }
    return out;
}

TEST(SocObservability, AllowedReadBurstEmitsNestedSpans)
{
    SocConfig cfg;
    Soc soc(cfg);
    dev::DmaEngine engine("dma0", kDevice, soc.masterLink(0));
    soc.add(&engine);
    allowWindow(soc);

    trace::CaptureSink sink;
    trace::tracer().setSink(&sink);

    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = kAllowed;
    job.bytes = 64; // exactly one burst
    engine.start(job, soc.sim().now());
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    soc.sim().run(50); // drain the response path
    trace::tracer().setSink(nullptr);
    ASSERT_TRUE(engine.done());

    const auto events = sink.events();

    // The exact event population of one allowed read burst.
    const auto checks = select(events, "checker", "check");
    const auto verdicts = select(events, "checker", "verdict");
    const auto txns = select(events, "bus", "txn");
    const auto reads = select(events, "mem", "read");
    ASSERT_EQ(checks.size(), 2u);   // span begin + end
    ASSERT_EQ(verdicts.size(), 1u); // one A beat -> one verdict
    ASSERT_EQ(txns.size(), 2u);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_TRUE(select(events, "checker", "violation").empty());
    EXPECT_TRUE(select(events, "checker", "sid_miss").empty());

    // Phases and correlation ids pair up.
    EXPECT_EQ(checks[0].phase, trace::Phase::SpanBegin);
    EXPECT_EQ(checks[1].phase, trace::Phase::SpanEnd);
    EXPECT_EQ(checks[0].id, checks[1].id);
    EXPECT_EQ(txns[0].phase, trace::Phase::SpanBegin);
    EXPECT_EQ(txns[1].phase, trace::Phase::SpanEnd);
    EXPECT_EQ(txns[0].id, txns[1].id);
    EXPECT_EQ(reads[0].phase, trace::Phase::SpanBegin);
    EXPECT_EQ(reads[1].phase, trace::Phase::SpanEnd);
    EXPECT_EQ(reads[0].id, reads[1].id);

    // Checker and xbar ids encode the same transaction: checker tags
    // device (1) in bits 32+, the xbar tags port (0) in bits 48+.
    const std::uint64_t txn_at_checker =
        checks[0].id ^ (std::uint64_t{kDevice + 1} << 32);
    const std::uint64_t txn_at_xbar = txns[0].id ^ (std::uint64_t{1} << 48);
    EXPECT_EQ(txn_at_checker, txn_at_xbar);

    // The verdict is an allow, attributed to entry 0 / stage 0.
    EXPECT_STREQ(verdicts[0].label, "allow");
    EXPECT_EQ(verdicts[0].arg1, 0u); // matched entry index
    EXPECT_EQ(verdicts[0].device, kDevice);
    EXPECT_EQ(verdicts[0].addr, kAllowed);

    // Span nesting: check opens first, then the bus transaction, then
    // the memory service; they close inside-out downstream (the bus
    // span outlives the memory span, which outlives the check).
    EXPECT_LE(checks[0].when, txns[0].when);
    EXPECT_LE(txns[0].when, reads[0].when);
    EXPECT_LT(reads[0].when, reads[1].when);
    EXPECT_LE(reads[1].when, txns[1].when);

    // Arrival order is consistent with the timestamps.
    auto arrival = [&](const trace::Event &ev) {
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].when == ev.when &&
                events[i].phase == ev.phase &&
                std::strcmp(events[i].name, ev.name) == 0)
                return i;
        }
        return events.size();
    };
    EXPECT_LT(arrival(checks[0]), arrival(txns[0]));
    EXPECT_LT(arrival(txns[0]), arrival(reads[0]));
    EXPECT_LT(arrival(reads[0]), arrival(reads[1]));
    EXPECT_LT(arrival(reads[1]), arrival(txns[1]));

    // Timestamps never decrease across the whole stream.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].when, events[i - 1].when) << i;
}

TEST(SocObservability, ViolationEmitsVerdictAndViolationEvents)
{
    SocConfig cfg;
    Soc soc(cfg);
    dev::DmaEngine engine("dma0", kDevice, soc.masterLink(0));
    soc.add(&engine);
    allowWindow(soc);

    trace::CaptureSink sink;
    trace::tracer().setSink(&sink);

    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = kForbidden; // outside the mapped window
    job.bytes = 64;
    engine.start(job, soc.sim().now());
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    soc.sim().run(50);
    trace::tracer().setSink(nullptr);
    ASSERT_TRUE(engine.done());
    EXPECT_GT(engine.deniedResponses(), 0u);

    const auto events = sink.events();
    const auto verdicts = select(events, "checker", "verdict");
    const auto violations = select(events, "checker", "violation");
    ASSERT_EQ(verdicts.size(), 1u);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_STREQ(verdicts[0].label, "deny");
    EXPECT_EQ(verdicts[0].arg1, ~0ull); // no matching entry
    EXPECT_EQ(violations[0].when, verdicts[0].when);
    EXPECT_EQ(violations[0].addr, kForbidden);
    EXPECT_STREQ(violations[0].label, "r-"); // required permission

    // Denied at the checker: the burst never reached bus or memory.
    EXPECT_TRUE(select(events, "bus", "txn").empty());
    EXPECT_TRUE(select(events, "mem", "read").empty());
}

TEST(SocObservability, BlockingWindowSpansAndHistogram)
{
    SocConfig cfg;
    Soc soc(cfg);
    dev::DmaEngine engine("dma0", kDevice, soc.masterLink(0));
    soc.add(&engine);
    allowWindow(soc);

    trace::CaptureSink sink;
    trace::tracer().setSink(&sink);

    soc.iopmp().blockBitmap().block(0);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = kAllowed;
    job.bytes = 64;
    engine.start(job, soc.sim().now());
    soc.sim().run(200); // request stalls on the block bit
    EXPECT_FALSE(engine.done());
    soc.iopmp().blockBitmap().unblock(0);
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);
    trace::tracer().setSink(nullptr);
    ASSERT_TRUE(engine.done());

    const auto events = sink.events();
    const auto windows = select(events, "checker", "block_window");
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].phase, trace::Phase::SpanBegin);
    EXPECT_EQ(windows[1].phase, trace::Phase::SpanEnd);
    EXPECT_EQ(windows[0].id, windows[1].id);
    const Cycle duration = windows[1].when - windows[0].when;
    EXPECT_GE(duration, 190u);
    EXPECT_EQ(windows[1].arg1, duration);

    // The monitor recorded the same window into its stats group.
    EXPECT_EQ(soc.monitor().blockWindows(), 1u);
    auto &group = soc.monitor().statsGroup();
    EXPECT_DOUBLE_EQ(group.scalar("block_windows").value(), 1.0);
    EXPECT_EQ(group.histogram("block_window_cycles", 0.0, 8.0, 16)
                  .totalSamples(),
              1u);
    EXPECT_DOUBLE_EQ(group.average("block_window_mean").sum(),
                     static_cast<double>(duration));
}

TEST(SocObservability, TracingIsAPureObserver)
{
    auto run = [](bool traced) {
        SocConfig cfg;
        Soc soc(cfg);
        dev::DmaEngine engine("dma0", kDevice, soc.masterLink(0));
        soc.add(&engine);
        allowWindow(soc);

        trace::CaptureSink sink;
        if (traced)
            trace::tracer().setSink(&sink);

        dev::DmaJob job;
        job.kind = dev::DmaKind::Copy;
        job.src = kAllowed;
        job.dst = kAllowed + 0x10'0000;
        job.bytes = 2048;
        job.max_outstanding = 4;
        engine.start(job, soc.sim().now());
        soc.sim().runUntil([&] { return engine.done(); }, 200'000);
        trace::tracer().setSink(nullptr);

        std::ostringstream os;
        stats::TextStatsWriter writer(os);
        soc.accept(writer);
        return std::make_pair(engine.completedAt(), os.str());
    };

    const auto off = run(false);
    const auto on = run(true);
    EXPECT_EQ(off.first, on.first);   // cycle-identical
    EXPECT_EQ(off.second, on.second); // stat-identical
}

TEST(SocObservability, StatsJsonCoversEveryGroupTheTextWriterSees)
{
    SocConfig cfg;
    Soc soc(cfg);
    dev::DmaEngine engine("dma0", kDevice, soc.masterLink(0));
    soc.add(&engine);
    allowWindow(soc);
    dev::DmaJob job;
    job.kind = dev::DmaKind::Read;
    job.src = kAllowed;
    job.bytes = 512;
    engine.start(job, soc.sim().now());
    soc.sim().runUntil([&] { return engine.done(); }, 100'000);

    // Collect ground truth through a counting visitor.
    struct Collector : stats::StatsVisitor {
        std::vector<std::pair<std::string, std::string>> stats;
        void
        visitScalar(const stats::Group &g, const std::string &n,
                    const stats::Scalar &) override
        {
            stats.emplace_back(g.name(), n);
        }
        void
        visitAverage(const stats::Group &g, const std::string &n,
                     const stats::Average &) override
        {
            stats.emplace_back(g.name(), n);
        }
        void
        visitDistribution(const stats::Group &g, const std::string &n,
                          const stats::Distribution &) override
        {
            stats.emplace_back(g.name(), n);
        }
        void
        visitHistogram(const stats::Group &g, const std::string &n,
                       const stats::Histogram &) override
        {
            stats.emplace_back(g.name(), n);
        }
    } collector;
    soc.accept(collector);
    ASSERT_FALSE(collector.stats.empty());

    std::ostringstream text_os, json_os;
    stats::TextStatsWriter text(text_os);
    soc.accept(text);
    stats::JsonStatsWriter json(json_os);
    soc.accept(json);
    json.finish();

    for (const auto &[group, stat] : collector.stats) {
        EXPECT_NE(text_os.str().find(group + "." + stat),
                  std::string::npos)
            << group << "." << stat;
        EXPECT_NE(json_os.str().find("\"name\":\"" + stat + "\""),
                  std::string::npos)
            << group << "." << stat;
        EXPECT_NE(json_os.str().find("\"name\":\"" + group + "\""),
                  std::string::npos)
            << group;
    }

    // The key components all reported.
    const std::string text_out = text_os.str();
    EXPECT_NE(text_out.find("siopmp.checks"), std::string::npos);
    EXPECT_NE(text_out.find("checker0.beats_forwarded"),
              std::string::npos);
    EXPECT_NE(text_out.find("xbar.a_beats"), std::string::npos);
    EXPECT_NE(text_out.find("memory.read_bursts"), std::string::npos);
}

TEST(SocObservability, InvalidSocConfigRejectedAtConstruction)
{
    SocConfig cfg;
    cfg.checker_kind = iopmp::CheckerKind::Linear;
    cfg.checker_stages = 4;
    EXPECT_DEATH(Soc{cfg}, "pipelined checker kind");
}

TEST(SocObservability, InvalidCheckerCombinationRejectedAtConstruction)
{
    SocConfig bad;
    bad.checker_kind = iopmp::CheckerKind::Tree; // not pipelined
    bad.checker_stages = 3;
    EXPECT_DEATH(Soc{bad}, "pipelined checker kind");

    SocConfig zero;
    zero.checker_stages = 0;
    EXPECT_DEATH(Soc{zero}, "stages must be >= 1");
}

} // namespace
} // namespace soc
} // namespace siopmp
