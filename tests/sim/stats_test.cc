/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace siopmp {
namespace stats {
namespace {

TEST(Scalar, IncrementAndAdd)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
}

TEST(Average, MeanOfSamples)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Distribution, ExactPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
}

TEST(Distribution, PercentileOfSingleSample)
{
    Distribution d;
    d.sample(42);
    EXPECT_DOUBLE_EQ(d.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 42.0);
}

TEST(Distribution, SamplesAfterPercentileQueryStillCounted)
{
    Distribution d;
    d.sample(5);
    EXPECT_DOUBLE_EQ(d.percentile(50), 5.0);
    d.sample(1); // forces re-sort
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_EQ(d.count(), 2u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5); // [0,10) ... [40,50)
    h.sample(-1);
    h.sample(0);
    h.sample(9.99);
    h.sample(10);
    h.sample(49.9);
    h.sample(50);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.totalSamples(), 6u);
}

TEST(Group, TextWriterContainsRegisteredStats)
{
    Group g("unit");
    g.scalar("hits") += 3;
    g.average("lat").sample(7);
    std::ostringstream os;
    TextStatsWriter writer(os);
    g.accept(writer);
    const std::string out = os.str();
    EXPECT_NE(out.find("unit.hits 3"), std::string::npos);
    EXPECT_NE(out.find("unit.lat.mean 7"), std::string::npos);
}

TEST(Group, SameNameReturnsSameStat)
{
    Group g("unit");
    ++g.scalar("x");
    ++g.scalar("x");
    EXPECT_DOUBLE_EQ(g.scalar("x").value(), 2.0);
}

TEST(Group, HistogramShapeAppliesOnFirstRegistrationOnly)
{
    Group g("unit");
    Histogram &h = g.histogram("lat", 0.0, 10.0, 4);
    h.sample(25);
    // A second lookup with different shape parameters returns the same
    // histogram, shape unchanged.
    Histogram &again = g.histogram("lat", 100.0, 1.0, 2);
    EXPECT_EQ(&h, &again);
    EXPECT_DOUBLE_EQ(again.lo(), 0.0);
    EXPECT_DOUBLE_EQ(again.bucketWidth(), 10.0);
    EXPECT_EQ(again.numBuckets(), 4u);
    EXPECT_EQ(again.bucketCount(2), 1u);
}

TEST(Group, HistogramDumpsInRegistrationOrder)
{
    Group g("unit");
    g.scalar("first") += 1;
    g.histogram("mid", 0.0, 1.0, 2).sample(0.5);
    g.scalar("last") += 1;
    std::ostringstream os;
    TextStatsWriter writer(os);
    g.accept(writer);
    const std::string out = os.str();
    const auto first = out.find("unit.first 1");
    const auto mid = out.find("unit.mid.samples 1");
    const auto bucket = out.find("unit.mid.bucket0 1");
    const auto last = out.find("unit.last 1");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(mid, std::string::npos);
    ASSERT_NE(bucket, std::string::npos);
    ASSERT_NE(last, std::string::npos);
    EXPECT_LT(first, mid);
    EXPECT_LT(mid, bucket);
    EXPECT_LT(bucket, last);
}

TEST(Group, LazyStatsRegisterInFirstUpdateOrder)
{
    Group g("unit");
    LazyScalar hits(g, "hits");
    LazyAverage lat(g, "lat");
    EXPECT_TRUE(g.empty());
    lat.sample(4);
    ++hits;
    lat.sample(8);
    hits += 2;
    EXPECT_DOUBLE_EQ(g.scalar("hits").value(), 3.0);
    EXPECT_EQ(g.average("lat").count(), 2u);
    EXPECT_DOUBLE_EQ(g.average("lat").mean(), 6.0);
    std::ostringstream os;
    TextStatsWriter writer(os);
    g.accept(writer);
    const std::string out = os.str();
    EXPECT_LT(out.find("unit.lat.mean"), out.find("unit.hits"));
}

TEST(Registry, TracksLiveGroups)
{
    Registry &reg = Registry::global();
    const std::size_t before = reg.numLive();
    {
        Group g("reg-live");
        ++g.scalar("x");
        EXPECT_EQ(reg.numLive(), before + 1);
        EXPECT_EQ(reg.liveGroups().back(), &g);
    }
    EXPECT_EQ(reg.numLive(), before);
}

TEST(Registry, RetainsRetiredSnapshotsWhenEnabled)
{
    Registry &reg = Registry::global();
    reg.clearRetired();
    reg.setRetainRetired(true);
    {
        Group g("reg-retired");
        g.scalar("events") += 7;
        Group quiet("reg-quiet"); // empty: must not leave a snapshot
    }
    reg.setRetainRetired(false);
    ASSERT_EQ(reg.numRetired(), 1u);
    std::ostringstream os;
    TextStatsWriter writer(os);
    reg.accept(writer);
    EXPECT_NE(os.str().find("reg-retired.events 7"), std::string::npos);
    EXPECT_EQ(os.str().find("reg-quiet"), std::string::npos);
    reg.clearRetired();
    EXPECT_EQ(reg.numRetired(), 0u);
}

TEST(Registry, DetachedCopyDoesNotRegister)
{
    Registry &reg = Registry::global();
    Group g("reg-copy-src");
    ++g.scalar("n");
    const std::size_t live = reg.numLive();
    {
        Group copy(g);
        EXPECT_EQ(reg.numLive(), live); // copy never registered
        EXPECT_DOUBLE_EQ(copy.scalar("n").value(), 1.0);
    }
    EXPECT_EQ(reg.numLive(), live); // copy's dtor must not deregister g
    EXPECT_EQ(reg.liveGroups().back(), &g);
}

TEST(JsonWriter, EmitsAllStatTypes)
{
    Group g("json");
    g.scalar("s") += 2;
    g.average("a").sample(4);
    g.distribution("d").sample(8);
    g.histogram("h", 0.0, 1.0, 2).sample(0.5);
    std::ostringstream os;
    {
        JsonStatsWriter writer(os);
        g.accept(writer);
        writer.finish();
    }
    const std::string out = os.str();
    EXPECT_NE(out.find("{\"groups\":["), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"json\""), std::string::npos);
    EXPECT_NE(out.find("\"type\":\"scalar\",\"value\":2"),
              std::string::npos);
    EXPECT_NE(out.find("\"type\":\"average\",\"mean\":4,\"count\":1"),
              std::string::npos);
    EXPECT_NE(out.find("\"type\":\"distribution\""), std::string::npos);
    EXPECT_NE(out.find("\"buckets\":[1,0]"), std::string::npos);
    // Balanced document: finish() closed the arrays.
    EXPECT_NE(out.find("\n]}"), std::string::npos);
}

TEST(JsonWriter, EmptyRegistryStillValidDocument)
{
    std::ostringstream os;
    {
        JsonStatsWriter writer(os);
        writer.finish();
    }
    EXPECT_EQ(os.str(), "{\"groups\":[\n]}\n");
}

} // namespace
} // namespace stats
} // namespace siopmp
