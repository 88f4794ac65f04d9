/**
 * @file
 * Property-based tests on randomized tables and requests: the unit's
 * window walk (matchWindows) reaches the serial reference walk's
 * verdict (firstMatch). This is the core equivalence the MT checker
 * design relies on — pipelining and tree arbitration change timing and
 * area, never decisions — so every checker kind decides by the one
 * window walk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "iopmp/checker.hh"
#include "sim/random.hh"

namespace siopmp {
namespace iopmp {
namespace {

struct RandomConfig {
    unsigned entries;
    unsigned mds;
    std::uint64_t seed;
};

std::string
configName(const RandomConfig &cfg)
{
    return "e" + std::to_string(cfg.entries) + "_md" +
           std::to_string(cfg.mds) + "_s" + std::to_string(cfg.seed);
}

/** Names the config in test output (gtest would print its bytes). */
void
PrintTo(const RandomConfig &cfg, std::ostream *os)
{
    *os << configName(cfg);
}

/** Build a random but valid table configuration. */
void
randomize(EntryTable &entries, MdCfgTable &mdcfg, Rng &rng, unsigned nmds)
{
    const unsigned n = entries.size();
    // Random monotone MD partition.
    std::vector<unsigned> tops(nmds);
    for (auto &t : tops)
        t = static_cast<unsigned>(rng.below(n + 1));
    std::sort(tops.begin(), tops.end());
    for (unsigned md = 0; md < nmds; ++md)
        ASSERT_TRUE(mdcfg.setTop(md, tops[md]));

    // Random entries: mix of off, small and large, overlapping ranges.
    for (unsigned i = 0; i < n; ++i) {
        const auto roll = rng.below(10);
        if (roll == 0) {
            entries.set(i, Entry::off());
            continue;
        }
        const Addr base = rng.below(1 << 16) * 8;
        const Addr size = (1 + rng.below(512)) * 8;
        const Perm perm = static_cast<Perm>(rng.below(4));
        entries.set(i, Entry::range(base, size, perm));
    }
}

class CheckerEquivalence
    : public ::testing::TestWithParam<RandomConfig>
{
};

TEST_P(CheckerEquivalence, AllMicroarchitecturesAgree)
{
    const auto cfg = GetParam();
    Rng rng(cfg.seed);
    EntryTable entries(cfg.entries);
    MdCfgTable mdcfg(cfg.mds, cfg.entries);
    randomize(entries, mdcfg, rng, cfg.mds);

    for (int trial = 0; trial < 2000; ++trial) {
        CheckRequest req;
        req.addr = rng.below(1 << 19);
        req.len = 1 + rng.below(128);
        req.perm = rng.chance(0.5) ? Perm::Read : Perm::Write;
        // Random MD bitmap over the valid domains.
        req.md_bitmap = rng.next() & ((std::uint64_t{1} << cfg.mds) - 1);

        const CheckResult expect = firstMatch(entries, mdcfg, req);
        const CheckResult got = matchWindows(entries, mdcfg, req);
        ASSERT_EQ(expect.allowed, got.allowed)
            << "addr=" << req.addr << " len=" << req.len
            << " bitmap=" << req.md_bitmap;
        ASSERT_EQ(expect.entry, got.entry) << "addr=" << req.addr;
        ASSERT_EQ(expect.partial, got.partial) << "addr=" << req.addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CheckerEquivalence,
    ::testing::Values(RandomConfig{8, 2, 1}, RandomConfig{16, 3, 2},
                      RandomConfig{32, 8, 3}, RandomConfig{64, 16, 4},
                      RandomConfig{128, 32, 5}, RandomConfig{256, 63, 6},
                      RandomConfig{1024, 63, 7}, RandomConfig{7, 3, 8},
                      RandomConfig{33, 5, 9}, RandomConfig{100, 10, 10}),
    [](const ::testing::TestParamInfo<RandomConfig> &info) {
        return configName(info.param);
    });

/** Default-deny property: requests outside every region are denied
 * by both walks, whatever the MD bitmap or permission. */
TEST(CheckerProperty, DefaultDenyHoldsEverywhere)
{
    Rng rng(99);
    EntryTable entries(64);
    MdCfgTable mdcfg(8, 64);
    for (unsigned md = 0; md < 8; ++md)
        mdcfg.setTop(md, (md + 1) * 8);
    // All entries in a low window.
    for (unsigned i = 0; i < 64; ++i) {
        entries.set(i, Entry::range(rng.below(1 << 12) * 8, 64,
                                    Perm::ReadWrite));
    }
    for (int t = 0; t < 500; ++t) {
        // High addresses: beyond any entry (max base + size < 2^16).
        CheckRequest req{1 << 20, 8, Perm::Read, rng.next() & 0xff};
        req.addr += rng.below(1 << 20);
        EXPECT_FALSE(matchWindows(entries, mdcfg, req).allowed);
        EXPECT_FALSE(firstMatch(entries, mdcfg, req).allowed);
    }
}

/** Monotonicity: granting a superset bitmap can only change a "no
 * overlap" denial into some decision; it can never flip the deciding
 * entry to a lower-priority one. */
TEST(CheckerProperty, BitmapSupersetKeepsDecidingEntryOrImproves)
{
    Rng rng(7);
    EntryTable entries(32);
    MdCfgTable mdcfg(4, 32);
    randomize(entries, mdcfg, rng, 4);
    for (int t = 0; t < 2000; ++t) {
        CheckRequest req;
        req.addr = rng.below(1 << 19);
        req.len = 1 + rng.below(64);
        req.perm = Perm::Read;
        req.md_bitmap = rng.next() & 0xf;
        CheckRequest wider = req;
        wider.md_bitmap |= rng.next() & 0xf;

        auto narrow = firstMatch(entries, mdcfg, req);
        auto wide = firstMatch(entries, mdcfg, wider);
        if (narrow.entry >= 0) {
            // The deciding entry can only move to higher priority
            // (lower index) when more domains are visible.
            ASSERT_GE(narrow.entry, wide.entry);
            ASSERT_GE(wide.entry, 0);
        }
    }
}

} // namespace
} // namespace iopmp
} // namespace siopmp
