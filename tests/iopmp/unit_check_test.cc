/**
 * @file
 * Unit check-path tests (SIopmp::authorize, matchWindows):
 *
 *  - differential, on a unit of every checker kind: the unit's
 *    authorize() must reach the verdict of the serial reference walk
 *    (firstMatch), and matchWindows its deciding entry, allowed and
 *    partial flags, across random programming and direct table
 *    mutations mid-stream;
 *  - invalidation completeness, on one unit: a parameterized walk over
 *    every MMIO write path (and the direct-mutation APIs) that can
 *    change an authorization outcome, comparing the unit's authorize()
 *    with a reference built from its own live state (SID resolution,
 *    block bit, the reference walk).
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "iopmp/checker.hh"
#include "iopmp/siopmp.hh"
#include "sim/random.hh"

namespace siopmp {
namespace iopmp {
namespace {

// ---- differential vs the reference walk ---------------------------------

/** Address pool shared by entries and probes so they actually collide;
 * includes the extremes that historically broke interval arithmetic. */
Addr
pickAddr(Rng &rng)
{
    static constexpr Addr kPool[] = {
        0x0,
        0x1000,
        0x2000,
        0x8000,
        0x100000,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0} - 0xfff, // region/burst ending at 2^64
    };
    Addr addr = kPool[rng.below(sizeof(kPool) / sizeof(kPool[0]))];
    if (rng.chance(0.4))
        addr += rng.below(0x2000) & ~Addr{7};
    return addr;
}

void
randomizeEntry(EntryTable &entries, Rng &rng)
{
    const unsigned idx = static_cast<unsigned>(rng.below(entries.size()));
    Entry entry = Entry::off();
    if (!rng.chance(0.15)) {
        static constexpr Addr kSizes[] = {1, 8, 0x40, 0x1000, 0x2000,
                                          std::uint64_t{1} << 32,
                                          std::uint64_t{1} << 63,
                                          ~std::uint64_t{0}};
        entry = Entry::range(
            pickAddr(rng),
            kSizes[rng.below(sizeof(kSizes) / sizeof(kSizes[0]))],
            static_cast<Perm>(rng.below(4)));
    }
    ASSERT_TRUE(entries.set(idx, entry, /*machine_mode=*/true));
}

/** Zero every MDCFG top, lowest MD first: a zero top may not sit below
 * a programmed one. */
void
clearTops(MdCfgTable &mdcfg)
{
    for (MdIndex md = 0; md < mdcfg.numMds(); ++md)
        ASSERT_TRUE(mdcfg.setTop(md, 0));
}

void
randomizeTops(MdCfgTable &mdcfg, Rng &rng, unsigned num_entries)
{
    clearTops(mdcfg);
    unsigned top = 0;
    for (MdIndex md = 0; md < mdcfg.numMds(); ++md) {
        top = std::min(num_entries,
                       top + static_cast<unsigned>(
                                 rng.below(num_entries / 2 + 1)));
        // Some MDs stay unprogrammed (top 0) between programmed ones.
        if (!rng.chance(0.2)) {
            ASSERT_TRUE(mdcfg.setTop(md, top));
        }
    }
}

CheckRequest
randomRequest(Rng &rng, unsigned num_mds)
{
    CheckRequest req;
    req.addr = pickAddr(rng);
    static constexpr Addr kLens[] = {1, 4, 8, 0x40, 0x1000};
    req.len = kLens[rng.below(sizeof(kLens) / sizeof(kLens[0]))];
    if (rng.chance(0.05))
        req.len = 0; // must deny with no deciding entry
    else if (rng.chance(0.05))
        req.len = ~Addr{0} - req.addr + 1; // burst ending at 2^64
    req.perm = static_cast<Perm>(rng.below(4));
    req.md_bitmap = rng.next() & ((std::uint64_t{1} << num_mds) - 1);
    return req;
}

struct KindParam {
    CheckerKind kind;
    unsigned stages;
};

std::string
kindParamName(const KindParam &param)
{
    // gtest names must be [A-Za-z0-9_]; kind names carry dashes.
    std::string name = checkerKindName(param.kind);
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "x" + std::to_string(param.stages);
}

/** Names the kind in test output (gtest would print its bytes). */
void
PrintTo(const KindParam &param, std::ostream *os)
{
    *os << kindParamName(param);
}

constexpr KindParam kKinds[] = {{CheckerKind::Linear, 1},
                                {CheckerKind::Tree, 1},
                                {CheckerKind::PipelineLinear, 3},
                                {CheckerKind::PipelineTree, 2}};

class UnitDifferential : public ::testing::TestWithParam<KindParam>
{
};

/** The unit's authorize() must reach the verdict of the reference
 * walk, and matchWindows the walk's whole result, including across
 * direct (non-MMIO) table mutations mid-stream and unprogrammed MDs
 * between programmed ones. One device bound to SID 0 checks each
 * request through the request's bitmap. */
TEST_P(UnitDifferential, MatchesKindWalkUnderMutation)
{
    constexpr unsigned kEntries = 24;
    constexpr unsigned kMds = 8;
    constexpr DeviceId kDev = 1;
    IopmpConfig cfg;
    cfg.num_entries = kEntries;
    cfg.num_sids = 4;
    cfg.num_mds = kMds;
    SIopmp dut(cfg, GetParam().kind, GetParam().stages);
    EntryTable &entries = dut.entryTable();
    MdCfgTable &mdcfg = dut.mdcfg();
    dut.cam().set(0, kDev);
    Rng rng(0xacce1 + static_cast<unsigned>(GetParam().kind));

    randomizeTops(mdcfg, rng, kEntries);
    for (unsigned i = 0; i < kEntries; ++i)
        randomizeEntry(entries, rng);

    for (unsigned i = 0; i < 4000; ++i) {
        if (i % 97 == 96) {
            // Mutate through the direct (non-MMIO) API: entry rewrite
            // or a whole-table MDCFG reshape.
            if (rng.chance(0.7))
                randomizeEntry(entries, rng);
            else
                randomizeTops(mdcfg, rng, kEntries);
        }
        const CheckRequest req = randomRequest(rng, kMds);
        ASSERT_TRUE(dut.src2md().setBitmap(0, req.md_bitmap));
        const AuthResult unit =
            dut.authorize(kDev, req.addr, req.len, req.perm);
        const CheckResult windows = matchWindows(entries, mdcfg, req);
        const CheckResult walk = firstMatch(entries, mdcfg, req);
        ASSERT_EQ(unit.entry, walk.entry)
            << "iter " << i << " addr=" << std::hex << req.addr
            << " len=" << req.len << " bitmap=" << req.md_bitmap;
        ASSERT_EQ(unit.status,
                  walk.allowed ? AuthStatus::Allow : AuthStatus::Deny)
            << "iter " << i;
        ASSERT_EQ(windows.entry, walk.entry) << "iter " << i;
        ASSERT_EQ(windows.allowed, walk.allowed) << "iter " << i;
        ASSERT_EQ(windows.partial, walk.partial) << "iter " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, UnitDifferential, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<KindParam> &info) {
        return kindParamName(info.param);
    });

// ---- invalidation completeness over the MMIO surface --------------------

/** One mutation scenario: a named state change that must become
 * visible through authorize() immediately. */
struct Mutation {
    const char *name;
    std::function<void(SIopmp &)> apply;
    //! Whether the probe battery is guaranteed to change somewhere
    //! (proving the invalidation is load-bearing, not vacuous).
    bool expect_change;
};

/** Names the mutation in test output (gtest would print its bytes,
 * code and heap addresses included). */
void
PrintTo(const Mutation &mutation, std::ostream *os)
{
    *os << mutation.name;
}

constexpr DeviceId kDevHot = 1;
constexpr DeviceId kDevHot2 = 2;
constexpr DeviceId kDevCold = 9;
constexpr DeviceId kDevCold2 = 10;
constexpr DeviceId kDevUnbound = 7;

IopmpConfig
probeConfig()
{
    IopmpConfig cfg;
    cfg.num_entries = 8;
    cfg.num_sids = 8;
    cfg.num_mds = 4;
    return cfg;
}

void
writeEntry(SIopmp &dut, unsigned idx, Addr base, Addr size,
           std::uint64_t cfg_word)
{
    const Addr off = regmap::kEntryBase + Addr{idx} * regmap::kEntryStride;
    dut.mmioWrite(off + 0, base);
    dut.mmioWrite(off + 8, size);
    dut.mmioWrite(off + 16, cfg_word);
}

/** Common programming, all through the MMIO window: three range
 * entries across two MDs, two hot SIDs, one mounted cold device. */
void
program(SIopmp &dut)
{
    constexpr std::uint64_t kRange = 1u << 2;
    writeEntry(dut, 0, 0x1000, 0x1000, kRange | 0x3); // rw
    writeEntry(dut, 1, 0x2000, 0x1000, kRange | 0x1); // r-
    writeEntry(dut, 2, 0x8000, 0x1000, kRange | 0x3); // rw
    dut.mmioWrite(regmap::kMdCfgBase + 0 * 8, 2); // MD0: entries 0-1
    dut.mmioWrite(regmap::kMdCfgBase + 1 * 8, 3); // MD1: entry 2
    dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8, 0x1); // SID1 -> MD0
    dut.mmioWrite(regmap::kSrc2MdBase + 2 * 8, 0x2); // SID2 -> MD1
    // Cold slot (SID 7) sees both MDs.
    dut.mmioWrite(regmap::kSrc2MdBase + 7 * 8, 0x3);
    const std::uint64_t kValid = std::uint64_t{1} << 63;
    dut.mmioWrite(regmap::kCamBase + 1 * 8, kValid | kDevHot);
    dut.mmioWrite(regmap::kCamBase + 2 * 8, kValid | kDevHot2);
    dut.mmioWrite(regmap::kEsid, kValid | kDevCold);
}

/** Every (device, addr, perm) combination the scenarios can flip,
 * each decided by @p decide. */
template <typename Decide>
std::vector<AuthResult>
battery(Decide decide)
{
    static constexpr DeviceId kDevices[] = {kDevHot, kDevHot2, kDevCold,
                                            kDevCold2, kDevUnbound};
    static constexpr Addr kAddrs[] = {0x1000, 0x2000, 0x8000, 0x10000};
    static constexpr Perm kPerms[] = {Perm::Read, Perm::Write};
    std::vector<AuthResult> results;
    for (DeviceId device : kDevices)
        for (Addr addr : kAddrs)
            for (Perm perm : kPerms)
                results.push_back(decide(device, addr, perm));
    return results;
}

/** The battery through the unit's authorize(). */
std::vector<AuthResult>
probe(SIopmp &dut)
{
    return battery([&dut](DeviceId device, Addr addr, Perm perm) {
        return dut.authorize(device, addr, 8, perm);
    });
}

/** The battery decided from @p dut's live state without authorize():
 * resolve the SID, test its block bit, then run the reference walk
 * over the SID's domains. */
std::vector<AuthResult>
reference(SIopmp &dut)
{
    return battery([&dut](DeviceId device, Addr addr,
                          Perm perm) -> AuthResult {
        const std::optional<Sid> sid = dut.resolveSid(device);
        if (!sid)
            return {AuthStatus::SidMiss, kNoSid, -1};
        if (dut.blockBitmap().blocked(*sid))
            return {AuthStatus::Blocked, *sid, -1};
        CheckRequest req;
        req.addr = addr;
        req.len = 8;
        req.perm = perm;
        req.md_bitmap = dut.src2md().bitmap(*sid);
        const CheckResult walk =
            firstMatch(dut.entryTable(), dut.mdcfg(), req);
        return {walk.allowed ? AuthStatus::Allow : AuthStatus::Deny, *sid,
                walk.entry};
    });
}

bool
sameResults(const std::vector<AuthResult> &a,
            const std::vector<AuthResult> &b, std::string *why)
{
    if (a.size() != b.size()) {
        *why = "size mismatch";
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].status != b[i].status || a[i].sid != b[i].sid ||
            a[i].entry != b[i].entry) {
            *why = "probe " + std::to_string(i) + ": status " +
                   std::to_string(static_cast<int>(a[i].status)) +
                   " vs " + std::to_string(static_cast<int>(b[i].status)) +
                   ", entry " + std::to_string(a[i].entry) + " vs " +
                   std::to_string(b[i].entry);
            return false;
        }
    }
    return true;
}

class InvalidationCompleteness : public ::testing::TestWithParam<Mutation>
{
};

/**
 * Program, probe, mutate and probe again, comparing every verdict the
 * unit's authorize() gives with the reference decided afresh from the
 * unit's live state (resolveSid, the block bit and the serial walk).
 * A mutation path whose change authorize() does not see shows up as
 * the unit serving a pre-mutation verdict. The unit keeps no state
 * derived from its tables, and authorize() reads no part of the
 * checker geometry, so one unit covers every kind. (The name dates
 * from a verdict cache the unit no longer has: "cached" is now the
 * unit's authorize(), "uncached" the reference.)
 */
TEST_P(InvalidationCompleteness, CachedMatchesUncachedAcrossMutation)
{
    SIopmp dut(probeConfig(), CheckerKind::PipelineTree, 2);
    program(dut);

    std::string why;
    const std::vector<AuthResult> before = reference(dut);
    ASSERT_TRUE(sameResults(probe(dut), before, &why)) << why;

    GetParam().apply(dut);

    const std::vector<AuthResult> after = reference(dut);
    EXPECT_TRUE(sameResults(probe(dut), after, &why))
        << GetParam().name << ": " << why;

    if (GetParam().expect_change) {
        EXPECT_FALSE(sameResults(before, after, &why))
            << GetParam().name
            << ": mutation did not change any probe verdict — the "
               "scenario is vacuous";
    }
}

const std::uint64_t kValid63 = std::uint64_t{1} << 63;

INSTANTIATE_TEST_SUITE_P(
    MmioPaths, InvalidationCompleteness,
    ::testing::Values(
        Mutation{"entry_commit",
                 [](SIopmp &dut) {
                     // Entry 0 flips rw -> none: allowed becomes deny.
                     writeEntry(dut, 0, 0x1000, 0x1000, (1u << 2) | 0x0);
                 },
                 true},
        Mutation{"entry_disable",
                 [](SIopmp &dut) {
                     writeEntry(dut, 2, 0, 0, 0); // mode Off
                 },
                 true},
        Mutation{"entry_lock_rejected_rewrite",
                 [](SIopmp &dut) {
                     // Lock entry 0, then try to rewrite it: the write
                     // is rejected, verdicts must NOT change.
                     writeEntry(dut, 0, 0x1000, 0x1000,
                                (1u << 2) | 0x3 | 0x80);
                     writeEntry(dut, 0, 0x1000, 0x1000, (1u << 2) | 0x0);
                 },
                 false},
        Mutation{"src2md_bitmap",
                 [](SIopmp &dut) {
                     // SID1 loses MD0: its allowed probes default-deny.
                     dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8, 0x0);
                 },
                 true},
        Mutation{"src2md_lock_then_rejected",
                 [](SIopmp &dut) {
                     // Locked row rejects the follow-up clear.
                     dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8,
                                   kValid63 | 0x1);
                     dut.mmioWrite(regmap::kSrc2MdBase + 1 * 8, 0x0);
                 },
                 false},
        Mutation{"mdcfg_top",
                 [](SIopmp &dut) {
                     // MD0 shrinks to entry 0 only: entry 1 moves into
                     // MD1, so SID1 loses 0x2000 and SID2 gains it.
                     dut.mmioWrite(regmap::kMdCfgBase + 0 * 8, 1);
                 },
                 true},
        Mutation{"cam_invalidate",
                 [](SIopmp &dut) {
                     // Device 1 unbinds: probes turn sid_miss.
                     dut.mmioWrite(regmap::kCamBase + 1 * 8, 0);
                 },
                 true},
        Mutation{"cam_rebind",
                 [](SIopmp &dut) {
                     // Unbound device 7 takes over SID 2's row.
                     dut.mmioWrite(regmap::kCamBase + 2 * 8,
                                   kValid63 | kDevUnbound);
                 },
                 true},
        Mutation{"esid_cold_switch",
                 [](SIopmp &dut) {
                     // Mounted cold device swaps 9 -> 10.
                     dut.mmioWrite(regmap::kEsid, kValid63 | kDevCold2);
                 },
                 true},
        Mutation{"esid_unmount",
                 [](SIopmp &dut) { dut.mmioWrite(regmap::kEsid, 0); },
                 true},
        Mutation{"block_bitmap_set",
                 [](SIopmp &dut) {
                     // SID 1 blocked: probes stall.
                     dut.mmioWrite(regmap::kBlockBitmap, 0x2);
                 },
                 true},
        Mutation{"direct_entry_set",
                 [](SIopmp &dut) {
                     // Machine-mode table write bypassing MMIO: the
                     // unit must still see it.
                     dut.entryTable().set(0, Entry::off(),
                                          /*machine_mode=*/true);
                 },
                 true},
        Mutation{"direct_mdcfg_reset",
                 [](SIopmp &dut) {
                     // Direct wipe of the MD map back to its reset
                     // value, top by top: nothing is owned, all checks
                     // default-deny.
                     clearTops(dut.mdcfg());
                 },
                 true}),
    [](const ::testing::TestParamInfo<Mutation> &info) {
        return info.param.name;
    });

} // namespace
} // namespace iopmp
} // namespace siopmp
