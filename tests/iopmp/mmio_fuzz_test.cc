/**
 * @file
 * Register-interface fuzz: arbitrary sequences of reads and writes to
 * the sIOPMP MMIO window must never crash the model, and architectural
 * invariants must hold afterwards regardless of what software wrote:
 *
 *  - MDCFG tops remain monotone non-decreasing (among programmed MDs);
 *  - the DeviceID2SID CAM never maps one device to two SIDs;
 *  - locked SRC2MD rows never change;
 *  - the checker still terminates and returns a definite verdict.
 */

#include <gtest/gtest.h>

#include "iopmp/siopmp.hh"
#include "mem/mmio.hh"
#include "sim/random.hh"

namespace siopmp {
namespace iopmp {
namespace {

class MmioFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MmioFuzz, ArbitraryRegisterTrafficKeepsInvariants)
{
    Rng rng(GetParam());
    SIopmp unit(IopmpConfig{}, CheckerKind::PipelineTree, 2);
    mem::MmioBus bus;
    bus.map("siopmp", {0x0, regmap::kWindowSize}, &unit);

    // Pin one locked row up front; it must survive the fuzzing.
    unit.src2md().setBitmap(2, 0b101);
    unit.src2md().lock(2);
    const std::uint64_t locked_bitmap = unit.src2md().bitmap(2);

    for (int op = 0; op < 4000; ++op) {
        // Mostly valid-region offsets, sometimes wild ones.
        Addr offset;
        switch (rng.below(5)) {
          case 0:
            offset = regmap::kSrc2MdBase + rng.below(64) * 8;
            break;
          case 1:
            offset = regmap::kMdCfgBase + rng.below(63) * 8;
            break;
          case 2:
            offset = regmap::kCamBase + rng.below(63) * 8;
            break;
          case 3:
            offset = regmap::kEntryBase +
                     rng.below(1024) * regmap::kEntryStride +
                     rng.below(4) * 8;
            break;
          default:
            offset = rng.below(regmap::kWindowSize) & ~Addr{7};
            break;
        }
        if (rng.chance(0.7)) {
            // Biased values: small numbers, bit-63 patterns, garbage.
            std::uint64_t value = rng.next();
            if (rng.chance(0.5))
                value &= 0xffff;
            if (rng.chance(0.3))
                value |= std::uint64_t{1} << 63;
            bus.write(offset, value);
        } else {
            bus.read(offset);
        }
    }

    // Invariant: programmed MDCFG tops are monotone.
    unsigned prev = 0;
    for (MdIndex md = 0; md < 63; ++md) {
        const unsigned top = unit.mdcfg().top(md);
        if (top != 0) {
            EXPECT_GE(top, prev) << "MD " << md;
            prev = top;
        }
    }

    // Invariant: no device appears in two CAM rows.
    std::vector<DeviceId> seen;
    for (Sid sid = 0; sid < unit.cam().numRows(); ++sid) {
        if (auto device = unit.cam().deviceAt(sid)) {
            for (DeviceId earlier : seen)
                EXPECT_NE(earlier, *device) << "duplicate CAM mapping";
            seen.push_back(*device);
        }
    }

    // Invariant: the locked row is untouched.
    EXPECT_EQ(unit.src2md().bitmap(2), locked_bitmap);
    EXPECT_TRUE(unit.src2md().locked(2));

    // The data path still answers deterministically.
    for (int probe = 0; probe < 50; ++probe) {
        const DeviceId device = rng.below(100);
        const auto result = unit.authorize(
            device, 0x8000'0000 + rng.below(1 << 24), 64, Perm::Read);
        (void)result; // any definite status is acceptable
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmioFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66),
                         [](const auto &info) {
                             return "seed" + std::to_string(info.param);
                         });

} // namespace
} // namespace iopmp
} // namespace siopmp
