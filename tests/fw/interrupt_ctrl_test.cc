/**
 * @file
 * Unit tests for the interrupt controller.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fw/interrupt_ctrl.hh"

namespace siopmp {
namespace fw {
namespace {

TEST(IrqCtrl, RaiseAndService)
{
    InterruptController ctrl;
    std::vector<DeviceId> handled;
    ctrl.setHandler(iopmp::IrqKind::SidMissing,
                    [&](const iopmp::Irq &irq, Cycle) {
                        handled.push_back(irq.device);
                        return Cycle{100};
                    });

    ctrl.raise({iopmp::IrqKind::SidMissing, 42, 0x1000, Perm::Read});
    EXPECT_TRUE(ctrl.pending());
    const Cycle cost = ctrl.service(0);
    EXPECT_EQ(cost, 180u); // trap 80 + handler 100
    EXPECT_EQ(InterruptController::kTrapCost, 80u);
    EXPECT_FALSE(ctrl.pending());
    ASSERT_EQ(handled.size(), 1u);
    EXPECT_EQ(handled[0], 42u);
}

TEST(IrqCtrl, MultiplePendingServicedInOrder)
{
    InterruptController ctrl;
    std::vector<DeviceId> order;
    ctrl.setHandler(iopmp::IrqKind::SidMissing,
                    [&](const iopmp::Irq &irq, Cycle) {
                        order.push_back(irq.device);
                        return Cycle{0};
                    });
    ctrl.raise({iopmp::IrqKind::SidMissing, 1, 0, Perm::Read});
    ctrl.raise({iopmp::IrqKind::SidMissing, 2, 0, Perm::Read});
    ctrl.raise({iopmp::IrqKind::SidMissing, 3, 0, Perm::Read});
    EXPECT_EQ(ctrl.service(0), 3 * InterruptController::kTrapCost);
    EXPECT_EQ(order, (std::vector<DeviceId>{1, 2, 3}));
    EXPECT_EQ(ctrl.serviced(), 3u);
}

TEST(IrqCtrl, KindsDispatchToDifferentHandlers)
{
    InterruptController ctrl;
    int violations = 0, misses = 0;
    ctrl.setHandler(iopmp::IrqKind::Violation,
                    [&](const iopmp::Irq &, Cycle) {
                        ++violations;
                        return Cycle{0};
                    });
    ctrl.setHandler(iopmp::IrqKind::SidMissing,
                    [&](const iopmp::Irq &, Cycle) {
                        ++misses;
                        return Cycle{0};
                    });
    ctrl.raise({iopmp::IrqKind::Violation, 1, 0, Perm::Read});
    ctrl.raise({iopmp::IrqKind::SidMissing, 2, 0, Perm::Read});
    ctrl.service(0);
    EXPECT_EQ(violations, 1);
    EXPECT_EQ(misses, 1);
}

TEST(IrqCtrl, MissingHandlerStillConsumes)
{
    InterruptController ctrl;
    ctrl.raise({iopmp::IrqKind::Violation, 1, 0, Perm::Read});
    // Trap cost only.
    EXPECT_EQ(ctrl.service(0), InterruptController::kTrapCost);
    EXPECT_FALSE(ctrl.pending());
}

TEST(IrqCtrl, CountersTrackRaisedAndServiced)
{
    InterruptController ctrl;
    ctrl.raise({iopmp::IrqKind::Violation, 1, 0, Perm::Read});
    ctrl.raise({iopmp::IrqKind::Violation, 2, 0, Perm::Read});
    EXPECT_EQ(ctrl.raised(), 2u);
    EXPECT_EQ(ctrl.serviced(), 0u);
    ctrl.service(0);
    EXPECT_EQ(ctrl.serviced(), 2u);
}

} // namespace
} // namespace fw
} // namespace siopmp
