/**
 * @file
 * Interrupt controller model for the secure monitor. sIOPMP raises
 * interrupts (violation, SID-missing) over the interrupt bus; the
 * controller queues them and dispatches to registered M-mode handlers
 * with a fixed trap-entry cost, which is part of the cold-device
 * switching latency the paper measures (341 cycles for 8 entries).
 */

#ifndef FW_INTERRUPT_CTRL_HH
#define FW_INTERRUPT_CTRL_HH

#include <deque>
#include <functional>

#include "iopmp/siopmp.hh"
#include "sim/types.hh"

namespace siopmp {

class Tickable;

namespace fw {

class InterruptController
{
  public:
    using Handler = std::function<Cycle(const iopmp::Irq &, Cycle now)>;

    //! Cycles to enter and leave the M-mode trap handler, charged once
    //! per serviced interrupt.
    static constexpr Cycle kTrapCost = 80;

    /** Register the handler for one interrupt kind. */
    void setHandler(iopmp::IrqKind kind, Handler handler);

    /** Hardware side: latch a pending interrupt. */
    void raise(const iopmp::Irq &irq);

    /**
     * Wire the component (typically the CpuNode) that polls pending();
     * raise() wakes it so it can sleep while no interrupt is latched.
     */
    void bindWake(Tickable *target) { wake_target_ = target; }

    /**
     * CPU side: service all pending interrupts at time @p now.
     * @return total CPU cycles consumed (trap entry + handler work).
     */
    Cycle service(Cycle now);

    bool pending() const { return !queue_.empty(); }
    std::uint64_t raised() const { return raised_; }
    std::uint64_t serviced() const { return serviced_; }

  private:
    Tickable *wake_target_ = nullptr;
    std::deque<iopmp::Irq> queue_;
    Handler violation_handler_;
    Handler sid_missing_handler_;
    std::uint64_t raised_ = 0;
    std::uint64_t serviced_ = 0;
};

} // namespace fw
} // namespace siopmp

#endif // FW_INTERRUPT_CTRL_HH
