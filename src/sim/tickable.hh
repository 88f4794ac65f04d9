/**
 * @file
 * Two-phase cycle-driven component interface. Each cycle every component
 * first evaluates combinational outputs (evaluate), then commits state
 * (advance). This mirrors how synchronous RTL behaves and lets ready/
 * valid handshakes resolve within a cycle regardless of tick order.
 *
 * Quiescence protocol (fast-forward scheduling): a component may opt in
 * by overriding quiescent(). Returning true is a promise that both
 * evaluate() and advance() are exact no-ops at the given cycle AND will
 * stay no-ops until the component is woken. The simulator then drops
 * the component from the hot active set (one bit per component, indexed
 * by registration order) and stops ticking it; when all components are
 * quiescent it fast-forwards time to the next pending event. A
 * quiescent component is re-armed by:
 *
 *  - a push into any bus::Fifo bound to it via Fifo::bindWake()
 *    (the consumer-side channels it clocks in advance());
 *  - a pop from a full bus::Fifo bound to it via Fifo::bindProducer()
 *    (the channels it pushes into), so a producer may park behind a
 *    full fifo: that pop is the first event that can give it room;
 *  - a timed EventQueue::scheduleWake() the component armed itself
 *    (e.g. a memory controller waiting out an access latency, a CPU
 *    waiting out its interrupt handler);
 *  - an explicit wake() from external code that hands it new work
 *    (e.g. DmaEngine::start(), Nic::injectRxPacket()) or changes the
 *    state it is stalled on (SIopmp waking its stall waiters on CAM,
 *    block-bitmap, eSID and config changes).
 *
 * Missing a wake deadlocks or — worse — silently diverges from the
 * naive tick-everything loop, so every path that can turn a no-op
 * evaluate()/advance() into real work must wake the component. Spurious
 * wakes are harmless: the simulator re-checks quiescent() after every
 * ticked cycle. A wake issued while a phase is running reaches the
 * woken component in that phase exactly when it registered after the
 * component running (see Simulator).
 */

#ifndef SIM_TICKABLE_HH
#define SIM_TICKABLE_HH

#include <cstddef>
#include <string>

#include "sim/types.hh"

namespace siopmp {

class Simulator;

/**
 * Base class for clocked components.
 */
class Tickable
{
  public:
    explicit Tickable(std::string name) : name_(std::move(name)) {}
    virtual ~Tickable() = default;

    Tickable(const Tickable &) = delete;
    Tickable &operator=(const Tickable &) = delete;

    /**
     * Phase 1: produce this cycle's outputs from last cycle's state.
     * Components may enqueue into channels here.
     */
    virtual void evaluate(Cycle now) = 0;

    /**
     * Phase 2: consume channel inputs and commit state for the next
     * cycle.
     */
    virtual void advance(Cycle now) = 0;

    /**
     * True iff evaluate()/advance() are no-ops at cycle @p now and will
     * remain no-ops until wake() is called (see file header for the
     * full contract). The default never quiesces, which is always
     * safe: components that do not opt in are ticked every cycle.
     */
    virtual bool
    quiescent(Cycle now) const
    {
        (void)now;
        return false;
    }

    /**
     * Put this component back on the simulator's active set. Safe to
     * call at any time, from any phase; a no-op when the component is
     * not registered with a simulator or is already active.
     */
    void
    wake()
    {
        if (sim_ != nullptr)
            wakeSlow();
    }

    /** Simulator this component is registered with (null if none). */
    Simulator *simulator() const { return sim_; }

    /** True iff the component is on the simulator's active set. */
    bool active() const { return active_; }

    const std::string &name() const { return name_; }

  private:
    friend class Simulator;

    void wakeSlow();

    std::string name_;
    Simulator *sim_ = nullptr;
    //! Registration index: this component's bit in the simulator's
    //! active set, and its place in tick order.
    std::size_t index_ = 0;
    bool active_ = false;
    //! Cycle of the last wake; guards retirement in the same cycle so
    //! a wake during the advance phase (whose cause is still invisible
    //! to quiescent(), e.g. a staged fifo push) is never lost.
    Cycle wake_cycle_ = 0;
};

} // namespace siopmp

#endif // SIM_TICKABLE_HH
