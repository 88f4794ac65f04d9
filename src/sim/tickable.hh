/**
 * @file
 * Cycle-driven component interface. Each cycle every awake component
 * evaluates once: it reads the fifo state registered at the last clock
 * edge, pushes and pops, and updates its own state. The simulator then
 * runs one clock edge that latches every fifo the cycle touched (see
 * Simulator). This mirrors how synchronous RTL behaves and lets ready/
 * valid handshakes resolve within a cycle regardless of tick order.
 *
 * Quiescence protocol (fast-forward scheduling): a component may opt in
 * by overriding quiescent(), which the simulator asks right after the
 * component's evaluate(), before later components act and before the
 * edge, unless the component was woken this cycle. Returning true is a
 * promise that evaluate() is an exact no-op from the next cycle on AND
 * will stay one until the component is woken; the simulator then stops
 * ticking it. So quiescent() reads its fifos as the edge will leave
 * them: settled() for a consumer, canPushNext() for a producer. A
 * quiescent component is re-armed by:
 *
 *  - a push into any bus::Fifo bound to it via Fifo::bindWake()
 *    (the channels it consumes);
 *  - a pop from a full bus::Fifo bound to it via Fifo::bindProducer()
 *    (the channels it pushes into), so a producer may park behind a
 *    fifo that stays full after the edge: that pop, in the same cycle
 *    or a later one, is the first event that can give it room;
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
 * evaluate() into real work must wake the component. Spurious wakes
 * are harmless: the simulator re-checks quiescent() after every
 * evaluate(). A wake issued during the pass reaches the woken
 * component in that pass exactly when it registered after the
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
     * Produce this cycle's outputs from the state registered at the
     * last clock edge and commit this component's own state. Pushes
     * and pops land at the edge that ends the cycle.
     */
    virtual void evaluate(Cycle now) = 0;

    /**
     * True iff evaluate() is a no-op from cycle @p now + 1 on and will
     * remain one until wake() is called. Asked right after this
     * component's evaluate() at @p now, before the edge (see file
     * header for the full contract). The default never quiesces,
     * which is always safe: components that do not opt in are ticked
     * every cycle.
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
    //! Cycle of the last wake: a component is not asked quiescent() in
    //! the cycle it was woken, so a wake's cause need not be visible to
    //! quiescent() until the component has evaluated after it.
    Cycle wake_cycle_ = 0;
};

} // namespace siopmp

#endif // SIM_TICKABLE_HH
