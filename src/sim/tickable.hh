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
 * stay no-ops until the component is woken — or, for a poll whose only
 * effect is counting, that the component owes the skipped polls (see
 * settle() below). The simulator then drops the component from the hot
 * active set (one bit per component, indexed by registration order) and
 * stops ticking it; when all components are quiescent it fast-forwards
 * time to the next pending event. A quiescent component is re-armed by:
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
 *
 * Skipped-poll credit: a poll that only counts (a CheckerNode's head
 * beat stalled on a block bit, or holding an Allow behind a full
 * downlink) may be skipped if it is counted later. The component marks
 * each such poll with pollCounted(); every later poll it skips is owed
 * until settleThrough() credits them, "per-poll delta x polls", through
 * creditPolls(). settle() is the inline gate callers use: the simulator
 * settles every component when run()/runUntil() return, a unit settles
 * its stall waiters before any state change, and the component settles
 * at its next evaluate. See docs/SIMULATION.md for the full contract.
 */

#ifndef SIM_TICKABLE_HH
#define SIM_TICKABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/logging.hh"
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

    /**
     * Credit the polls this component skipped while parked, through the
     * last cycle the simulator has polled (Simulator::settleHorizon()).
     * A no-op unless a counted poll is owed; the test is inline, so
     * callers may settle on every pass.
     */
    void
    settle()
    {
        if (poll_cursor_ != kNever)
            settleSlow();
    }

    /** Simulator this component is registered with (null if none). */
    Simulator *simulator() const { return sim_; }

    /** True iff the component is on the simulator's active set. */
    bool active() const { return active_; }

    const std::string &name() const { return name_; }

  protected:
    /** The poll at @p now counted, and every later poll would count the
     * same until the next call or noPollsOwed(): skipped ones are owed
     * from here. */
    void pollCounted(Cycle now) { poll_cursor_ = now; }

    /** Later polls count nothing: none are owed. */
    void noPollsOwed() { poll_cursor_ = kNever; }

    /** Credit the owed polls after the last counted one, through cycle
     * @p through, and move the cursor there. */
    void
    settleThrough(Cycle through)
    {
        if (poll_cursor_ < through) {
            creditPolls(through - poll_cursor_);
            poll_cursor_ = through;
        } else {
            SIOPMP_ASSERT(poll_cursor_ == kNever || poll_cursor_ == through,
                          "a poll was credited before it ran: state "
                          "changed mid-tick from a component that ticks "
                          "before the one that owes it");
        }
    }

    /**
     * Count @p polls skipped polls as the counted poll would have
     * counted each. Called only while a poll is owed (after
     * pollCounted()).
     */
    virtual void
    creditPolls(std::uint64_t polls)
    {
        (void)polls;
    }

  private:
    friend class Simulator;

    void wakeSlow();
    void settleSlow();

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
    //! Cycle of the last poll counted, kNever when none is owed.
    Cycle poll_cursor_ = kNever;
};

} // namespace siopmp

#endif // SIM_TICKABLE_HH
