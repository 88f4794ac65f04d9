/**
 * @file
 * Top-level simulation driver: owns the cycle loop, ticks registered
 * components in two phases and services the event queue in between.
 *
 * Fast-forward scheduling: components that opt into the quiescence
 * protocol (Tickable::quiescent()) are retired from the hot active set
 * while they have no work; when the active set is empty the simulator
 * jumps time straight to the next pending event instead of burning
 * host cycles on no-op ticks. The optimization is semantics-preserving
 * — cycle counts, statistics and check verdicts are bit-identical to
 * the naive tick-everything loop (tests/sim/fastforward_differential_
 * test.cc proves it on a mixed workload) — and can be disabled with
 * setFastForward(false) or the SIOPMP_NO_FAST_FORWARD=1 environment
 * variable as an escape hatch.
 */

#ifndef SIM_SIMULATOR_HH
#define SIM_SIMULATOR_HH

#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/tickable.hh"
#include "sim/types.hh"

namespace siopmp {

/**
 * Cycle-driven simulator. Components are ticked in registration order;
 * determinism is guaranteed because each component's evaluate() only
 * reads previous-cycle state.
 */
class Simulator
{
  public:
    Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component (not owned). Starts on the active set. */
    void add(Tickable *component);

    /**
     * Remove a previously added component. Safe at any point: mid-tick
     * removals (from an evaluate/advance body or an event handler) are
     * deferred to the end of the current cycle.
     */
    void remove(Tickable *component);

    /**
     * Run a single cycle: events, evaluate-all, advance-all. Under
     * fast-forward, when the active set is empty the cycle executed is
     * the next one with a pending event (intervening quiescent cycles
     * are skipped); with no events pending exactly one cycle runs.
     */
    void step();

    /** Run @p n cycles. */
    void run(Cycle n);

    /**
     * Run until @p done returns true or @p max_cycles elapse.
     * @return number of cycles actually run.
     *
     * Under fast-forward, @p done is only evaluated at cycles where
     * something can happen (active components or a fired event), so it
     * must be a function of simulation state — not of now() alone. A
     * pure time bound belongs in run().
     */
    Cycle runUntil(const std::function<bool()> &done,
                   Cycle max_cycles = 100'000'000);

    Cycle now() const { return now_; }
    EventQueue &events() { return events_; }

    /** Reset time (components keep their state; callers reset those).
     * Every component is returned to the active set. */
    void resetTime();

    /** Re-arm @p component onto the active set (see Tickable::wake). */
    void wake(Tickable *component);

    /** Toggle fast-forward scheduling (escape hatch: pass false to
     * get the naive tick-everything loop). */
    void setFastForward(bool on) { fast_forward_ = on; }
    bool fastForward() const { return fast_forward_; }

    /** Components currently on the active set. */
    std::size_t activeComponents() const { return num_active_; }

    /** Registered components. */
    std::size_t components() const { return components_.size(); }

    /** Quiescent cycles skipped by fast-forward so far. */
    Cycle idleCyclesSkipped() const { return idle_cycles_skipped_; }

    /** Process-wide default (false iff SIOPMP_NO_FAST_FORWARD=1). */
    static bool defaultFastForward();

  private:
    /** Execute exactly one cycle at now_ (no idle jump). */
    void tickOnce();

    /** Immediate removal (caller guarantees no tick is in flight). */
    void removeNow(Tickable *component);

    std::vector<Tickable *> components_;
    EventQueue events_;
    Cycle now_ = 0;
    bool fast_forward_;
    std::size_t num_active_ = 0;
    Cycle idle_cycles_skipped_ = 0;

    //! Guards against mutating components_ while tickOnce iterates it.
    bool ticking_ = false;
    std::vector<Tickable *> pending_removes_;
};

} // namespace siopmp

#endif // SIM_SIMULATOR_HH
