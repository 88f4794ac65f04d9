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
 *
 * The active set is a bitmap with one bit per component, in
 * registration order. The evaluate, advance and retire passes walk its
 * set bits (count trailing zeros) and re-read the current word after
 * each call, so a cycle costs the awake components, not the registered
 * ones. A component woken mid-pass runs in that pass exactly when it
 * registered after the component running, as a scan of the component
 * list in registration order would have it.
 */

#ifndef SIM_SIMULATOR_HH
#define SIM_SIMULATOR_HH

#include <cstdint>
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

    /**
     * Register a component (not owned). Starts on the active set.
     * Registration is append-only: a component stays registered, at the
     * same index, for the life of the Simulator.
     */
    void add(Tickable *component);

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

    /** Call @p fn on every component whose active bit is set, in
     * registration order, re-reading the bitmap after each call. */
    template <typename Fn> void forEachActive(Fn fn);

    void setActiveBit(std::size_t index);
    void clearActiveBit(std::size_t index);

    std::vector<Tickable *> components_;
    //! Active set: bit i of word i / 64 is components_[i]->active_.
    std::vector<std::uint64_t> active_bits_;
    EventQueue events_;
    Cycle now_ = 0;
    bool fast_forward_;
    std::size_t num_active_ = 0;
    Cycle idle_cycles_skipped_ = 0;
};

} // namespace siopmp

#endif // SIM_SIMULATOR_HH
