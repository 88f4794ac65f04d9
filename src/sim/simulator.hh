/**
 * @file
 * Top-level simulation driver: owns the cycle loop and the event queue.
 * A cycle services the events due, makes one pass in which every awake
 * component evaluates, in registration order, then runs one clock edge
 * that clocks every bus::Fifo pushed or popped in the cycle, once.
 *
 * Fast-forward scheduling: in the pass, a component not woken this
 * cycle is asked Tickable::quiescent() right after its evaluate() and
 * leaves the active set if the answer is yes. When the active set is
 * empty and no fifo waits for the edge, time jumps straight to the
 * next pending event. The optimization is semantics-preserving: cycle
 * counts, statistics and check verdicts are bit-identical to the naive
 * loop, which evaluates every component and then runs the same edge
 * (tests/sim/fastforward_differential_test.cc proves it on a mixed
 * workload). setFastForward(false) or SIOPMP_NO_FAST_FORWARD=1 selects
 * the naive loop.
 *
 * The active set is a bitmap with one bit per component, in
 * registration order. The pass walks its set bits (count trailing
 * zeros) and re-reads the current word after each component, so a
 * cycle costs the awake components, not the registered ones, and a
 * component woken mid-pass runs in that pass exactly when it
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

namespace bus {
class FifoBase;
} // namespace bus

/**
 * Cycle-driven simulator. Components are ticked in registration order;
 * determinism is guaranteed because each component's evaluate() only
 * reads fifo state registered at the previous clock edge.
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
     * Run a single cycle: events, the pass, the clock edge. Under
     * fast-forward, when nothing is active the cycle executed is the
     * next one with a pending event (intervening quiescent cycles are
     * skipped); with no events pending exactly one cycle runs.
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
    friend class bus::FifoBase;

    /** Execute exactly one cycle at now_ (no idle jump). */
    void tickOnce();

    /** Nothing can happen before the next event: no component is
     * awake and no fifo waits for the edge. */
    bool idle() const { return num_active_ == 0 && edge_ == nullptr; }

    /** The clock edge: clock every fifo on the edge list, once. */
    void clockEdge();

    /** Take @p fifo, which is on the edge list, off it. */
    void unlist(bus::FifoBase *fifo);

    /** Call @p fn on every component whose active bit is set, in
     * registration order, re-reading the bitmap after each call. */
    template <typename Fn> void forEachActive(Fn fn);

    void setActiveBit(std::size_t index);
    void clearActiveBit(std::size_t index);

    std::vector<Tickable *> components_;
    //! Active set: bit i of word i / 64 is components_[i]->active_.
    std::vector<std::uint64_t> active_bits_;
    //! Fifos pushed or popped since the last edge, each listed once: a
    //! list threaded through the fifos, so listing one never allocates.
    bus::FifoBase *edge_ = nullptr;
    EventQueue events_;
    Cycle now_ = 0;
    bool fast_forward_;
    std::size_t num_active_ = 0;
    Cycle idle_cycles_skipped_ = 0;
};

} // namespace siopmp

#endif // SIM_SIMULATOR_HH
