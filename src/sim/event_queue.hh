/**
 * @file
 * Discrete-event queue keyed by cycle. Events scheduled at the same
 * cycle fire in insertion order (stable), which keeps the simulation
 * deterministic.
 *
 * The queue is a hot structure under fast-forward scheduling: every
 * idle window is bounded by an event, and components re-arm wakes as
 * often as every cycle. Two allocation-avoidance measures keep it off
 * the profile:
 *
 *  - the heap is an explicit std::vector (reserved up front) driven by
 *    std::push_heap/std::pop_heap, so firing an event moves the item
 *    out instead of copying a std::function out of a priority_queue;
 *  - the common re-arm case — "wake component X at cycle C" — is a
 *    raw Tickable pointer in the item (scheduleWake()), constructing
 *    no std::function at all.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace siopmp {

class Tickable;

/**
 * Time-ordered queue of callbacks. Owned by the Simulator but usable
 * standalone (e.g. in unit tests).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p cb to run at absolute cycle @p when. */
    void schedule(Cycle when, Callback cb);

    /**
     * Schedule a wake of @p target at absolute cycle @p when. This is
     * the allocation-free re-arm path for quiescent components; firing
     * calls target->wake(). The target must outlive the event; pending
     * events live as long as the queue.
     */
    void scheduleWake(Cycle when, Tickable *target);

    /** Current simulation time. */
    Cycle now() const { return now_; }

    /** True iff no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Cycle of the next pending event; kNever if empty. */
    Cycle nextEventCycle() const;

    /**
     * Run all events up to and including cycle @p until. Advances now()
     * to @p until even if the queue drains earlier.
     */
    void runUntil(Cycle until);

  private:
    struct Item {
        Cycle when;
        std::uint64_t seq;       //!< tie-breaker: insertion order
        Tickable *wake = nullptr; //!< fast path: wake this component
        Callback cb;             //!< general path (unused when wake set)
    };

    struct Later {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void push(Item &&item);
    void fireTop();

    //! Binary heap (std::push_heap/std::pop_heap order, earliest at
    //! front). Explicit vector so storage is reserved and items can be
    //! moved out on fire.
    std::vector<Item> heap_;
    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace siopmp

#endif // SIM_EVENT_QUEUE_HH
