/**
 * @file
 * Registered FIFO used to connect clocked components. Items pushed
 * during a cycle become visible to the consumer only after the clock
 * edge that ends the cycle, which models a register stage and keeps
 * the simulation deterministic regardless of component tick order. The
 * occupancy the producer sees is registered too: a pop frees its slot
 * only at the next edge.
 *
 * Clock edge: a fifo is built with the Simulator that clocks it. Its
 * first push or pop in a cycle puts it on that simulator's edge list,
 * which the simulator clocks once every component has evaluated; an
 * untouched fifo would clock to the same state. The simulator must
 * outlive the fifo.
 *
 * Wake-on-push: the consumer component may bind itself with bindWake();
 * a push() then re-arms it on the simulator's active set if it is
 * parked, which is what lets a quiescent consumer sleep between
 * transfers without ever missing an incoming beat (see
 * sim/tickable.hh). An active consumer is left alone, which relies on
 * one invariant: every bound consumer's quiescent() counts this fifo's
 * staged items as well as its readable ones (settled()), so an item
 * pushed after the consumer evaluated keeps it from parking at its next
 * evaluate.
 *
 * Wake-on-pop: the producer component may bind itself with
 * bindProducer(); a pop() from a fifo whose readable plus staged items
 * fill it then re-arms the producer if it is parked. A producer parks
 * behind a fifo the edge will leave full (!canPushNext()), and that
 * pop, in this cycle or a later one, is the first event that can give
 * it room. An active producer is left alone: waking it would only
 * restart its grace cycle.
 *
 * Storage is a fixed ring of capacity() slots, allocated once at
 * construction. canPush() caps the readable items plus the staged ones
 * at capacity() (readable items never outnumber the registered
 * occupancy), so the staged items sit in the slots right after the
 * readable ones: push() and pop() move indices, and the edge only turns
 * staged counts into readable ones.
 */

#ifndef BUS_FIFO_HH
#define BUS_FIFO_HH

#include <cstddef>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace bus {

/**
 * The part of a Fifo that does not depend on its item type: the ring
 * indices, the occupancy counters the clock edge commits and the wake
 * bindings. The simulator's edge list holds fifos as this type.
 */
class FifoBase
{
  public:
    FifoBase(const FifoBase &) = delete;
    FifoBase &operator=(const FifoBase &) = delete;

    std::size_t capacity() const { return capacity_; }

    /** Bind the consumer component woken by every push (may be null to
     * unbind). */
    void bindWake(Tickable *consumer) { wake_ = consumer; }

    /** Bind the producer component woken by a pop that frees a slot of
     * a full fifo (may be null to unbind). Wiring, like bindWake(). */
    void bindProducer(Tickable *producer) { producer_ = producer; }

    /** True iff a producer may push this cycle. */
    bool canPush() const { return snapshot_ + staged_ < capacity_; }

    /**
     * True iff a producer will be able to push after this cycle's
     * clock edge, unless a later pop this cycle frees a slot. A
     * producer's quiescent() reads this: it runs before the edge.
     */
    bool canPushNext() const { return ready_ + staged_ < capacity_; }

    /** True iff the consumer can pop this cycle. */
    bool empty() const { return ready_ == 0; }

    /**
     * True iff nothing is readable now or staged for the consumer.
     * Consumers use this in quiescent() so an item pushed this cycle
     * keeps them awake until the edge makes it readable.
     */
    bool settled() const { return ready_ == 0 && staged_ == 0; }

    /** Total items in flight (readable + staged). */
    std::size_t occupancy() const { return ready_ + staged_; }

    /** Remove the head item. */
    void
    pop()
    {
        SIOPMP_ASSERT(ready_ != 0, "pop on empty fifo");
        const bool full = ready_ + staged_ == capacity_;
        if (++head_ == capacity_)
            head_ = 0;
        --ready_;
        touch();
        if (full && producer_ != nullptr && !producer_->active())
            producer_->wake();
    }

  protected:
    FifoBase(Simulator &sim, std::size_t capacity)
        : sim_(&sim), capacity_(capacity)
    {
        SIOPMP_ASSERT(capacity >= 1, "fifo capacity must be >= 1");
    }

    ~FifoBase()
    {
        if (on_edge_)
            sim_->unlist(this);
    }

    /** Stage one item and wake the consumer; @return the ring slot the
     * item goes in. */
    std::size_t
    stagePush()
    {
        SIOPMP_ASSERT(canPush(), "push on full fifo");
        // head_ < capacity_ and ready_ + staged_ < capacity_.
        std::size_t slot = head_ + ready_ + staged_;
        if (slot >= capacity_)
            slot -= capacity_;
        ++staged_;
        touch();
        if (wake_ != nullptr && !wake_->active())
            wake_->wake();
        return slot;
    }

    std::size_t head() const { return head_; }

  private:
    friend class siopmp::Simulator;

    /** Put this fifo on its simulator's edge list, once per cycle. */
    void
    touch()
    {
        if (!on_edge_) {
            on_edge_ = true;
            next_on_edge_ = sim_->edge_;
            sim_->edge_ = this;
        }
    }

    /** The clock edge: staged items become readable and the producer
     * sees the pops of the cycle. Called by the simulator only. */
    void
    clockEdge()
    {
        ready_ += staged_;
        staged_ = 0;
        snapshot_ = ready_;
        on_edge_ = false;
    }

    Simulator *sim_;
    std::size_t capacity_;
    Tickable *wake_ = nullptr;
    Tickable *producer_ = nullptr;
    std::size_t head_ = 0;     //!< slot of the oldest readable item
    std::size_t ready_ = 0;    //!< consumer-readable items
    std::size_t staged_ = 0;   //!< producer-side register stage
    std::size_t snapshot_ = 0; //!< registered occupancy (at last edge)
    bool on_edge_ = false;     //!< on the simulator's edge list
    FifoBase *next_on_edge_ = nullptr; //!< the list's next fifo
};

template <typename T>
class Fifo : public FifoBase
{
  public:
    /** @param sim the simulator whose clock edge clocks this fifo */
    explicit Fifo(Simulator &sim, std::size_t capacity = 2)
        : FifoBase(sim, capacity), slots_(capacity)
    {
    }

    /** Enqueue an item; visible to the consumer after the next edge. */
    void push(const T &item) { slots_[stagePush()] = item; }

    /** Item at the head (consumer-visible). */
    const T &
    front() const
    {
        SIOPMP_ASSERT(!empty(), "front on empty fifo");
        return slots_[head()];
    }

  private:
    std::vector<T> slots_; //!< the ring: readable, then staged items
};

} // namespace bus
} // namespace siopmp

#endif // BUS_FIFO_HH
