/**
 * @file
 * Registered FIFO used to connect clocked components. Items pushed
 * during a cycle become visible to the consumer only after clock(),
 * which models a register stage and keeps the simulation deterministic
 * regardless of component tick order. The occupancy the producer sees
 * is registered too: a pop frees its slot only at the next clock().
 *
 * Wake-on-push: the consumer component may bind itself with bindWake();
 * a push() then re-arms it on the simulator's active set if it is
 * parked, which is what lets a quiescent consumer sleep between
 * transfers without ever missing an incoming beat (see
 * sim/tickable.hh). An active consumer is left alone, which relies on
 * one invariant: every bound consumer's quiescent() tests this fifo's
 * settled() or inTransit(), so a staged item keeps it from retiring
 * without the grace cycle a wake would give it.
 *
 * Wake-on-pop: the producer component may bind itself with
 * bindProducer(); a pop() from a fifo that was full at its last clock()
 * then re-arms the producer if it is parked. That pop is the first
 * event that can give the producer room (the slot shows at the next
 * clock()), so a producer may park behind a full fifo. An active
 * producer is left alone: waking it would only restart its grace
 * cycle.
 *
 * Clock marks: a consumer that clocks many fifos may bind a bit of its
 * own with bindClockMark(); push() and pop() set it, so the consumer
 * clocks only the fifos marked since their last clock(). A clock() of
 * an unmarked fifo is a no-op, so skipping it is exact.
 *
 * Storage is a fixed ring of capacity() slots, allocated once at
 * construction. canPush() caps the readable items plus the staged ones
 * at capacity() (readable items never outnumber the registered
 * occupancy), so the staged items sit in the slots right after the
 * readable ones: push() and pop() move indices, and clock() only turns
 * staged counts into readable ones.
 */

#ifndef BUS_FIFO_HH
#define BUS_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace bus {

template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity = 2)
        : capacity_(capacity), slots_(capacity)
    {
        SIOPMP_ASSERT(capacity >= 1, "fifo capacity must be >= 1");
    }

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    std::size_t capacity() const { return capacity_; }

    /** Bind the consumer component woken by every push (may be null to
     * unbind). */
    void bindWake(Tickable *consumer) { wake_ = consumer; }

    /** Bind the producer component woken by a pop that frees a slot of
     * a full fifo (may be null to unbind). Wiring, like bindWake(). */
    void bindProducer(Tickable *producer) { producer_ = producer; }

    /** Set @p bit in @p *word on every push() and pop() (see the file
     * header); @p word must outlive the fifo's pushes and pops. */
    void
    bindClockMark(std::uint64_t *word, std::uint64_t bit)
    {
        mark_word_ = word;
        mark_bit_ = bit;
    }

    /** True iff a producer may push this cycle. */
    bool canPush() const { return snapshot_ + staged_ < capacity_; }

    /** Enqueue an item; visible to the consumer after the next clock(). */
    void
    push(const T &item)
    {
        SIOPMP_ASSERT(canPush(), "push on full fifo");
        // head_ < capacity_ and ready_ + staged_ < capacity_.
        std::size_t slot = head_ + ready_ + staged_;
        if (slot >= capacity_)
            slot -= capacity_;
        slots_[slot] = item;
        ++staged_;
        if (mark_word_ != nullptr)
            *mark_word_ |= mark_bit_;
        if (wake_ != nullptr && !wake_->active())
            wake_->wake();
    }

    /** True iff the consumer can pop this cycle. */
    bool empty() const { return ready_ == 0; }

    /**
     * True iff nothing is readable now or staged for the consumer.
     * Consumers use this in quiescent() so an item pushed this cycle
     * keeps them awake until their clock() makes it readable.
     */
    bool settled() const { return ready_ == 0 && staged_ == 0; }

    /** True iff items are staged, so the consumer's clock() has work
     * left. */
    bool inTransit() const { return staged_ != 0; }

    /** Item at the head (consumer-visible). */
    const T &
    front() const
    {
        SIOPMP_ASSERT(ready_ != 0, "front on empty fifo");
        return slots_[head_];
    }

    /** Remove the head item. */
    void
    pop()
    {
        SIOPMP_ASSERT(ready_ != 0, "pop on empty fifo");
        if (++head_ == capacity_)
            head_ = 0;
        --ready_;
        if (mark_word_ != nullptr)
            *mark_word_ |= mark_bit_;
        if (snapshot_ == capacity_ && producer_ != nullptr &&
            !producer_->active())
            producer_->wake();
    }

    /** Advance the register stage; call once per cycle (by consumer). */
    void
    clock()
    {
        ready_ += staged_;
        staged_ = 0;
        snapshot_ = ready_;
    }

    /** Total items in flight (readable + staged). */
    std::size_t occupancy() const { return ready_ + staged_; }

  private:
    std::size_t capacity_;
    Tickable *wake_ = nullptr;
    Tickable *producer_ = nullptr;
    std::uint64_t *mark_word_ = nullptr;
    std::uint64_t mark_bit_ = 0;
    std::vector<T> slots_;     //!< the ring: readable, then staged items
    std::size_t head_ = 0;     //!< slot of the oldest readable item
    std::size_t ready_ = 0;    //!< consumer-readable items
    std::size_t staged_ = 0;   //!< producer-side register stage
    std::size_t snapshot_ = 0; //!< registered occupancy (at last clock)
};

} // namespace bus
} // namespace siopmp

#endif // BUS_FIFO_HH
