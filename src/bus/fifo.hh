/**
 * @file
 * Registered FIFO used to connect clocked components. Items pushed
 * during a cycle become visible to the consumer only after clock(),
 * which models a register stage and keeps the simulation deterministic
 * regardless of component tick order.
 *
 * Latency: a fifo models a boundary of L >= 1 register stages
 * (constructor parameter). An item pushed at cycle T matures at cycle
 * T + L - 1 — the consumer's clock() at that cycle (or any later one)
 * transfers it to the readable side, so it is poppable from cycle
 * T + L on. L = 1 is the classic staged/ready skid buffer and keeps
 * the exact legacy code path (no timestamps, registered occupancy
 * snapshot). For L >= 2 the occupancy accounting is credit-based and
 * registered in both directions: a pop at cycle P returns its credit
 * to the producer at cycle P + L. Latency-aware paths read the current
 * cycle from simctx::currentCycle() (maintained by the simulator;
 * pinned with simctx::CycleGuard in unit tests).
 *
 * Epoch-committed handoff (parallel engine, sim/domain.hh): when a
 * latency-L fifo crosses a tick-domain boundary under multi-cycle
 * epochs, the scheduler flags it with setEpochCommit(true). The
 * consumer's clock() then never touches the producer-side staging
 * buffer; instead the scheduler's single-threaded main section calls
 * commitEpoch() once per epoch, moving staged items that matured
 * within the epoch directly into the readable side (performing the
 * clock the consumer executed while the item was still invisible) and
 * parking later ones in a consumer-owned in-flight buffer that clock()
 * drains by maturity. Because the epoch length never exceeds the
 * latency of any cross-domain channel, the deferred handoff is
 * invisible: no consumer could have observed the item earlier.
 *
 * Wake-on-push: the consumer component may bind itself with bindWake();
 * every push() then re-arms it on the simulator's active set, which is
 * what lets a quiescent consumer sleep between transfers without ever
 * missing an incoming beat (see sim/tickable.hh).
 */

#ifndef BUS_FIFO_HH
#define BUS_FIFO_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "sim/exec_context.hh"
#include "sim/logging.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace bus {

/**
 * Type-erased base of every Fifo<T>: the channel attributes the
 * parallel engine needs (latency, endpoints, epoch-commit handoff)
 * plus a process-wide registry so the scheduler can derive the epoch
 * length from — and auto-partition over — the registered channels
 * without threading fifo lists through the object graph.
 */
class FifoBase
{
  public:
    FifoBase(std::size_t capacity, Cycle latency)
        : capacity_(capacity), latency_(latency)
    {
        SIOPMP_ASSERT(capacity >= 1, "fifo capacity must be >= 1");
        SIOPMP_ASSERT(latency >= 1, "fifo latency must be >= 1");
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.fifos.push_back(this);
    }

    virtual ~FifoBase()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        for (auto it = r.fifos.begin(); it != r.fifos.end(); ++it) {
            if (*it == this) {
                r.fifos.erase(it);
                break;
            }
        }
    }

    FifoBase(const FifoBase &) = delete;
    FifoBase &operator=(const FifoBase &) = delete;

    std::size_t capacity() const { return capacity_; }

    /** Register stages between push and consumer visibility. */
    Cycle latency() const { return latency_; }

    /**
     * Annotate the producing component (the pusher). Together with the
     * consumer (bindWake) this attributes the channel in the component
     * graph: the scheduler derives the epoch cap from attributed
     * cross-domain channels and Simulator::autoPartition() walks them.
     * Wiring, not state — survives reset().
     */
    void setProducer(Tickable *producer) { producer_ = producer; }
    Tickable *producer() const { return producer_; }

    /** Annotate the consuming component (the popper/clocker). Falls
     * back to the bindWake target when not set explicitly. */
    void setConsumer(Tickable *consumer) { consumer_ = consumer; }
    Tickable *
    consumer() const
    {
        return consumer_ != nullptr ? consumer_ : wake_;
    }

    /** Bind the consumer component woken by every push (may be null to
     * unbind). Survives reset(): it is wiring, not state. */
    void bindWake(Tickable *consumer) { wake_ = consumer; }

    /** Epoch-committed handoff flag (set by the scheduler only). */
    void setEpochCommit(bool on) { epoch_commit_ = on; }
    bool epochCommit() const { return epoch_commit_; }

    /**
     * Single-threaded epoch-boundary handoff (scheduler main section):
     * move every staged item out of the producer-side buffer — items
     * matured by @p epoch_last directly into the readable side, later
     * ones into the consumer-owned in-flight buffer — and publish the
     * consumer's freed credits to the producer side.
     * @return true iff any item moved (the consumer may need a wake).
     */
    virtual bool commitEpoch(Cycle epoch_last) = 0;

    /** Visit every live fifo in the process (under the registry lock;
     * the callback must not construct or destroy fifos). */
    static void
    forEach(const std::function<void(FifoBase *)> &fn)
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        for (FifoBase *f : r.fifos)
            fn(f);
    }

  protected:
    std::size_t capacity_;
    Cycle latency_;
    Tickable *wake_ = nullptr;
    Tickable *producer_ = nullptr;
    Tickable *consumer_ = nullptr;
    bool epoch_commit_ = false;

  private:
    struct Registry {
        std::mutex mutex;
        std::vector<FifoBase *> fifos;
    };

    static Registry &
    registry()
    {
        static Registry r;
        return r;
    }
};

template <typename T>
class Fifo : public FifoBase
{
  public:
    explicit Fifo(std::size_t capacity = 2, Cycle latency = 1)
        : FifoBase(capacity, latency), avail_(capacity)
    {
    }

    /** True iff a producer may push this cycle. */
    bool
    canPush() const
    {
        if (latency_ == 1)
            return snapshot_ + staged_.size() < capacity_;
        return avail_ + maturedCredits(simctx::currentCycle()) > 0;
    }

    /** Enqueue an item; visible to the consumer latency() clocks after
     * the push cycle. */
    void
    push(const T &item)
    {
        if (latency_ == 1) {
            SIOPMP_ASSERT(canPush(), "push on full fifo");
            staged_.push_back({item, 0});
        } else {
            const Cycle now = simctx::currentCycle();
            reclaimCredits(now);
            SIOPMP_ASSERT(avail_ > 0, "push on full fifo");
            --avail_;
            staged_.push_back({item, now + latency_ - 1});
        }
        if (wake_ != nullptr)
            wake_->wake();
    }

    /** True iff the consumer can pop this cycle. */
    bool empty() const { return ready_.empty(); }

    /**
     * True iff nothing is readable now or owed to the consumer side:
     * the readable and in-flight buffers are drained (and, outside
     * epoch-committed operation, the staging buffer too). Consumers
     * use this in quiescent() instead of empty() so they stay awake
     * while latency-L items mature; for latency 1 it is equivalent to
     * empty() at every retirement point. Under epoch commit the
     * producer-side staging buffer is intentionally not read (another
     * thread owns it mid-epoch); commitEpoch() re-wakes the consumer
     * when it hands items over.
     */
    bool settled() const { return ready_.empty() && !inTransit(); }

    /**
     * True iff items are still on their way to the readable side
     * (staged or maturing), so the consumer's clock() has work left.
     * Under epoch commit the staging buffer is not read, as in
     * settled().
     */
    bool
    inTransit() const
    {
        return !in_flight_.empty() || (!epoch_commit_ && !staged_.empty());
    }

    /** Item at the head (consumer-visible). */
    const T &
    front() const
    {
        SIOPMP_ASSERT(!ready_.empty(), "front on empty fifo");
        return ready_.front().item;
    }

    /** Remove the head item. */
    void
    pop()
    {
        SIOPMP_ASSERT(!ready_.empty(), "pop on empty fifo");
        ready_.pop_front();
        if (latency_ > 1)
            freed_.push_back(simctx::currentCycle() + latency_);
    }

    /** Advance the register stage; call once per cycle (by consumer). */
    void
    clock()
    {
        if (latency_ == 1) {
            while (!staged_.empty()) {
                ready_.push_back(staged_.front());
                staged_.pop_front();
            }
            snapshot_ = ready_.size();
            return;
        }
        const Cycle now = simctx::currentCycle();
        while (!in_flight_.empty() && in_flight_.front().mature_at <= now) {
            ready_.push_back(in_flight_.front());
            in_flight_.pop_front();
        }
        if (!epoch_commit_) {
            while (!staged_.empty() && staged_.front().mature_at <= now) {
                ready_.push_back(staged_.front());
                staged_.pop_front();
            }
        }
    }

    bool
    commitEpoch(Cycle epoch_last) override
    {
        bool moved = false;
        while (!staged_.empty()) {
            // Matured within the epoch: the consumer's clock at the
            // maturity cycle already ran (or was a retired no-op), so
            // perform that transfer here — it becomes readable exactly
            // when the sequential schedule would have made it so.
            if (staged_.front().mature_at <= epoch_last)
                ready_.push_back(staged_.front());
            else
                in_flight_.push_back(staged_.front());
            staged_.pop_front();
            moved = true;
        }
        while (!freed_.empty()) {
            returns_.push_back(freed_.front());
            freed_.pop_front();
        }
        return moved;
    }

    /** Total items in flight (readable + maturing + staged). */
    std::size_t
    occupancy() const
    {
        return ready_.size() + in_flight_.size() + staged_.size();
    }

    /** Drop everything (used on reset between experiments). */
    void
    reset()
    {
        ready_.clear();
        staged_.clear();
        in_flight_.clear();
        freed_.clear();
        returns_.clear();
        snapshot_ = 0;
        avail_ = capacity_;
    }

  private:
    struct Entry {
        T item;
        Cycle mature_at; //!< first cycle whose clock() may transfer it
    };

    //! Credits whose return has matured by @p now (producer view).
    std::size_t
    maturedCredits(Cycle now) const
    {
        std::size_t n = 0;
        for (Cycle at : returns_) {
            if (at > now)
                break;
            ++n;
        }
        if (!epoch_commit_) {
            for (Cycle at : freed_) {
                if (at > now)
                    break;
                ++n;
            }
        }
        return n;
    }

    void
    reclaimCredits(Cycle now)
    {
        while (!returns_.empty() && returns_.front() <= now) {
            ++avail_;
            returns_.pop_front();
        }
        if (!epoch_commit_) {
            while (!freed_.empty() && freed_.front() <= now) {
                ++avail_;
                freed_.pop_front();
            }
        }
    }

    std::deque<Entry> ready_;     //!< consumer-readable
    std::deque<Entry> staged_;    //!< producer-side register stage
    std::deque<Entry> in_flight_; //!< committed, maturing (consumer-owned)
    std::size_t snapshot_ = 0;    //!< latency-1 registered occupancy
    std::size_t avail_;           //!< latency>=2 producer credits
    std::deque<Cycle> freed_;     //!< credit returns (consumer-written)
    std::deque<Cycle> returns_;   //!< credit returns (producer-visible)
};

} // namespace bus
} // namespace siopmp

#endif // BUS_FIFO_HH
