/**
 * @file
 * Simulator implementation.
 */

#include "sim/simulator.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "bus/fifo.hh"
#include "sim/logging.hh"

namespace siopmp {

Simulator::Simulator() : fast_forward_(defaultFastForward()) {}

void
Tickable::wakeSlow()
{
    sim_->wake(this);
}

bool
Simulator::defaultFastForward()
{
    static const bool on = [] {
        const char *env = std::getenv("SIOPMP_NO_FAST_FORWARD");
        return env == nullptr || env[0] == '\0' || env[0] == '0';
    }();
    return on;
}

void
Simulator::setActiveBit(std::size_t index)
{
    active_bits_[index / 64] |= std::uint64_t{1} << (index % 64);
}

void
Simulator::clearActiveBit(std::size_t index)
{
    active_bits_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
}

template <typename Fn>
void
Simulator::forEachActive(Fn fn)
{
    for (std::size_t w = 0; w < active_bits_.size(); ++w) {
        std::uint64_t bits = active_bits_[w];
        while (bits != 0) {
            const int bit = std::countr_zero(bits);
            fn(components_[w * 64 + static_cast<std::size_t>(bit)]);
            // The call may have woken a component registered later in
            // this word: it runs in this pass, as in a list scan.
            bits = active_bits_[w] & (~std::uint64_t{1} << bit);
        }
    }
}

void
Simulator::add(Tickable *component)
{
    SIOPMP_ASSERT(component != nullptr, "null component");
    SIOPMP_ASSERT(component->sim_ == nullptr,
                  "component already registered with a simulator");
    component->index_ = components_.size();
    components_.push_back(component);
    active_bits_.resize((components_.size() + 63) / 64);
    component->sim_ = this;
    component->active_ = true;
    component->wake_cycle_ = now_;
    setActiveBit(component->index_);
    ++num_active_;
}

void
Simulator::wake(Tickable *component)
{
    if (component->sim_ != this)
        return;
    component->wake_cycle_ = now_;
    if (!component->active_) {
        component->active_ = true;
        setActiveBit(component->index_);
        ++num_active_;
    }
}

void
Simulator::unlist(bus::FifoBase *fifo)
{
    bus::FifoBase **link = &edge_;
    while (*link != fifo)
        link = &(*link)->next_on_edge_;
    *link = fifo->next_on_edge_;
}

void
Simulator::clockEdge()
{
    for (bus::FifoBase *fifo = edge_; fifo != nullptr;) {
        bus::FifoBase *next = fifo->next_on_edge_;
        fifo->clockEdge();
        fifo = next;
    }
    edge_ = nullptr;
}

void
Simulator::tickOnce()
{
    events_.runUntil(now_);
    if (!fast_forward_) {
        // Naive reference loop: evaluate everything, never park.
        for (auto *c : components_)
            c->evaluate(now_);
    } else if (num_active_ > 0) {
        forEachActive([this](Tickable *c) {
            c->evaluate(now_);
            // Park at once, unless woken this cycle (wake_cycle_).
            if (c->wake_cycle_ != now_ && c->quiescent(now_)) {
                c->active_ = false;
                clearActiveBit(c->index_);
                --num_active_;
            }
        });
    }
    clockEdge();
    ++now_;
}

void
Simulator::step()
{
    if (fast_forward_ && idle()) {
        const Cycle next = events_.nextEventCycle();
        if (next != kNever && next > now_) {
            idle_cycles_skipped_ += next - now_;
            now_ = next;
        }
    }
    tickOnce();
}

void
Simulator::run(Cycle n)
{
    const Cycle target = now_ + n;
    while (now_ < target) {
        if (fast_forward_ && idle()) {
            const Cycle next = events_.nextEventCycle();
            const Cycle stop =
                next == kNever ? target : std::min(next, target);
            if (stop > now_) {
                idle_cycles_skipped_ += stop - now_;
                now_ = stop;
            }
            if (now_ == target) {
                // Nothing can happen inside the remaining window; keep
                // the event clock in lockstep with the naive loop.
                events_.runUntil(target - 1);
                break;
            }
        }
        tickOnce();
    }
}

Cycle
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    const Cycle start = now_;
    while (!done()) {
        if (now_ - start >= max_cycles) {
            warn("runUntil: hit max_cycles=%llu without completing",
                 static_cast<unsigned long long>(max_cycles));
            break;
        }
        // Idle jump: only to a pending event, never past one. With an
        // empty queue we single-step so a time-dependent predicate
        // still sees every cycle (nothing else can change state).
        if (fast_forward_ && idle() && !events_.empty()) {
            const Cycle limit = start + max_cycles;
            const Cycle stop = std::min(events_.nextEventCycle(), limit);
            if (stop > now_) {
                idle_cycles_skipped_ += stop - now_;
                now_ = stop;
            }
            if (now_ == limit) {
                events_.runUntil(limit - 1);
                continue; // re-check done(), then hit the bound above
            }
        }
        tickOnce();
    }
    return now_ - start;
}

} // namespace siopmp
