/**
 * @file
 * Simulator implementation.
 */

#include "sim/simulator.hh"

#include <algorithm>
#include <cstdlib>

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
Simulator::add(Tickable *component)
{
    SIOPMP_ASSERT(component != nullptr, "null component");
    SIOPMP_ASSERT(component->sim_ == nullptr,
                  "component already registered with a simulator");
    components_.push_back(component);
    component->sim_ = this;
    component->active_ = true;
    component->wake_cycle_ = now_;
    ++num_active_;
}

void
Simulator::removeNow(Tickable *component)
{
    auto it = std::remove(components_.begin(), components_.end(), component);
    if (it == components_.end())
        return;
    components_.erase(it, components_.end());
    if (component->active_)
        --num_active_;
    component->active_ = false;
    component->sim_ = nullptr;
}

void
Simulator::remove(Tickable *component)
{
    // Mid-tick: defer to the end of the cycle — removing inline would
    // invalidate the iterators of the loop that called us.
    if (ticking_) {
        pending_removes_.push_back(component);
        return;
    }
    removeNow(component);
}

void
Simulator::wake(Tickable *component)
{
    if (component->sim_ != this)
        return;
    component->wake_cycle_ = now_;
    if (!component->active_) {
        component->active_ = true;
        ++num_active_;
    }
}

void
Simulator::tickOnce()
{
    events_.runUntil(now_);
    ticking_ = true;
    if (!fast_forward_) {
        // Naive reference loop: tick everything, never retire.
        for (auto *c : components_)
            c->evaluate(now_);
        for (auto *c : components_)
            c->advance(now_);
    } else if (num_active_ > 0) {
        for (auto *c : components_) {
            if (c->active_)
                c->evaluate(now_);
        }
        for (auto *c : components_) {
            if (c->active_)
                c->advance(now_);
        }
        // Retire components with no pending work. Anything woken this
        // cycle stays hot one more cycle: the cause of a late wake
        // (e.g. a fifo push staged during the advance phase) is not
        // yet visible to quiescent().
        for (auto *c : components_) {
            if (c->active_ && c->wake_cycle_ != now_ &&
                c->quiescent(now_)) {
                c->active_ = false;
                --num_active_;
            }
        }
    }
    ticking_ = false;
    if (!pending_removes_.empty()) {
        for (auto *c : pending_removes_)
            removeNow(c);
        pending_removes_.clear();
    }
    ++now_;
}

void
Simulator::step()
{
    if (fast_forward_ && num_active_ == 0) {
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
        if (fast_forward_ && num_active_ == 0) {
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
        if (fast_forward_ && num_active_ == 0 && !events_.empty()) {
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

void
Simulator::resetTime()
{
    events_.reset();
    now_ = 0;
    idle_cycles_skipped_ = 0;
    num_active_ = components_.size();
    for (auto *c : components_) {
        c->active_ = true;
        c->wake_cycle_ = 0;
    }
}

} // namespace siopmp
