/**
 * @file
 * EventQueue implementation.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/tickable.hh"

namespace siopmp {

namespace {
//! First reservation; sized so steady-state workloads never reallocate.
constexpr std::size_t kInitialCapacity = 64;
} // namespace

void
EventQueue::push(Item &&item)
{
    if (heap_.capacity() == 0)
        heap_.reserve(kInitialCapacity);
    heap_.push_back(std::move(item));
    std::push_heap(heap_.begin(), heap_.end(), Later());
}

void
EventQueue::fireTop()
{
    // Move out before pop so the handler may schedule new events.
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    Item item = std::move(heap_.back());
    heap_.pop_back();
    now_ = item.when;
    if (item.wake != nullptr)
        item.wake->wake();
    else
        item.cb();
}

void
EventQueue::schedule(Cycle when, Callback cb)
{
    SIOPMP_ASSERT(when >= now_, "scheduling event in the past");
    push(Item{when, next_seq_++, nullptr, std::move(cb)});
}

void
EventQueue::scheduleWake(Cycle when, Tickable *target)
{
    SIOPMP_ASSERT(when >= now_, "scheduling wake in the past");
    SIOPMP_ASSERT(target != nullptr, "null wake target");
    push(Item{when, next_seq_++, target, nullptr});
}

Cycle
EventQueue::nextEventCycle() const
{
    return heap_.empty() ? kNever : heap_.front().when;
}

void
EventQueue::runUntil(Cycle until)
{
    while (!heap_.empty() && heap_.front().when <= until)
        fireTop();
    if (now_ < until)
        now_ = until;
}

} // namespace siopmp
