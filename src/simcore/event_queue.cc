#include "simcore/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace spotserve {
namespace sim {

namespace {

EventId
makeId(std::uint32_t slot, std::uint32_t gen)
{
    return (static_cast<EventId>(gen) << 32) | slot;
}

} // namespace

EventId
EventQueue::schedule(SimTime when, EventCallback fn)
{
    std::uint32_t slot;
    if (freeHead_ != kNoSlot) {
        slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.seq = nextSeq_++;
    if (++s.gen == 0)
        s.gen = 1; // generation 0 would let the id collide with kInvalidEventId
    heap_.push_back(Node{when, s.seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return makeId(slot, s.gen);
}

bool
EventQueue::cancel(EventId id)
{
    // Only a live event can be cancelled: an id that never existed,
    // already fired, or was already cancelled fails the generation or
    // liveness check and leaves no trace behind.
    const auto slot = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].gen != gen ||
        slots_[slot].seq == 0)
        return false;
    freeSlot(slot);
    --live_;
    purgeDeadTop();
    return true;
}

EventQueue::Fired
EventQueue::pop()
{
    assert(!heap_.empty() && "pop() on empty EventQueue");
    const Node top = heap_.front();
    popTop();
    Slot &s = slots_[top.slot];
    Fired out{top.time, makeId(top.slot, s.gen), std::move(s.fn)};
    freeSlot(top.slot);
    --live_;
    purgeDeadTop();
    return out;
}

void
EventQueue::clear()
{
    for (const Node &n : heap_) {
        if (!dead(n))
            freeSlot(n.slot);
    }
    heap_.clear();
    live_ = 0;
}

void
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.fn = nullptr;
    s.seq = 0;
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::purgeDeadTop()
{
    if (live_ == 0) {
        heap_.clear(); // every remaining node is dead
        return;
    }
    while (dead(heap_.front()))
        popTop();
}

} // namespace sim
} // namespace spotserve
