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
    push(Node{when, s.seq, slot, 0});
    ++live_;
    return makeId(slot, s.gen);
}

void
EventQueue::scheduleSeries(std::vector<SimTime> times, SeriesCallback fire)
{
    if (times.empty())
        return;
    auto series = std::make_shared<Series>();
    series->fire = std::move(fire);
    series->members.reserve(times.size());
    for (std::size_t i = 0; i < times.size(); ++i)
        series->members.emplace_back(times[i], i);
    // (time, index) order is (time, seq) order: member i draws seq
    // firstSeq + i, as the i-th of n schedule() calls would.
    std::sort(series->members.begin(), series->members.end());
    series->firstSeq = nextSeq_;
    nextSeq_ += times.size();

    std::uint32_t s;
    if (!freeSeries_.empty()) {
        s = freeSeries_.back();
        freeSeries_.pop_back();
        series_[s] = std::move(series);
    } else {
        s = static_cast<std::uint32_t>(series_.size());
        series_.push_back(std::move(series));
    }
    live_ += times.size();
    seriesWaiting_ += times.size();
    pushSeriesMember(s);
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
    Fired out{top.time, kInvalidEventId, nullptr, nullptr};
    if (top.slot == kNoSlot) {
        // Hand the series to the member being fired, then queue the
        // next member; the last one leaves the table.
        std::shared_ptr<Series> &entry = series_[top.series];
        out.index = entry->members[entry->next].second;
        if (++entry->next < entry->members.size()) {
            out.series = entry;
            pushSeriesMember(top.series);
        } else {
            out.series = std::move(entry);
            freeSeries_.push_back(top.series);
        }
    } else {
        Slot &s = slots_[top.slot];
        out.id = makeId(top.slot, s.gen);
        out.fn = std::move(s.fn);
        freeSlot(top.slot);
    }
    --live_;
    purgeDeadTop();
    return out;
}

void
EventQueue::push(const Node &n)
{
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::pushSeriesMember(std::uint32_t s)
{
    const Series &series = *series_[s];
    const auto &[time, index] = series.members[series.next];
    push(Node{time, series.firstSeq + index, kNoSlot, s});
    --seriesWaiting_;
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
