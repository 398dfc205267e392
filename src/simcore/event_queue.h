/**
 * @file
 * Deterministic pending-event set for the discrete-event simulator.
 *
 * Events are ordered by (time, sequence number) so that two events scheduled
 * for the same instant always fire in the order they were scheduled,
 * independent of heap internals.  This determinism is load-bearing: the
 * serving experiments and the regression tests compare exact latency series
 * across runs.
 *
 * Layout.  The heap holds 24-byte {time, seq, slot, series} nodes; the
 * callbacks live in a slot table recycled through a free list, so
 * steady-state scheduling allocates nothing and heap sifts move plain
 * structs, never a std::function.  An EventId is an opaque (slot,
 * generation) handle — not a sequence number and not ordered — so
 * cancel() is one table lookup.  Cancelling frees the slot at once; the
 * orphaned heap node is recognised by its sequence number no longer
 * matching its slot's and is discarded the moment it reaches the heap
 * top, which therefore always holds a live event.
 *
 * Series.  scheduleSeries() takes n times and one callback and reserves
 * n consecutive sequence numbers, exactly what n schedule() calls in
 * index order would have drawn.  The members are sorted by (time, index)
 * once, and only the series' next member sits in the heap; popping it
 * pushes the one after.  Every (time, seq) comparison is therefore the
 * one the n separate events would have made, while the heap stays as
 * small as the plain events plus one node per series.  Each series is
 * held by a shared_ptr that the member being fired shares, so a callback
 * that schedules another series never moves or frees the callback that is
 * running.  Series members cannot be cancelled and
 * have no EventId.
 */

#ifndef SPOTSERVE_SIMCORE_EVENT_QUEUE_H
#define SPOTSERVE_SIMCORE_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "simcore/sim_time.h"

namespace spotserve {
namespace sim {

/** Action executed when an event fires. */
using EventCallback = std::function<void()>;

/** Action executed when member @p i of a series fires. */
using SeriesCallback = std::function<void(std::size_t i)>;

/**
 * Priority queue of timed callbacks with O(log n) schedule/pop and O(1)
 * cancellation.
 */
class EventQueue
{
    struct Series;

  public:
    /**
     * Schedule @p fn to fire at absolute time @p when.
     * @return a handle usable with cancel().
     */
    EventId schedule(SimTime when, EventCallback fn);

    /**
     * Schedule @p fire(i) at @p times[i] for every i, in the order that
     * times.size() schedule() calls made now in index order would fire.
     * The members hold one heap node between them and cannot be
     * cancelled.
     */
    void scheduleSeries(std::vector<SimTime> times, SeriesCallback fire);

    /**
     * Cancel a previously scheduled event.  Cancelling an already-fired,
     * already-cancelled or unknown event is a harmless no-op, even once
     * its slot has been reused by a newer event.
     * @retval true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** @return true if no live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live pending events, series members included. */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event; kTimeInfinity when empty. */
    SimTime nextTime() const
    {
        return heap_.empty() ? kTimeInfinity : heap_.front().time;
    }

    /**
     * The earliest live event, removed from the queue.  A plain event's
     * callback is moved out, never copied; a series member carries its
     * series and index instead (id is kInvalidEventId).
     */
    struct Fired
    {
        SimTime time;
        EventId id;
        EventCallback fn;
        std::shared_ptr<Series> series;
        std::size_t index = 0;

        /** Run the event's action. */
        void
        fire()
        {
            if (series)
                series->fire(index);
            else
                fn();
        }
    };
    /** @pre !empty() */
    Fired pop();

    /**
     * Heap nodes of cancelled events that have not surfaced yet
     * (diagnostic: bounded by the cancelled events due after the
     * earliest live one; 0 once the queue drains).
     */
    std::size_t cancelledBacklog() const
    {
        return heap_.size() - (live_ - seriesWaiting_);
    }

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    struct Node
    {
        SimTime time;
        std::uint64_t seq;
        /** Slot of a plain event; kNoSlot for a series member. */
        std::uint32_t slot;
        /** Index into series_ of a series member. */
        std::uint32_t series;
    };

    struct Slot
    {
        EventCallback fn;
        /** Sequence number of the pending event; 0 while free. */
        std::uint64_t seq = 0;
        /** Bumped on every reuse, so stale ids never match. */
        std::uint32_t gen = 0;
        std::uint32_t nextFree = 0;
    };

    struct Series
    {
        SeriesCallback fire;
        /** (time, index) of every member, in firing order. */
        std::vector<std::pair<SimTime, std::size_t>> members;
        /** Position in members of the member in the heap. */
        std::size_t next = 0;
        /** Sequence number of member 0. */
        std::uint64_t firstSeq = 0;
    };

    /** Heap order: true when @p a fires after @p b.  A function object,
     *  not a function pointer, so the heap algorithms inline it. */
    struct Later
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** Series members are never cancelled, so never dead. */
    bool dead(const Node &n) const
    {
        return n.slot != kNoSlot && slots_[n.slot].seq != n.seq;
    }
    void push(const Node &n);
    /** Push the heap node of series @p s's next member. */
    void pushSeriesMember(std::uint32_t s);
    /** Remove the heap top. @pre the heap is not empty. */
    void popTop();
    void freeSlot(std::uint32_t slot);
    /** Restore the invariant that the heap top is live. */
    void purgeDeadTop();

    std::vector<Node> heap_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    /** Pending series (null once drained), and the free entries. */
    std::vector<std::shared_ptr<Series>> series_;
    std::vector<std::uint32_t> freeSeries_;
    std::uint64_t nextSeq_ = 1;
    /** Live events: plain ones plus every unfired series member. */
    std::size_t live_ = 0;
    /** Series members not yet in the heap. */
    std::size_t seriesWaiting_ = 0;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_EVENT_QUEUE_H
