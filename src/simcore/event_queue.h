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
 * Layout.  The heap holds 24-byte {time, seq, slot} nodes; the callbacks
 * live in a slot table recycled through a free list, so steady-state
 * scheduling allocates nothing and heap sifts move plain structs, never a
 * std::function.  An EventId is an opaque (slot, generation) handle —
 * not a sequence number and not ordered — so cancel() is one table
 * lookup.  Cancelling frees the slot at once; the orphaned heap node is
 * recognised by its sequence number no longer matching its slot's and
 * is discarded the moment it reaches the heap top, which therefore
 * always holds a live event.
 */

#ifndef SPOTSERVE_SIMCORE_EVENT_QUEUE_H
#define SPOTSERVE_SIMCORE_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/sim_time.h"

namespace spotserve {
namespace sim {

/** Action executed when an event fires. */
using EventCallback = std::function<void()>;

/**
 * Priority queue of timed callbacks with O(log n) schedule/pop and O(1)
 * cancellation.
 */
class EventQueue
{
  public:
    /**
     * Schedule @p fn to fire at absolute time @p when.
     * @return a handle usable with cancel().
     */
    EventId schedule(SimTime when, EventCallback fn);

    /**
     * Cancel a previously scheduled event.  Cancelling an already-fired,
     * already-cancelled or unknown event is a harmless no-op, even once
     * its slot has been reused by a newer event.
     * @retval true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** @return true if no live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live pending events. */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event; kTimeInfinity when empty. */
    SimTime nextTime() const
    {
        return heap_.empty() ? kTimeInfinity : heap_.front().time;
    }

    /**
     * Remove and return the earliest live event; its callback is moved
     * out, never copied.
     * @pre !empty()
     */
    struct Fired
    {
        SimTime time;
        EventId id;
        EventCallback fn;
    };
    Fired pop();

    /** Drop every pending event (used when tearing a simulation down). */
    void clear();

    /**
     * Heap nodes of cancelled events that have not surfaced yet
     * (diagnostic: bounded by the cancelled events due after the
     * earliest live one; 0 once the queue drains).
     */
    std::size_t cancelledBacklog() const { return heap_.size() - live_; }

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    struct Node
    {
        SimTime time;
        std::uint64_t seq;
        std::uint32_t slot;
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

    bool dead(const Node &n) const { return slots_[n.slot].seq != n.seq; }
    /** Remove the heap top. @pre the heap is not empty. */
    void popTop();
    void freeSlot(std::uint32_t slot);
    /** Restore the invariant that the heap top is live. */
    void purgeDeadTop();

    std::vector<Node> heap_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    std::uint64_t nextSeq_ = 1;
    std::size_t live_ = 0;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_EVENT_QUEUE_H
