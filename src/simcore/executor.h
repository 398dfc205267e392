/**
 * @file
 * Abstract execution substrate: the clock/scheduler seam every component
 * programs against.
 *
 * Two implementations exist.  sim::Simulation is the deterministic
 * discrete-event simulator (virtual clock, events fire back to back) used
 * by the experiments, benches and tests; sim::WallClockExecutor maps the
 * same event timeline onto the real monotonic clock (threaded event queue,
 * real sleeps) so the identical engine/controller/serving code can serve
 * live traffic.  Components hold a sim::Executor & and never know which
 * substrate is driving them.
 */

#ifndef SPOTSERVE_SIMCORE_EXECUTOR_H
#define SPOTSERVE_SIMCORE_EXECUTOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/sim_time.h"

namespace spotserve {
namespace sim {

/**
 * Timed-callback scheduler with a monotonic clock.
 *
 * Contract shared by every implementation:
 *  - now() is monotonically non-decreasing.
 *  - Callbacks run one at a time (never concurrently with each other), in
 *    (time, schedule-order) sequence, with now() >= the scheduled time
 *    while the callback runs.  Components therefore need no internal
 *    locking; threaded implementations serialize callbacks on a single
 *    driver thread and only schedule()/scheduleAfter()/cancel()/now() may
 *    be called from other threads.
 *  - cancel() of an already-fired or unknown event is a harmless no-op.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Current time in seconds (virtual or wall-derived). */
    virtual SimTime now() const = 0;

    /** Schedule @p fn at absolute time @p when. */
    virtual EventId schedule(SimTime when, EventCallback fn) = 0;

    /** Schedule @p fn @p delay seconds from now (delay >= 0). */
    virtual EventId scheduleAfter(SimTime delay, EventCallback fn) = 0;

    /**
     * Schedule @p fire(i) at @p times[i] for every i, firing in exactly
     * the order that times.size() schedule() calls made now in index
     * order would.  Members cannot be cancelled.  This default makes
     * those calls, so an executor that only decorates or forwards
     * schedule() (the wall clock, a tracing wrapper) stays correct
     * without knowing about series; sim::Simulation overrides it to keep
     * one heap node per series instead of one per member.
     */
    virtual void
    scheduleSeries(std::vector<SimTime> times, SeriesCallback fire)
    {
        auto shared = std::make_shared<SeriesCallback>(std::move(fire));
        for (std::size_t i = 0; i < times.size(); ++i)
            schedule(times[i], [shared, i] { (*shared)(i); });
    }

    /** Cancel a pending event; no-op if already fired. */
    virtual bool cancel(EventId id) = 0;

    /**
     * Drive events on the calling thread until no event at or before
     * @p until remains (events at exactly @p until still fire).  The
     * simulator hops the clock between events; the wall-clock executor
     * sleeps the real gaps.
     * @return number of events fired by this call.
     */
    virtual std::uint64_t run(SimTime until = kTimeInfinity) = 0;

    /**
     * Fire exactly one pending event (the wall-clock executor first
     * sleeps until its deadline).
     * @retval true if an event fired.
     */
    virtual bool step() = 0;

    /** True when no events remain. */
    virtual bool idle() const = 0;

    /** Events fired since construction. */
    virtual std::uint64_t eventsFired() const = 0;

  protected:
    Executor() = default;
    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_EXECUTOR_H
