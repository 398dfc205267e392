/**
 * @file
 * Discrete-event simulation driver.
 */

#ifndef SPOTSERVE_SIMCORE_SIMULATION_H
#define SPOTSERVE_SIMCORE_SIMULATION_H

#include <cstdint>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/executor.h"
#include "simcore/sim_time.h"

namespace spotserve {
namespace sim {

/**
 * Deterministic Executor: owns the simulated clock and the event queue and
 * advances time by firing events in (time, schedule-order) sequence.
 *
 * Components hold a reference to the Executor seam and schedule callbacks
 * on it; nothing driven by a Simulation reads wall-clock time, so the same
 * inputs always produce byte-identical outputs.
 */
class Simulation : public Executor
{
  public:
    Simulation() = default;

    /** Current simulated time in seconds. */
    SimTime now() const override { return now_; }

    /** Schedule @p fn at absolute time @p when (must be >= now()). */
    EventId schedule(SimTime when, EventCallback fn) override;

    /** Schedule @p fn @p delay seconds from now (delay >= 0). */
    EventId scheduleAfter(SimTime delay, EventCallback fn) override;

    /**
     * Schedule @p fire(i) at @p times[i] as one queue series: its members
     * share one heap node and fire as times.size() schedule() calls
     * would.  Every time must be >= now().
     */
    void scheduleSeries(std::vector<SimTime> times,
                        SeriesCallback fire) override;

    /** Cancel a pending event; no-op if already fired. */
    bool cancel(EventId id) override { return queue_.cancel(id); }

    /**
     * Run until the queue drains or simulated time would pass @p until.
     * Events at exactly @p until still fire.
     * @return number of events fired by this call.
     */
    std::uint64_t run(SimTime until = kTimeInfinity) override;

    /**
     * Fire exactly one event if any is pending.
     * @retval true if an event fired.
     */
    bool step() override;

    /** True when no events remain. */
    bool idle() const override { return queue_.empty(); }

    /** Number of events fired since construction. */
    std::uint64_t eventsFired() const override { return eventsFired_; }

  private:
    EventQueue queue_;
    SimTime now_ = 0.0;
    std::uint64_t eventsFired_ = 0;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_SIMULATION_H
