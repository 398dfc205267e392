#include "simcore/simulation.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace spotserve {
namespace sim {

EventId
Simulation::schedule(SimTime when, EventCallback fn)
{
    if (when < now_)
        throw std::invalid_argument("Simulation::schedule: time in the past");
    return queue_.schedule(when, std::move(fn));
}

EventId
Simulation::scheduleAfter(SimTime delay, EventCallback fn)
{
    if (delay < 0.0)
        throw std::invalid_argument("Simulation::scheduleAfter: negative delay");
    return queue_.schedule(now_ + delay, std::move(fn));
}

void
Simulation::scheduleSeries(std::vector<SimTime> times, SeriesCallback fire)
{
    for (SimTime when : times) {
        if (when < now_)
            throw std::invalid_argument(
                "Simulation::scheduleSeries: time in the past");
    }
    queue_.scheduleSeries(std::move(times), std::move(fire));
}

std::uint64_t
Simulation::run(SimTime until)
{
    std::uint64_t fired = 0;
    while (!queue_.empty() && queue_.nextTime() <= until) {
        auto ev = queue_.pop();
        assert(ev.time >= now_ && "event queue went backwards in time");
        now_ = ev.time;
        ev.fire();
        ++eventsFired_;
        ++fired;
    }
    // Park the clock at the horizon so subsequent scheduling is relative to
    // the requested stop time, matching how callers reason about run(until).
    if (until != kTimeInfinity && until > now_)
        now_ = until;
    return fired;
}

bool
Simulation::step()
{
    if (queue_.empty())
        return false;
    auto ev = queue_.pop();
    now_ = ev.time;
    ev.fire();
    ++eventsFired_;
    return true;
}

} // namespace sim
} // namespace spotserve
