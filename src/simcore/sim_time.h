/**
 * @file
 * Simulated-time primitives shared by every module.
 */

#ifndef SPOTSERVE_SIMCORE_SIM_TIME_H
#define SPOTSERVE_SIMCORE_SIM_TIME_H

#include <cstdint>
#include <limits>

namespace spotserve {
namespace sim {

/** Simulated wall-clock time in seconds since simulation start. */
using SimTime = double;

/** Sentinel meaning "never" / end of time. */
constexpr SimTime kTimeInfinity = std::numeric_limits<double>::infinity();

/** Convert minutes to SimTime seconds. */
constexpr SimTime
minutes(double m)
{
    return m * 60.0;
}

/** Convert hours to SimTime seconds. */
constexpr SimTime
hours(double h)
{
    return h * 3600.0;
}

/** Opaque handle of a scheduled event (compare only for equality). */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId kInvalidEventId = 0;

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_SIM_TIME_H
