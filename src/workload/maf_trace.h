/**
 * @file
 * Fluctuating arrival-rate trace in the style of the Microsoft Azure
 * Functions (MAF) production trace (§6.3, Figure 8a/8b).
 *
 * The paper replays a segment of MAF rescaled "like prior approach" to its
 * experiment scale.  The original trace is not redistributable here, so
 * this module embeds a synthetic per-minute rate series with the same
 * character the paper describes and plots: a stable beginning, a steep
 * burst that overwhelms the serving capacity around t = 270 s, and decay
 * after t = 600 s.
 */

#ifndef SPOTSERVE_WORKLOAD_MAF_TRACE_H
#define SPOTSERVE_WORKLOAD_MAF_TRACE_H

#include <vector>

#include "simcore/sim_time.h"

namespace spotserve {
namespace wl {

/** Piecewise-constant arrival-rate series (one bucket per minute). */
class MafTrace
{
  public:
    /** Build from explicit per-bucket rates. */
    MafTrace(std::vector<double> rates_per_bucket,
             sim::SimTime bucket_seconds);

    /** The embedded Figure 8 segment (18 one-minute buckets, req/s). */
    static MafTrace fig8Segment();

    /** Instantaneous mean rate at time @p t (clamps past the end). */
    double rateAt(sim::SimTime t) const;

    /** Mean and peak of the series. @{ */
    double meanRate() const;
    double peakRate() const;
    /** @} */

    const std::vector<double> &rates() const { return rates_; }

  private:
    std::vector<double> rates_;
    sim::SimTime bucketSeconds_;
};

} // namespace wl
} // namespace spotserve

#endif // SPOTSERVE_WORKLOAD_MAF_TRACE_H
