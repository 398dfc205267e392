/**
 * @file
 * Statistics utilities: latency percentiles.
 *
 * The paper reports Avg plus P90/P95/P96/P97/P98/P99 tail latencies
 * (Figure 6); LatencyRecorder::Summary carries exactly those columns.
 */

#ifndef SPOTSERVE_SIMCORE_STATS_H
#define SPOTSERVE_SIMCORE_STATS_H

#include <cstddef>
#include <vector>

namespace spotserve {
namespace sim {

/**
 * Collects scalar samples (latencies in seconds) and answers percentile
 * queries.  Percentiles use linear interpolation between order statistics
 * (the "linear" method, same as numpy's default).
 */
class LatencyRecorder
{
  public:
    /** Add one sample. */
    void add(double value);

    /** Number of samples recorded. */
    std::size_t count() const { return samples_.size(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /**
     * p-th percentile for p in [0, 100]; 0 when empty.
     * Linear interpolation between closest ranks.
     */
    double percentile(double p) const;

    /** The paper's standard latency columns. */
    struct Summary
    {
        std::size_t count = 0;
        double avg = 0.0;
        double p90 = 0.0;
        double p95 = 0.0;
        double p96 = 0.0;
        double p97 = 0.0;
        double p98 = 0.0;
        double p99 = 0.0;
        double max = 0.0;
    };
    Summary summary() const;

    /** All samples in insertion order (for per-request timelines). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sort the cache if new samples arrived since the last query. */
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool dirty_ = false;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_STATS_H
