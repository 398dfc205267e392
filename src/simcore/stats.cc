#include "simcore/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace spotserve {
namespace sim {

void
LatencyRecorder::add(double value)
{
    samples_.push_back(value);
    dirty_ = true;
}

double
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

double
LatencyRecorder::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

double
LatencyRecorder::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    if (lo == hi)
        return sorted_[lo];
    const double frac = rank - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

LatencyRecorder::Summary
LatencyRecorder::summary() const
{
    Summary s;
    s.count = samples_.size();
    s.avg = mean();
    s.p90 = percentile(90);
    s.p95 = percentile(95);
    s.p96 = percentile(96);
    s.p97 = percentile(97);
    s.p98 = percentile(98);
    s.p99 = percentile(99);
    s.max = max();
    return s;
}

void
LatencyRecorder::ensureSorted() const
{
    if (dirty_ || sorted_.size() != samples_.size()) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        dirty_ = false;
    }
}

} // namespace sim
} // namespace spotserve
