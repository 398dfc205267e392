#include "workload/maf_trace.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace spotserve {
namespace wl {

MafTrace::MafTrace(std::vector<double> rates_per_bucket,
                   sim::SimTime bucket_seconds)
    : rates_(std::move(rates_per_bucket)), bucketSeconds_(bucket_seconds)
{
    if (rates_.empty())
        throw std::invalid_argument("MafTrace: empty rate series");
    if (bucket_seconds <= 0.0)
        throw std::invalid_argument("MafTrace: bad bucket length");
    for (double r : rates_) {
        if (r <= 0.0)
            throw std::invalid_argument("MafTrace: rates must be positive");
    }
}

MafTrace
MafTrace::fig8Segment()
{
    // 18 one-minute buckets (t = 0..1080 s), req/s at GPT-20B scale.
    // Stable start; burst from minute 4 (t=270 s region) that exceeds the
    // (D=2,P=2,M=8) capacity (phi ~ 0.69 req/s) but stays within reach of
    // the scaled-up deployments; decay after minute 10 (t=600 s).
    return MafTrace(
        {
            0.55, 0.55, 0.60, 0.65, // warm-up
            0.80, 0.90, 0.95, 0.95, // burst ramps past (2,2,8) capacity
            0.90, 0.85,             // plateau
            0.65, 0.55, 0.50, 0.50, // decay after t = 600 s
            0.50, 0.55, 0.55, 0.50, // tail
        },
        60.0);
}

double
MafTrace::rateAt(sim::SimTime t) const
{
    if (t < 0.0)
        t = 0.0;
    auto idx = static_cast<std::size_t>(t / bucketSeconds_);
    idx = std::min(idx, rates_.size() - 1);
    return rates_[idx];
}

double
MafTrace::meanRate() const
{
    const double sum = std::accumulate(rates_.begin(), rates_.end(), 0.0);
    return sum / static_cast<double>(rates_.size());
}

double
MafTrace::peakRate() const
{
    return *std::max_element(rates_.begin(), rates_.end());
}

} // namespace wl
} // namespace spotserve
