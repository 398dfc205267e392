#include "core/interruption_arranger.h"

#include <algorithm>

namespace spotserve {
namespace core {

InterruptionArranger::InterruptionArranger(const cost::LatencyModel &latency)
    : latency_(latency)
{
}

int
InterruptionArranger::arrangeForPreemption(const par::ParallelConfig &config,
                                           int current_ctx,
                                           int remaining_tokens,
                                           double remaining_grace,
                                           double migration_time) const
{
    // Budget for extra decoding: the grace period minus the migration,
    // minus one iteration of slack for the iteration already in flight.
    const double inflight = latency_.decodeIterTime(config, current_ctx);
    const double budget = remaining_grace - migration_time - inflight;
    if (budget <= 0.0 || remaining_tokens <= 0)
        return 0;

    // Largest S with decode span < budget; the span is monotone in S so a
    // linear scan over at most S_out iterations suffices.
    int s = 0;
    while (s < remaining_tokens &&
           latency_.decodeSpanTime(config, current_ctx, s + 1) < budget) {
        ++s;
    }
    return s;
}

double
InterruptionArranger::committedWork(
    par::ParallelConfig config,
    const std::vector<engine::ActiveRequest> &batch) const
{
    config.batch = static_cast<int>(batch.size());
    double work = 0.0;
    for (const auto &r : batch) {
        work = std::max(work, recomputeTime(config, r.request.inputLen,
                                            r.committedTokens));
    }
    return work;
}

bool
InterruptionArranger::migrateCache(double migration_time,
                                   double committed_work) const
{
    // The arrangement must not increase request latency: with little
    // committed work, recomputing elsewhere is cheaper than moving KV.
    return migration_time < committed_work;
}

double
InterruptionArranger::recomputeTime(const par::ParallelConfig &config,
                                    int input_len, int committed_tokens) const
{
    if (committed_tokens <= 0)
        return 0.0;
    // Single-source restart costing shared with the eviction engine.
    return latency_.recomputeTime(config, input_len, input_len,
                                  committed_tokens);
}

} // namespace core
} // namespace spotserve
