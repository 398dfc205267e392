#include "core/interruption_arranger.h"

#include <algorithm>

namespace spotserve {
namespace core {

InterruptionArranger::InterruptionArranger(const cost::LatencyModel &latency)
    : latency_(latency)
{
}

Arrangement
InterruptionArranger::arrangeForPreemption(const par::ParallelConfig &config,
                                           int current_ctx,
                                           int remaining_tokens,
                                           double committed_work,
                                           double remaining_grace,
                                           double migration_time) const
{
    Arrangement a;
    // Reroute-vs-migrate guard: the arrangement must not increase request
    // latency (T_mig < l_exe of the committed progress).  With little
    // committed work, recomputing elsewhere is cheaper than moving KV.
    a.migrateCache = migration_time < committed_work;

    // Budget for extra decoding: the grace period minus the migration,
    // minus one iteration of slack for the iteration already in flight.
    const double inflight = latency_.decodeIterTime(config, current_ctx);
    const double budget = remaining_grace - migration_time - inflight;
    if (budget <= 0.0 || remaining_tokens <= 0) {
        a.iterations = 0;
        return a;
    }

    // Largest S with decode span < budget; the span is monotone in S so a
    // linear scan over at most S_out iterations suffices.
    int s = 0;
    while (s < remaining_tokens &&
           latency_.decodeSpanTime(config, current_ctx, s + 1) < budget) {
        ++s;
    }
    a.iterations = s;
    return a;
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
