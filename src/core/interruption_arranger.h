/**
 * @file
 * Interruption arranger: just-in-time arrangement and stateful recovery
 * decisions (§4.1).
 *
 * On a preemption notice the arranger maximises the number of decode
 * iterations the engine can still run inside the grace period while
 * leaving room for context migration:
 *     S_t = argmax { S : l_exe(S | C_t) < T^- - T_mig }.
 * The arrangement must not increase request latency: if migrating the
 * cache costs more than recomputing the committed progress, the request
 * is simply rerouted (cache dropped).  The arranger is the one owner of
 * that verdict (migrateCache).
 */

#ifndef SPOTSERVE_CORE_INTERRUPTION_ARRANGER_H
#define SPOTSERVE_CORE_INTERRUPTION_ARRANGER_H

#include <vector>

#include "costmodel/latency_model.h"
#include "engine/active_request.h"

namespace spotserve {
namespace core {

/** JIT arrangement calculator. */
class InterruptionArranger
{
  public:
    explicit InterruptionArranger(const cost::LatencyModel &latency);

    /**
     * Preemption arrangement for one pipeline: S_t, the decode
     * iterations it may still run before halting.
     *
     * @param config           pipeline configuration (batch = live size).
     * @param current_ctx      context length of the next iteration.
     * @param remaining_tokens decode iterations left in the batch.
     * @param remaining_grace  T^-: time until the instance disappears.
     * @param migration_time   T_mig: estimated context-migration time.
     */
    int arrangeForPreemption(const par::ParallelConfig &config,
                             int current_ctx, int remaining_tokens,
                             double remaining_grace,
                             double migration_time) const;

    /**
     * What a running batch's cache is worth: under continuous batching
     * progress differs per request, so the batch is worth its
     * most-progressed member's recomputeTime, priced at the batch's live
     * size on @p config (0 for an empty batch).
     */
    double committedWork(par::ParallelConfig config,
                         const std::vector<engine::ActiveRequest> &batch)
        const;

    /**
     * The reroute-vs-migrate verdict (§4.1): moving the cache is worth it
     * only if it takes less than recomputing the committed progress,
     * T_mig < @p committed_work; a tie recomputes.
     */
    bool migrateCache(double migration_time, double committed_work) const;

    /**
     * Time to recompute a batch state of @p committed tokens from scratch
     * (prefill + decode span); the "value" of the cache context.
     */
    double recomputeTime(const par::ParallelConfig &config, int input_len,
                         int committed_tokens) const;

  private:
    const cost::LatencyModel &latency_;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_INTERRUPTION_ARRANGER_H
