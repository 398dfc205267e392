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
 * is simply rerouted (cache dropped).
 */

#ifndef SPOTSERVE_CORE_INTERRUPTION_ARRANGER_H
#define SPOTSERVE_CORE_INTERRUPTION_ARRANGER_H

#include "costmodel/latency_model.h"

namespace spotserve {
namespace core {

/** The arranger's verdict for one pipeline. */
struct Arrangement
{
    /** Decode iterations the pipeline may still run before halting. */
    int iterations = 0;

    /** Whether migrating the cache context beats recomputation. */
    bool migrateCache = true;
};

/** JIT arrangement calculator. */
class InterruptionArranger
{
  public:
    explicit InterruptionArranger(const cost::LatencyModel &latency);

    /**
     * Preemption arrangement for one pipeline.
     *
     * @param config           pipeline configuration (batch = live size).
     * @param current_ctx      context length of the next iteration.
     * @param remaining_tokens decode iterations left in the batch.
     * @param committed_work   execution time already invested in the
     *                         batch's committed state (prefill + decode);
     *                         used for the reroute-vs-migrate guard.
     * @param remaining_grace  T^-: time until the instance disappears.
     * @param migration_time   T_mig: estimated context-migration time.
     */
    Arrangement
    arrangeForPreemption(const par::ParallelConfig &config, int current_ctx,
                         int remaining_tokens, double committed_work,
                         double remaining_grace,
                         double migration_time) const;

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
