/**
 * @file
 * Per-GPU memory accounting and configuration feasibility.
 *
 * A configuration is deployable only if each GPU can hold its weight shard,
 * the KV cache for its share of B concurrent requests at full sequence
 * length, the runtime workspace, and the migration reserve.  The reserve is
 * what the memory-optimised migration planner (Algorithm 2) is about: with
 * it, transient migration buffers are bounded by U_max; without it the
 * whole incoming shard may be double-buffered, which is why GPT-20B's
 * minimum GPU count drops from 16 to 12 when the planner is enabled (§6.2).
 *
 * All per-GPU accounting sizes the *bottleneck stage*: pipeline stages
 * split L layers as evenly as possible, so with L % P != 0 the largest
 * stage holds ceil(L/P) layers of weights and KV and is the GPU that
 * binds.  Averaging over P*M GPUs (the naive W/(P*M) form) over-promises
 * on exactly that GPU — e.g. GPT-20B's 44 layers at P = 3 put 15 layers
 * on stage 0, not 14.67.
 *
 * The runtime budget is additionally exposed at KV *block* granularity
 * (kvBudgetBlocks): production engines allocate KV in fixed-size
 * pages/blocks (PagedAttention-style; engine::kKvBlockTokens = 16
 * tokens), so a request holding t tokens really occupies ceil(t / 16)
 * blocks and the replica can hand out at most floor(budgetTokens / 16)
 * blocks.
 */

#ifndef SPOTSERVE_COSTMODEL_MEMORY_MODEL_H
#define SPOTSERVE_COSTMODEL_MEMORY_MODEL_H

#include "costmodel/cost_params.h"
#include "model/model_spec.h"
#include "parallel/parallel_config.h"

namespace spotserve {
namespace cost {

/** Memory accounting for one model on one cluster parameterisation. */
class MemoryModel
{
  public:
    MemoryModel(const model::ModelSpec &spec, const CostParams &params);

    /**
     * Weight bytes resident on each GPU of the bottleneck stage:
     * ceil(L/P) layers' weights sharded M ways.
     */
    double weightShardBytes(const par::ParallelConfig &config) const;

    /**
     * KV-cache bytes per GPU of the bottleneck stage with every slot of
     * the batch at full length S_in + S_out (worst case the daemon must
     * be able to hold): ceil(L/P) layers' K/V for all B requests,
     * sharded M ways.
     */
    double kvCacheBytes(const par::ParallelConfig &config,
                        const SeqSpec &seq) const;

    /** Steady-state footprint: weights + KV + workspace. */
    double steadyBytes(const par::ParallelConfig &config,
                       const SeqSpec &seq) const;

    /**
     * Transient migration reserve.  @p mem_opt_planner selects between the
     * planner's U_max bound and naive double-buffering of the shard.
     */
    double migrationReserveBytes(const par::ParallelConfig &config,
                                 bool mem_opt_planner) const;

    /** steadyBytes + migrationReserveBytes <= usable GPU memory? */
    bool fits(const par::ParallelConfig &config, const SeqSpec &seq,
              bool mem_opt_planner = true) const;

    /**
     * Per-replica KV-cache token budget: the number of cached tokens one
     * pipeline may hold across its batch before the bottleneck-stage GPU
     * of the replica exceeds usable memory (weights + workspace +
     * migration reserve already deducted).  This is the runtime
     * admission budget the engine enforces at every iteration boundary;
     * for any config with fits(config, seq), kvBudgetTokens(config) >=
     * config.batch * (seq.inputLen + seq.outputLen), so *token*-budget
     * admission is never stricter than the fixed-B capacity the
     * optimizer planned for.  (Under paged accounting that guarantee is
     * deliberately NOT carried into block space: a config sitting
     * exactly on the fits() frontier whose sequence length is not a
     * multiple of the block size can round to up to B extra blocks the
     * allocator does not have, so block admission may cap the live
     * batch below B — that is the real capacity of a paged allocator,
     * and exactly the over-promise this accounting exists to surface;
     * BlockAdmissionTest.TokenGranularAdmissionOverpromisesPagedBlocks
     * shows it.)  Returns 0 when even the weights do not fit.
     */
    long kvBudgetTokens(const par::ParallelConfig &config,
                        bool mem_opt_planner = true) const;

    /**
     * Per-replica KV budget in whole engine::kKvBlockTokens-token
     * blocks: floor(kvBudgetTokens / kKvBlockTokens), the number of
     * blocks a paged allocator can actually carve out of the free
     * memory.  A request holding t tokens occupies
     * ceil(t / kKvBlockTokens) blocks, so the per-request rounding slack
     * (up to kKvBlockTokens - 1 tokens) that token-granular accounting
     * ignores is charged here.  The one place the runtime budget is
     * converted from tokens to blocks.
     */
    long kvBudgetBlocks(const par::ParallelConfig &config,
                        bool mem_opt_planner = true) const;

    /**
     * Smallest number of GPUs on which the model can serve at all
     * (minimum over feasible configs with D=1, B=1), mirroring Table 1's
     * "min #GPUs" column.  Returns 0 if nothing fits.
     */
    int minGpus(bool mem_opt_planner = true) const;

  private:
    /** Layers held by the largest (bottleneck) stage: ceil(L/P). */
    int bottleneckLayers(const par::ParallelConfig &config) const;

    model::ModelSpec spec_;
    CostParams params_;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_MEMORY_MODEL_H
