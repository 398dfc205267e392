/**
 * @file
 * Analytical inference-latency model (the paper's offline profiler, §5).
 *
 * Generative decoding is memory-bandwidth bound: every iteration streams
 * the full weight shard plus the KV cache of the context processed so far.
 * The prefill (initial) phase is compute bound.  Tensor parallelism adds
 * two all-reduces per transformer layer; pipeline parallelism adds P-1
 * activation hand-offs per iteration.  Equation (1)/(2) of the paper:
 *
 *   l_exe(S_out | S_in) = t_exe(S_in) + sum_i t_exe(1 @ ctx S_in + i)
 */

#ifndef SPOTSERVE_COSTMODEL_LATENCY_MODEL_H
#define SPOTSERVE_COSTMODEL_LATENCY_MODEL_H

#include "costmodel/cost_params.h"
#include "model/model_spec.h"
#include "parallel/parallel_config.h"

namespace spotserve {
namespace cost {

/**
 * Latency estimates for one model on one cluster parameterisation.
 * All methods are pure; the object is cheap to copy.
 */
class LatencyModel
{
  public:
    LatencyModel(const model::ModelSpec &spec, const CostParams &params);

    const model::ModelSpec &spec() const { return spec_; }
    const CostParams &params() const { return params_; }

    /**
     * Effective memory bandwidth fraction when each operator is sharded
     * M ways (over-sharding penalty).
     */
    double memEfficiency(int tp) const;

    /**
     * One all-reduce among @p tp GPUs moving @p bytes.  Uses a ring within
     * an instance and a hierarchical reduce-ring-broadcast across
     * instances (NCCL-style), with the alpha-beta cost of each hop.
     */
    double allReduceTime(int tp, double bytes) const;

    /** One point-to-point activation transfer across a stage boundary. */
    double p2pTime(const par::ParallelConfig &config, double bytes) const;

    /**
     * The terms of one incremental-decoding iteration that do not depend
     * on the context length, for one (config, batch) shape.  Only the
     * attention's KV-cache read grows with the context, so a decode step
     * priced from a DecodeStep built once per batch shape is the same
     * double as decodeIterTime().
     */
    struct DecodeStep
    {
        double weightRead = 0.0; ///< whole model over the M-wide shards
        double kvCoeff = 0.0;    ///< batch * KV bytes per token
        double kvDenom = 1.0;    ///< M * batch-derated effective bandwidth
        double comm = 0.0;       ///< two all-reduces per layer
        double pipe = 0.0;       ///< P-1 activation hand-offs
        double kernels = 0.0;    ///< per-layer kernel launch overhead

        /** Latency at context length @p ctx_len (>= 1).  The terms add
         *  left to right in this order; tests pin the exact double. */
        double at(int ctx_len) const
        {
            return weightRead + kvCoeff * ctx_len / kvDenom + comm + pipe +
                   kernels;
        }
    };

    /** The context-independent terms of a decode step for @p config
     *  (config.batch requests). */
    DecodeStep decodeStep(const par::ParallelConfig &config) const;

    /**
     * Latency of one incremental-decoding iteration (one token per request
     * in the batch) at context length @p ctx_len: decodeStep(config).at().
     */
    double decodeIterTime(const par::ParallelConfig &config,
                          int ctx_len) const;

    /**
     * Time to stream @p ctx_len KV-cache tokens for each of @p batch
     * requests at the batch-derated effective bandwidth.  The shared
     * cache-traffic term of decodeIterTime and of a prefill's re-read of
     * a matched shared prefix.
     */
    double kvReadTime(const par::ParallelConfig &config, int batch,
                      int ctx_len) const;

    /** Latency of the initial (prefill) phase over @p input_len tokens. */
    double prefillTime(const par::ParallelConfig &config,
                       int input_len) const;

    /**
     * Prefill compute a prefix-cache hit skips: the cost of prefilling
     * the @p matched_tokens shared-prefix tokens whose KV was found
     * resident at admission.  The saved-work diagnostic the engine
     * accumulates per hit (savedPrefillSeconds) — the dual of
     * recomputeTime, which prices the same tokens when a cache is lost.
     */
    double prefillSavedTime(const par::ParallelConfig &config,
                            int matched_tokens) const;

    /**
     * Latency of one continuous-batching iteration that mixes the prefill
     * of @p prefill_batch newly admitted requests (longest remaining
     * input @p input_len, whose attention also re-reads the KV of the
     * longest matched shared prefix, @p prefill_ctx_len tokens) with one
     * decode step for @p decode_batch incumbent requests (longest context
     * @p ctx_len).  Either side may be empty; with a single-phase batch
     * and no matched prefix this reduces exactly to prefillTime() or
     * decodeIterTime() at the corresponding batch size.
     */
    double mixedIterTime(const par::ParallelConfig &config, int prefill_batch,
                         int input_len, int prefill_ctx_len, int decode_batch,
                         int ctx_len) const;

    /**
     * End-to-end execution latency l_exe(S_out | S_in) for one batch:
     * prefill plus output_len decode iterations with growing context.
     */
    double execLatency(const par::ParallelConfig &config,
                       const SeqSpec &seq) const;

    /**
     * Execution latency of @p num_iters decode iterations starting from
     * context length @p start_ctx (used by the JIT arranger to size how
     * many tokens fit in a grace period, §4.1).
     */
    double decodeSpanTime(const par::ParallelConfig &config, int start_ctx,
                          int num_iters) const;

    /**
     * Time to recompute a request's committed KV state from scratch after
     * the cache is lost (eviction, preemption restart, reroute): the
     * prefill of the @p prefill_tokens committed input tokens plus, when
     * any output was committed, the remaining prefill and the
     * @p committed_tokens decode iterations.  The "value" of the cache
     * context — what an eviction throws away and what the JIT arranger
     * weighs against migrating the cache.
     */
    double recomputeTime(const par::ParallelConfig &config, int input_len,
                         int prefill_tokens, int committed_tokens) const;

    /**
     * Weight bytes one instance pulls from disk/S3 during a cold start
     * (gpusPerInstance shards of W/(P*M) bytes).  A cold start takes
     * engineRestartTime + this / diskBandwidth on idle disks; the
     * baselines route these bytes through the transfer data plane's disk
     * links so successive restarts contend for them honestly.
     */
    double coldLoadBytesPerInstance(const par::ParallelConfig &config) const;

  private:
    /** Memory bandwidth each shard of an M-wide operator streams at when
     *  @p batch requests share it (over-sharding and batch derates). */
    double effectiveBandwidth(int tp, int batch) const;
    /** True if a pipeline's GPUs span more than one instance. */
    bool pipelineCrossesInstances(const par::ParallelConfig &config) const;

    model::ModelSpec spec_;
    CostParams params_;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_LATENCY_MODEL_H
