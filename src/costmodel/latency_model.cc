#include "costmodel/latency_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spotserve {
namespace cost {

LatencyModel::LatencyModel(const model::ModelSpec &spec,
                           const CostParams &params)
    : spec_(spec), params_(params)
{
}

double
LatencyModel::memEfficiency(int tp) const
{
    if (tp < 1)
        throw std::invalid_argument("memEfficiency: tp must be >= 1");
    return params_.memEffBase / (1.0 + params_.shardPenalty * (tp - 1));
}

double
LatencyModel::allReduceTime(int tp, double bytes) const
{
    if (tp <= 1)
        return 0.0;
    const int gpi = params_.gpusPerInstance;
    if (tp <= gpi) {
        // Single-instance ring all-reduce: 2(M-1) hops over PCIe, each
        // carrying bytes/M; reduce-scatter + all-gather volume 2(M-1)/M.
        return 2.0 * (tp - 1) * params_.intraLatency +
               2.0 * (tp - 1) / tp * bytes / params_.intraBandwidth;
    }
    // Hierarchical: intra-instance reduce + inter-instance ring over the
    // NIC + intra-instance broadcast.
    const int nodes = (tp + gpi - 1) / gpi;
    const double intra =
        2.0 * ((gpi - 1) * params_.intraLatency +
               static_cast<double>(gpi - 1) / gpi * bytes /
                   params_.intraBandwidth);
    const double inter =
        2.0 * (nodes - 1) * params_.interLatency +
        2.0 * (nodes - 1) / nodes * bytes / params_.interBandwidth;
    return intra + inter;
}

double
LatencyModel::p2pTime(const par::ParallelConfig &config, double bytes) const
{
    const bool cross = pipelineCrossesInstances(config);
    const double bw = cross ? params_.interBandwidth : params_.intraBandwidth;
    const double lat = cross ? params_.interLatency : params_.intraLatency;
    return bytes / bw + lat;
}

double
LatencyModel::effectiveBandwidth(int tp, int batch) const
{
    const double batch_derate = 1.0 + params_.batchMemPenalty * (batch - 1);
    return params_.gpu.memBandwidth * memEfficiency(tp) / batch_derate;
}

double
LatencyModel::kvReadTime(const par::ParallelConfig &config, int batch,
                         int ctx_len) const
{
    return batch * spec_.kvBytesPerToken() * ctx_len /
           (config.tp * effectiveBandwidth(config.tp, batch));
}

LatencyModel::DecodeStep
LatencyModel::decodeStep(const par::ParallelConfig &config) const
{
    const int tp = config.tp;
    const int layers = spec_.numLayers();
    const double eff_bw = effectiveBandwidth(tp, config.batch);
    DecodeStep step;

    // Stages run sequentially within one iteration, so the total weight
    // traffic is the whole model divided across the M-wide shards.
    step.weightRead = spec_.totalWeightBytes() / (tp * eff_bw);

    // Attention reads the KV cache of every context token for every
    // request in the batch (kvReadTime's term, split around ctx_len).
    step.kvCoeff = config.batch * spec_.kvBytesPerToken();
    step.kvDenom = tp * eff_bw;

    // Two all-reduces per transformer layer on the activations.
    const double act_bytes =
        static_cast<double>(config.batch) * spec_.hiddenDim() * 2.0;
    step.comm = 2.0 * layers * allReduceTime(tp, act_bytes);

    // Pipeline hand-off between consecutive stages.
    step.pipe = (config.pp - 1) * p2pTime(config, act_bytes);

    step.kernels = layers * params_.kernelOverhead;
    return step;
}

double
LatencyModel::decodeIterTime(const par::ParallelConfig &config,
                             int ctx_len) const
{
    if (ctx_len < 1)
        throw std::invalid_argument("decodeIterTime: ctx_len must be >= 1");
    return decodeStep(config).at(ctx_len);
}

double
LatencyModel::prefillTime(const par::ParallelConfig &config,
                          int input_len) const
{
    if (input_len < 1)
        throw std::invalid_argument("prefillTime: input_len must be >= 1");
    const int tp = config.tp;
    const int pp = config.pp;
    const int layers = spec_.numLayers();

    const double flops = spec_.flopsPerToken() *
                         static_cast<double>(input_len) * config.batch;
    const double compute =
        flops / (tp * params_.gpu.fp16Flops * params_.computeEff);

    const double act_bytes = static_cast<double>(config.batch) * input_len *
                             spec_.hiddenDim() * 2.0;
    const double comm = 2.0 * layers * allReduceTime(tp, act_bytes);
    const double pipe = (pp - 1) * p2pTime(config, act_bytes);
    const double kernels = layers * params_.kernelOverhead;

    return compute + comm + pipe + kernels;
}

double
LatencyModel::mixedIterTime(const par::ParallelConfig &config,
                            int prefill_batch, int input_len,
                            int prefill_ctx_len, int decode_batch,
                            int ctx_len) const
{
    if (prefill_batch <= 0 && decode_batch <= 0)
        throw std::invalid_argument("mixedIterTime: empty iteration");
    // The two phases contend for the same GPUs, so their costs add: the
    // compute-bound prefill pass for the newcomers runs alongside (and
    // serialises with) the memory-bound decode step of the incumbents.
    double total = 0.0;
    if (prefill_batch > 0) {
        par::ParallelConfig c = config;
        c.batch = prefill_batch;
        total += prefillTime(c, input_len);
        if (prefill_ctx_len > 0) {
            // The remaining input attends over the matched prefix's KV
            // cache: memory-bound, same per-token read cost as the decode
            // phase's cache traffic.
            total += kvReadTime(config, prefill_batch, prefill_ctx_len);
        }
    }
    if (decode_batch > 0) {
        par::ParallelConfig c = config;
        c.batch = decode_batch;
        total += decodeIterTime(c, ctx_len);
    }
    return total;
}

double
LatencyModel::prefillSavedTime(const par::ParallelConfig &config,
                               int matched_tokens) const
{
    // The dual of recomputeTime's mid-prefill branch: a prefix-cache hit
    // skips exactly the prefill of the matched tokens (the remaining
    // input's re-read of the matched prefix still happens and is priced
    // by mixedIterTime as usual).
    if (matched_tokens <= 0)
        return 0.0;
    return prefillTime(config, matched_tokens);
}

double
LatencyModel::execLatency(const par::ParallelConfig &config,
                          const SeqSpec &seq) const
{
    // Eq. (1): the i-th decode iteration runs at context length S_in + i.
    return prefillTime(config, seq.inputLen) +
           decodeSpanTime(config, seq.inputLen + 1, seq.outputLen);
}

double
LatencyModel::decodeSpanTime(const par::ParallelConfig &config, int start_ctx,
                             int num_iters) const
{
    if (num_iters <= 0)
        return 0.0;
    if (start_ctx < 1)
        throw std::invalid_argument("decodeSpanTime: start_ctx must be >= 1");
    // A decode step is affine in ctx_len, so the span cost equals
    // num_iters times the cost at the mean context length.  Evaluate at
    // both ends to stay exact even if the model gains non-linear terms.
    const DecodeStep step = decodeStep(config);
    return 0.5 * (step.at(start_ctx) + step.at(start_ctx + num_iters - 1)) *
           num_iters;
}

double
LatencyModel::recomputeTime(const par::ParallelConfig &config, int input_len,
                            int prefill_tokens, int committed_tokens) const
{
    // Committed output tokens imply the whole input was prefilled.
    if (committed_tokens > 0) {
        return prefillTime(config, input_len) +
               decodeSpanTime(config, input_len + 1, committed_tokens);
    }
    if (prefill_tokens <= 0)
        return 0.0;
    // Mid-prefill state: only the committed input tokens are lost.
    return prefillTime(config, std::min(prefill_tokens, input_len));
}

double
LatencyModel::coldLoadBytesPerInstance(const par::ParallelConfig &config) const
{
    const double per_gpu = spec_.totalWeightBytes() / config.gpusPerPipeline();
    return per_gpu * params_.gpusPerInstance;
}

bool
LatencyModel::pipelineCrossesInstances(const par::ParallelConfig &config) const
{
    return config.gpusPerPipeline() > params_.gpusPerInstance;
}

} // namespace cost
} // namespace spotserve
