/**
 * @file
 * Workload generators.
 *
 * Stable workloads use a Gamma request-arrival process with a coefficient
 * of variation of 6 to model burstiness (§6.1, following AlpaServe); the
 * default rates are 1.5 / 0.35 / 0.2 req/s for OPT-6.7B / GPT-20B /
 * LLaMA-30B.  Fluctuating workloads draw their instantaneous rate from a
 * rescaled MAF trace (§6.3).
 */

#ifndef SPOTSERVE_WORKLOAD_WORKLOAD_H
#define SPOTSERVE_WORKLOAD_WORKLOAD_H

#include <functional>
#include <vector>

#include "costmodel/cost_params.h"
#include "simcore/rng.h"
#include "workload/request.h"

namespace spotserve {
namespace wl {

/** A fully materialised workload: requests sorted by arrival time. */
using Workload = std::vector<Request>;

/**
 * Stationary arrival process at @p rate req/s with Gamma inter-arrival
 * times of coefficient of variation @p cv, over [0, duration).
 */
Workload stationaryGamma(double rate, double cv, sim::SimTime duration,
                         const cost::SeqSpec &seq, sim::Rng &rng);

/** Poisson special case (cv = 1). */
Workload stationaryPoisson(double rate, sim::SimTime duration,
                           const cost::SeqSpec &seq, sim::Rng &rng);

/**
 * Non-stationary arrival process: the instantaneous mean rate is
 * @p rate_at (time -> req/s), modulated by Gamma burstiness @p cv.
 */
Workload fluctuating(const std::function<double(sim::SimTime)> &rate_at,
                     double cv, sim::SimTime duration,
                     const cost::SeqSpec &seq, sim::Rng &rng);

/**
 * Turn a fixed-length workload into an early-stopping one: every request
 * declares @p output_cap as its generation cap (max-tokens) while its
 * actual (EOS) output length is drawn uniformly from
 * [@p min_actual, @p max_actual].  This is the workload shape on which
 * worst-case (Reserve) KV admission is pessimistic by cap/actual and
 * optimistic admission recovers the difference.
 */
void capOutputs(Workload &workload, int output_cap, int min_actual,
                int max_actual, sim::Rng &rng);

/**
 * One shared-prefix class: a distinct prompt prefix @p tokens tokens
 * long, drawn by requests with probability proportional to @p weight
 * (system prompts, few-shot templates, multi-turn conversation stems).
 */
struct PrefixClass
{
    int tokens = 0;
    double weight = 1.0;
};

/**
 * Stamp a shared-prefix structure onto @p workload: each request draws
 * one of @p classes (weighted), or no prefix with relative weight
 * @p no_prefix_weight.  With @p prepend (default) the class prefix is
 * new prompt text: inputLen grows by the class's tokens, modelling a
 * template attached in front of the user turn.  Without it the prefix is
 * declared *within* the existing prompt (prefixLen =
 * min(class tokens, inputLen)), leaving lengths — and therefore every
 * latency and KV figure of a copy with the prefix ids stripped —
 * untouched.
 */
void withSharedPrefixes(Workload &workload,
                        const std::vector<PrefixClass> &classes,
                        sim::Rng &rng, double no_prefix_weight = 0.0,
                        bool prepend = true);

/**
 * Preset: @p num_classes few-shot templates of @p class_tokens tokens
 * each, drawn uniformly per request and prepended (the multi-tenant
 * template mix).
 */
void withFewShotPrefixes(Workload &workload, int num_classes,
                         int class_tokens, sim::Rng &rng);

/** Default per-model stable rates from §6.1. */
double defaultRateForModel(const std::string &model_name);

} // namespace wl
} // namespace spotserve

#endif // SPOTSERVE_WORKLOAD_WORKLOAD_H
