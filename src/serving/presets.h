/**
 * @file
 * Ready-made experiment setups shared by the benchmarks, examples and
 * integration tests: system factories for SpotServe and both baselines,
 * plus the paper's standard scenario parameters (§6.1).
 */

#ifndef SPOTSERVE_SERVING_PRESETS_H
#define SPOTSERVE_SERVING_PRESETS_H

#include <string>

#include "baselines/reparallelization_system.h"
#include "baselines/rerouting_system.h"
#include "core/spotserve_system.h"
#include "serving/experiment.h"

namespace spotserve {
namespace presets {

/** Factory for a SpotServe system (optionally ablated). */
serving::SystemFactory
spotServeFactory(const model::ModelSpec &spec, const cost::CostParams &params,
                 const cost::SeqSpec &seq, core::SpotServeOptions options);

/**
 * Factory for the request-rerouting baseline.  @p options.engine carries
 * the shared EngineOptions; @p design_rate overrides its
 * designArrivalRate.
 */
serving::SystemFactory
reroutingFactory(const model::ModelSpec &spec, const cost::CostParams &params,
                 const cost::SeqSpec &seq, double design_rate,
                 baselines::ReroutingOptions options = {});

/** Factory for the model-reparallelization baseline (same knob rules). */
serving::SystemFactory
reparallelizationFactory(const model::ModelSpec &spec,
                         const cost::CostParams &params,
                         const cost::SeqSpec &seq, double design_rate,
                         baselines::ReparallelizationOptions options = {});

/** Factory by name: "SpotServe", "Rerouting" or "Reparallelization". */
serving::SystemFactory
factoryByName(const std::string &name, const model::ModelSpec &spec,
              const cost::CostParams &params, const cost::SeqSpec &seq,
              double design_rate);

/** The three evaluated models in Table 1 order. */
std::vector<model::ModelSpec> evaluatedModels();

/** Paper default stable arrival rate for a model (§6.1). */
double stableRate(const model::ModelSpec &spec);

/**
 * Run one model x trace x system stable-workload experiment with the
 * paper's parameters (Gamma CV = 6, S_in = 512, S_out = 128); the seed
 * fixes the workload sample.
 */
serving::ExperimentResult
runStable(const model::ModelSpec &spec, const cluster::AvailabilityTrace &trace,
          const std::string &system_name, std::uint64_t seed = 7);

/**
 * runStable with caller-supplied driver options — the seam the fault
 * experiments use to attach a FaultPlan (and the regression tests use to
 * prove an armed-but-empty fault plane leaves runs byte-identical).
 */
serving::ExperimentResult
runStable(const model::ModelSpec &spec, const cluster::AvailabilityTrace &trace,
          const std::string &system_name, std::uint64_t seed,
          const serving::ExperimentOptions &options);

} // namespace presets
} // namespace spotserve

#endif // SPOTSERVE_SERVING_PRESETS_H
