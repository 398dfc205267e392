#include "serving/presets.h"

#include <stdexcept>

#include "baselines/reparallelization_system.h"
#include "baselines/rerouting_system.h"

namespace spotserve {
namespace presets {

serving::SystemFactory
spotServeFactory(const model::ModelSpec &spec, const cost::CostParams &params,
                 const cost::SeqSpec &seq, core::SpotServeOptions options)
{
    return [spec, params, seq, options](sim::Executor &sim,
                                        cluster::InstanceManager &instances,
                                        serving::RequestManager &requests)
               -> std::unique_ptr<serving::ServingSystem> {
        return std::make_unique<core::SpotServeSystem>(
            sim, instances, requests, spec, params, seq, options);
    };
}

serving::SystemFactory
reroutingFactory(const model::ModelSpec &spec, const cost::CostParams &params,
                 const cost::SeqSpec &seq, double design_rate,
                 baselines::ReroutingOptions options)
{
    options.designArrivalRate = design_rate;
    return [spec, params, seq, options](sim::Executor &sim,
                                        cluster::InstanceManager &instances,
                                        serving::RequestManager &requests)
               -> std::unique_ptr<serving::ServingSystem> {
        return std::make_unique<baselines::ReroutingSystem>(
            sim, instances, requests, spec, params, seq, options);
    };
}

serving::SystemFactory
reparallelizationFactory(const model::ModelSpec &spec,
                         const cost::CostParams &params,
                         const cost::SeqSpec &seq, double design_rate,
                         baselines::ReparallelizationOptions options)
{
    options.designArrivalRate = design_rate;
    return [spec, params, seq, options](sim::Executor &sim,
                                        cluster::InstanceManager &instances,
                                        serving::RequestManager &requests)
               -> std::unique_ptr<serving::ServingSystem> {
        return std::make_unique<baselines::ReparallelizationSystem>(
            sim, instances, requests, spec, params, seq, options);
    };
}

serving::SystemFactory
factoryByName(const std::string &name, const model::ModelSpec &spec,
              const cost::CostParams &params, const cost::SeqSpec &seq,
              double design_rate)
{
    if (name == "SpotServe") {
        core::SpotServeOptions options;
        options.designArrivalRate = design_rate;
        return spotServeFactory(spec, params, seq, options);
    }
    if (name == "Rerouting")
        return reroutingFactory(spec, params, seq, design_rate);
    if (name == "Reparallelization")
        return reparallelizationFactory(spec, params, seq, design_rate);
    throw std::invalid_argument("factoryByName: unknown system " + name);
}

std::vector<model::ModelSpec>
evaluatedModels()
{
    return {model::ModelSpec::opt6_7b(), model::ModelSpec::gpt20b(),
            model::ModelSpec::llama30b()};
}

double
stableRate(const model::ModelSpec &spec)
{
    return wl::defaultRateForModel(spec.name());
}

serving::ExperimentResult
runStable(const model::ModelSpec &spec,
          const cluster::AvailabilityTrace &trace,
          const std::string &system_name, std::uint64_t seed)
{
    return runStable(spec, trace, system_name, seed,
                     serving::ExperimentOptions{});
}

serving::ExperimentResult
runStable(const model::ModelSpec &spec,
          const cluster::AvailabilityTrace &trace,
          const std::string &system_name, std::uint64_t seed,
          const serving::ExperimentOptions &options)
{
    const cost::CostParams params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};
    const double rate = stableRate(spec);

    sim::Rng rng(seed);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), seq, rng);

    const auto factory =
        factoryByName(system_name, spec, params, seq, rate);
    return serving::runExperiment(spec, params, trace, workload, factory,
                                  options);
}

} // namespace presets
} // namespace spotserve
