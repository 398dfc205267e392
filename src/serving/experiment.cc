#include "serving/experiment.h"

#include <set>
#include <vector>

#include "cluster/fault_injector.h"
#include "simcore/simulation.h"

namespace spotserve {
namespace serving {

ExperimentResult
runExperiment(const model::ModelSpec &spec, const cost::CostParams &params,
              const cluster::AvailabilityTrace &trace,
              const wl::Workload &workload, const SystemFactory &factory,
              ExperimentOptions options)
{
    sim::Simulation simulation;
    return runExperimentOn(simulation, spec, params, trace, workload,
                           factory, options);
}

ExperimentResult
runExperimentOn(sim::Executor &executor, const model::ModelSpec &spec,
                const cost::CostParams &params,
                const cluster::AvailabilityTrace &trace,
                const wl::Workload &workload, const SystemFactory &factory,
                ExperimentOptions options)
{
    cluster::InstanceManager instances(executor, params);
    RequestManager requests(executor);

    auto system = factory(executor, instances, requests);
    instances.setListener(system.get());
    instances.loadTrace(trace);

    // The fault plane rides on the same executor seam as the trace
    // replay; with no plan, nothing is scheduled and the run is
    // byte-identical to a driver without it.
    std::unique_ptr<sim::FaultInjector> injector;
    if (options.faultPlan != nullptr) {
        injector = std::make_unique<sim::FaultInjector>(executor, instances,
                                                        *options.faultPlan);
        injector->attachDataPlane(&system->dataPlane());
        injector->arm();
    }

    // The arrivals are one series: the simulator keeps only the next one
    // in its event heap instead of the whole workload.
    std::vector<sim::SimTime> arrivals;
    arrivals.reserve(workload.size());
    for (const auto &req : workload)
        arrivals.push_back(req.arrival);
    executor.scheduleSeries(std::move(arrivals),
                            [&system, &workload](std::size_t i) {
                                system->onRequestArrival(workload[i]);
                            });

    const sim::SimTime horizon = trace.duration() + options.drainTimeout;
    executor.run(horizon);

    ExperimentResult result;
    result.systemName = system->name();
    result.traceName = trace.name();
    result.modelName = spec.name();
    // Latency statistics skip the warm-up window (identical cold start for
    // every system) and include the censored age of never-finished
    // requests so overload stays visible in the tail.
    for (const auto &done : requests.completions()) {
        if (done.arrival >= options.warmupCutoff)
            result.latencies.add(done.latency);
    }
    for (const auto &pending : requests.pending()) {
        if (pending.request.arrival >= options.warmupCutoff)
            result.latencies.add(horizon - pending.request.arrival);
    }
    result.perRequest = requests.completions();
    result.configHistory = system->configHistory();
    result.arrived = requests.arrivedCount();
    result.completed = requests.completedCount();
    result.unfinished = requests.unfinishedCount();
    result.rejected = requests.rejectedCount();
    result.tokensGenerated = requests.tokensGenerated();
    // Bill the fleet over the trace window only (comparable across
    // systems; the drain window exists to flush the queue).
    result.costUsd = instances.accruedCost(trace.duration());
    result.spotInstanceHours = instances.spotInstanceHours(trace.duration());
    result.ondemandInstanceHours =
        instances.ondemandInstanceHours(trace.duration());
    result.hardPreemptions = instances.hardPreemptions();
    system->report(result);
    return result;
}

std::string
auditDrainedRun(const ExperimentResult &result)
{
    std::set<wl::RequestId> ids;
    for (const auto &rec : result.perRequest)
        ids.insert(rec.id);
    const long records = static_cast<long>(result.perRequest.size());
    std::string broken;
    auto expect = [&broken](long got, long want, const std::string &what) {
        if (got != want)
            broken += (broken.empty() ? "" : "; ") + std::to_string(got) + what;
    };
    expect(records - static_cast<long>(ids.size()), 0,
           " duplicate completion records");
    expect(records, result.completed, " completion records for " +
           std::to_string(result.completed) + " completed");
    expect(result.unfinished, 0, " unfinished");
    expect(result.liveKvRefsAtEnd, 0, " KV block refs live");
    return broken;
}

} // namespace serving
} // namespace spotserve
