/**
 * @file
 * Live Algorithm-1 fleet management: start with no instances at all and
 * let SpotServe allocate, keep a candidate pool, and release capacity as
 * a diurnal workload rises and falls (Algorithm 1 lines 6-10; off in the
 * paper's trace-replay experiments, but part of the system design).
 */

#include <cstdio>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "serving/presets.h"

using namespace spotserve;

int
main()
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::CostParams params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};

    // A two-hour workload: quiet, a one-hour plateau at 4x the base
    // rate, then quiet again.
    auto rate = [](sim::SimTime t) {
        return (t > 1800.0 && t < 5400.0) ? 0.8 : 0.2;
    };
    sim::Rng rng(17);
    const auto workload = wl::fluctuating(rate, 1.0, 7200.0, seq, rng);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, params);
    serving::RequestManager requests(sim);

    core::SpotServeOptions options;
    options.dynamicAllocation = true;     // Algorithm 1 lines 6-10 live
    options.designArrivalRate = 0.2;      // the declared base load
    options.maxDynamicInstances = 12;
    options.controller.arrivalCv = 1.0;   // Poisson traffic in this demo
    // Cost-driven objective (§3.2 "other targets"): cheapest
    // configuration meeting a 40 s request-latency SLO.  Pure latency
    // minimisation would happily hold 12 instances at the base rate.
    options.controller.sloLatency = 40.0;

    core::SpotServeSystem system(sim, instances, requests, spec, params,
                                 seq, options);
    instances.setListener(&system);
    instances.loadTrace(cluster::AvailabilityTrace("empty", 8000.0, {}));
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }

    std::printf("autoscaling %s from an empty fleet "
                "(0.2 req/s base, 0.8 req/s plateau)\n\n",
                spec.name().c_str());
    std::printf("%-8s %-6s %-8s %-20s %s\n", "t[s]", "rate", "fleet",
                "config", "queue");
    for (double t = 0.0; t <= 7800.0; t += 600.0) {
        sim.run(t);
        const auto c = system.currentConfig();
        std::printf("%-8.0f %-6.2f %-8d %-20s %zu\n", t, rate(t),
                    instances.planningCount(),
                    c ? c->str().c_str() : "(none)",
                    requests.pendingCount());
    }
    sim.run(9000.0);

    std::printf("\n%ld/%ld requests served, $%.2f total "
                "(%.1f spot instance-hours), $%.2e per token\n",
                requests.completedCount(), requests.arrivedCount(),
                instances.accruedCost(sim.now()),
                instances.spotInstanceHours(sim.now()),
                requests.tokensGenerated() > 0
                    ? instances.accruedCost(sim.now()) /
                          requests.tokensGenerated()
                    : 0.0);
    std::printf("configuration history:\n");
    for (const auto &c : system.configHistory())
        std::printf("  t=%6.0f  %-20s %s\n", c.time, c.config.str().c_str(),
                    c.reason.c_str());
    return 0;
}
