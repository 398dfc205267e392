/**
 * @file
 * Integration tests: full serving systems on traces, stateful recovery,
 * determinism, ablations, fault tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baselines/reparallelization_system.h"
#include "baselines/rerouting_system.h"
#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "serving/experiment.h"
#include "serving/presets.h"
#include "serving/request_manager.h"
#include "simcore/simulation.h"

namespace spotserve {
namespace {

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

AvailabilityTrace
steadyTrace(int instances, sim::SimTime duration = 1200.0)
{
    return AvailabilityTrace(
        "steady", duration,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot,
                    instances}});
}

wl::Workload
workloadFor(const model::ModelSpec &spec, sim::SimTime duration,
            std::uint64_t seed = 7)
{
    sim::Rng rng(seed);
    return wl::stationaryGamma(wl::defaultRateForModel(spec.name()), 6.0,
                               duration, kSeq, rng);
}

serving::ExperimentResult
run(const model::ModelSpec &spec, const AvailabilityTrace &trace,
    const std::string &system, std::uint64_t seed = 7)
{
    const auto workload = workloadFor(spec, trace.duration(), seed);
    const auto factory = presets::factoryByName(
        system, spec, kParams, kSeq, wl::defaultRateForModel(spec.name()));
    return serving::runExperiment(spec, kParams, trace, workload, factory);
}

TEST(SystemsIntegration, AllRequestsCompleteOnSteadyCluster)
{
    const auto spec = model::ModelSpec::gpt20b();
    for (const char *system :
         {"SpotServe", "Reparallelization", "Rerouting"}) {
        const auto r = run(spec, steadyTrace(8), system);
        EXPECT_EQ(r.unfinished, 0) << system;
        EXPECT_GT(r.completed, 0) << system;
        EXPECT_EQ(r.arrived, r.completed) << system;
    }
}

TEST(SystemsIntegration, SteadyClusterNeedsNoRecovery)
{
    // Without preemptions nothing should ever restart a request.
    const auto spec = model::ModelSpec::gpt20b();
    for (const char *system :
         {"SpotServe", "Reparallelization", "Rerouting"}) {
        const auto r = run(spec, steadyTrace(8), system);
        for (const auto &c : r.perRequest)
            EXPECT_EQ(c.restarts, 0) << system;
    }
}

TEST(SystemsIntegration, DeterministicAcrossRuns)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto a = run(spec, cluster::traceBS(), "SpotServe");
    const auto b = run(spec, cluster::traceBS(), "SpotServe");
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
        EXPECT_DOUBLE_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
    }
    EXPECT_DOUBLE_EQ(a.costUsd, b.costUsd);
}

TEST(SystemsIntegration, SpotServeRecoversStatefully)
{
    // On the hostile trace, SpotServe's stateful recovery must carry the
    // vast majority of interrupted requests across reconfigurations
    // without recomputation (restarts == 0).
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, cluster::traceBS(), "SpotServe");
    long restarted = 0;
    for (const auto &c : r.perRequest)
        restarted += c.restarts > 0 ? 1 : 0;
    EXPECT_LT(static_cast<double>(restarted), 0.1 * r.completed);
    EXPECT_EQ(r.unfinished, 0);
}

TEST(SystemsIntegration, ReparallelizationRestartsEverythingInFlight)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto spot = run(spec, cluster::traceBS(), "SpotServe");
    const auto repar = run(spec, cluster::traceBS(), "Reparallelization");
    auto restarted = [](const serving::ExperimentResult &r) {
        long n = 0;
        for (const auto &c : r.perRequest)
            n += c.restarts > 0 ? 1 : 0;
        return n;
    };
    EXPECT_GT(restarted(repar), restarted(spot));
}

TEST(SystemsIntegration, SpotServeBeatsBaselinesOnHostileTrace)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto spot = run(spec, cluster::traceBS(), "SpotServe");
    const auto repar = run(spec, cluster::traceBS(), "Reparallelization");
    const auto rerout = run(spec, cluster::traceBS(), "Rerouting");
    EXPECT_LT(spot.latencies.percentile(99),
              repar.latencies.percentile(99));
    EXPECT_LT(spot.latencies.percentile(99),
              rerout.latencies.percentile(99));
    EXPECT_LT(spot.latencies.mean(), repar.latencies.mean());
}

TEST(SystemsIntegration, SpotCheaperThanOnDemand)
{
    // Figure 7's premise: the same fleet costs less on spot prices.
    const auto spec = model::ModelSpec::gpt20b();
    AvailabilityTrace spot_trace = steadyTrace(8);
    AvailabilityTrace od_trace(
        "od", 1200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::OnDemand, 8}});
    const auto s = run(spec, spot_trace, "SpotServe");
    const auto o = run(spec, od_trace, "SpotServe");
    EXPECT_LT(s.costUsd, o.costUsd);
    EXPECT_NEAR(s.costUsd / o.costUsd,
                kParams.spotPricePerHour / kParams.ondemandPricePerHour,
                0.01);
}

TEST(SystemsIntegration, SurvivesFleetCollapseAndRecovery)
{
    // Drop below the model's minimum, then recover: the system must
    // suspend, keep the requests queued, and finish them all after the
    // fleet returns.
    const auto spec = model::ModelSpec::gpt20b(); // needs 3 instances
    AvailabilityTrace trace(
        "collapse", 1500.0,
        {
            TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 4},
            TraceEvent{300.0, TraceEventKind::PreemptNotice,
                       InstanceType::Spot, 2},
            TraceEvent{600.0, TraceEventKind::Join, InstanceType::Spot, 4},
        });
    sim::Rng rng(3);
    const auto workload = wl::stationaryGamma(0.2, 2.0, 1500.0, kSeq, rng);
    const auto factory =
        presets::factoryByName("SpotServe", spec, kParams, kSeq, 0.2);
    const auto r =
        serving::runExperiment(spec, kParams, trace, workload, factory);
    EXPECT_EQ(r.unfinished, 0);
}

TEST(SystemsIntegration, AblationOrderingOnHostileTrace)
{
    // Figure 9: cumulatively disabling components must not improve tail
    // latency, and the fully ablated variant must be clearly worse.
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = cluster::traceBS();
    const auto workload = workloadFor(spec, trace.duration());

    auto run_options = [&](core::SpotServeOptions options) {
        options.designArrivalRate = 0.35;
        const auto factory =
            presets::spotServeFactory(spec, kParams, kSeq, options);
        return serving::runExperiment(spec, kParams, trace, workload,
                                      factory);
    };

    core::SpotServeOptions full;
    core::SpotServeOptions ablated;
    ablated.enableController = false;
    ablated.enableMigrationPlanner = false;
    ablated.enableArranger = false;
    ablated.enableDeviceMapper = false;

    const auto r_full = run_options(full);
    const auto r_ablated = run_options(ablated);
    EXPECT_LT(r_full.latencies.percentile(99),
              r_ablated.latencies.percentile(99));
}

TEST(SystemsIntegration, ReroutingKeepsFixedParallelism)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, cluster::traceBS(), "Rerouting");
    ASSERT_FALSE(r.configHistory.empty());
    // Exactly one configuration decision, never re-parallelized.
    EXPECT_EQ(r.configHistory.size(), 1u);
}

/** A Rerouting system driven directly, so a test can schedule its own
 *  arrivals and instance faults. */
struct ReroutingRig
{
    explicit ReroutingRig(double design_rate)
        : system(sim, instances, requests, model::ModelSpec::opt6_7b(),
                 kParams, kSeq, options(design_rate))
    {
        instances.setListener(&system);
    }

    static baselines::ReroutingOptions options(double design_rate)
    {
        baselines::ReroutingOptions o;
        o.designArrivalRate = design_rate;
        return o;
    }

    /** Queue @p n requests at time @p t. */
    void arrive(sim::SimTime t, int n)
    {
        for (int i = 0; i < n; ++i) {
            wl::Request r;
            r.id = nextId++;
            r.arrival = t;
            sim.schedule(t, [this, r] { system.onRequestArrival(r); });
        }
    }

    sim::Simulation sim;
    cluster::InstanceManager instances{sim, kParams};
    serving::RequestManager requests{sim};
    baselines::ReroutingSystem system;
    wl::RequestId nextId = 0;
};

TEST(SystemsIntegration, ReroutingDealsABacklogAcrossReplicas)
{
    // Two replicas come online together.  The backlog queued while they
    // initialise is dealt across both (least-loaded dispatch), not handed
    // whole to whichever replica's online event fires first.
    ReroutingRig rig(0.5);
    std::map<const engine::InferencePipeline *, std::size_t> first_batch;
    rig.system.setKvObserver([&](const engine::InferencePipeline &p) {
        first_batch.emplace(&p, p.batch().size());
    });
    rig.instances.loadTrace(steadyTrace(2, 600.0));
    rig.arrive(1.0, 4);
    rig.sim.run(600.0);

    ASSERT_EQ(rig.system.configHistory().size(), 1u);
    const auto &config = rig.system.configHistory().front().config;
    EXPECT_EQ(config.dp, 2);
    EXPECT_EQ(config.pp, 1);
    EXPECT_EQ(config.tp, 4);
    EXPECT_EQ(config.batch, 8);
    std::vector<std::size_t> sizes;
    for (const auto &[pipeline, size] : first_batch)
        sizes.push_back(size);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2}));
    EXPECT_EQ(rig.requests.completedCount(), 4);
}

TEST(SystemsIntegration, ReroutingReplicaDroppedWhileInitialisingNeverServes)
{
    // Kill one member instance 5 s in, long before the two replicas come
    // online (the engine launch alone takes 30 s).  The dead replica must
    // leave the deployment at once and never start a batch; a replica is
    // rebuilt once a fresh instance joins.
    ReroutingRig rig(0.5);
    std::map<const engine::InferencePipeline *, std::vector<sim::SimTime>>
        boundaries;
    rig.system.setKvObserver([&](const engine::InferencePipeline &p) {
        boundaries[&p].push_back(rig.sim.now());
    });
    rig.instances.loadTrace(AvailabilityTrace(
        "drop-while-initialising", 900.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 2},
         TraceEvent{200.0, TraceEventKind::Join, InstanceType::Spot, 1}}));
    int dp_after_kill = -1;
    rig.sim.schedule(5.0, [&] {
        rig.instances.hardPreemptInstance(
            rig.instances.usableInstances().back()->id());
        const auto config = rig.system.currentConfig();
        dp_after_kill = config ? config->dp : 0;
    });
    rig.arrive(1.0, 4);   // queued before the kill and
    rig.arrive(10.0, 4);  // after it: the survivor alone serves both
    rig.arrive(400.0, 8); // dealt across the survivor and the rebuilt one
    rig.sim.run(900.0);

    EXPECT_EQ(dp_after_kill, 1);
    // Only the survivor ran a batch before the fresh instance joined, and
    // not before its own engine launch: the drop kept its online time.
    std::size_t served_early = 0;
    for (const auto &[pipeline, times] : boundaries) {
        EXPECT_GE(times.front(), kParams.engineRestartTime);
        if (times.front() < 200.0)
            ++served_early;
    }
    EXPECT_EQ(served_early, 1u);
    const auto config = rig.system.currentConfig();
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->dp, 2);
    EXPECT_EQ(boundaries.size(), 2u); // the survivor and the rebuilt one
    EXPECT_EQ(rig.requests.completedCount(), 16);
    EXPECT_EQ(rig.requests.arrivedCount(), 16);
    EXPECT_EQ(rig.system.liveKvRefs(), 0);
}

TEST(SystemsIntegration, SpotServeAdaptsConfiguration)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, cluster::traceBS(), "SpotServe");
    EXPECT_GT(r.configHistory.size(), 1u);
    // First decision at high availability is the paper's (2,2,8).
    EXPECT_EQ(r.configHistory.front().config.pp, 2);
    EXPECT_EQ(r.configHistory.front().config.tp, 8);
}

TEST(SystemsIntegration, TokensAccountedForCost)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, steadyTrace(8), "SpotServe");
    EXPECT_DOUBLE_EQ(r.tokensGenerated,
                     static_cast<double>(r.completed) * kSeq.outputLen);
    EXPECT_GT(r.costPerToken(), 0.0);
}

TEST(SystemsIntegration, OverlappingGracePeriodsSurvived)
{
    // B_S's 240 s / 255 s notices overlap (§4.2); the system must not
    // deadlock or lose requests.
    const auto spec = model::ModelSpec::opt6_7b();
    const auto r = run(spec, cluster::traceBS(), "SpotServe");
    EXPECT_EQ(r.unfinished, 0);
}

} // namespace
} // namespace spotserve
