/**
 * @file
 * Tests for the SLO objective, dynamic fleet management (Algorithm 1
 * lines 6-10), and fault-tolerance paths (§4.2).
 */

#include <gtest/gtest.h>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "core/controller.h"
#include "core/spotserve_system.h"
#include "serving/experiment.h"
#include "serving/presets.h"

namespace spotserve {
namespace {

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

// ---------------------------------------------------------------------
// SLO objective (§3.2 "other targets are also feasible")
// ---------------------------------------------------------------------

TEST(SloObjectiveTest, GenerousSloPicksCheaperConfig)
{
    const auto spec = model::ModelSpec::gpt20b();
    core::ControllerOptions lat_opts;
    core::ParallelizationController min_latency(spec, kParams, kSeq, {},
                                                lat_opts);
    core::ControllerOptions slo_opts;
    slo_opts.sloLatency = 200.0;
    core::ParallelizationController with_slo(spec, kParams, kSeq, {},
                                             slo_opts);

    const auto a = min_latency.chooseConfig(12, 0.35);
    const auto b = with_slo.chooseConfig(12, 0.35);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_LE(b->instancesNeeded, a->instancesNeeded);
    EXPECT_LE(b->estimatedLatency, 200.0);
    EXPECT_TRUE(b->meetsDemand);
}

TEST(SloObjectiveTest, TightSloFallsBackToMinLatency)
{
    const auto spec = model::ModelSpec::gpt20b();
    core::ControllerOptions slo_opts;
    slo_opts.sloLatency = 1.0; // impossible
    core::ParallelizationController with_slo(spec, kParams, kSeq, {},
                                             slo_opts);
    core::ParallelizationController plain(spec, kParams, kSeq);
    const auto a = with_slo.chooseConfig(12, 0.35);
    const auto b = plain.chooseConfig(12, 0.35);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->config, b->config);
}

TEST(SloObjectiveTest, SloBindsProgressively)
{
    // Tightening the SLO can only raise the money spent.
    const auto spec = model::ModelSpec::gpt20b();
    int prev_instances = 0;
    for (double slo : {400.0, 120.0, 60.0}) {
        core::ControllerOptions opts;
        opts.sloLatency = slo;
        core::ParallelizationController ctrl(spec, kParams, kSeq, {}, opts);
        const auto d = ctrl.chooseConfig(12, 0.35);
        ASSERT_TRUE(d.has_value());
        EXPECT_GE(d->instancesNeeded, prev_instances);
        prev_instances = d->instancesNeeded;
    }
}

// ---------------------------------------------------------------------
// Dynamic fleet management (Algorithm 1 lines 6-10)
// ---------------------------------------------------------------------

serving::ExperimentResult
runDynamic(core::SpotServeOptions options, const AvailabilityTrace &trace,
           const wl::Workload &workload)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto factory =
        presets::spotServeFactory(spec, kParams, kSeq, options);
    return serving::runExperiment(spec, kParams, trace, workload, factory);
}

TEST(DynamicAllocationTest, BootstrapsFleetFromNothing)
{
    // The trace provides zero instances; dynamic mode must allocate its
    // own fleet and serve everything.
    AvailabilityTrace empty("empty", 1800.0, {});
    sim::Rng rng(5);
    const auto workload =
        wl::stationaryGamma(0.35, 2.0, 1500.0, kSeq, rng);

    core::SpotServeOptions options;
    options.dynamicAllocation = true;
    options.designArrivalRate = 0.35;
    const auto r = runDynamic(options, empty, workload);
    EXPECT_EQ(serving::auditDrainedRun(r), "");
    EXPECT_GT(r.completed, 0);
    EXPECT_GT(r.costUsd, 0.0);
    EXPECT_FALSE(r.configHistory.empty());
}

TEST(DynamicAllocationTest, KeepsCandidatePool)
{
    AvailabilityTrace empty("empty", 1800.0, {});
    sim::Rng rng(5);
    const auto workload = wl::stationaryGamma(0.35, 2.0, 900.0, kSeq, rng);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.dynamicAllocation = true;
    options.designArrivalRate = 0.35;
    core::SpotServeSystem system(sim, instances, requests,
                                 model::ModelSpec::gpt20b(), kParams, kSeq,
                                 options);
    instances.setListener(&system);
    instances.loadTrace(empty);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(1200.0);
    ASSERT_TRUE(system.currentConfig().has_value());
    // Fleet = what the config occupies + the two-instance candidate pool
    // (§3.2), capped at the dynamic-allocation limit.
    cost::ConfigSpace space(model::ModelSpec::gpt20b(), kParams, kSeq);
    const int needed = space.instancesNeeded(*system.currentConfig());
    EXPECT_EQ(instances.planningCount(),
              std::min(options.maxDynamicInstances, needed + 2));
    EXPECT_GE(instances.planningCount(), needed);
}

TEST(DynamicAllocationTest, RespectsMaxInstances)
{
    AvailabilityTrace empty("empty", 1800.0, {});
    sim::Rng rng(5);
    // Demand far beyond the cap.
    const auto workload = wl::stationaryGamma(3.0, 2.0, 900.0, kSeq, rng);
    core::SpotServeOptions options;
    options.dynamicAllocation = true;
    options.designArrivalRate = 3.0;
    options.maxDynamicInstances = 6;

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeSystem system(sim, instances, requests,
                                 model::ModelSpec::gpt20b(), kParams, kSeq,
                                 options);
    instances.setListener(&system);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(1200.0);
    EXPECT_LE(instances.planningCount(), 6);
}

TEST(DynamicAllocationTest, ScalesDownAfterBurst)
{
    // High design rate for the first phase via arrivals; after the burst,
    // the 120 s estimate decays and the fleet shrinks toward the design
    // floor's needs.
    AvailabilityTrace empty("empty", 3600.0, {});
    sim::Rng rng(5);
    auto rate = [](sim::SimTime t) { return t < 900.0 ? 1.0 : 0.05; };
    const auto workload = wl::fluctuating(rate, 1.0, 3000.0, kSeq, rng);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.dynamicAllocation = true;
    options.designArrivalRate = 0.05;
    // Poisson traffic in this test; with CV = 6 the optimizer correctly
    // keeps large burst headroom and never consolidates.
    options.controller.arrivalCv = 1.0;
    core::SpotServeSystem system(sim, instances, requests,
                                 model::ModelSpec::gpt20b(), kParams, kSeq,
                                 options);
    instances.setListener(&system);
    instances.loadTrace(empty);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(800.0);
    const int during_burst = instances.planningCount();
    sim.run(3600.0);
    const int after = instances.planningCount();
    EXPECT_LT(after, during_burst);
    EXPECT_EQ(requests.unfinishedCount(), 0);
}

/**
 * SpotServe that checks every voluntary release against Algorithm 1
 * line 10 before handling it: whether the active mesh stood on the
 * instance, and, for a spot release, whether an idle on-demand
 * instance was still running.
 */
class ReleaseAuditedSpotServe : public core::SpotServeSystem
{
  public:
    using core::SpotServeSystem::SpotServeSystem;

    void
    onInstanceReleased(const cluster::Instance &instance) override
    {
        if (instance.type() == InstanceType::OnDemand)
            ++ondemandReleased;
        else
            ++spotReleased;
        if (currentConfig().has_value())
            ++releasedWhileServing;
        if (meshUsesInstance(instance.id()))
            ++meshReleased;
        if (instance.type() == InstanceType::Spot) {
            for (const auto *other : instances_.usableInstances()) {
                if (other->type() == InstanceType::OnDemand &&
                    other->state() == cluster::InstanceState::Running &&
                    !meshUsesInstance(other->id()))
                    ++spotBeforeIdleOndemand;
            }
        }
        SpotServeSystem::onInstanceReleased(instance);
    }

    int ondemandReleased = 0;
    int spotReleased = 0;
    int releasedWhileServing = 0;
    int meshReleased = 0;
    int spotBeforeIdleOndemand = 0;
};

TEST(DynamicAllocationTest, ScaleDownReleasesIdleOnDemandFirst)
{
    // Four on-demand instances join at t = 600 s, beyond what the fleet
    // of dynamically allocated spot instances needs, while spot spares
    // sit idle: they must go first.  After the first lull the fleet
    // sheds its idle spot spares.  A second burst grows the mesh onto
    // every instance, so when it decays the fleet wants fewer instances
    // than the mesh stands on, and none of those may be released.
    AvailabilityTrace trace(
        "ondemand-join", 3600.0,
        {TraceEvent{600.0, TraceEventKind::Join, InstanceType::OnDemand, 4}});
    sim::Rng rng(5);
    auto rate = [](sim::SimTime t) {
        if (t < 1200.0)
            return 0.3;
        return t >= 1800.0 && t < 2400.0 ? 0.6 : 0.05;
    };
    const auto workload = wl::fluctuating(rate, 1.0, 3000.0, kSeq, rng);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.dynamicAllocation = true;
    options.designArrivalRate = 0.05;
    options.controller.arrivalCv = 1.0;
    ReleaseAuditedSpotServe system(sim, instances, requests,
                                   model::ModelSpec::gpt20b(), kParams, kSeq,
                                   options);
    instances.setListener(&system);
    instances.loadTrace(trace);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(3600.0);
    EXPECT_GT(system.ondemandReleased, 0);
    EXPECT_GT(system.spotReleased, 0);
    EXPECT_EQ(system.releasedWhileServing,
              system.ondemandReleased + system.spotReleased);
    EXPECT_EQ(system.spotBeforeIdleOndemand, 0);
    EXPECT_EQ(system.meshReleased, 0);
    EXPECT_EQ(requests.unfinishedCount(), 0);
}

// ---------------------------------------------------------------------
// Fault tolerance (§4.2)
// ---------------------------------------------------------------------

TEST(FaultToleranceTest, MassPreemptionDuringMigration)
{
    // Hammer the system with notices 10 s apart so grace periods overlap
    // and migrations race preemptions; nothing may deadlock or be lost.
    std::vector<TraceEvent> events{
        TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 12}};
    for (int k = 0; k < 6; ++k) {
        events.push_back(TraceEvent{300.0 + 10.0 * k,
                                    TraceEventKind::PreemptNotice,
                                    InstanceType::Spot, 1});
    }
    events.push_back(
        TraceEvent{600.0, TraceEventKind::Join, InstanceType::Spot, 6});
    AvailabilityTrace trace("storm", 1800.0, std::move(events));

    const auto spec = model::ModelSpec::gpt20b();
    sim::Rng rng(9);
    const auto workload =
        wl::stationaryGamma(0.35, 6.0, trace.duration(), kSeq, rng);
    const auto factory =
        presets::factoryByName("SpotServe", spec, kParams, kSeq, 0.35);
    const auto r =
        serving::runExperiment(spec, kParams, trace, workload, factory);
    EXPECT_EQ(serving::auditDrainedRun(r), "");
    EXPECT_EQ(r.rejected, 0);
}

TEST(FaultToleranceTest, ReleaseOfMeshInstanceHandled)
{
    // A trace release can hit an instance the mesh is using; affected
    // replicas restart their requests and the system re-plans.
    AvailabilityTrace trace(
        "release", 1800.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::OnDemand, 8},
         TraceEvent{400.0, TraceEventKind::Release, InstanceType::OnDemand,
                    4}});
    const auto spec = model::ModelSpec::gpt20b();
    sim::Rng rng(9);
    const auto workload = wl::stationaryGamma(0.2, 2.0, 1500.0, kSeq, rng);
    const auto factory =
        presets::factoryByName("SpotServe", spec, kParams, kSeq, 0.2);
    const auto r =
        serving::runExperiment(spec, kParams, trace, workload, factory);
    EXPECT_EQ(serving::auditDrainedRun(r), "");
}

TEST(FaultToleranceTest, AllSystemsSurviveTheStorm)
{
    std::vector<TraceEvent> events{
        TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 12}};
    for (int k = 0; k < 4; ++k) {
        events.push_back(TraceEvent{200.0 + 15.0 * k,
                                    TraceEventKind::PreemptNotice,
                                    InstanceType::Spot, 1});
    }
    AvailabilityTrace trace("storm2", 1800.0, std::move(events));
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Rng rng(9);
    const auto workload =
        wl::stationaryGamma(1.5, 6.0, trace.duration(), kSeq, rng);
    for (const char *system :
         {"SpotServe", "Reparallelization", "Rerouting"}) {
        const auto factory =
            presets::factoryByName(system, spec, kParams, kSeq, 1.5);
        const auto r =
            serving::runExperiment(spec, kParams, trace, workload, factory);
        EXPECT_EQ(serving::auditDrainedRun(r), "") << system;
    }
}

} // namespace
} // namespace spotserve
