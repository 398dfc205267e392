/**
 * @file
 * Overlapped-reconfiguration invariants (§4.1-4.2): planning and
 * migration must stay off the serving hot path.
 *
 *  - No request is lost or served twice across an overlapped migration.
 *  - Reconfigurations that keep (P, M, B) drain only part of the
 *    deployment.
 *  - Replicas the mapping keeps in place never observe a halt: their
 *    pipeline objects keep hitting iteration boundaries straight through
 *    the Draining/Migrating window.
 *  - Planning is a costed, scheduled event (PlanningLatencyModel), not an
 *    instantaneous global stall.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "serving/experiment.h"
#include "serving/presets.h"
#include "workload/workload.h"

namespace spotserve {
namespace {

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

/**
 * Fig8-style churn: capacity joins (scale-out reconfig), then staggered
 * preemption notices (scale-in under grace pressure).  The scale
 * transitions keep (P, M, B) while D changes, which is exactly where
 * partial drain must keep the surviving replicas serving.
 */
AvailabilityTrace
growShrinkTrace()
{
    return AvailabilityTrace(
        "growshrink", 1500.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 8},
         TraceEvent{300.0, TraceEventKind::Join, InstanceType::Spot, 4},
         TraceEvent{700.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    2},
         TraceEvent{1000.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    2}});
}

struct RunResult
{
    long arrived = 0;
    long completed = 0;
    long rejected = 0;
    long unfinished = 0;
    int migrations = 0;
    int partialReconfigs = 0;
    long keptServing = 0;
    long planningEvents = 0;
    double planningTime = 0.0;
    std::vector<serving::CompletionRecord> completions;
    std::vector<serving::ConfigChange> configs;
    /**
     * Iteration boundaries per live pipeline object: (time, cumulative
     * iterations executed).  The iteration counter is monotone for one
     * pipeline object and resets on a fresh allocation, which guards the
     * straddle check against heap address reuse across deployments.
     */
    std::map<const void *, std::vector<std::pair<sim::SimTime, long>>>
        boundaries;
};

RunResult
runChurn(const AvailabilityTrace &trace)
{
    const auto spec = model::ModelSpec::gpt20b();
    const double rate = 0.60;
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.designArrivalRate = rate;
    core::SpotServeSystem system(sim, instances, requests, spec, kParams,
                                 kSeq, options);
    RunResult out;
    system.setKvObserver([&](const engine::InferencePipeline &p) {
        out.boundaries[static_cast<const void *>(&p)].emplace_back(
            sim.now(), p.iterationsExecuted());
    });
    instances.setListener(&system);
    instances.loadTrace(trace);
    sim::Rng rng(7);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), kSeq, rng);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(trace.duration() + 900.0);

    out.arrived = requests.arrivedCount();
    out.completed = requests.completedCount();
    out.rejected = requests.rejectedCount();
    out.unfinished = requests.unfinishedCount();
    out.migrations = system.migrationsCompleted();
    out.partialReconfigs = system.partialReconfigs();
    out.keptServing = system.pipelinesKeptServing();
    out.planningEvents = system.planningEvents();
    out.planningTime = system.totalPlanningTime();
    out.completions = requests.completions();
    out.configs = system.configHistory();
    return out;
}

/** Reconfiguration times after the initial deployment. */
std::vector<double>
reconfigTimes(const RunResult &r)
{
    std::vector<double> out;
    for (std::size_t i = 1; i < r.configs.size(); ++i)
        out.push_back(r.configs[i].time);
    return out;
}

TEST(OverlapTest, NoRequestLostOrServedTwice)
{
    const auto r = runChurn(growShrinkTrace());
    EXPECT_EQ(r.unfinished, 0);
    EXPECT_EQ(r.arrived, r.completed + r.rejected);
    std::set<wl::RequestId> seen;
    for (const auto &c : r.completions) {
        EXPECT_TRUE(seen.insert(c.id).second)
            << "request " << c.id << " completed twice";
    }
    EXPECT_GE(r.migrations, 3);
}

TEST(OverlapTest, PartialDrainKeepsUntouchedReplicasServing)
{
    const auto r = runChurn(growShrinkTrace());
    // The D-only transitions of this trace must be partial: at least one
    // replica served straight through at least one reconfiguration.
    EXPECT_GE(r.partialReconfigs, 1);
    EXPECT_GE(r.keptServing, 1);
}

TEST(OverlapTest, UntouchedReplicasNeverObserveHalt)
{
    const auto r = runChurn(growShrinkTrace());
    ASSERT_GE(r.partialReconfigs, 1);
    // For at least one reconfiguration, some pipeline object's iteration
    // boundaries straddle the change with no serving gap: the kept
    // replica decoded straight through Draining and Migrating.  A halted
    // pipeline would show a gap at least as long as the migration stall;
    // a decode iteration is well under 2 s.
    const auto times = reconfigTimes(r);
    bool straddled = false;
    for (double t : times) {
        for (const auto &[ptr, stamps] : r.boundaries) {
            double before = -1.0, after = -1.0;
            double max_gap = 0.0, prev = -1.0;
            long prev_iters = -1;
            bool monotone = true;
            for (const auto &[s, iters] : stamps) {
                if (s < t - 10.0 || s > t + 10.0)
                    continue;
                if (s <= t)
                    before = s;
                if (s > t && after < 0.0)
                    after = s;
                if (prev >= 0.0)
                    max_gap = std::max(max_gap, s - prev);
                // A drop in the cumulative iteration counter means the
                // address was reused by a fresh pipeline — not one object
                // serving through.
                if (prev_iters >= 0 && iters < prev_iters)
                    monotone = false;
                prev = s;
                prev_iters = iters;
            }
            if (monotone && before >= 0.0 && after >= 0.0 && max_gap < 2.0) {
                straddled = true;
                break;
            }
        }
        if (straddled)
            break;
    }
    EXPECT_TRUE(straddled)
        << "no pipeline kept hitting boundaries through a reconfiguration";
}

TEST(OverlapTest, PlanningIsCostedAndOffHotPath)
{
    const auto r = runChurn(growShrinkTrace());
    // Every post-initial reconfiguration of a live deployment went
    // through a scheduled planning pass.
    EXPECT_GE(r.planningEvents, 1);
    EXPECT_GT(r.planningTime, 0.0);
    // The paper's bound: online optimizer overhead is negligible (<1 s
    // per pass at testbed scale).
    EXPECT_LT(r.planningTime / static_cast<double>(r.planningEvents), 1.0);
}

/** SpotServe with its live replicas' placement exposed to the test. */
class ProbedSpotServe : public core::SpotServeSystem
{
  public:
    using core::SpotServeSystem::SpotServeSystem;

    struct LiveReplica
    {
        cluster::InstanceId instance = -1;
        std::size_t batch = 0;
    };

    /** Instance of each live replica's first GPU, and its batch size. */
    std::vector<LiveReplica> liveReplicas() const
    {
        std::vector<LiveReplica> out;
        if (!hasDeployment())
            return out;
        const auto &dep = deployment();
        for (std::size_t d = 0; d < dep.pipelines.size(); ++d) {
            if (!dep.pipelines[d])
                continue;
            const par::GpuId g =
                dep.mesh.pipelineGpus(static_cast<int>(d)).front();
            out.push_back({cluster::Instance::instanceOfGpu(
                               g, params_.gpusPerInstance),
                           dep.pipelines[d]->batch().size()});
        }
        return out;
    }

    long restartedRequeues() const
    {
        serving::ExperimentResult r;
        report(r);
        return r.restartedRequeues;
    }
};

TEST(OverlapTest, ReleasedKeptReplicaRequeuesAtTheReleaseInstant)
{
    // The t=300 scale-out keeps every old replica serving while the new
    // ones migrate in.  Releasing a kept replica's instance mid-migration
    // must stop that replica and requeue its batch right then, exactly
    // like a preemption would, not when the migration activates.
    const auto spec = model::ModelSpec::gpt20b();
    const double rate = 0.60;
    const auto trace = growShrinkTrace();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.designArrivalRate = rate;
    ProbedSpotServe system(sim, instances, requests, spec, kParams, kSeq,
                           options);
    instances.setListener(&system);
    instances.loadTrace(trace);
    sim::Rng rng(7);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), kSeq, rng);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }

    sim.run(300.0);
    const int partial_before = system.partialReconfigs();
    const std::size_t history_before = system.configHistory().size();
    bool released = false;
    std::size_t requeued_batch = 0;
    long requeues_before = 0;
    long requeues_at_release = 0;
    std::size_t live_after = 0, live_before = 0;
    std::function<void()> probe = [&] {
        // Mid-migration: the partial reconfiguration began, its transfers
        // are in flight and it has not activated yet.
        const bool migrating =
            system.partialReconfigs() > partial_before &&
            system.configHistory().size() == history_before &&
            system.dataPlane().inFlightCount() > 0;
        if (!migrating) {
            if (sim.now() < 400.0)
                sim.scheduleAfter(0.05, probe);
            return;
        }
        const auto live = system.liveReplicas();
        const auto busiest = std::max_element(
            live.begin(), live.end(), [](const auto &a, const auto &b) {
                return a.batch < b.batch;
            });
        if (busiest == live.end() || busiest->batch == 0) {
            sim.scheduleAfter(0.05, probe);
            return;
        }
        live_before = live.size();
        requeued_batch = busiest->batch;
        requeues_before = system.restartedRequeues();
        instances.releaseInstance(busiest->instance);
        requeues_at_release = system.restartedRequeues();
        live_after = system.liveReplicas().size();
        released = true;
    };
    sim.schedule(300.0, probe);
    sim.run(trace.duration() + 900.0);

    ASSERT_TRUE(released) << "no kept replica was busy mid-migration";
    EXPECT_EQ(live_after + 1, live_before);
    EXPECT_GE(requeues_at_release - requeues_before,
              static_cast<long>(requeued_batch));
    // Nothing lost or served twice afterwards.
    EXPECT_EQ(requests.unfinishedCount(), 0);
    EXPECT_EQ(requests.arrivedCount(),
              requests.completedCount() + requests.rejectedCount());
    std::set<wl::RequestId> seen;
    for (const auto &c : requests.completions())
        EXPECT_TRUE(seen.insert(c.id).second)
            << "request " << c.id << " completed twice";
}

/** What one run of the t=300 scale-out saw of its migrations. */
struct ScaleOutRun
{
    /** When the first migration's plan was seen in flight. */
    sim::SimTime firstInFlight = -1.0;
    /** When the next configuration activated (or -1). */
    sim::SimTime activation = -1.0;
    /** When the retry's plan was seen in flight (or -1). */
    sim::SimTime retryInFlight = -1.0;
    bool retryKilled = false;
    long aborts = 0;
    long arrived = 0;
    long completed = 0;
    long rejected = 0;
    long unfinished = 0;
};

/**
 * growShrinkTrace's t=300 scale-out.  With @p kill_first the first
 * migration's plan is failed on the data plane the moment it is seen in
 * flight; with @p kill_retry_at >= 0 whatever plan is in flight then (the
 * backed-off retry's) is failed too.  The probes are identical up to the
 * first kill, so a run without kills times the first migration's
 * activation for a run with them.
 */
ScaleOutRun
runScaleOut(bool kill_first, sim::SimTime kill_retry_at)
{
    const auto spec = model::ModelSpec::gpt20b();
    const double rate = 0.60;
    const auto trace = growShrinkTrace();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.designArrivalRate = rate;
    core::SpotServeSystem system(sim, instances, requests, spec, kParams,
                                 kSeq, options);
    instances.setListener(&system);
    instances.loadTrace(trace);
    sim::Rng rng(7);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), kSeq, rng);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }

    sim.run(300.0);
    ScaleOutRun out;
    const std::size_t history_before = system.configHistory().size();
    auto &plane = system.dataPlane();
    // Fail the plan in flight (if any) through one of its instances.
    auto kill_in_flight = [&] {
        const auto victims = plane.inFlightInstances();
        if (victims.empty())
            return false;
        plane.failInstance(victims.front());
        return true;
    };
    std::function<void()> retry_probe = [&] {
        if (plane.inFlightCount() > 0) {
            out.retryInFlight = sim.now();
            return;
        }
        if (sim.now() < 400.0)
            sim.scheduleAfter(0.05, retry_probe);
    };
    std::function<void()> first_probe = [&] {
        if (plane.inFlightInstances().empty()) {
            if (sim.now() < 400.0)
                sim.scheduleAfter(0.05, first_probe);
            return;
        }
        out.firstInFlight = sim.now();
        if (kill_first && kill_in_flight())
            sim.scheduleAfter(0.05, retry_probe);
    };
    sim.schedule(300.0, first_probe);
    if (kill_retry_at >= 0.0)
        sim.schedule(kill_retry_at, [&] { out.retryKilled = kill_in_flight(); });
    sim.run(trace.duration() + 900.0);

    if (system.configHistory().size() > history_before)
        out.activation = system.configHistory()[history_before].time;
    serving::ExperimentResult r;
    system.report(r);
    out.aborts = r.migrationAborts;
    out.arrived = requests.arrivedCount();
    out.completed = requests.completedCount();
    out.rejected = requests.rejectedCount();
    out.unfinished = requests.unfinishedCount();
    return out;
}

TEST(OverlapTest, AbortedMigrationsActivationLeavesTheRetryMigrating)
{
    // An aborted migration's scheduled activation must not fire for the
    // retry that replaced it.  Kill the first migration's plan at once;
    // the backed-off retry is Migrating before the aborted migration's
    // first-resume instant.  A kill of the retry's plan just after that
    // instant must abort the retry too: a stale activation would have
    // activated it early and the second failure would be dropped.
    const ScaleOutRun clean = runScaleOut(false, -1.0);
    ASSERT_GE(clean.firstInFlight, 300.0);
    ASSERT_GT(clean.activation, clean.firstInFlight);
    EXPECT_EQ(clean.aborts, 0);

    const sim::SimTime stale_instant = clean.activation;
    const ScaleOutRun killed = runScaleOut(true, stale_instant + 0.01);
    EXPECT_EQ(killed.firstInFlight, clean.firstInFlight);
    ASSERT_GT(killed.retryInFlight, killed.firstInFlight);
    ASSERT_LT(killed.retryInFlight, stale_instant)
        << "the retry must be Migrating before the stale instant";
    ASSERT_TRUE(killed.retryKilled) << "no plan in flight to kill";
    EXPECT_EQ(killed.aborts, 2);
    // Nothing lost across the two aborts.
    EXPECT_EQ(killed.unfinished, 0);
    EXPECT_EQ(killed.arrived, killed.completed + killed.rejected);
}

/**
 * SpotServe that releases the first instance noticed for preemption
 * @p delay seconds after its notice.  @p drained is set when that release
 * completed the drain: the last draining replica stood on the instance,
 * so the migration was submitted from inside the release.
 */
class ReleaseFirstNoticed : public core::SpotServeSystem
{
  public:
    ReleaseFirstNoticed(sim::Executor &executor,
                        cluster::InstanceManager &instances,
                        serving::RequestManager &requests,
                        const model::ModelSpec &spec,
                        core::SpotServeOptions options, double delay,
                        bool &drained)
        : core::SpotServeSystem(executor, instances, requests, spec, kParams,
                                kSeq, options),
          delay_(delay), drained_(drained)
    {
    }

    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override
    {
        core::SpotServeSystem::onPreemptionNotice(instance, preempt_at);
        if (noticed_)
            return;
        noticed_ = true;
        sim_.scheduleAfter(delay_, [this, id = instance.id()] {
            const long submitted = dataPlane().submissions();
            instances_.releaseInstance(id);
            drained_ = dataPlane().submissions() > submitted;
        });
    }

  private:
    double delay_;
    bool &drained_;
    bool noticed_ = false;
};

TEST(OverlapTest, ReleasedVictimThatCompletesTheDrainStartsTheMigration)
{
    // Releasing a noticed instance while its replica is the last one
    // draining completes the drain: the migration must start right then,
    // and nothing may be lost or left holding KV.
    const auto spec = model::ModelSpec::opt6_7b();
    const double rate = presets::stableRate(spec);
    const auto trace = cluster::traceAS();
    core::SpotServeOptions options;
    options.designArrivalRate = rate;
    sim::Rng rng(7);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), kSeq, rng);

    int drained_by_release = 0;
    for (double delay : {0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0}) {
        SCOPED_TRACE("delay " + std::to_string(delay));
        bool drained = false;
        const serving::SystemFactory factory =
            [&](sim::Executor &executor, cluster::InstanceManager &instances,
                serving::RequestManager &requests) {
                return std::make_unique<ReleaseFirstNoticed>(
                    executor, instances, requests, spec, options, delay,
                    drained);
            };
        const auto r =
            serving::runExperiment(spec, kParams, trace, workload, factory);
        drained_by_release += drained ? 1 : 0;
        EXPECT_EQ(r.unfinished, 0);
        EXPECT_EQ(r.arrived, r.completed + r.rejected);
        EXPECT_EQ(r.liveKvRefsAtEnd, 0);
        std::set<wl::RequestId> seen;
        for (const auto &c : r.perRequest)
            EXPECT_TRUE(seen.insert(c.id).second)
                << "request " << c.id << " completed twice";
    }
    EXPECT_GT(drained_by_release, 0)
        << "no release completed a drain; the victim path went untested";
}

} // namespace
} // namespace spotserve
