/**
 * @file
 * Edge-case coverage: instance-manager corner cases, pipeline
 * sequencing, preset helpers, and trace-mixing steady-state properties.
 */

#include <gtest/gtest.h>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "engine/inference_pipeline.h"
#include "simcore/logging.h"
#include "serving/presets.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

TEST(InstanceManagerEdge, ReleaseWhileProvisioningCancelsJoin)
{
    sim::Simulation sim;
    cluster::InstanceManager mgr(sim, kParams);
    const auto ids = mgr.requestInstances(1, cluster::InstanceType::Spot);
    ASSERT_EQ(ids.size(), 1u);
    mgr.releaseInstance(ids[0]);
    sim.run(kParams.acquisitionLeadTime + 1.0);
    EXPECT_EQ(mgr.usableCount(), 0);
    EXPECT_EQ(mgr.get(ids[0])->state(),
              cluster::InstanceState::Released);
    // Released before ever running: nothing billed.
    EXPECT_DOUBLE_EQ(mgr.accruedCost(sim.now()), 0.0);
}

TEST(InstanceManagerEdge, ReleaseIsIdempotent)
{
    sim::Simulation sim;
    cluster::InstanceManager mgr(sim, kParams);
    const auto ids = mgr.requestInstances(1, cluster::InstanceType::Spot);
    sim.run(kParams.acquisitionLeadTime + 1.0);
    mgr.releaseInstance(ids[0]);
    mgr.releaseInstance(ids[0]); // no-op, no throw
    EXPECT_THROW(mgr.releaseInstance(99), std::out_of_range);
}

TEST(InstanceManagerEdge, PlanningCountMix)
{
    sim::Simulation sim;
    cluster::InstanceManager mgr(sim, kParams);
    cluster::AvailabilityTrace trace(
        "t", 600.0,
        {cluster::TraceEvent{0.0, cluster::TraceEventKind::Join,
                             cluster::InstanceType::Spot, 3},
         cluster::TraceEvent{100.0, cluster::TraceEventKind::PreemptNotice,
                             cluster::InstanceType::Spot, 1}});
    mgr.loadTrace(trace);
    sim.run(105.0);
    mgr.requestInstances(2, cluster::InstanceType::OnDemand);
    // 2 running + 2 provisioning; the noticed one is excluded.
    EXPECT_EQ(mgr.planningCount(), 4);
    EXPECT_EQ(mgr.usableCount(), 3);
    EXPECT_EQ(mgr.survivingInstances().size(), 2u);
}

TEST(PipelineSequencing, BackToBackBatches)
{
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency(spec, kParams);
    par::ParallelConfig cfg{1, 1, 4, 8};

    int completed = 0;
    engine::InferencePipeline *raw = nullptr;
    engine::InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [&](const engine::ActiveRequest &) {
        ++completed;
    };
    int batches = 0;
    cb.onIdle = [&](engine::InferencePipeline &p) {
        if (++batches < 3) {
            engine::ActiveRequest r;
            r.request.id = batches;
            p.startBatch({r});
        }
    };
    engine::InferencePipeline pipeline(sim, latency, cfg, 0, cb);
    raw = &pipeline;
    engine::ActiveRequest first;
    first.request.id = 0;
    raw->startBatch({first});
    sim.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(raw->iterationsExecuted(), 3 * 128);
}

TEST(PipelineSequencing, HaltedPipelineRefusesWork)
{
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency(spec, kParams);
    engine::InferencePipeline pipeline(
        sim, latency, par::ParallelConfig{1, 1, 4, 8}, 0, {});
    pipeline.haltNow();
    engine::ActiveRequest r;
    EXPECT_THROW(pipeline.startBatch({r}), std::logic_error);
}

TEST(PresetsTest, FactoryByNameRejectsUnknown)
{
    const auto spec = model::ModelSpec::opt6_7b();
    EXPECT_THROW(presets::factoryByName("vLLM", spec, kParams, {}, 1.0),
                 std::invalid_argument);
    EXPECT_EQ(presets::evaluatedModels().size(), 3u);
    EXPECT_DOUBLE_EQ(presets::stableRate(model::ModelSpec::gpt20b()), 0.35);
}

TEST(ExperimentResultTest, CostPerTokenSafeOnEmpty)
{
    serving::ExperimentResult r;
    EXPECT_DOUBLE_EQ(r.costPerToken(), 0.0);
}

TEST(TraceMixing, SteadyStateMeetsTarget)
{
    // Once every allocation lead time has had a chance to complete, the
    // mixed trace's total fleet must sit at or above the target whenever
    // the spot fleet alone is below it.
    const int target = 10;
    const double lead = 120.0;
    const auto mixed = cluster::mixOnDemand(cluster::traceBS(), target, lead);
    const auto series = mixed.series(10.0, kParams.gracePeriod);
    for (const auto &s : series) {
        if (s.time < 300.0 || s.time > mixed.duration() - lead)
            continue; // warm-up / trailing edge
        // Allow the transient dip while an allocation is in flight.
        if (s.spot < target) {
            EXPECT_GE(s.total() + 2, target) << "t=" << s.time;
        }
    }
}

TEST(TraceMixing, NeverTouchesSpotEvents)
{
    const auto base = cluster::traceAS();
    const auto mixed = cluster::mixOnDemand(base, 10, 120.0);
    int spot_joins = 0, spot_joins_mixed = 0;
    for (const auto &e : base.events()) {
        if (e.type == cluster::InstanceType::Spot &&
            e.kind == cluster::TraceEventKind::Join)
            spot_joins += e.count;
    }
    for (const auto &e : mixed.events()) {
        if (e.type == cluster::InstanceType::Spot &&
            e.kind == cluster::TraceEventKind::Join)
            spot_joins_mixed += e.count;
    }
    EXPECT_EQ(spot_joins, spot_joins_mixed);
    EXPECT_EQ(base.totalPreemptions(), mixed.totalPreemptions());
}

TEST(LoggingTest, LevelsGate)
{
    sim::setLogLevel(sim::LogLevel::Silent);
    EXPECT_EQ(sim::logLevel(), sim::LogLevel::Silent);
    sim::logWarn("not shown");
    sim::setLogLevel(sim::LogLevel::Debug);
    EXPECT_EQ(sim::logLevel(), sim::LogLevel::Debug);
    sim::setLogLevel(sim::LogLevel::Silent);
}

} // namespace
} // namespace spotserve
