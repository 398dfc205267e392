/**
 * @file
 * Tests for the request manager and the experiment driver.
 */

#include <gtest/gtest.h>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "serving/presets.h"
#include "serving/request_manager.h"

namespace spotserve::serving {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

wl::Request
req(wl::RequestId id, sim::SimTime arrival)
{
    wl::Request r;
    r.id = id;
    r.arrival = arrival;
    return r;
}

TEST(RequestManagerTest, FifoBatching)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    for (int i = 0; i < 5; ++i)
        mgr.submit(req(i, 0.0));
    EXPECT_EQ(mgr.pendingCount(), 5u);
    const auto batch = mgr.nextBatch(3);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].request.id, 0);
    EXPECT_EQ(batch[2].request.id, 2);
    EXPECT_EQ(mgr.pendingCount(), 2u);
}

TEST(RequestManagerTest, RequeueRestoresArrivalOrder)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    mgr.submit(req(0, 0.0));
    mgr.submit(req(1, 1.0));
    mgr.submit(req(2, 2.0));
    auto batch = mgr.nextBatch(2); // ids 0, 1 leave the queue
    // They make progress, get interrupted and restarted.
    batch[0].prefillTokens = batch[0].request.inputLen;
    batch[0].committedTokens = 5;
    batch[1].prefillTokens = 16;
    mgr.requeueRestarted(batch);
    const auto next = mgr.nextBatch(3);
    ASSERT_EQ(next.size(), 3u);
    EXPECT_EQ(next[0].request.id, 0);
    EXPECT_EQ(next[1].request.id, 1);
    EXPECT_EQ(next[2].request.id, 2);
    // The queue never holds KV: requeued work restarts from scratch.
    for (const auto &r : next) {
        EXPECT_EQ(r.kvTokensHeld(), 0);
        EXPECT_EQ(r.restarts, r.request.id < 2 ? 1 : 0);
    }
}

TEST(RequestManagerTest, ArrivalRateWindows)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    // 1 req/s for 30 s, then silence for 30 s.
    for (int i = 0; i < 30; ++i) {
        sim.schedule(static_cast<double>(i),
                     [&mgr, i] { mgr.submit(req(i, i)); });
    }
    sim.run(30.0);
    EXPECT_NEAR(mgr.estimatedArrivalRate(30.0), 1.0, 0.1);
    sim.run(60.0);
    // Short window decays; longer window remembers.
    EXPECT_LT(mgr.estimatedArrivalRate(30.0), 0.05);
    EXPECT_NEAR(mgr.estimatedArrivalRate(60.0), 0.5, 0.1);
}

TEST(RequestManagerTest, CompletionMetrics)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    mgr.submit(req(0, 0.0));
    auto batch = mgr.nextBatch(1);
    sim.schedule(12.5, [&] { mgr.complete(batch[0]); });
    sim.run();
    EXPECT_EQ(mgr.completedCount(), 1);
    EXPECT_DOUBLE_EQ(mgr.latencies().mean(), 12.5);
    EXPECT_DOUBLE_EQ(mgr.tokensGenerated(), 128.0);
    EXPECT_EQ(mgr.unfinishedCount(), 0);
}

TEST(ExperimentDriverTest, CountsAreConsistent)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const auto r = presets::runStable(spec, cluster::traceAS(), "SpotServe");
    EXPECT_EQ(r.arrived, r.completed + r.unfinished);
    EXPECT_EQ(static_cast<long>(r.perRequest.size()), r.completed);
    EXPECT_GT(r.costUsd, 0.0);
    EXPECT_EQ(r.modelName, "OPT-6.7B");
    EXPECT_EQ(r.traceName, "AS");
    EXPECT_EQ(r.systemName, "SpotServe");
}

TEST(ExperimentDriverTest, WarmupExcludedFromLatencyStats)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const auto trace = cluster::traceAS();
    sim::Rng rng(7);
    const auto workload = wl::stationaryGamma(1.5, 6.0, trace.duration(),
                                              kSeq, rng);
    const auto factory =
        presets::factoryByName("SpotServe", spec, kParams, kSeq, 1.5);

    ExperimentOptions with;
    with.warmupCutoff = 120.0;
    ExperimentOptions without;
    without.warmupCutoff = 0.0;
    const auto a = serving::runExperiment(spec, kParams, trace, workload,
                                          factory, with);
    const auto b = serving::runExperiment(spec, kParams, trace, workload,
                                          factory, without);
    EXPECT_LT(a.latencies.count(), b.latencies.count());
    // The cold start dominates the unwarmed tail.
    EXPECT_GE(b.latencies.max(), a.latencies.max());
}

TEST(ExperimentDriverTest, CostScalesWithFleet)
{
    using cluster::AvailabilityTrace;
    using cluster::InstanceType;
    using cluster::TraceEvent;
    using cluster::TraceEventKind;
    const auto spec = model::ModelSpec::gpt20b();
    auto fleet = [&](int n) {
        AvailabilityTrace trace(
            "t", 1200.0,
            {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, n}});
        return presets::runStable(spec, trace, "SpotServe").costUsd;
    };
    const double c4 = fleet(4);
    const double c8 = fleet(8);
    EXPECT_NEAR(c8 / c4, 2.0, 0.01);
}

} // namespace
} // namespace spotserve::serving
