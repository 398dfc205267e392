/**
 * @file
 * Iteration-level (continuous) batching: admission at decode-iteration
 * boundaries, per-request completion mid-batch, FIFO fairness across
 * requeues, JIT halting over mixed-progress batches, and the headline
 * regression — continuous batching beats run-to-completion batching on a
 * Poisson arrival workload at the same parallel configuration.
 */

#include <gtest/gtest.h>

#include <map>

#include "simcore/simulation.h"
#include "engine/inference_pipeline.h"
#include "model/model_spec.h"
#include "serving/request_manager.h"
#include "workload/workload.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

wl::Request
makeRequest(wl::RequestId id, sim::SimTime arrival = 0.0, int output_len = 128)
{
    wl::Request r;
    r.id = id;
    r.arrival = arrival;
    r.inputLen = 512;
    r.outputLen = output_len;
    return r;
}

/**
 * A single-replica serving loop: one pipeline fed from a RequestManager,
 * with iteration-level admission optionally wired (continuous vs rigid
 * run-to-completion batching, everything else identical).
 */
struct MiniServer
{
    sim::Simulation sim;
    model::ModelSpec spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency{spec, kParams};
    par::ParallelConfig config{1, 1, 4, 8};
    serving::RequestManager requests{sim};
    std::unique_ptr<engine::InferencePipeline> pipeline;
    std::map<wl::RequestId, sim::SimTime> completedAt;

    explicit MiniServer(bool continuous)
    {
        engine::InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [this](const engine::ActiveRequest &r) {
            completedAt[r.request.id] = sim.now();
            requests.complete(r);
        };
        cb.onIdle = [this](engine::InferencePipeline &) { dispatch(); };
        if (continuous) {
            cb.onAdmit = [this](engine::InferencePipeline &, int free_slots) {
                return requests.popAdmissible(free_slots);
            };
        }
        pipeline = std::make_unique<engine::InferencePipeline>(
            sim, latency, config, 0, std::move(cb));
    }

    void dispatch()
    {
        if (!pipeline->idle() || pipeline->haltPending() ||
            requests.pendingEmpty()) {
            return;
        }
        auto batch = requests.popAdmissible(config.batch);
        if (!batch.empty())
            pipeline->startBatch(std::move(batch));
    }

    void submit(const wl::Request &r)
    {
        requests.submit(r);
        dispatch();
    }

    void drive(const wl::Workload &workload)
    {
        for (const auto &req : workload)
            sim.schedule(req.arrival, [this, req] { submit(req); });
    }
};

TEST(ContinuousBatchingTest, AdmitsAtDecodeIterationBoundary)
{
    MiniServer s(true);
    s.drive({makeRequest(1, 0.0), makeRequest(2, 2.0)});

    // By t=3 the second request must have joined the live batch at an
    // iteration boundary — well before the first one finishes.
    s.sim.run(3.0);
    EXPECT_TRUE(s.pipeline->executing());
    EXPECT_EQ(s.pipeline->batch().size(), 2u);
    EXPECT_EQ(s.pipeline->admittedMidBatch(), 1);

    s.sim.run();
    EXPECT_EQ(s.requests.completedCount(), 2);
    EXPECT_TRUE(s.pipeline->idle());
}

TEST(ContinuousBatchingTest, RigidBatchingWaitsForTheWholeBatch)
{
    MiniServer s(false);
    s.drive({makeRequest(1, 0.0), makeRequest(2, 2.0)});
    s.sim.run(3.0);
    // No admission path: the newcomer queues until the batch completes.
    EXPECT_EQ(s.pipeline->batch().size(), 1u);
    EXPECT_EQ(s.requests.pendingCount(), 1u);
    s.sim.run();
    EXPECT_EQ(s.requests.completedCount(), 2);
    EXPECT_EQ(s.pipeline->admittedMidBatch(), 0);
    // The second request could only start after the first one finished.
    EXPECT_GE(s.completedAt[2], s.completedAt[1]);
}

TEST(ContinuousBatchingTest, RequestsLeaveTheBatchIndividually)
{
    MiniServer s(true);
    s.drive({makeRequest(1, 0.0, 16), makeRequest(2, 0.0, 128)});
    s.sim.run();
    ASSERT_EQ(s.requests.completedCount(), 2);
    // The short request completes mid-batch, after which the remaining
    // one keeps decoding alone.
    EXPECT_LT(s.completedAt[1], s.completedAt[2]);
    // The second request joined at the boundary after the first one's
    // prefill, so its 128 decode iterations trail by one boundary.
    EXPECT_EQ(s.pipeline->iterationsExecuted(), 129);
    EXPECT_EQ(s.pipeline->tokensCommitted(), 16 + 128);
}

TEST(ContinuousBatchingTest, NewcomerPrefillCostedByLatencyModel)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    par::ParallelConfig c{1, 1, 4, 8};

    par::ParallelConfig p2 = c;
    p2.batch = 2;
    par::ParallelConfig d3 = c;
    d3.batch = 3;

    // Single-phase iterations reduce exactly to the base model...
    EXPECT_DOUBLE_EQ(latency.mixedIterTime(c, 2, 512, 0, 0, 0),
                     latency.prefillTime(p2, 512));
    EXPECT_DOUBLE_EQ(latency.mixedIterTime(c, 0, 0, 0, 3, 600),
                     latency.decodeIterTime(d3, 600));
    // ...and a mixed iteration pays both phases.
    EXPECT_DOUBLE_EQ(latency.mixedIterTime(c, 2, 512, 0, 3, 600),
                     latency.prefillTime(p2, 512) +
                         latency.decodeIterTime(d3, 600));
    // A matched shared prefix adds exactly its KV re-read.
    EXPECT_DOUBLE_EQ(latency.mixedIterTime(c, 2, 512, 256, 3, 600),
                     latency.prefillTime(p2, 512) +
                         latency.kvReadTime(c, 2, 256) +
                         latency.decodeIterTime(d3, 600));
    EXPECT_THROW(latency.mixedIterTime(c, 0, 0, 0, 0, 0),
                 std::invalid_argument);
}

TEST(ContinuousBatchingTest, FifoFairnessAcrossRequeueAndInterruption)
{
    sim::Simulation sim;
    serving::RequestManager mgr(sim);
    for (int i = 0; i < 4; ++i)
        mgr.submit(makeRequest(i, static_cast<double>(i)));

    // Requests 0 and 1 enter a batch, get interrupted, lose their cache.
    auto batch = mgr.popAdmissible(2);
    ASSERT_EQ(batch.size(), 2u);
    mgr.requeueRestarted(std::move(batch));

    // Boundary admission hands them back in arrival order, ahead of the
    // younger requests that never ran.
    const auto admitted = mgr.popAdmissible(3);
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted[0].request.id, 0);
    EXPECT_EQ(admitted[1].request.id, 1);
    EXPECT_EQ(admitted[2].request.id, 2);
    EXPECT_EQ(admitted[0].restarts, 1);
    EXPECT_EQ(mgr.pendingCount(), 1u);
}

TEST(ContinuousBatchingTest, HaltAfterDrainsMixedProgressBatch)
{
    MiniServer s(true);
    s.drive({makeRequest(1, 0.0), makeRequest(2, 2.0)});
    s.sim.run(4.0);
    ASSERT_EQ(s.pipeline->batch().size(), 2u);

    s.pipeline->haltAfter(3);
    // Work arriving once the halt is pending must stay queued.
    s.submit(makeRequest(3, s.sim.now()));
    s.sim.run();

    EXPECT_TRUE(s.pipeline->halted());
    EXPECT_EQ(s.requests.pendingCount(), 1u);

    auto drained = s.pipeline->takeBatch();
    ASSERT_EQ(drained.size(), 2u);
    // Per-request committed progress survives the drain, and the
    // incumbent is strictly ahead of the newcomer it was batched with.
    std::map<wl::RequestId, int> committed;
    for (const auto &r : drained)
        committed[r.request.id] = r.committedTokens;
    EXPECT_GT(committed[1], committed[2]);
    EXPECT_GT(committed[1], 0);
    EXPECT_GE(committed[2], 0);
}

TEST(ContinuousBatchingTest, HaltNowAbandonsOnlyTheInFlightIteration)
{
    MiniServer s(true);
    s.drive({makeRequest(1, 0.0), makeRequest(2, 2.0)});
    s.sim.run(5.0);
    ASSERT_TRUE(s.pipeline->executing());
    ASSERT_EQ(s.pipeline->batch().size(), 2u);

    const long committed_before = s.pipeline->tokensCommitted();
    s.pipeline->haltNow();
    EXPECT_TRUE(s.pipeline->halted());

    // Only the in-flight iteration is lost: the drained batch carries
    // exactly the tokens committed at the last boundary.
    auto drained = s.pipeline->takeBatch();
    long total = 0;
    for (const auto &r : drained)
        total += r.committedTokens;
    EXPECT_EQ(total, committed_before);

    // And nothing else is scheduled for this pipeline.
    const double halted_at = s.sim.now();
    s.sim.run();
    EXPECT_DOUBLE_EQ(s.sim.now(), halted_at);
}

TEST(ContinuousBatchingTest, BeatsRunToCompletionOnPoissonArrivals)
{
    // The headline regression: same ParallelConfig, same Poisson arrival
    // sample, the only difference is iteration-level admission.  Short
    // waits behind long-running batches disappear, so mean request
    // latency must drop strictly.
    const cost::SeqSpec seq{};
    auto run = [&](bool continuous) {
        MiniServer s(continuous);
        sim::Rng rng(1234);
        const auto workload = wl::stationaryPoisson(0.25, 600.0, seq, rng);
        s.drive(workload);
        s.sim.run();
        EXPECT_EQ(s.requests.completedCount(),
                  static_cast<long>(workload.size()));
        return s.requests.latencies().mean();
    };

    const double continuous_mean = run(true);
    const double rigid_mean = run(false);
    EXPECT_LT(continuous_mean, rigid_mean);
}

} // namespace
} // namespace spotserve
