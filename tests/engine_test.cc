/**
 * @file
 * Tests for the inference-pipeline simulator (including batches whose
 * members want different output lengths) and context arithmetic.
 */

#include <gtest/gtest.h>

#include "simcore/simulation.h"
#include "engine/context_state.h"
#include "engine/inference_pipeline.h"
#include "model/model_spec.h"

namespace spotserve::engine {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

ActiveRequest
makeRequest(wl::RequestId id, int committed = 0)
{
    ActiveRequest r;
    r.request.id = id;
    r.request.arrival = 0.0;
    r.request.inputLen = 512;
    r.request.outputLen = 128;
    r.committedTokens = committed;
    return r;
}

struct Harness
{
    sim::Simulation sim;
    model::ModelSpec spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency{spec, kParams};
    par::ParallelConfig config{1, 1, 4, 8};

    std::vector<wl::RequestId> completed;
    int idleEvents = 0;
    int haltedEvents = 0;

    std::unique_ptr<InferencePipeline> pipeline;

    Harness()
    {
        InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [this](const ActiveRequest &r) {
            completed.push_back(r.request.id);
        };
        cb.onIdle = [this](InferencePipeline &) { ++idleEvents; };
        cb.onHalted = [this](InferencePipeline &) { ++haltedEvents; };
        pipeline = std::make_unique<InferencePipeline>(sim, latency, config,
                                                       0, cb);
    }
};

TEST(InferencePipelineTest, BatchRunsToCompletion)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1), makeRequest(2)});
    EXPECT_EQ(h.pipeline->phase(), PipelinePhase::Prefill);
    h.sim.run();
    EXPECT_EQ(h.completed.size(), 2u);
    EXPECT_EQ(h.idleEvents, 1);
    EXPECT_TRUE(h.pipeline->idle());
    EXPECT_EQ(h.pipeline->iterationsExecuted(), 128);
    EXPECT_EQ(h.pipeline->tokensCommitted(), 256);
}

TEST(InferencePipelineTest, CompletionTimeMatchesCostModel)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1), makeRequest(2)});
    h.sim.run();
    par::ParallelConfig exec = h.config;
    exec.batch = 2;
    const double expected = h.latency.execLatency(exec, cost::SeqSpec{});
    EXPECT_NEAR(h.sim.now(), expected, 1e-6);
}

TEST(InferencePipelineTest, RecoveredBatchSkipsPrefill)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1, 100), makeRequest(2, 100)});
    EXPECT_EQ(h.pipeline->phase(), PipelinePhase::Decode);
    h.sim.run();
    EXPECT_EQ(h.completed.size(), 2u);
    // Only the remaining 28 iterations run.
    EXPECT_EQ(h.pipeline->iterationsExecuted(), 28);
    par::ParallelConfig exec = h.config;
    exec.batch = 2;
    EXPECT_NEAR(h.sim.now(),
                h.latency.decodeSpanTime(exec, 512 + 100 + 1, 28), 1e-6);
}

TEST(InferencePipelineTest, HaltAfterLimitsIterations)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    h.sim.run(5.0); // partway through decode
    const long before = h.pipeline->iterationsExecuted();
    ASSERT_GT(before, 0);
    ASSERT_FALSE(h.pipeline->halted());
    h.pipeline->haltAfter(3);
    h.sim.run();
    EXPECT_TRUE(h.pipeline->halted());
    EXPECT_EQ(h.haltedEvents, 1);
    // In-flight iteration + up to 3 arranged ones.
    EXPECT_LE(h.pipeline->iterationsExecuted(), before + 4);
    EXPECT_GE(h.pipeline->iterationsExecuted(), before + 3);
    // Progress is committed, requests retained.
    const auto batch = h.pipeline->takeBatch();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].committedTokens, h.pipeline->iterationsExecuted());
}

TEST(InferencePipelineTest, HaltNowDropsInFlightToken)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    h.sim.run(5.0);
    const long before = h.pipeline->iterationsExecuted();
    h.pipeline->haltNow();
    EXPECT_TRUE(h.pipeline->halted());
    const double halted_at = h.sim.now();
    h.sim.run();
    // No further events fire for this pipeline.
    EXPECT_EQ(h.pipeline->iterationsExecuted(), before);
    EXPECT_DOUBLE_EQ(h.sim.now(), halted_at);
}

TEST(InferencePipelineTest, HaltDuringPrefillLosesNothingCommitted)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    // Still in prefill (prefill takes ~0.1 s for OPT at B=1).
    EXPECT_EQ(h.pipeline->phase(), PipelinePhase::Prefill);
    h.pipeline->haltAfter(0);
    h.sim.run();
    EXPECT_TRUE(h.pipeline->halted());
    const auto batch = h.pipeline->takeBatch();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].committedTokens, 0);
}

TEST(InferencePipelineTest, HaltOnIdlePipelineIsImmediate)
{
    Harness h;
    h.pipeline->haltAfter(5);
    EXPECT_TRUE(h.pipeline->halted());
    EXPECT_EQ(h.haltedEvents, 1);
    EXPECT_TRUE(h.pipeline->takeBatch().empty());
}

TEST(InferencePipelineTest, BatchFinishingDuringDrainHalts)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1, 126)}); // 2 iterations left
    h.pipeline->haltAfter(100);
    h.sim.run();
    EXPECT_EQ(h.completed.size(), 1u);
    EXPECT_TRUE(h.pipeline->halted());
    EXPECT_EQ(h.idleEvents, 0); // halt pending suppresses onIdle
}

TEST(InferencePipelineTest, RefusesBadBatches)
{
    Harness h;
    EXPECT_THROW(h.pipeline->startBatch({}), std::invalid_argument);
    std::vector<ActiveRequest> too_big(9, makeRequest(1));
    for (int i = 0; i < 9; ++i)
        too_big[i].request.id = i;
    EXPECT_THROW(h.pipeline->startBatch(too_big), std::invalid_argument);
    // Already-finished request.
    EXPECT_THROW(h.pipeline->startBatch({makeRequest(1, 128)}),
                 std::invalid_argument);
    // Busy pipeline refuses another batch.
    h.pipeline->startBatch({makeRequest(1)});
    EXPECT_THROW(h.pipeline->startBatch({makeRequest(2)}), std::logic_error);
}

TEST(InferencePipelineTest, TakeBatchWhileExecutingThrows)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    EXPECT_THROW(h.pipeline->takeBatch(), std::logic_error);
}

// Regression: a boundary where a middle member completes.  Its completion
// fires while the batch is still intact (the finished request is still
// batch()[1]); then the survivors close the gap in place, keeping their
// order and their own block ids.
TEST(InferencePipelineTest, MiddleCompletionKeepsSurvivorsInOrder)
{
    sim::Simulation sim;
    const model::ModelSpec spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency{spec, kParams};
    const InferencePipeline *pipe = nullptr;
    std::vector<wl::RequestId> completed;
    std::vector<std::vector<wl::RequestId>> ids;
    std::vector<std::vector<std::vector<int>>> blocks;
    InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [&](const ActiveRequest &r) {
        completed.push_back(r.request.id);
        ASSERT_EQ(pipe->batch().size(), 4u);
        EXPECT_EQ(&r, &pipe->batch()[1]);
        EXPECT_EQ(pipe->batch()[0].request.id, 1);
        EXPECT_EQ(pipe->batch()[3].request.id, 4);
    };
    cb.onBoundary = [&](const InferencePipeline &p) {
        ids.emplace_back();
        blocks.emplace_back();
        for (const auto &r : p.batch()) {
            ids.back().push_back(r.request.id);
            blocks.back().push_back(r.kvBlockIds);
        }
    };
    InferencePipeline pipeline(sim, latency, par::ParallelConfig{1, 1, 4, 8},
                               0, cb);
    pipe = &pipeline;
    // Recovered members hold 612 tokens: the next two stay inside their
    // 39th block, so no survivor gains a block over the two boundaries.
    pipeline.startBatch({makeRequest(1, 100), makeRequest(2, 126),
                         makeRequest(3, 100), makeRequest(4, 100)});
    ASSERT_TRUE(sim.step());
    ASSERT_TRUE(sim.step());

    EXPECT_EQ(completed, (std::vector<wl::RequestId>{2}));
    ASSERT_EQ(ids.size(), 3u); // batch start + two boundaries
    EXPECT_EQ(ids[1], (std::vector<wl::RequestId>{1, 2, 3, 4}));
    EXPECT_EQ(ids[2], (std::vector<wl::RequestId>{1, 3, 4}));
    ASSERT_EQ(blocks[0].size(), 4u);
    EXPECT_EQ(blocks[0][0].size(), 39u);
    EXPECT_EQ(blocks[2], (std::vector<std::vector<int>>{
                             blocks[0][0], blocks[0][2], blocks[0][3]}));
    EXPECT_EQ(pipeline.kvStore().totalLiveRefs(), 3 * 39);
    EXPECT_EQ(pipeline.batch()[1].committedTokens, 102);
}

TEST(ActiveRequestTest, RestartResetsProgress)
{
    ActiveRequest r = makeRequest(1, 40);
    EXPECT_EQ(r.nextContextLen(), 512 + 40 + 1);
    EXPECT_FALSE(r.done());
    r.resetForRestart();
    EXPECT_EQ(r.committedTokens, 0);
    EXPECT_EQ(r.restarts, 1);
    r.committedTokens = 128;
    EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------------
// Context arithmetic
// ---------------------------------------------------------------------

TEST(ContextStateTest, IdenticalPositionReusesEverything)
{
    const auto spec = model::ModelSpec::gpt20b();
    par::ParallelConfig cfg{2, 2, 8, 8};
    par::Topology topo(cfg, spec.numLayers());
    GpuContext held;
    held.gpu = 0;
    held.instance = 0;
    held.hasModelContext = true;
    held.config = cfg;
    held.position = par::Position{0, 0, 3};
    const double reuse =
        modelOverlapBytes(spec, HeldContext(held, spec.numLayers()), topo, par::Position{0, 0, 3});
    EXPECT_NEAR(reuse, neededModelBytes(spec, topo, par::Position{0, 0, 3}),
                1.0);
}

TEST(ContextStateTest, DifferentStageSharesNothing)
{
    const auto spec = model::ModelSpec::gpt20b();
    par::ParallelConfig cfg{1, 2, 8, 8};
    par::Topology topo(cfg, spec.numLayers());
    GpuContext held;
    held.hasModelContext = true;
    held.config = cfg;
    held.position = par::Position{0, 0, 0};
    EXPECT_DOUBLE_EQ(
        modelOverlapBytes(spec, HeldContext(held, spec.numLayers()), topo, par::Position{0, 1, 0}), 0.0);
}

TEST(ContextStateTest, ReshardingOverlapIsPartial)
{
    // Figure 4a: (1,2,8) -> (1,3,4).  A GPU holding shard 0/8 of stage 0
    // (layers 0..21) mapped to shard 0/4 of new stage 0 (layers 0..14)
    // reuses its full half of the new shard.
    const auto spec = model::ModelSpec::gpt20b(); // 44 layers
    par::ParallelConfig old_cfg{1, 2, 8, 8};
    par::ParallelConfig new_cfg{1, 3, 4, 8};
    par::Topology new_topo(new_cfg, spec.numLayers());
    GpuContext held;
    held.hasModelContext = true;
    held.config = old_cfg;
    held.position = par::Position{0, 0, 0};

    const double reuse =
        modelOverlapBytes(spec, HeldContext(held, spec.numLayers()), new_topo, par::Position{0, 0, 0});
    // Common layers: old stage 0 = [0,22), new stage 0 = [0,15) -> 15.
    // Shard intersection: [0,1/8) within [0,1/4) -> 1/8.
    EXPECT_NEAR(reuse, 15 * spec.layerWeightBytes() / 8.0, 1.0);
    // The new position needs twice the shard width over 15 layers.
    EXPECT_NEAR(neededModelBytes(spec, new_topo, par::Position{0, 0, 0}),
                15 * spec.layerWeightBytes() / 4.0, 1.0);
}

TEST(ContextStateTest, CacheOverlapScalesWithTokens)
{
    const auto spec = model::ModelSpec::gpt20b();
    par::ParallelConfig cfg{1, 2, 8, 8};
    par::Topology topo(cfg, spec.numLayers());
    GpuContext held;
    held.hasModelContext = true;
    held.config = cfg;
    held.position = par::Position{0, 0, 2};
    held.cacheTokens = 1000.0;
    const double reuse =
        cacheOverlapBytes(spec, HeldContext(held, spec.numLayers()), topo, par::Position{0, 0, 2});
    // 22 layers, shard width 1/8 of per-layer KV for 1000 tokens.
    EXPECT_NEAR(reuse, 1000.0 * spec.kvBytesPerTokenPerLayer() * 22 / 8.0,
                1.0);
    held.cacheTokens = 0.0;
    EXPECT_DOUBLE_EQ(
        cacheOverlapBytes(spec, HeldContext(held, spec.numLayers()), topo, par::Position{0, 0, 2}), 0.0);
}

TEST(ContextStateTest, IndexFindsGpusAndListsHoldersInSnapshotOrder)
{
    const auto spec = model::ModelSpec::gpt20b(); // 44 layers
    const par::ParallelConfig cfg{1, 2, 8, 8};    // stages [0,22), [22,44)
    ContextSnapshot snap;
    auto add = [&](par::GpuId gpu, int p, int m, bool model) {
        GpuContext g;
        g.gpu = gpu;
        g.hasModelContext = model;
        g.config = cfg;
        g.position = par::Position{0, p, m};
        snap.gpus.push_back(g);
    };
    add(9, 1, 3, true);
    add(5, 0, 1, true);
    add(7, 0, 0, false); // no model context: holds nothing
    add(2, 0, 2, true);
    const ContextIndex index(snap, spec.numLayers());

    ASSERT_NE(index.find(5), nullptr);
    EXPECT_EQ(index.find(5)->ctx, &snap.gpus[1]);
    EXPECT_EQ(index.find(6), nullptr);
    EXPECT_EQ(index.find(100), nullptr);
    EXPECT_EQ(index.find(par::kInvalidGpu), nullptr);

    const auto *held = index.find(9);
    EXPECT_EQ(held->firstLayer, 22);
    EXPECT_EQ(held->lastLayer, 44);
    EXPECT_DOUBLE_EQ(held->shardLo, 3.0 / 8.0);
    EXPECT_DOUBLE_EQ(held->shardHi, 4.0 / 8.0);
    EXPECT_DOUBLE_EQ(held->shardCover(0.25, 0.5), 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(held->shardCover(0.5, 1.0), 0.0);
    EXPECT_FALSE(index.find(7)->holds(0));

    // Holders keep snapshot order, not GPU order.
    const auto front = index.holders(0);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0]->ctx->gpu, 5);
    EXPECT_EQ(front[1]->ctx->gpu, 2);
    const auto back = index.holders(43);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0]->ctx->gpu, 9);
}

TEST(HeterogeneousBatchTest, ShorterRequestsFinishEarly)
{
    // A batch whose members want different output lengths: the short ones
    // complete and leave; the batch shrinks and continues.
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency(spec, kParams);
    std::vector<std::pair<wl::RequestId, double>> completions;
    engine::InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [&](const engine::ActiveRequest &r) {
        completions.push_back({r.request.id, sim.now()});
    };
    engine::InferencePipeline pipeline(
        sim, latency, par::ParallelConfig{1, 1, 4, 8}, 0, cb);

    engine::ActiveRequest short_req, long_req;
    short_req.request.id = 1;
    short_req.request.outputLen = 32;
    long_req.request.id = 2;
    long_req.request.outputLen = 128;
    pipeline.startBatch({short_req, long_req});
    sim.run();

    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0].first, 1);
    EXPECT_EQ(completions[1].first, 2);
    EXPECT_LT(completions[0].second, completions[1].second);
    // 32 shared iterations + 96 solo ones.
    EXPECT_EQ(pipeline.iterationsExecuted(), 128);
    EXPECT_EQ(pipeline.tokensCommitted(), 32 + 128);
}

TEST(HeterogeneousBatchTest, SoloTailRunsFasterPerIteration)
{
    // After the B=2 phase ends, iterations continue at B=1 cost.
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency(spec, kParams);
    engine::InferencePipeline::Callbacks cb;
    double first_done = 0.0, second_done = 0.0;
    cb.onRequestComplete = [&](const engine::ActiveRequest &r) {
        (r.request.outputLen == 32 ? first_done : second_done) = sim.now();
    };
    engine::InferencePipeline pipeline(
        sim, latency, par::ParallelConfig{1, 1, 4, 8}, 0, cb);
    engine::ActiveRequest a, b;
    a.request.id = 1;
    a.request.outputLen = 32;
    b.request.id = 2;
    b.request.outputLen = 128;
    pipeline.startBatch({a, b});
    sim.run();

    par::ParallelConfig b1{1, 1, 4, 1};
    par::ParallelConfig b2{1, 1, 4, 2};
    const double tail_expected =
        latency.decodeSpanTime(b1, 512 + 33, 96); // iterations 33..128 solo
    EXPECT_NEAR(second_done - first_done, tail_expected,
                tail_expected * 0.02);
    const double head_expected = latency.prefillTime(b2, 512) +
                                 latency.decodeSpanTime(b2, 513, 32);
    EXPECT_NEAR(first_done, head_expected, head_expected * 0.02);
}

} // namespace
} // namespace spotserve::engine
