/**
 * @file
 * Memory-aware (KV-budget) admission.
 *
 * The headline harness asserts the OOM-free invariant the cost model
 * assumes: at every iteration boundary of every replica, the KV blocks
 * the live batch holds (and, under Reserve admission, reserves) never
 * exceed the whole blocks of the budget MemoryModel promised for the
 * deployed configuration — across Poisson, spike and long-input
 * workloads, across preemption-driven migrations.  Satellite
 * regressions cover a halt between a prefix match and the rest of its
 * prefill, strict-FIFO fairness under tight budgets, the
 * perfbench-shaped admission form, least-loaded replica balancing at
 * batch formation, and the rejection of heads no replica can hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "costmodel/memory_model.h"
#include "engine/inference_pipeline.h"
#include "model/model_spec.h"
#include "serving/experiment.h"
#include "serving/request_manager.h"
#include "workload/workload.h"

#include "kv_block_counts.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

wl::Request
makeRequest(wl::RequestId id, sim::SimTime arrival = 0.0, int input_len = 512,
            int output_len = 128)
{
    wl::Request r;
    r.id = id;
    r.arrival = arrival;
    r.inputLen = input_len;
    r.outputLen = output_len;
    return r;
}

/** A request that declares a generation cap above its actual length. */
wl::Request
makeCapped(wl::RequestId id, sim::SimTime arrival, int input_len,
           int actual_output, int output_cap)
{
    wl::Request r = makeRequest(id, arrival, input_len, actual_output);
    r.outputCap = output_cap;
    return r;
}

/**
 * Engine-level harness: one pipeline fed from a RequestManager through
 * both admission paths (idle-batch formation and boundary admission,
 * charged under one admission mode), evictions requeued through the
 * shared restart path, and the KV invariants checked at every iteration
 * boundary.
 */
struct EngineServer
{
    sim::Simulation sim;
    model::ModelSpec spec;
    cost::LatencyModel latency;
    par::ParallelConfig config;
    serving::RequestManager requests{sim};
    std::unique_ptr<engine::InferencePipeline> pipeline;

    engine::KvAdmissionMode mode;
    long boundaries = 0;
    /** Boundaries breaking the promise the mode makes in the pipeline's
     *  blocks: Reserve keeps reserved <= budget, and both modes keep the
     *  physical held blocks <= budget. */
    long violations = 0;
    /** Most ceil-rounded blocks the batch held at one boundary, summed
     *  per request: what a paged allocator was asked for. */
    long peakHeldBlocks = 0;
    int peakConcurrency = 0;
    std::vector<wl::RequestId> admissionOrder;
    std::map<wl::RequestId, sim::SimTime> completedAt;

    /** @param kv_budget_blocks the pipeline's KV budget in blocks. */
    EngineServer(const model::ModelSpec &model_spec,
                 const par::ParallelConfig &cfg, long kv_budget_blocks,
                 engine::KvAdmissionMode admission_mode =
                     engine::KvAdmissionMode::Reserve)
        : spec(model_spec), latency(spec, kParams), config(cfg),
          mode(admission_mode)
    {
        engine::InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [this](const engine::ActiveRequest &r) {
            completedAt[r.request.id] = sim.now();
            requests.complete(r);
        };
        cb.onIdle = [this](engine::InferencePipeline &) { dispatch(); };
        cb.onAdmit = [this](engine::InferencePipeline &p, int free_slots) {
            auto admitted = requests.popAdmissible(
                free_slots, p.freeKvBlocks(), mode);
            for (const auto &r : admitted)
                admissionOrder.push_back(r.request.id);
            return admitted;
        };
        cb.onBoundary = [this](const engine::InferencePipeline &p) {
            ++boundaries;
            const long budget_blocks = p.kvBudgetBlocks();
            if ((mode == engine::KvAdmissionMode::Reserve &&
                 kvBlocksReserved(p) > budget_blocks) ||
                p.kvPhysicalBlocksHeld() > budget_blocks)
                ++violations;
            peakHeldBlocks = std::max(peakHeldBlocks, kvBlocksHeld(p));
            peakConcurrency = std::max(peakConcurrency,
                                       static_cast<int>(p.batch().size()));
        };
        cb.onEvict = [this](engine::InferencePipeline &,
                            std::vector<engine::ActiveRequest> evicted) {
            requests.requeueRestarted(std::move(evicted));
        };
        engine::BatchingOptions batching;
        batching.kvBudgetBlocks = kv_budget_blocks;
        batching.kvAdmissionMode = mode;
        pipeline = std::make_unique<engine::InferencePipeline>(
            sim, latency, config, 0, std::move(cb), batching);
    }

    void dispatch()
    {
        if (!pipeline->idle() || pipeline->haltPending() ||
            requests.pendingEmpty()) {
            return;
        }
        auto batch =
            requests.popAdmissible(config.batch, pipeline->freeKvBlocks(),
                                   mode);
        for (const auto &r : batch)
            admissionOrder.push_back(r.request.id);
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

// ---------------------------------------------------------------------
// Cost-model contract
// ---------------------------------------------------------------------

TEST(KvBudgetModelTest, BudgetMatchesFeasibilityAcrossConfigSpace)
{
    // Property sweep (model x ParallelConfig x seq): the token budget is
    // exactly the feasibility frontier of MemoryModel::fits — a config
    // fits iff its B worst-case sequences fit the budget — and the
    // budget's bytes stay under the per-GPU line the planner reserves.
    for (const auto &spec :
         {model::ModelSpec::opt6_7b(), model::ModelSpec::gpt20b(),
          model::ModelSpec::llama30b()}) {
        cost::MemoryModel mem(spec, kParams);
        for (int pp : {1, 2, 4, 8}) {
            for (int tp : {1, 2, 4, 8}) {
                if (spec.numLayers() < pp)
                    continue;
                for (int batch : {1, 4, 8}) {
                    const par::ParallelConfig c{1, pp, tp, batch};
                    const long budget = mem.kvBudgetTokens(c);
                    for (const auto &seq :
                         {cost::SeqSpec{128, 64}, cost::SeqSpec{512, 128},
                          cost::SeqSpec{1024, 256}}) {
                        const long need = static_cast<long>(batch) *
                                          (seq.inputLen + seq.outputLen);
                        EXPECT_EQ(mem.fits(c, seq), budget >= need)
                            << spec.name() << " " << c.str() << " seq "
                            << seq.inputLen << "+" << seq.outputLen;
                    }
                    // A positive budget's bytes stay under the per-GPU
                    // line (budget 0 = the weights alone don't fit).
                    if (budget > 0) {
                        const double kv_bytes =
                            static_cast<double>(budget) *
                            spec.kvBytesPerToken() / c.gpusPerPipeline();
                        EXPECT_LE(mem.weightShardBytes(c) + kv_bytes +
                                      kParams.workspaceBytes +
                                      mem.migrationReserveBytes(c, true),
                                  kParams.gpu.memBytes * (1.0 + 1e-9))
                            << spec.name() << " " << c.str();
                    }
                }
            }
        }
    }
}

TEST(KvBudgetModelTest, NaiveMigrationReserveShrinksTheBudget)
{
    // With the memory-optimised planner ablated the reserve is a whole
    // double-buffered weight shard, so the enforceable KV budget must
    // shrink — and it must still match the fits() frontier computed
    // with the same flag (the budget a system enforces has to agree
    // with the feasibility check that picked its deployment).
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::MemoryModel mem(spec, kParams);
    const par::ParallelConfig c{1, 2, 2, 8};
    EXPECT_LT(mem.kvBudgetTokens(c, false), mem.kvBudgetTokens(c, true));
    for (const auto &seq :
         {cost::SeqSpec{512, 128}, cost::SeqSpec{1024, 256}}) {
        const long need =
            static_cast<long>(c.batch) * (seq.inputLen + seq.outputLen);
        EXPECT_EQ(mem.fits(c, seq, false),
                  mem.kvBudgetTokens(c, false) >= need);
    }
}

// ---------------------------------------------------------------------
// Tentpole: the OOM-free invariant, engine level
// ---------------------------------------------------------------------

TEST(MemoryAdmissionTest, InvariantHoldsAcrossModelConfigSeqSweep)
{
    // Property-style sweep: tight budgets (the blocks of 3 worst-case
    // sequences) over model x config x seq.  The invariant must hold at
    // every boundary and every request must still complete (no
    // admission deadlock, no starvation).
    const struct
    {
        model::ModelSpec spec;
        par::ParallelConfig config;
    } kSetups[] = {
        {model::ModelSpec::opt6_7b(), par::ParallelConfig{1, 1, 4, 8}},
        {model::ModelSpec::opt6_7b(), par::ParallelConfig{1, 4, 1, 2}},
        {model::ModelSpec::gpt20b(), par::ParallelConfig{1, 2, 2, 4}},
    };
    for (const auto &setup : kSetups) {
        for (const auto &seq :
             {cost::SeqSpec{128, 32}, cost::SeqSpec{512, 128}}) {
            const long peak = engine::kvBlocksFor(seq.inputLen + seq.outputLen);
            EngineServer s(setup.spec, setup.config, 3 * peak);
            sim::Rng rng(99);
            const auto workload = wl::stationaryPoisson(0.3, 120.0, seq, rng);
            s.drive(workload);
            s.sim.run();
            EXPECT_EQ(s.violations, 0)
                << setup.spec.name() << " " << setup.config.str();
            EXPECT_GT(s.boundaries, 0);
            EXPECT_EQ(s.requests.completedCount(),
                      static_cast<long>(workload.size()));
        }
    }
}

TEST(MemoryAdmissionTest, StartBatchRejectsOverBudgetBatch)
{
    EngineServer s(model::ModelSpec::opt6_7b(),
                   par::ParallelConfig{1, 1, 4, 8}, /*budget_blocks=*/62);
    std::vector<engine::ActiveRequest> batch(2);
    batch[0].request = makeRequest(1, 0.0, 512, 128); // peak 40 blocks
    batch[1].request = makeRequest(2, 0.0, 512, 128); // peak 40 blocks
    EXPECT_THROW(s.pipeline->startBatch(std::move(batch)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Tentpole: the OOM-free invariant, full system across migrations
// ---------------------------------------------------------------------

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

/** Joins, a preemption, a replacement join, and a second preemption. */
AvailabilityTrace
churnTrace()
{
    return AvailabilityTrace(
        "churn", 1200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 8},
         TraceEvent{300.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    1},
         TraceEvent{500.0, TraceEventKind::Join, InstanceType::Spot, 1},
         TraceEvent{800.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    1}});
}

struct SystemInvariantResult
{
    long checks = 0;
    long violations = 0;
    int migrations = 0;
    long completed = 0;
    long arrived = 0;
};

/** The model every churn-invariant run serves, and its memory line. */
const model::ModelSpec kChurnSpec = model::ModelSpec::gpt20b();
const cost::MemoryModel kChurnMem(kChurnSpec, kParams);

/** Violations one replica shows at one iteration boundary. */
using BoundaryViolations =
    std::function<long(const engine::InferencePipeline &)>;

/**
 * Run SpotServe (kChurnSpec, design rate 0.35) with @p options' engine
 * over the churn trace and @p workload, summing @p violations over every
 * iteration boundary of every replica across the preemption-driven
 * migrations.
 */
SystemInvariantResult
runSystemInvariant(const wl::Workload &workload,
                   core::SpotServeOptions options,
                   const BoundaryViolations &violations)
{
    const auto trace = churnTrace();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    options.designArrivalRate = 0.35;
    core::SpotServeSystem system(sim, instances, requests, kChurnSpec,
                                 kParams, cost::SeqSpec{}, options);

    SystemInvariantResult out;
    system.setKvObserver([&](const engine::InferencePipeline &p) {
        ++out.checks;
        out.violations += violations(p);
    });

    instances.setListener(&system);
    instances.loadTrace(trace);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(trace.duration() + 900.0);

    out.migrations = system.migrationsCompleted();
    out.completed = requests.completedCount();
    out.arrived = requests.arrivedCount();
    return out;
}

/**
 * 1 if one GPU of @p p would cross the memory line holding @p kv_bytes of
 * KV next to its weights, workspace and migration reserve, else 0.
 */
long
overGpuLine(const engine::InferencePipeline &p, double kv_bytes)
{
    return kChurnMem.weightShardBytes(p.config()) + kv_bytes +
                       kParams.workspaceBytes +
                       kChurnMem.migrationReserveBytes(p.config(), true) >
                   kParams.gpu.memBytes
               ? 1
               : 0;
}

// ---------------------------------------------------------------------
// A halt between a prefix match and the rest of its prefill
// ---------------------------------------------------------------------

TEST(PrefixPrefillTest, HaltAfterPrefixMatchResumesOnNewConfig)
{
    // A prefill never splits, so a request holds part of its input only
    // after matching a shared prefix.  Halt such a newcomer before its
    // remainder step and restart it on another configuration: the
    // matched tokens move with the cache, and the remainder step is
    // priced as the rest of the input re-reading the matched prefix.
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const par::ParallelConfig c1{1, 1, 4, 8};
    const par::ParallelConfig c2{1, 2, 2, 4};
    const int input = 256;
    const int m = 64; // four whole 16-token prefix levels
    const int output = 8;
    auto withPrefix = [&](wl::RequestId id, sim::SimTime arrival,
                          int output_len) {
        wl::Request r = makeRequest(id, arrival, input, output_len);
        r.prefixId = 7;
        r.prefixLen = m;
        return r;
    };

    // A prefills alone and publishes the prefix; B arrives during A's
    // first decode step and matches it at the next boundary.
    EngineServer s(spec, c1, engine::kUnboundedKvBlocks);
    const double prefill = latency.mixedIterTime(c1, 1, input, 0, 0, 0);
    const double decode = latency.mixedIterTime(c1, 0, 0, 0, 1, input + 1);
    s.drive({withPrefix(1, 0.0, /*output=*/64),
             withPrefix(2, prefill + 0.5 * decode, output)});
    // Stop halfway through B's remainder step (run alongside A's second
    // decode step).
    const double remainder1 =
        latency.mixedIterTime(c1, 1, input - m, m, 1, input + 2);
    s.sim.run(prefill + decode + 0.5 * remainder1);
    ASSERT_EQ(s.pipeline->batch().size(), 2u);
    s.pipeline->haltNow();
    EXPECT_DOUBLE_EQ(s.pipeline->savedPrefillSeconds(),
                     latency.prefillSavedTime(c1, m));
    auto drained = s.pipeline->takeBatch();
    ASSERT_EQ(drained.size(), 2u);
    engine::ActiveRequest b = drained[1];
    ASSERT_EQ(b.request.id, 2);
    EXPECT_EQ(b.prefillTokens, m);
    EXPECT_EQ(b.committedTokens, 0);
    EXPECT_FALSE(b.prefilled);

    // The cache context migrated: B restarts directly on a pipeline with
    // another configuration, keeping its matched prefix.
    EngineServer s2(spec, c2, engine::kUnboundedKvBlocks);
    s2.pipeline->startBatch({b});
    ASSERT_EQ(s2.pipeline->batch().size(), 1u);
    EXPECT_EQ(s2.pipeline->batch()[0].prefillTokens, m);
    EXPECT_FALSE(s2.pipeline->batch()[0].prefilled);
    s2.sim.run();
    ASSERT_EQ(s2.requests.completedCount(), 1);
    EXPECT_EQ(s2.pipeline->tokensCommitted(), output);
    // Only the remainder was prefilled, at exactly its mixed-step price,
    // then `output` decode steps at growing context.
    double expected = latency.mixedIterTime(c2, 1, input - m, m, 0, 0);
    for (int i = 0; i < output; ++i)
        expected += latency.mixedIterTime(c2, 0, 0, 0, 1, input + i + 1);
    EXPECT_NEAR(s2.completedAt[2], expected, expected * 1e-9);
}

// ---------------------------------------------------------------------
// FIFO fairness under tight budgets
// ---------------------------------------------------------------------

TEST(FifoFairnessTest, NothingSlipsPastABlockedHead)
{
    // Documented policy: strict FIFO head-blocking.  When the queue head
    // does not fit the remaining budget, smaller requests behind it are
    // NOT admitted past it — so a large request can wait, but can never
    // be starved by a stream of small ones.
    sim::Simulation sim;
    serving::RequestManager mgr(sim);
    mgr.submit(makeRequest(1, 0.0, 1000, 100)); // peak 1100 tokens
    mgr.submit(makeRequest(2, 1.0, 100, 10));   // peak 110 tokens
    mgr.submit(makeRequest(3, 2.0, 100, 10));   // peak 110 tokens
    const long head = engine::kvBlocksFor(1100); // 69 blocks
    const long small = engine::kvBlocksFor(110); // 7 blocks

    // Head does not fit: nothing admits, even though the small ones fit.
    EXPECT_TRUE(mgr.popAdmissible(4, head - 1).empty());
    EXPECT_EQ(mgr.pendingCount(), 3u);

    // Once the head fits, it leads and the rest follow in order.
    const auto got = mgr.popAdmissible(4, head + small);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].request.id, 1);
    EXPECT_EQ(got[1].request.id, 2);
    EXPECT_EQ(mgr.pendingCount(), 1u);
}

TEST(FifoFairnessTest, LargeHeadIsNotStarvedUnderTightBudget)
{
    // End to end: small requests keep arriving behind a large one under
    // a budget that fits either the large request alone or a few small
    // ones.  The large request must be admitted (in arrival order) and
    // complete; admission order must equal arrival order throughout.
    const long budget = 100; // blocks: large peak 80; small peak 20
    EngineServer s(model::ModelSpec::opt6_7b(),
                   par::ParallelConfig{1, 1, 4, 8}, budget);
    wl::Workload workload;
    wl::RequestId id = 0;
    workload.push_back(makeRequest(id++, 0.0, 256, 64));  // small
    workload.push_back(makeRequest(id++, 0.1, 256, 64));  // small
    workload.push_back(makeRequest(id++, 0.2, 1024, 256)); // the large one
    for (int i = 0; i < 12; ++i)
        workload.push_back(makeRequest(id++, 0.3 + 0.5 * i, 256, 64));
    s.drive(workload);
    s.sim.run();

    EXPECT_EQ(s.requests.completedCount(), static_cast<long>(id));
    EXPECT_EQ(s.violations, 0);
    // Strict FIFO: admissions happen in arrival (id) order, so the large
    // request was not overtaken while it waited for headroom.
    ASSERT_EQ(s.admissionOrder.size(), static_cast<std::size_t>(id));
    for (std::size_t i = 0; i < s.admissionOrder.size(); ++i)
        EXPECT_EQ(s.admissionOrder[i], static_cast<wl::RequestId>(i));
}

// ---------------------------------------------------------------------
// The perfbench-shaped admission form
// ---------------------------------------------------------------------

TEST(AdmissionBookkeepingTest, BlockSizeFormForwardsToTheOnePop)
{
    auto fill = [](serving::RequestManager &mgr) {
        mgr.submit(makeRequest(1, 0.0, 512, 128));
        mgr.submit(makeRequest(2, 1.0, 512, 128));
        mgr.submit(makeRequest(3, 2.0, 512, 128));
        mgr.submit(makeRequest(4, 3.0, 512, 128));
    };
    sim::Simulation sim;
    serving::RequestManager a(sim);
    serving::RequestManager b(sim);
    fill(a);
    fill(b);

    // Same budget, same slots: the explicit-block-size form pops the
    // identical FIFO prefix the one pop does.
    const long budget = 2 * engine::kvBlocksFor(640) + 6; // two fit
    const auto popped = a.popAdmissible(3, budget);
    const auto admitted =
        b.admitAtBoundary(3, budget, engine::KvAdmissionMode::Reserve,
                          engine::kUnboundedKvBlocks, engine::kKvBlockTokens,
                          nullptr);
    ASSERT_EQ(popped.size(), 2u);
    ASSERT_EQ(admitted.size(), 2u);
    for (std::size_t i = 0; i < popped.size(); ++i)
        EXPECT_EQ(popped[i].request.id, admitted[i].request.id);

    // It accepts only the one block size and pops nothing when it
    // refuses.
    EXPECT_THROW(b.admitAtBoundary(5, engine::kUnboundedKvBlocks,
                                   engine::KvAdmissionMode::Reserve,
                                   engine::kUnboundedKvBlocks, 1, nullptr),
                 std::invalid_argument);
    EXPECT_EQ(b.pendingCount(), 2u);

    // Unbudgeted defaults remain slot-limited only.
    EXPECT_EQ(a.popAdmissible(5).size(), 2u);
    EXPECT_TRUE(a.pendingEmpty());
}

// ---------------------------------------------------------------------
// Least-loaded replica balancing
// ---------------------------------------------------------------------

struct TestSystem : serving::BaseServingSystem
{
    TestSystem(sim::Executor &s, cluster::InstanceManager &im,
               serving::RequestManager &rm, const model::ModelSpec &spec,
               const serving::EngineOptions &engine = {})
        : BaseServingSystem(s, im, rm, spec, kParams, cost::SeqSpec{},
                            engine)
    {
    }
    std::string name() const override { return "TestSystem"; }
    void onInstanceReady(const cluster::Instance &) override {}
    void onPreemptionNotice(const cluster::Instance &, sim::SimTime) override
    {
    }
    void onInstancePreempted(const cluster::Instance &) override {}
    void onInstanceReleased(const cluster::Instance &) override {}

    using BaseServingSystem::admitAtBoundary;
    using BaseServingSystem::deployment;
    using BaseServingSystem::dispatchAll;
    using BaseServingSystem::installDeployment;
    using BaseServingSystem::packedMesh;
    using BaseServingSystem::replicaKvBudgetBlocks;
    using BaseServingSystem::setMemOptReserve;
};

TEST(ReplicaBalancingTest, IdleBatchFormationSpreadsAcrossReplicas)
{
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 2}}));
    sim.run(1.0);

    const par::ParallelConfig config{2, 2, 2, 8};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));

    // Six requests pending before any dispatch: the old code would stuff
    // all six into replica 0 (B = 8); balanced formation deals 3 + 3.
    for (int i = 0; i < 6; ++i)
        requests.submit(makeRequest(i, 0.0));
    system.dispatchAll();

    ASSERT_EQ(system.deployment().pipelines.size(), 2u);
    EXPECT_EQ(system.deployment().pipelines[0]->batch().size(), 3u);
    EXPECT_EQ(system.deployment().pipelines[1]->batch().size(), 3u);
    EXPECT_TRUE(requests.pendingEmpty());
}

TEST(ReplicaBalancingTest, BoundaryAdmissionSkipsReplicaAwaitingItsBatch)
{
    // A replica whose recovered batch waits for its resume event gets
    // nothing from dispatchAll, so boundary admission must not leave it
    // an even share of the queue either: with the only other replica
    // awaiting its batch, the asking replica takes min(free, pending).
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 2}}));
    sim.run(1.0);
    const par::ParallelConfig config{2, 2, 2, 8};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));
    auto &dep = system.deployment();
    dep.awaitingBatch = {false, true};

    // Replica 0 runs one request (mid-batch, so it is the asker); six
    // more queue up behind it.
    requests.submit(makeRequest(0, sim.now()));
    system.dispatchAll();
    ASSERT_EQ(dep.pipelines[0]->batch().size(), 1u);
    ASSERT_TRUE(dep.pipelines[1]->idle());
    for (int i = 1; i <= 6; ++i)
        requests.submit(makeRequest(i, sim.now()));

    auto &pipeline = *dep.pipelines[0];
    const int free = pipeline.freeSlots();
    const auto admitted = system.admitAtBoundary(pipeline, free);
    EXPECT_EQ(static_cast<int>(admitted.size()), std::min(free, 6));
    EXPECT_TRUE(requests.pendingEmpty());
    EXPECT_TRUE(dep.pipelines[1]->batch().empty());
}

TEST(ReplicaBalancingTest, OversizedRequestIsRejectedNotHeadBlocking)
{
    // A request whose worst-case KV exceeds a whole replica's budget can
    // never be served under this configuration; it must be dropped with
    // a rejection count, not left to head-block the strict-FIFO queue
    // (which would starve everything behind it forever).
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 2}}));
    sim.run(1.0);
    const par::ParallelConfig config{2, 2, 2, 8};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));
    const long budget = system.replicaKvBudgetBlocks(config);

    system.onRequestArrival(makeRequest(
        0, sim.now(), static_cast<int>(budget * engine::kKvBlockTokens) + 1,
        100)); // unservable
    system.onRequestArrival(makeRequest(1, sim.now()));    // normal
    EXPECT_EQ(requests.rejectedCount(), 1);
    sim.run();
    EXPECT_EQ(requests.completedCount(), 1);
    EXPECT_EQ(requests.completions().front().id, 1);
}

// ---------------------------------------------------------------------
// Optimistic admission: predictor and eviction
// ---------------------------------------------------------------------

TEST(OutputPredictorTest, ColdStartFallsBackToCap)
{
    serving::OutputLengthPredictor p;
    EXPECT_FALSE(p.warm());
    EXPECT_EQ(p.predict(512), 512); // cold: the cap, i.e. Reserve behavior
    for (int i = 0; i < 15; ++i) {
        p.observe(16);
        EXPECT_EQ(p.predict(512), 512) << "still cold after " << i + 1;
    }
    p.observe(16);
    EXPECT_TRUE(p.warm());
    // Warm on a short-output workload: far below the cap, above the data.
    EXPECT_LE(p.predict(512), 64);
    EXPECT_GE(p.predict(512), 16);
    // The prediction is clamped to the per-request cap.
    EXPECT_EQ(p.predict(8), 8);
}

TEST(OutputPredictorTest, ConstantLengthsPredictExactly)
{
    // A fixed-S_out workload (the paper's default) must predict exactly
    // its length: optimistic charges then equal the worst case and the
    // engine stays on the Reserve schedule.
    serving::OutputLengthPredictor p;
    for (int i = 0; i < 32; ++i)
        p.observe(128);
    EXPECT_EQ(p.predict(128), 128);
    EXPECT_EQ(p.predict(512), 128);
}

TEST(OutputPredictorTest, TracksAHighQuantileOfMixedLengths)
{
    serving::OutputLengthPredictor p;
    for (int i = 0; i < 200; ++i)
        p.observe(i % 2 == 0 ? 10 : 100);
    // The estimate settles near (slightly above) the upper mode: a high
    // quantile plus deviation headroom, still far below the 512 cap.
    EXPECT_GE(p.predict(512), 60);
    EXPECT_LE(p.predict(512), 200);
}

TEST(OptimisticAdmissionTest, ShortOutputsUnderLargeCapBeatReserve)
{
    // The acceptance scenario: a short-output/large-cap trace on a tight
    // budget.  Reserve charges every request input 512 + cap 512 = 1024
    // tokens (64 blocks) and caps concurrency at 3; optimistic learns
    // outputs finish near 32 tokens and packs the replica, admitting
    // strictly higher peak concurrency and completing strictly more
    // requests per unit time — while the held-KV <= budget invariant
    // holds at every boundary and every request still completes (no
    // starvation).
    const long budget = 3 * 64;
    auto workload = [] {
        sim::Rng rng(42);
        auto w = wl::stationaryPoisson(2.0, 240.0, cost::SeqSpec{512, 128},
                                       rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/48, rng);
        return w;
    }();
    struct Outcome
    {
        long completedAtTraceEnd = 0;
        long completedFinal = 0;
        double makespan = 0.0;
        int peakConcurrency = 0;
        long violations = 0;
    };
    auto run = [&](engine::KvAdmissionMode mode) {
        EngineServer s(model::ModelSpec::opt6_7b(),
                       par::ParallelConfig{1, 1, 4, 8}, budget, mode);
        s.drive(workload);
        s.sim.run(240.0);
        Outcome o;
        o.completedAtTraceEnd = s.requests.completedCount();
        s.sim.run();
        o.completedFinal = s.requests.completedCount();
        for (const auto &[id, t] : s.completedAt)
            o.makespan = std::max(o.makespan, t);
        o.peakConcurrency = s.peakConcurrency;
        o.violations = s.violations;
        return o;
    };
    const auto reserve = run(engine::KvAdmissionMode::Reserve);
    const auto optimistic = run(engine::KvAdmissionMode::Optimistic);

    const long n = static_cast<long>(workload.size());
    ASSERT_GT(n, 60);
    // No starvation in either mode; the invariant holds in both.
    EXPECT_EQ(reserve.completedFinal, n);
    EXPECT_EQ(optimistic.completedFinal, n);
    EXPECT_EQ(reserve.violations, 0);
    EXPECT_EQ(optimistic.violations, 0);
    // Reserve's concurrency collapses to budget/peak = 3; optimistic
    // admits strictly more...
    EXPECT_EQ(reserve.peakConcurrency, 3);
    EXPECT_GT(optimistic.peakConcurrency, reserve.peakConcurrency);
    // ...and turns that into strictly higher goodput: more completions
    // within the trace window and an earlier finish overall.
    EXPECT_GT(optimistic.completedAtTraceEnd, reserve.completedAtTraceEnd);
    EXPECT_LT(optimistic.makespan, reserve.makespan);
}

TEST(OptimisticAdmissionTest, HeldInvariantAcrossWorkloadShapes)
{
    // Poisson, spike, and long-input early-stopping workloads: held KV
    // stays under the budget at every boundary and every request
    // completes, evictions or not.
    const cost::SeqSpec seq{256, 64};
    auto poisson = [&] {
        sim::Rng rng(15);
        auto w = wl::stationaryPoisson(0.8, 180.0, seq, rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        return w;
    };
    auto spike = [&] {
        sim::Rng rng(16);
        auto w = wl::fluctuating(
            [](sim::SimTime t) {
                return (t >= 60.0 && t < 100.0) ? 3.0 : 0.4;
            },
            1.0, 180.0, seq, rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        return w;
    };
    auto longInput = [&] {
        sim::Rng rng(17);
        auto w = wl::stationaryPoisson(0.5, 180.0, seq, rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        const int lens[] = {128, 512, 1024};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        return w;
    };

    int variant = 0;
    for (const auto &make : {std::function<wl::Workload()>(poisson),
                             std::function<wl::Workload()>(spike),
                             std::function<wl::Workload()>(longInput)}) {
        const auto workload = make();
        EngineServer s(model::ModelSpec::opt6_7b(),
                       par::ParallelConfig{1, 1, 4, 8}, /*budget_blocks=*/162,
                       engine::KvAdmissionMode::Optimistic);
        s.drive(workload);
        s.sim.run();
        EXPECT_EQ(s.violations, 0) << "workload " << variant;
        EXPECT_GT(s.boundaries, 0);
        EXPECT_EQ(s.requests.completedCount(),
                  static_cast<long>(workload.size()))
            << "workload " << variant;
        ++variant;
    }
}

TEST(OptimisticAdmissionTest, NoLivelockUnderSustainedOverload)
{
    // Sustained overload with a deceptive length mix: most outputs are
    // tiny, a quarter run to the full cap, so the warm predictor
    // under-charges the long ones and evictions are inevitable.  The
    // storm guard (evicted requests re-admit at their full worst case)
    // plus the oldest member going last must keep every admitted request
    // completing — no livelock, no starvation — with held KV under the
    // budget throughout.
    const long budget = 75; // blocks: two full-cap peaks (32) plus slack
    EngineServer s(model::ModelSpec::opt6_7b(),
                   par::ParallelConfig{1, 1, 4, 8}, budget,
                   engine::KvAdmissionMode::Optimistic);
    wl::Workload workload;
    for (int i = 0; i < 80; ++i) {
        const int actual = (i % 4 == 3) ? 256 : 12;
        workload.push_back(
            makeCapped(i, 0.8 * i, /*input=*/256, actual, /*cap=*/256));
    }
    s.drive(workload);
    s.sim.run();

    EXPECT_EQ(s.violations, 0);
    EXPECT_EQ(s.requests.completedCount(), 80);
    EXPECT_GT(s.pipeline->evictionsPerformed(), 0);
    // Eviction converts a request to worst-case charging, so each one is
    // evicted at most a handful of times — far below the eviction-storm
    // regime where victims cycle forever.
    for (const auto &c : s.requests.completions())
        EXPECT_LE(c.restarts, 3) << "request " << c.id;
}

TEST(OptimisticAdmissionTest, MispredictionBurstEvictsAndRecovers)
{
    // Prime the predictor on short outputs, then hit the replica with a
    // burst whose outputs all run to the cap.  The optimistic charges
    // admit too much; eviction must shed the youngest victims,
    // keep held KV under the budget at every boundary, and still finish
    // the whole burst.
    const long budget = 87; // blocks
    EngineServer s(model::ModelSpec::opt6_7b(),
                   par::ParallelConfig{1, 1, 4, 8}, budget,
                   engine::KvAdmissionMode::Optimistic);
    for (int i = 0; i < 32; ++i)
        s.requests.outputPredictor().observe(16);
    ASSERT_TRUE(s.requests.outputPredictor().warm());

    wl::Workload burst;
    for (int i = 0; i < 10; ++i)
        burst.push_back(
            makeCapped(i, 0.05 * i, /*input=*/256, /*actual=*/240,
                       /*cap=*/256));
    s.drive(burst);
    s.sim.run();

    EXPECT_EQ(s.violations, 0);
    EXPECT_EQ(s.requests.completedCount(), 10);
    EXPECT_GT(s.pipeline->evictionsPerformed(), 0);
    // The evicted requests really were requeued and finished (restart
    // counts surface in the completion records).
    long restarted = 0;
    for (const auto &c : s.requests.completions())
        restarted += c.restarts > 0 ? 1 : 0;
    EXPECT_GT(restarted, 0);
}

TEST(OptimisticAdmissionTest, LoneMemberOutgrowingTheBudgetIsEvicted)
{
    // Regression: a request admitted on a small optimistic charge whose
    // output runs to a cap one block over the whole budget.  It enters
    // its last block as the batch's only, and so oldest, member; at that
    // step its charge covers its peak, and the engine once skipped the
    // pressure scan for a fully covered batch, so the store threw
    // ("allocation exceeds the physical block budget").  The pre-step
    // demand check must evict it instead, and the emptied pipeline goes
    // idle.
    const int blk = engine::kKvBlockTokens;
    const long budget_blocks = 20;
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    std::vector<engine::ActiveRequest> evicted;
    int idle = 0;
    int completed = 0;
    engine::InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [&](const engine::ActiveRequest &) {
        ++completed;
    };
    cb.onIdle = [&](engine::InferencePipeline &) { ++idle; };
    cb.onEvict = [&](engine::InferencePipeline &,
                     std::vector<engine::ActiveRequest> victims) {
        for (auto &v : victims)
            evicted.push_back(std::move(v));
    };
    engine::BatchingOptions batching;
    batching.kvBudgetBlocks = budget_blocks;
    batching.kvAdmissionMode = engine::KvAdmissionMode::Optimistic;
    engine::InferencePipeline pipeline(sim, latency,
                                       par::ParallelConfig{1, 1, 4, 8}, 0,
                                       std::move(cb), batching);

    // input + cap = 16 * budget + 1 tokens: a peak of budget + 1 blocks.
    const int input = 64;
    const int cap = static_cast<int>(budget_blocks * blk) + 1 - input;
    engine::ActiveRequest r;
    r.request = makeCapped(0, 0.0, input, cap, cap);
    r.predictedOutputTokens = 16;
    ASSERT_EQ(r.kvPeakBlocks(), budget_blocks + 1);
    pipeline.startBatch({r});
    ASSERT_NO_THROW(sim.run());

    EXPECT_EQ(pipeline.evictionsPerformed(), 1);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].request.id, 0);
    // Evicted just before the token that needs block budget + 1.
    EXPECT_EQ(evicted[0].committedTokens, cap - 1);
    EXPECT_EQ(completed, 0);
    EXPECT_EQ(idle, 1);
    EXPECT_TRUE(pipeline.idle());
    EXPECT_EQ(pipeline.kvStore().liveBlocks(), 0);
}

/**
 * Three members carried in decoding (arrivals 0, 1, 2), each one token
 * short of filling its 17th block, on an Optimistic pipeline with the
 * given block budget.  Their first step fills the 17th block; in the
 * second every member crosses into an 18th block at once, so that step's
 * demand is the live blocks (51) plus one per member (54).  Each member
 * finishes at 20 output tokens, still inside its 18th block.
 */
struct DecodingTrio
{
    long evictions = 0;
    std::vector<engine::ActiveRequest> evicted;
    int completed = 0;
    long peakPhysicalBlocks = 0;

    explicit DecodingTrio(long budget_blocks)
    {
        sim::Simulation sim;
        const auto spec = model::ModelSpec::opt6_7b();
        const cost::LatencyModel latency(spec, kParams);
        engine::InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [&](const engine::ActiveRequest &) {
            ++completed;
        };
        cb.onBoundary = [&](const engine::InferencePipeline &p) {
            peakPhysicalBlocks =
                std::max(peakPhysicalBlocks, p.kvPhysicalBlocksHeld());
        };
        cb.onEvict = [&](engine::InferencePipeline &,
                         std::vector<engine::ActiveRequest> victims) {
            for (auto &v : victims)
                evicted.push_back(std::move(v));
        };
        engine::BatchingOptions batching;
        batching.kvBudgetBlocks = budget_blocks;
        batching.kvAdmissionMode = engine::KvAdmissionMode::Optimistic;
        engine::InferencePipeline pipeline(sim, latency,
                                           par::ParallelConfig{1, 1, 4, 8},
                                           0, std::move(cb), batching);
        std::vector<engine::ActiveRequest> batch;
        for (int i = 0; i < 3; ++i) {
            engine::ActiveRequest r;
            r.request = makeRequest(i, /*arrival=*/1.0 * i, /*input=*/256,
                                    /*output=*/20);
            r.committedTokens = 15; // 271 tokens held: 17 blocks
            r.predictedOutputTokens = 16;
            batch.push_back(r);
        }
        pipeline.startBatch(std::move(batch));
        EXPECT_EQ(pipeline.kvPhysicalBlocksHeld(), 51);
        EXPECT_NO_THROW(sim.run());
        evictions = pipeline.evictionsPerformed();
    }
};

TEST(OptimisticAdmissionTest, DecodingBatchFillingTheBudgetExactlyEvictsNothing)
{
    // Live blocks plus one per decoding member equal the budget: the
    // step where every member crosses a block fits exactly, so nobody is
    // evicted and the store, whose capacity is the budget, never throws.
    const DecodingTrio run(/*budget_blocks=*/54);
    EXPECT_EQ(run.evictions, 0);
    EXPECT_TRUE(run.evicted.empty());
    EXPECT_EQ(run.completed, 3);
    EXPECT_EQ(run.peakPhysicalBlocks, 54);
}

TEST(OptimisticAdmissionTest, DecodingBatchOneBlockOverTheBudgetEvictsTheYoungest)
{
    // One block less: the crossing step's demand (54) exceeds the budget
    // (53), so the demand scan must run and evict the LIFO victim, the
    // youngest arrival, with its 16 committed tokens intact; the two
    // survivors then fit and finish.  Skipping the scan here would make
    // the store throw on the third new block.
    const DecodingTrio run(/*budget_blocks=*/53);
    EXPECT_EQ(run.evictions, 1);
    ASSERT_EQ(run.evicted.size(), 1u);
    EXPECT_EQ(run.evicted[0].request.id, 2);
    EXPECT_EQ(run.evicted[0].committedTokens, 16);
    EXPECT_EQ(run.completed, 2);
    EXPECT_LE(run.peakPhysicalBlocks, 53);
}

// ---------------------------------------------------------------------
// Optimistic admission at the system level (migrations)
// ---------------------------------------------------------------------

TEST(OptimisticSystemTest, MispredictedOutputsEvictThroughTheServingSystem)
{
    // The serving-level eviction path: a deployed replica's pipeline
    // evicts when the next step cannot fit and BaseServingSystem's onEvict
    // requeues the victims.  The predictor is primed on short outputs,
    // so admission packs the replica on ~16-token charges; the actual
    // outputs run close to their cap and outgrow the KV budget.
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 1}}));
    sim.run(1.0);
    const par::ParallelConfig config{1, 1, 4, 32};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));
    const long budget = system.replicaKvBudgetBlocks(config);

    for (int i = 0; i < 32; ++i)
        requests.outputPredictor().observe(16);
    ASSERT_TRUE(requests.outputPredictor().warm());

    // Every request fits the budget alone at its worst case (so none is
    // rejected), but the batch's actual growth does not fit together.
    const int input = 512;
    const int cap =
        static_cast<int>(budget * engine::kKvBlockTokens / 8) - input;
    ASSERT_GT(cap, 64);
    const int requests_n = 24;
    for (int i = 0; i < requests_n; ++i) {
        system.onRequestArrival(
            makeCapped(i, sim.now(), input, cap - 8, cap));
    }
    sim.run();

    serving::ExperimentResult r;
    system.report(r);
    r.arrived = requests.arrivedCount();
    r.completed = requests.completedCount();
    EXPECT_GT(r.evictions, 0);
    EXPECT_GT(r.evictedWorkSeconds, 0.0);
    EXPECT_EQ(r.completed, r.arrived);
    EXPECT_EQ(r.arrived, requests_n);
    EXPECT_EQ(r.liveKvRefsAtEnd, 0);
    // Eviction is the only restart path in this run: a completion with
    // restarts >= 1 is an evicted request that was requeued and finished.
    long restarted = 0;
    for (const auto &c : requests.completions())
        restarted += c.restarts >= 1 ? 1 : 0;
    EXPECT_GT(restarted, 0);
}

TEST(ReplicaBalancingTest, BoundaryAdmissionRejectsUnservablePeaks)
{
    // Regression: a request whose worst-case peak exceeds the whole
    // replica budget must be rejected on the *boundary* admission path
    // too, even when its optimistic charge would fit — otherwise its
    // fate depends on which admission path reaches it first, and once
    // admitted it could outgrow the budget alone and be evicted even as
    // the batch's oldest member, its work lost.
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 2}}));
    sim.run(1.0);
    // Two replicas; the second is parked (awaiting a recovered batch) so
    // it is no idle peer to balance onto, and the boundary admission
    // path is exercised in isolation until the last clause.
    const par::ParallelConfig config{2, 2, 2, 8};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));
    auto &dep = system.deployment();
    dep.awaitingBatch = {false, true};
    const long budget = system.replicaKvBudgetBlocks(config);
    const int budget_tokens = static_cast<int>(budget * engine::kKvBlockTokens);

    // Warm predictor expecting ~16-token outputs, so the optimistic
    // charge of the oversized request would comfortably fit the budget.
    for (int i = 0; i < 32; ++i)
        requests.outputPredictor().observe(16);
    requests.submit(makeCapped(0, sim.now(), 512, 16, budget_tokens));
    ASSERT_GT(engine::ActiveRequest{requests.pending().front()}
                  .kvPeakBlocks(),
              budget);

    auto &pipeline = *dep.pipelines[0];
    const auto admitted = system.admitAtBoundary(pipeline, 4);
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(requests.rejectedCount(), 1);
    EXPECT_TRUE(requests.pendingEmpty());

    // Mid-pop: an oversized request *behind* a normal head is rejected
    // the moment the pop exposes it, and the same pop carries on past it.
    requests.submit(makeCapped(1, sim.now(), 512, 16, 128)); // normal
    requests.submit(
        makeCapped(2, sim.now(), 512, 16, budget_tokens)); // oversized
    requests.submit(makeCapped(3, sim.now(), 512, 16, 128)); // normal
    const auto second = system.admitAtBoundary(pipeline, 4);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0].request.id, 1);
    EXPECT_EQ(second[1].request.id, 3);
    EXPECT_EQ(requests.rejectedCount(), 2); // dropped, not admitted
    EXPECT_TRUE(requests.pendingEmpty());

    // A live shared prefix does not make an oversized head servable: the
    // sharer holding it may leave before the head reaches its peak.  A
    // long-running sharer keeps a 256-token prefix live on the replica;
    // a fresh classmate one block over the budget, which that prefix
    // would discount below it, is rejected on both paths.
    constexpr int kClass = 7;
    constexpr int kPrefixTokens = 256;
    auto classmate = [&](wl::RequestId id, int output, int cap) {
        wl::Request r = makeCapped(id, sim.now(), 512, output, cap);
        r.prefixId = kClass;
        r.prefixLen = kPrefixTokens;
        return r;
    };
    requests.submit(classmate(4, 4000, 4000));
    system.dispatchAll();
    sim.run(sim.now() + 5.0);
    ASSERT_EQ(pipeline.batch().size(), 1u);
    const long budget_blocks = pipeline.kvBudgetBlocks();
    const int over_cap =
        static_cast<int>((budget_blocks + 1) * engine::kKvBlockTokens) - 512;
    engine::ActiveRequest probe;
    probe.request = classmate(5, 16, over_cap);
    ASSERT_EQ(probe.kvPeakBlocks() - budget_blocks, 1);
    ASSERT_GT(pipeline.kvStore().quoteSharedBlocks(probe), 1);

    // The boundary pop, which quotes the sharer's store: the oversized
    // classmate between two normal requests is rejected mid-pop.
    requests.submit(makeCapped(6, sim.now(), 512, 16, 128)); // normal
    requests.submit(classmate(7, 16, over_cap));             // oversized
    requests.submit(makeCapped(8, sim.now(), 512, 16, 128)); // normal
    const auto third = system.admitAtBoundary(pipeline, 4);
    ASSERT_EQ(third.size(), 2u);
    EXPECT_EQ(third[0].request.id, 6);
    EXPECT_EQ(third[1].request.id, 8);
    EXPECT_EQ(requests.rejectedCount(), 3);

    // Idle-batch formation: with the second replica ready, dispatchAll
    // quotes the oversized head, rejects it and deals nothing.
    dep.awaitingBatch = {false, false};
    requests.submit(probe.request);
    system.dispatchAll();
    EXPECT_EQ(requests.rejectedCount(), 4);
    EXPECT_TRUE(requests.pendingEmpty());
    EXPECT_TRUE(dep.pipelines[1]->idle());
    EXPECT_TRUE(dep.pipelines[1]->batch().empty());
}

TEST(ReplicaBalancingTest, BudgetTracksTheMigrationReserveMode)
{
    // The enforced budget must deduct the same migration reserve the
    // feasibility check assumed: ablating the memory-optimised planner
    // (naive double buffering) shrinks it.
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);
    // P*M = 8: the shard is small enough that even the naive
    // double-buffered reserve leaves positive KV headroom.
    const par::ParallelConfig config{1, 2, 4, 8};
    const long opt = system.replicaKvBudgetBlocks(config);
    system.setMemOptReserve(false);
    const long naive = system.replicaKvBudgetBlocks(config);
    EXPECT_LT(naive, opt);
    const cost::MemoryModel mem(spec, kParams);
    EXPECT_EQ(opt, mem.kvBudgetBlocks(config, true));
    EXPECT_EQ(naive, mem.kvBudgetBlocks(config, false));
}

TEST(ReplicaBalancingTest, DeployingWithoutOneKvBlockOfHeadroomThrows)
{
    // A configuration that passed MemoryModel::fits holds B worst-case
    // sequences, so a budget under one KV block means the deployment
    // skipped that check: refuse it rather than serve on a clamped
    // budget.  GPT-20B's weights alone overflow one GPU.
    const auto spec = model::ModelSpec::gpt20b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);
    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 1}}));
    sim.run(1.0);
    const par::ParallelConfig config{1, 1, 1, 1};
    ASSERT_LT(cost::MemoryModel(spec, kParams).kvBudgetBlocks(config), 1);
    EXPECT_THROW(system.installDeployment(
                     config,
                     system.packedMesh(config, instances.usableInstances())),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// Block-granular (paged) KV accounting
// ---------------------------------------------------------------------

TEST(BlockAdmissionTest, TokenGranularAdmissionOverpromisesPagedBlocks)
{
    // The regression that motivates the block budget: a 1000-token
    // budget holds floor(1000/16) = 62 whole 16-token blocks, but ten
    // 100-token requests — which token accounting happily admits at
    // exactly 10 x 100 = 1000 tokens — each occupy ceil(100/16) = 7
    // blocks, i.e. 70 blocks: a real paged allocator OOMs on a batch
    // the token invariant calls safe.  Block-granular admission charges
    // the rounded blocks up front and never exceeds 62.
    const long budget_tokens = 1000;
    const long peak_tokens = 100;
    const long budget_blocks = budget_tokens / engine::kKvBlockTokens;
    ASSERT_EQ(budget_blocks, 62);
    ASSERT_LE(10 * peak_tokens, budget_tokens); // token admission: all fit
    ASSERT_EQ(10 * engine::kvBlocksFor(peak_tokens), 70); // > 62 blocks

    const par::ParallelConfig cfg{1, 1, 4, 12};
    wl::Workload workload;
    for (int i = 0; i < 10; ++i)
        workload.push_back(makeRequest(i, 0.01 * i, /*input=*/90,
                                       /*output=*/10)); // peak 100 tokens
    EngineServer s(model::ModelSpec::opt6_7b(), cfg, budget_blocks);
    s.drive(workload);
    s.sim.run();
    EXPECT_EQ(s.requests.completedCount(), 10);
    EXPECT_EQ(s.violations, 0);
    EXPECT_LE(s.peakHeldBlocks, budget_blocks);
    // Eight 7-block peaks fit 62 blocks and a ninth would need 63, so
    // admission stops at eight where token accounting admits all ten.
    EXPECT_EQ(s.peakConcurrency, 8);
}

TEST(BlockAdmissionTest, BudgetBelowOneBlockThrows)
{
    // An engine budget smaller than one block has no whole block to hand
    // out: the pipeline refuses it, as the serving layer refuses such a
    // deployment, rather than serve on a clamped budget.
    EXPECT_THROW(EngineServer(model::ModelSpec::opt6_7b(),
                              par::ParallelConfig{1, 1, 4, 8},
                              /*budget_blocks=*/0),
                 std::invalid_argument);
}

TEST(BlockAdmissionTest, HeldBlocksInvariantEngineMatrix)
{
    // Engine-level matrix: Poisson / spike / long-input early-stopping
    // workloads, both admission modes, at the
    // paged block size: ceil-rounded held blocks never exceed the whole
    // blocks the budget contains, and every request completes.
    const cost::SeqSpec seq{256, 64};
    auto poisson = [&] {
        sim::Rng rng(51);
        auto w = wl::stationaryPoisson(0.8, 180.0, seq, rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        return w;
    };
    auto spike = [&] {
        sim::Rng rng(52);
        auto w = wl::fluctuating(
            [](sim::SimTime t) {
                return (t >= 60.0 && t < 100.0) ? 3.0 : 0.4;
            },
            1.0, 180.0, seq, rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        return w;
    };
    auto longInput = [&] {
        sim::Rng rng(53);
        auto w = wl::stationaryPoisson(0.5, 180.0, seq, rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        const int lens[] = {128, 512, 1024};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        return w;
    };

    const long budget = 162;
    int variant = 0;
    for (const auto &make : {std::function<wl::Workload()>(poisson),
                             std::function<wl::Workload()>(spike),
                             std::function<wl::Workload()>(longInput)}) {
        const auto workload = make();
        for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                engine::KvAdmissionMode::Optimistic}) {
            EngineServer s(model::ModelSpec::opt6_7b(),
                           par::ParallelConfig{1, 1, 4, 8}, budget, mode);
            s.drive(workload);
            s.sim.run();
            EXPECT_LE(s.peakHeldBlocks, budget)
                << "workload " << variant << " mode "
                << engine::toString(mode);
            EXPECT_EQ(s.violations, 0)
                << "workload " << variant << " mode "
                << engine::toString(mode);
            EXPECT_GT(s.boundaries, 0);
            EXPECT_EQ(s.requests.completedCount(),
                      static_cast<long>(workload.size()))
                << "workload " << variant << " mode "
                << engine::toString(mode);
        }
        ++variant;
    }
}

TEST(BlockSystemTest, HeldBlocksInvariantAcrossTracesAndMigrations)
{
    // Full-system matrix at the serving block size across
    // preemption-driven migrations, both admission modes, each checked
    // against its own promise in blocks; inherited batches are trimmed
    // in block space against the inheriting replica.  Inputs: Poisson,
    // spike and long-input workloads whose outputs run to their cap
    // (the long-input one mixes sequences up to 4x the planning length,
    // where fixed-B admission would overshoot the planned footprint),
    // early-stopping ones capped at 4x the planning output, and one
    // that fills Reserve's reservations: long inputs at twice the rate
    // under a 3072-token cap that outputs stop far below, so every
    // request reserves 224-320 blocks and the backlog loads a replica to
    // its budget (a Reserve admission that under-reserved would show).
    const cost::SeqSpec seq{};
    // Early stopping: actual outputs 16-128 under a 512-token cap.
    auto stopEarly = [](bool early_stop, wl::Workload &w, sim::Rng &rng) {
        if (early_stop)
            wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
    };
    auto poisson = [&](std::uint64_t seed, bool early_stop) {
        sim::Rng rng(seed);
        auto w = wl::stationaryPoisson(0.3, 900.0, seq, rng);
        stopEarly(early_stop, w, rng);
        return w;
    };
    auto spike = [&](std::uint64_t seed, double peak, bool early_stop) {
        sim::Rng rng(seed);
        auto w = wl::fluctuating(
            [peak](sim::SimTime t) {
                return (t >= 300.0 && t < 420.0) ? peak : 0.2;
            },
            1.0, 900.0, seq, rng);
        stopEarly(early_stop, w, rng);
        return w;
    };
    // cap 0: outputs run to their length.
    auto longInput = [&](std::uint64_t seed, double rate, int cap) {
        sim::Rng rng(seed);
        auto w = wl::stationaryPoisson(rate, 900.0, seq, rng);
        if (cap > 0)
            wl::capOutputs(w, cap, /*min=*/16, /*max=*/128, rng);
        const int lens[] = {512, 1024, 2048};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        return w;
    };
    const std::vector<wl::Workload> workloads{
        poisson(5, false),        spike(6, 1.5, false),
        longInput(7, 0.25, 0),    poisson(21, true),
        poisson(61, true),        spike(62, 1.2, true),
        longInput(63, 0.25, 512), longInput(70, 0.5, 3072)};
    const std::size_t kReserveBound = workloads.size() - 1;

    EXPECT_EQ(core::SpotServeOptions{}.engine.kvAdmissionMode,
              engine::KvAdmissionMode::Optimistic)
        << "optimistic admission should be the default";
    for (std::size_t variant = 0; variant < workloads.size(); ++variant) {
        for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                engine::KvAdmissionMode::Optimistic}) {
            core::SpotServeOptions options;
            options.engine.kvAdmissionMode = mode;
            // Ceil-rounded held blocks (and, in Reserve mode, the
            // reservations) fit the block budget, and the bottleneck
            // stage stays under the memory line: it holds ceil(L/P)
            // layers of weights and of every held block.
            double peak_fill = 0.0; // most reserved / budget, any replica
            const auto r = runSystemInvariant(
                workloads[variant], options,
                [mode, &peak_fill](const engine::InferencePipeline &p) {
                    const auto &c = p.config();
                    const long budget = kChurnMem.kvBudgetBlocks(c);
                    peak_fill = std::max(
                        peak_fill, static_cast<double>(kvBlocksReserved(p)) /
                                       static_cast<double>(budget));
                    long v = kvBlocksHeld(p) > budget ? 1 : 0;
                    if (mode == engine::KvAdmissionMode::Reserve &&
                        kvBlocksReserved(p) > budget)
                        ++v;
                    const int bl = (kChurnSpec.numLayers() + c.pp - 1) / c.pp;
                    const double kv_bytes =
                        static_cast<double>(kvBlocksHeld(p)) *
                        engine::kKvBlockTokens *
                        kChurnSpec.kvBytesPerTokenPerLayer() * bl / c.tp;
                    return v + overGpuLine(p, kv_bytes);
                });
            EXPECT_EQ(r.violations, 0)
                << "workload " << variant << " mode "
                << engine::toString(mode);
            EXPECT_GT(r.checks, 0);
            EXPECT_GE(r.migrations, 2); // initial + preemption-driven
            EXPECT_EQ(r.completed, r.arrived)
                << "workload " << variant << " mode "
                << engine::toString(mode);
            if (variant == kReserveBound &&
                mode == engine::KvAdmissionMode::Reserve) {
                EXPECT_GE(peak_fill, 0.9);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Arrival-rate estimator cold start (bugfix)
// ---------------------------------------------------------------------

TEST(RequestManagerTest, ArrivalRateColdStartUsesElapsedTime)
{
    // Regression: the estimator used to floor its divisor at 1.0 s, so
    // every trace's first second underestimated alpha (2 arrivals in
    // 0.5 s read as 2/s instead of 4/s) and skewed the controller's
    // first chooseConfig.  The divisor is now the elapsed-since-start
    // time clamped only by a tiny epsilon.
    sim::Simulation sim;
    serving::RequestManager mgr(sim);
    sim.schedule(0.1, [&] { mgr.submit(makeRequest(1, 0.1)); });
    sim.schedule(0.3, [&] { mgr.submit(makeRequest(2, 0.3)); });
    double at_half = 0.0;
    sim.schedule(0.5, [&] { at_half = mgr.estimatedArrivalRate(30.0); });
    double at_two = 0.0;
    sim.schedule(2.0, [&] { at_two = mgr.estimatedArrivalRate(30.0); });
    // Steady state far past the window is unchanged: the full 30 s
    // window divides.
    double steady = 0.0;
    sim.schedule(100.0, [&] {
        mgr.submit(makeRequest(3, 100.0));
        steady = mgr.estimatedArrivalRate(30.0);
    });
    sim.run();
    EXPECT_NEAR(at_half, 4.0, 1e-9);  // 2 arrivals / 0.5 s elapsed
    EXPECT_NEAR(at_two, 1.0, 1e-9);   // 2 arrivals / 2.0 s elapsed
    EXPECT_NEAR(steady, 1.0 / 30.0, 1e-9); // 1 arrival in the 30 s window
}

} // namespace
} // namespace spotserve
