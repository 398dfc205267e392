/**
 * @file
 * Memory-aware (KV-token-budget) admission and chunked prefill.
 *
 * The headline harness asserts the OOM-free invariant the cost model
 * assumes: at every iteration boundary of every replica, the KV tokens
 * reserved by the live batch never exceed the budget
 * MemoryModel::kvBudgetTokens promised for the deployed configuration —
 * across Poisson, spike and long-input workloads, across
 * preemption-driven migrations, in both chunked and unchunked prefill
 * modes.  Satellite regressions cover chunked-prefill edge cases, the
 * bounded decode-stall property, strict-FIFO fairness under tight
 * budgets, the shared popAdmissible bookkeeping, and least-loaded
 * replica balancing at batch formation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

/**
 * KV block size the system-level block-mode suites run with.  Defaults
 * to the serving layer's paged default (16); CI additionally runs the
 * whole binary with SPOTSERVE_TEST_KV_BLOCK_TOKENS=1 so both block
 * modes go through the full preemption/migration matrix (the ASan job
 * exercises both).
 */
int
testBlockTokens()
{
    if (const char *env = std::getenv("SPOTSERVE_TEST_KV_BLOCK_TOKENS")) {
        const int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
    return 16;
}

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
 * the budget-aware admission paths, with the KV invariant checked at
 * every iteration boundary.
 */
struct BudgetedServer
{
    sim::Simulation sim;
    model::ModelSpec spec;
    cost::LatencyModel latency;
    par::ParallelConfig config;
    serving::RequestManager requests{sim};
    std::unique_ptr<engine::InferencePipeline> pipeline;

    long budget;
    int blockTokens;
    /** Block size the *observer* checks the paged invariant with.  By
     *  default the pipeline's own granularity; the token-over-promise
     *  regression sets it above a token-granular pipeline to show what a
     *  real paged allocator would have been asked for. */
    int obsBlockTokens;
    long obsBudgetBlocks;
    long boundaries = 0;
    long violations = 0;
    long blockViolations = 0;
    std::vector<wl::RequestId> admissionOrder;
    std::map<wl::RequestId, sim::SimTime> completedAt;

    BudgetedServer(const model::ModelSpec &model_spec,
                   const par::ParallelConfig &cfg, long kv_budget,
                   int chunk_tokens, bool enforce_budget = true,
                   int block_tokens = 1, int observe_block_tokens = 0)
        : spec(model_spec), latency(spec, kParams), config(cfg),
          budget(kv_budget),
          // The shared engine rule: budgets smaller than one block
          // degrade to token accounting.
          blockTokens(engine::effectiveKvBlockTokens(kv_budget,
                                                     block_tokens)),
          obsBlockTokens(observe_block_tokens > 0 ? observe_block_tokens
                                                  : blockTokens),
          obsBudgetBlocks(kv_budget == engine::kUnboundedKvTokens
                              ? engine::kUnboundedKvBlocks
                              : std::max(1L, kv_budget / obsBlockTokens))
    {
        engine::InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [this](const engine::ActiveRequest &r) {
            completedAt[r.request.id] = sim.now();
            requests.complete(r);
        };
        cb.onIdle = [this](engine::InferencePipeline &) { dispatch(); };
        cb.onAdmit = [this](engine::InferencePipeline &p, int free_slots) {
            auto admitted = requests.admitAtBoundary(
                free_slots, p.freeKvBlocks(), engine::KvAdmissionMode::Reserve,
                engine::kUnboundedKvBlocks, blockTokens);
            for (const auto &r : admitted)
                admissionOrder.push_back(r.request.id);
            return admitted;
        };
        cb.onBoundary = [this](const engine::InferencePipeline &p) {
            ++boundaries;
            // The invariant is checked against the *reference* budget
            // even when the pipeline itself does not enforce one
            // (fixed-B ablation): that is how the harness detects the
            // over-commitment fixed-B admission allows.
            if (p.kvTokensReserved() > budget ||
                p.kvTokensHeld() > p.kvTokensReserved())
                ++violations;
            // The paged-allocator invariant: ceil-rounded blocks (what a
            // real allocator hands out) never exceed the whole blocks
            // the budget contains.  Computed with this harness's
            // reference block size even when the pipeline itself
            // accounts at a different granularity — that is how the
            // harness shows token-granular admission over-promising
            // paged memory.
            long held_blocks = 0;
            for (const auto &r : p.batch())
                held_blocks += r.kvBlocksHeld(obsBlockTokens);
            if (held_blocks > obsBudgetBlocks)
                ++blockViolations;
        };
        engine::BatchingOptions batching;
        batching.kvBudgetTokens =
            enforce_budget ? budget : engine::kUnboundedKvTokens;
        batching.kvBlockTokens = blockTokens;
        batching.prefillChunkTokens = chunk_tokens;
        // This harness exercises the reservation-based (PR 2) admission
        // semantics; the optimistic mode has its own harness below.
        batching.kvAdmissionMode = engine::KvAdmissionMode::Reserve;
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
            requests.nextBatch(config.batch, pipeline->freeKvBlocks(),
                               engine::KvAdmissionMode::Reserve,
                               engine::kUnboundedKvBlocks, blockTokens);
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

TEST(KvBudgetModelTest, ChunkedMixedIterTimeReducesToUnchunked)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const par::ParallelConfig c{1, 1, 4, 8};
    // No committed prefix: the 6-arg overload is the 5-arg one.
    EXPECT_DOUBLE_EQ(latency.mixedIterTime(c, 2, 256, 0, 3, 600),
                     latency.mixedIterTime(c, 2, 256, 3, 600));
    // A committed prefix adds its (memory-bound) KV re-read, nothing else.
    EXPECT_GT(latency.mixedIterTime(c, 2, 256, 512, 3, 600),
              latency.mixedIterTime(c, 2, 256, 3, 600));
    // The re-read term scales with the prefix length.
    const double short_pfx = latency.mixedIterTime(c, 1, 256, 256, 0, 0);
    const double long_pfx = latency.mixedIterTime(c, 1, 256, 1792, 0, 0);
    EXPECT_GT(long_pfx, short_pfx);
}

// ---------------------------------------------------------------------
// Tentpole: the OOM-free invariant, engine level
// ---------------------------------------------------------------------

TEST(MemoryAdmissionTest, InvariantHoldsAcrossModelConfigSeqSweep)
{
    // Property-style sweep: tight budgets (3 worst-case sequences) over
    // model x config x seq x chunk mode.  The invariant must hold at
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
            for (int chunk : {0, 96}) {
                const long peak = seq.inputLen + seq.outputLen;
                BudgetedServer s(setup.spec, setup.config, 3 * peak, chunk);
                sim::Rng rng(99);
                const auto workload =
                    wl::stationaryPoisson(0.3, 120.0, seq, rng);
                s.drive(workload);
                s.sim.run();
                EXPECT_EQ(s.violations, 0)
                    << setup.spec.name() << " " << setup.config.str()
                    << " chunk " << chunk;
                EXPECT_GT(s.boundaries, 0);
                EXPECT_EQ(s.requests.completedCount(),
                          static_cast<long>(workload.size()));
            }
        }
    }
}

TEST(MemoryAdmissionTest, FixedBAdmissionOvercommitsWhereBudgetDoesNot)
{
    // The regression that motivates the whole feature: long-input
    // requests under fixed-B admission (the reference budget observed
    // but not enforced) overshoot the KV budget the cost model promised;
    // token-budget admission with the same inputs never does.
    const long budget = 3000; // tokens; one 2048+128 request fits alone
    auto run = [&](bool enforce) {
        BudgetedServer s(model::ModelSpec::opt6_7b(),
                         par::ParallelConfig{1, 1, 4, 8}, budget,
                         /*chunk=*/0, enforce);
        wl::Workload workload;
        for (int i = 0; i < 8; ++i)
            workload.push_back(
                makeRequest(i, 0.1 * i, /*input=*/2048, /*output=*/128));
        s.drive(workload);
        s.sim.run();
        EXPECT_EQ(s.requests.completedCount(), 8);
        return s.violations;
    };
    EXPECT_GT(run(false), 0); // fixed-B packs 8 x 2176 tokens into 3000
    EXPECT_EQ(run(true), 0);  // budget admission holds the line
}

TEST(MemoryAdmissionTest, StartBatchRejectsOverBudgetBatch)
{
    BudgetedServer s(model::ModelSpec::opt6_7b(),
                     par::ParallelConfig{1, 1, 4, 8}, /*budget=*/1000,
                     /*chunk=*/0);
    std::vector<engine::ActiveRequest> batch(2);
    batch[0].request = makeRequest(1, 0.0, 512, 128); // peak 640
    batch[1].request = makeRequest(2, 0.0, 512, 128); // peak 640
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

/** SpotServe options with @p chunk_tokens of prefill per chunk. */
core::SpotServeOptions
chunkedOptions(int chunk_tokens)
{
    core::SpotServeOptions options;
    options.engine.prefillChunkTokens = chunk_tokens;
    return options;
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

/** Held KV bytes per GPU, the held tokens spread over the pipeline. */
double
heldKvBytesPerGpu(const engine::InferencePipeline &p)
{
    return static_cast<double>(p.kvTokensHeld()) *
           kChurnSpec.kvBytesPerToken() / p.config().gpusPerPipeline();
}

TEST(MemoryAdmissionTest, InvariantHoldsAcrossTracesAndMigrations)
{
    const cost::SeqSpec seq{};
    // Poisson, spike, and long-input workloads; the long-input one mixes
    // sequences up to 4x the planning length, which is exactly where
    // fixed-B admission would overshoot the planned footprint.
    auto poisson = [&] {
        sim::Rng rng(5);
        return wl::stationaryPoisson(0.3, 900.0, seq, rng);
    };
    auto spike = [&] {
        sim::Rng rng(6);
        return wl::fluctuating(
            [](sim::SimTime t) {
                return (t >= 300.0 && t < 420.0) ? 1.5 : 0.2;
            },
            1.0, 900.0, seq, rng);
    };
    auto longInput = [&] {
        sim::Rng rng(7);
        auto w = wl::stationaryPoisson(0.25, 900.0, seq, rng);
        const int lens[] = {512, 1024, 2048};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        return w;
    };

    int variant = 0;
    for (const auto &make : {std::function<wl::Workload()>(poisson),
                             std::function<wl::Workload()>(spike),
                             std::function<wl::Workload()>(longInput)}) {
        const auto workload = make();
        for (int chunk : {0, 256}) {
            // Reserved KV tokens within the deployed configuration's
            // budget, held within reserved, and under the memory line.
            const auto r = runSystemInvariant(
                workload, chunkedOptions(chunk),
                [](const engine::InferencePipeline &p) {
                    const long budget = kChurnMem.kvBudgetTokens(p.config());
                    const bool over = p.kvTokensReserved() > budget ||
                                      p.kvTokensHeld() > p.kvTokensReserved();
                    return (over ? 1 : 0) +
                           overGpuLine(p, heldKvBytesPerGpu(p));
                });
            EXPECT_EQ(r.violations, 0)
                << "workload " << variant << " chunk " << chunk;
            EXPECT_GT(r.checks, 0);
            EXPECT_GE(r.migrations, 2); // initial + preemption-driven
            EXPECT_EQ(r.completed, r.arrived)
                << "workload " << variant << " chunk " << chunk;
        }
        ++variant;
    }
}

// ---------------------------------------------------------------------
// Chunked-prefill edge cases
// ---------------------------------------------------------------------

TEST(ChunkedPrefillTest, InputShorterThanChunkMatchesUnchunked)
{
    auto run = [&](int chunk) {
        BudgetedServer s(model::ModelSpec::opt6_7b(),
                         par::ParallelConfig{1, 1, 4, 8},
                         engine::kUnboundedKvTokens - 1, chunk);
        s.drive({makeRequest(1, 0.0, /*input=*/256, /*output=*/16)});
        s.sim.run();
        EXPECT_EQ(s.requests.completedCount(), 1);
        return s.completedAt[1];
    };
    EXPECT_DOUBLE_EQ(run(512), run(0));
}

TEST(ChunkedPrefillTest, ExactMultipleChunksPrefillWithoutRemainder)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const par::ParallelConfig c{1, 1, 4, 8};
    const int input = 1024;
    const int chunk = 256;
    const int output = 4;

    BudgetedServer s(spec, c, engine::kUnboundedKvTokens - 1, chunk);
    s.drive({makeRequest(1, 0.0, input, output)});
    s.sim.run();
    ASSERT_EQ(s.requests.completedCount(), 1);
    EXPECT_EQ(s.pipeline->tokensCommitted(), output);

    // Exactly input/chunk prefill iterations (no zero-length remainder
    // chunk), then `output` decode iterations at growing context.
    double expected = 0.0;
    for (int prefix = 0; prefix < input; prefix += chunk)
        expected += latency.mixedIterTime(c, 1, chunk, prefix, 0, 0);
    for (int i = 0; i < output; ++i)
        expected += latency.mixedIterTime(c, 0, 0, 0, 1, input + i + 1);
    EXPECT_NEAR(s.completedAt[1], expected, expected * 1e-9);
}

TEST(ChunkedPrefillTest, HaltMidPrefillResumesCommittedChunksOnNewConfig)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const par::ParallelConfig c1{1, 1, 4, 8};
    const int input = 1024;
    const int chunk = 256;

    BudgetedServer s(spec, c1, engine::kUnboundedKvTokens - 1, chunk);
    s.drive({makeRequest(1, 0.0, input, /*output=*/8)});
    // Run past the first chunk boundary, into the second chunk.
    const double first_chunk = latency.mixedIterTime(c1, 1, chunk, 0, 0, 0);
    s.sim.run(first_chunk * 1.5);
    s.pipeline->haltNow();
    auto drained = s.pipeline->takeBatch();
    ASSERT_EQ(drained.size(), 1u);
    // The in-flight second chunk is abandoned; the first one is
    // committed and survives the halt.
    EXPECT_EQ(drained[0].prefillTokens, chunk);
    EXPECT_EQ(drained[0].committedTokens, 0);
    EXPECT_FALSE(drained[0].prefilled);

    // Requeue with committed chunks intact (cache context migrated), and
    // resume on a *different* parallel configuration.
    BudgetedServer s2(spec, par::ParallelConfig{1, 2, 2, 4},
                      engine::kUnboundedKvTokens - 1, chunk);
    s2.requests.requeue(std::move(drained));
    s2.dispatch();
    s2.sim.run();
    ASSERT_EQ(s2.requests.completedCount(), 1);
    // Only the remaining three chunks were prefilled: no restart, and
    // the resumed run is exactly one chunk cheaper than a from-scratch
    // run on the new config.
    EXPECT_EQ(s2.pipeline->tokensCommitted(), 8);
    const par::ParallelConfig c2{1, 2, 2, 4};
    double decodes = 0.0;
    for (int i = 0; i < 8; ++i)
        decodes += latency.mixedIterTime(c2, 0, 0, 0, 1, input + i + 1);
    double resumed = decodes;
    for (int prefix = chunk; prefix < input; prefix += chunk)
        resumed += latency.mixedIterTime(c2, 1, chunk, prefix, 0, 0);
    double from_scratch = decodes;
    for (int prefix = 0; prefix < input; prefix += chunk)
        from_scratch += latency.mixedIterTime(c2, 1, chunk, prefix, 0, 0);
    EXPECT_NEAR(s2.completedAt[1], resumed, resumed * 1e-9);
    EXPECT_LT(s2.completedAt[1], from_scratch);
}

TEST(ChunkedPrefillTest, DecodeStallBoundedByOneChunk)
{
    // Regression for the head-of-line-blocking bound: with chunked
    // prefill, an incumbent's worst inter-token gap is one mixed
    // iteration (one chunk's prefill + KV re-read + one decode), not the
    // newcomer's whole prefill.
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const par::ParallelConfig c{1, 1, 4, 8};
    const int long_input = 2048;
    const int chunk = 256;

    auto maxGap = [&](int chunk_tokens) {
        BudgetedServer s(spec, c, engine::kUnboundedKvTokens - 1,
                         chunk_tokens);
        double last_commit = 0.0;
        int last_tokens = 0;
        double max_gap = 0.0;
        s.pipeline = nullptr; // rebuild with a commit-tracking observer
        engine::InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [&s](const engine::ActiveRequest &r) {
            s.completedAt[r.request.id] = s.sim.now();
            s.requests.complete(r);
        };
        cb.onIdle = [&s](engine::InferencePipeline &) { s.dispatch(); };
        cb.onAdmit = [&s](engine::InferencePipeline &p, int free_slots) {
            return s.requests.admitAtBoundary(free_slots, p.freeKvTokens());
        };
        cb.onBoundary = [&](const engine::InferencePipeline &p) {
            for (const auto &r : p.batch()) {
                if (r.request.id != 1)
                    continue;
                if (r.committedTokens > last_tokens) {
                    if (last_tokens > 0)
                        max_gap =
                            std::max(max_gap, s.sim.now() - last_commit);
                    last_tokens = r.committedTokens;
                    last_commit = s.sim.now();
                }
            }
        };
        engine::BatchingOptions batching;
        batching.prefillChunkTokens = chunk_tokens;
        s.pipeline = std::make_unique<engine::InferencePipeline>(
            s.sim, s.latency, c, 0, std::move(cb), batching);
        s.drive({makeRequest(1, 0.0, 512, 64),
                 makeRequest(2, 2.0, long_input, 8)});
        s.sim.run();
        EXPECT_EQ(s.requests.completedCount(), 2);
        return max_gap;
    };

    const double unchunked = maxGap(0);
    const double chunked = maxGap(chunk);
    // One chunk's worth of mixed iteration bounds the chunked stall...
    const double bound =
        latency.mixedIterTime(c, 1, chunk, long_input - chunk, 1,
                              512 + 64 + 1);
    EXPECT_LE(chunked, bound * (1.0 + 1e-9));
    // ...while the unchunked stall pays the whole 2048-token prefill.
    EXPECT_GT(unchunked, chunked);
    EXPECT_GE(unchunked,
              latency.mixedIterTime(c, 1, long_input, 0, 1, 512 + 1));
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
    mgr.submit(makeRequest(1, 0.0, 1000, 100)); // peak 1100
    mgr.submit(makeRequest(2, 1.0, 100, 10));   // peak 110
    mgr.submit(makeRequest(3, 2.0, 100, 10));   // peak 110

    // Head does not fit: nothing admits, even though the small ones fit.
    EXPECT_TRUE(mgr.admitAtBoundary(4, 1000).empty());
    EXPECT_EQ(mgr.midBatchAdmissions(), 0);
    EXPECT_EQ(mgr.pendingCount(), 3u);

    // Once the head fits, it leads and the rest follow in order.
    const auto got = mgr.admitAtBoundary(4, 1210);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].request.id, 1);
    EXPECT_EQ(got[1].request.id, 2);
    EXPECT_EQ(mgr.midBatchAdmissions(), 2);
}

TEST(FifoFairnessTest, LargeHeadIsNotStarvedUnderTightBudget)
{
    // End to end: small requests keep arriving behind a large one under
    // a budget that fits either the large request alone or a few small
    // ones.  The large request must be admitted (in arrival order) and
    // complete; admission order must equal arrival order throughout.
    const long budget = 1600; // large peak 1280; small peak 320
    BudgetedServer s(model::ModelSpec::opt6_7b(),
                     par::ParallelConfig{1, 1, 4, 8}, budget, /*chunk=*/0);
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
// Shared popAdmissible bookkeeping (bugfix)
// ---------------------------------------------------------------------

TEST(AdmissionBookkeepingTest, BothPopPathsAgreeAndCountConsistently)
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

    // Same budget, same slots: idle-batch formation and boundary
    // admission pop the identical FIFO prefix (shared popAdmissible)...
    const long budget = 2 * 640 + 100; // two requests fit
    const auto batch = a.nextBatch(3, budget);
    const auto admitted = b.admitAtBoundary(3, budget);
    ASSERT_EQ(batch.size(), 2u);
    ASSERT_EQ(admitted.size(), 2u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batch[i].request.id, admitted[i].request.id);

    // ...but only boundary admission counts as mid-batch admission.
    EXPECT_EQ(a.midBatchAdmissions(), 0);
    EXPECT_EQ(b.midBatchAdmissions(), 2);

    // Unbudgeted defaults remain slot-limited only.
    EXPECT_EQ(a.nextBatch(5).size(), 2u);
    EXPECT_EQ(b.admitAtBoundary(5).size(), 2u);
    EXPECT_EQ(b.midBatchAdmissions(), 4);
}

TEST(AdmissionBookkeepingTest, RequeuePreservesPrefillChunksOnly)
{
    sim::Simulation sim;
    serving::RequestManager mgr(sim);
    engine::ActiveRequest mid;
    mid.request = makeRequest(7, 0.0, 1024, 128);
    mid.prefillTokens = 512; // two committed chunks, no output yet
    mgr.requeue({mid});
    const auto got = mgr.nextBatch(1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].prefillTokens, 512);

    engine::ActiveRequest decoded = mid;
    decoded.committedTokens = 3;
    EXPECT_THROW(mgr.requeue({decoded}), std::invalid_argument);
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
    using BaseServingSystem::replicaKvBudget;
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
    const long budget = system.replicaKvBudget(config);

    system.onRequestArrival(makeRequest(
        0, sim.now(), static_cast<int>(budget) + 1, 100)); // unservable
    system.onRequestArrival(makeRequest(1, sim.now()));    // normal
    EXPECT_EQ(requests.rejectedCount(), 1);
    sim.run();
    EXPECT_EQ(requests.completedCount(), 1);
    EXPECT_EQ(requests.completions().front().id, 1);
}

// ---------------------------------------------------------------------
// Optimistic admission: predictor, eviction, watermarks
// ---------------------------------------------------------------------

/**
 * Engine-level harness for the optimistic mode: one pipeline fed from a
 * RequestManager with predictor-charged admission, eviction wired back
 * into the queue through the shared restart path, and the *held*-KV
 * invariant (the one optimistic mode guarantees) checked at every
 * boundary.
 */
struct OptimisticServer
{
    sim::Simulation sim;
    model::ModelSpec spec;
    cost::LatencyModel latency;
    par::ParallelConfig config;
    serving::RequestManager requests{sim};
    std::unique_ptr<engine::InferencePipeline> pipeline;

    engine::KvAdmissionMode mode;
    long budget;
    int blockTokens;
    long budgetBlocks;
    long boundaries = 0;
    long violations = 0;
    long blockViolations = 0;
    /** Boundaries where a block = 1 pipeline's block-space accessors
     *  diverged from the token accessors they must degenerate to. */
    long tokenEquivalenceViolations = 0;
    int peakConcurrency = 0;
    std::map<wl::RequestId, sim::SimTime> completedAt;

    OptimisticServer(const model::ModelSpec &model_spec,
                     const par::ParallelConfig &cfg, long kv_budget,
                     int chunk_tokens, engine::KvAdmissionMode admission_mode,
                     int block_tokens = 1)
        : spec(model_spec), latency(spec, kParams), config(cfg),
          mode(admission_mode), budget(kv_budget),
          // The shared engine rule: budgets smaller than one block
          // degrade to token accounting.
          blockTokens(engine::effectiveKvBlockTokens(kv_budget,
                                                     block_tokens)),
          budgetBlocks(kv_budget == engine::kUnboundedKvTokens
                           ? engine::kUnboundedKvBlocks
                           : kv_budget / blockTokens)
    {
        engine::InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [this](const engine::ActiveRequest &r) {
            completedAt[r.request.id] = sim.now();
            requests.complete(r);
        };
        cb.onIdle = [this](engine::InferencePipeline &) { dispatch(); };
        cb.onAdmit = [this](engine::InferencePipeline &p, int free_slots) {
            return requests.admitAtBoundary(free_slots, p.freeKvBlocks(),
                                            mode, engine::kUnboundedKvBlocks,
                                            blockTokens);
        };
        cb.onBoundary = [this](const engine::InferencePipeline &p) {
            ++boundaries;
            // Optimistic mode promises the *held* tokens never exceed the
            // budget at a boundary (worst-case reservations may).
            if (p.kvTokensHeld() > budget)
                ++violations;
            // The paged invariant: ceil-rounded held blocks never exceed
            // the whole blocks the budget can actually hand out.
            if (p.kvBlocksHeld() > budgetBlocks)
                ++blockViolations;
            // At block = 1 every block accessor must equal the token
            // accessor it generalises — checked against live batches,
            // where a per-chunk-rounding regression would show up.
            if (blockTokens == 1 &&
                (p.kvBlocksHeld() != p.kvTokensHeld() ||
                 p.kvBlocksCharged() != p.kvTokensCharged() ||
                 p.kvBlocksReserved() != p.kvTokensReserved() ||
                 p.freeKvBlocks() != p.freeKvTokens()))
                ++tokenEquivalenceViolations;
            peakConcurrency = std::max(peakConcurrency,
                                       static_cast<int>(p.batch().size()));
        };
        cb.onEvict = [this](engine::InferencePipeline &,
                            std::vector<engine::ActiveRequest> evicted) {
            requests.requeueRestarted(std::move(evicted));
        };
        engine::BatchingOptions batching;
        batching.kvBudgetTokens = budget;
        batching.kvBlockTokens = blockTokens;
        batching.prefillChunkTokens = chunk_tokens;
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
            requests.nextBatch(config.batch, pipeline->freeKvBlocks(), mode,
                               engine::kUnboundedKvBlocks, blockTokens);
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
    // tokens and caps concurrency at 3; optimistic learns outputs finish
    // near 32 tokens and packs the replica, admitting strictly higher
    // peak concurrency and completing strictly more requests per unit
    // time — while the held-KV <= budget invariant holds at every
    // boundary and every request still completes (no starvation).
    const long budget = 3 * 1024;
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
        OptimisticServer s(model::ModelSpec::opt6_7b(),
                           par::ParallelConfig{1, 1, 4, 8}, budget,
                           /*chunk=*/0, mode);
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
    // Poisson, spike, and long-input early-stopping workloads, chunked
    // and unchunked: held KV stays under the budget at every boundary
    // and every request completes, evictions or not.
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
        for (int chunk : {0, 128}) {
            OptimisticServer s(model::ModelSpec::opt6_7b(),
                               par::ParallelConfig{1, 1, 4, 8},
                               /*budget=*/2600, chunk,
                               engine::KvAdmissionMode::Optimistic);
            s.drive(workload);
            s.sim.run();
            EXPECT_EQ(s.violations, 0)
                << "workload " << variant << " chunk " << chunk;
            EXPECT_GT(s.boundaries, 0);
            EXPECT_EQ(s.requests.completedCount(),
                      static_cast<long>(workload.size()))
                << "workload " << variant << " chunk " << chunk;
        }
        ++variant;
    }
}

TEST(OptimisticAdmissionTest, NoLivelockUnderSustainedOverload)
{
    // Sustained overload with a deceptive length mix: most outputs are
    // tiny, a quarter run to the full cap, so the warm predictor
    // under-charges the long ones and evictions are inevitable.  The
    // storm guard (evicted requests re-admit at their full worst case)
    // plus the protected oldest member must keep every admitted request
    // completing — no livelock, no starvation — with held KV under the
    // budget throughout.
    const long budget = 1200; // two full-cap peaks (512) plus slack
    OptimisticServer s(model::ModelSpec::opt6_7b(),
                       par::ParallelConfig{1, 1, 4, 8}, budget, /*chunk=*/0,
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
    // admit too much; watermark eviction must shed the youngest victims,
    // keep held KV under the budget at every boundary, and still finish
    // the whole burst.
    const long budget = 1400;
    OptimisticServer s(model::ModelSpec::opt6_7b(),
                       par::ParallelConfig{1, 1, 4, 8}, budget, /*chunk=*/0,
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

TEST(OptimisticAdmissionTest, DecodePriorityYieldsPrefillUnderPressure)
{
    // Deterministic watermark-pressure scenario (hand-built batch): two
    // deep decodes approaching the high watermark share the replica with
    // a newcomer still in chunked prefill.  The moment the next step's
    // growth would cross the high watermark, the prefill must yield its
    // mixed-iteration slot (decode-priority) so the incumbents keep
    // committing; the held tokens never exceed the budget.
    //   budget 1500 -> high 1407, low 1220 (deriveKvWatermarks, B=8).
    const long budget = 1500;
    OptimisticServer s(model::ModelSpec::opt6_7b(),
                       par::ParallelConfig{1, 1, 4, 8}, budget,
                       /*chunk=*/16, engine::KvAdmissionMode::Optimistic);
    std::vector<engine::ActiveRequest> batch(3);
    // Two incumbents: 512 input, 90 of 200 output tokens committed,
    // predicted to stop at 95 (held 602, charged 607 each).
    for (int i = 0; i < 2; ++i) {
        batch[i].request = makeCapped(i, 0.0, 512, 200, 512);
        batch[i].committedTokens = 90;
        batch[i].predictedOutputTokens = 95;
    }
    // The newcomer: 256 input in 16-token chunks, predicted 24 output
    // (charged 280; total charge 1494 <= budget).
    batch[2].request = makeCapped(2, 1.0, 256, 24, 256);
    batch[2].predictedOutputTokens = 24;
    s.pipeline->startBatch(std::move(batch));
    s.sim.run();

    EXPECT_EQ(s.violations, 0);
    EXPECT_EQ(s.requests.completedCount(), 3);
    // The prefill yielded at least once while the incumbents pushed the
    // held tokens toward the watermark.
    EXPECT_GT(s.pipeline->prefillYields(), 0);
}

TEST(OptimisticAdmissionTest, EvictionClearsYieldWhenLastDecoderLeaves)
{
    // Regression: watermark pressure defers a mid-prefill oldest member
    // while deep decodes push the held tokens to the budget; the eviction
    // that sheds a decoder must re-decide the yield so the surviving
    // prefiller is not left frozen (the old single-decision code could
    // strand a batch with nothing runnable and schedule an empty
    // iteration).
    //   budget 1900 -> high 1782 (deriveKvWatermarks, B=8).
    const long budget = 1900;
    OptimisticServer s(model::ModelSpec::opt6_7b(),
                       par::ParallelConfig{1, 1, 4, 8}, budget,
                       /*chunk=*/128, engine::KvAdmissionMode::Optimistic);
    std::vector<engine::ActiveRequest> batch(3);
    // Oldest member: mid-prefill (256 of 512 committed), short output.
    batch[0].request = makeCapped(0, 0.0, 512, 24, 256);
    batch[0].prefillTokens = 256;
    batch[0].predictedOutputTokens = 24;
    // Two deep decodes predicted to stop at 160 but running to 400.
    for (int i = 1; i < 3; ++i) {
        batch[i].request = makeCapped(i, static_cast<double>(i), 500, 400,
                                      600);
        batch[i].committedTokens = 150;
        batch[i].predictedOutputTokens = 160;
    }
    s.pipeline->startBatch(std::move(batch));
    s.sim.run();

    EXPECT_EQ(s.violations, 0);
    EXPECT_EQ(s.requests.completedCount(), 3);
    EXPECT_GT(s.pipeline->prefillYields(), 0);
    EXPECT_GE(s.pipeline->evictionsPerformed(), 1);
}

// ---------------------------------------------------------------------
// Optimistic admission at the system level (migrations, mid-prefill)
// ---------------------------------------------------------------------

TEST(OptimisticSystemTest, InvariantHoldsAcrossMigrationsWithEarlyStopping)
{
    // Early-stopping workload (cap 4x the planning output) across the
    // churn trace, unchunked and chunked — the chunked variant drives
    // evicted-and-requeued work and mid-prefill requests through the
    // migration inheritance path (committed chunks ride the inherited
    // batch; optimistic trimming charges them under the active mode).
    auto make = [] {
        sim::Rng rng(21);
        auto w = wl::stationaryPoisson(0.3, 900.0, cost::SeqSpec{}, rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
        return w;
    };
    const auto workload = make();
    for (int chunk : {0, 256}) {
        const auto options = chunkedOptions(chunk);
        EXPECT_EQ(options.engine.kvAdmissionMode,
                  engine::KvAdmissionMode::Optimistic)
            << "optimistic admission should be the default";
        // Held KV tokens within the budget and under the memory line.
        const auto r = runSystemInvariant(
            workload, options, [](const engine::InferencePipeline &p) {
                const long budget = kChurnMem.kvBudgetTokens(p.config());
                return (p.kvTokensHeld() > budget ? 1 : 0) +
                       overGpuLine(p, heldKvBytesPerGpu(p));
            });
        EXPECT_EQ(r.violations, 0) << "chunk " << chunk;
        EXPECT_GT(r.checks, 0);
        EXPECT_GE(r.migrations, 2); // initial + preemption-driven
        EXPECT_EQ(r.completed, r.arrived) << "chunk " << chunk;
    }
}

TEST(OptimisticSystemTest, MispredictedOutputsEvictThroughTheServingSystem)
{
    // The serving-level eviction path: a deployed replica's pipeline
    // evicts at watermark pressure and BaseServingSystem's onEvict
    // requeues the victims.  The predictor is primed on short outputs,
    // so admission packs the replica on ~16-token charges; the actual
    // outputs run close to their cap and outgrow the KV budget.
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    serving::EngineOptions engine;
    engine.kvBlockTokens = testBlockTokens();
    TestSystem system(sim, instances, requests, spec, engine);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 1}}));
    sim.run(1.0);
    const par::ParallelConfig config{1, 1, 4, 32};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));
    const long budget = system.replicaKvBudget(config);

    for (int i = 0; i < 32; ++i)
        requests.outputPredictor().observe(16);
    ASSERT_TRUE(requests.outputPredictor().warm());

    // Every request fits the budget alone at its worst case (so none is
    // rejected), but the batch's actual growth does not fit together.
    const int input = 512;
    const int cap = static_cast<int>(budget / 8) - input;
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
    // admitted it could outgrow the budget as the protected oldest
    // member with no eviction able to help.
    const auto spec = model::ModelSpec::opt6_7b();
    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    TestSystem system(sim, instances, requests, spec);

    instances.loadTrace(AvailabilityTrace(
        "steady", 100.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 2}}));
    sim.run(1.0);
    // Single replica: no idle peer to balance onto, so the boundary
    // admission path is exercised in isolation.
    const par::ParallelConfig config{1, 2, 2, 8};
    system.installDeployment(config,
                             system.packedMesh(config,
                                               instances.usableInstances()));
    const long budget = system.replicaKvBudget(config);

    // Warm predictor expecting ~16-token outputs, so the optimistic
    // charge of the oversized request would comfortably fit the budget.
    for (int i = 0; i < 32; ++i)
        requests.outputPredictor().observe(16);
    requests.submit(makeCapped(0, sim.now(), 512, 16,
                               static_cast<int>(budget)));
    ASSERT_GT(engine::ActiveRequest{requests.pending().front()}
                  .kvPeakTokens(),
              budget);

    auto &pipeline = *system.deployment().pipelines[0];
    const auto admitted = system.admitAtBoundary(pipeline, 4);
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(requests.rejectedCount(), 1);
    EXPECT_TRUE(requests.pendingEmpty());

    // The multi-pop gap: an oversized request *behind* a normal head
    // must not slip through when the pop exposes it mid-call — the
    // shared pop head-blocks on it, and the next admission pass rejects
    // it once it is the head.
    requests.submit(makeCapped(1, sim.now(), 512, 16, 128)); // normal
    requests.submit(makeCapped(2, sim.now(), 512, 16,
                               static_cast<int>(budget))); // oversized
    requests.submit(makeCapped(3, sim.now(), 512, 16, 128)); // normal
    const auto second = system.admitAtBoundary(pipeline, 4);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].request.id, 1);
    EXPECT_EQ(requests.rejectedCount(), 1); // not yet at the head check
    const auto third = system.admitAtBoundary(pipeline, 4);
    ASSERT_EQ(third.size(), 1u);
    EXPECT_EQ(third[0].request.id, 3);
    EXPECT_EQ(requests.rejectedCount(), 2); // oversized dropped, not admitted
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
    const long opt = system.replicaKvBudget(config);
    system.setMemOptReserve(false);
    const long naive = system.replicaKvBudget(config);
    EXPECT_LT(naive, opt);
    const cost::MemoryModel mem(spec, kParams);
    EXPECT_EQ(opt, mem.kvBudgetTokens(config, true));
    EXPECT_EQ(naive, mem.kvBudgetTokens(config, false));
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
    const long budget = 1000;
    const par::ParallelConfig cfg{1, 1, 4, 12};
    wl::Workload workload;
    for (int i = 0; i < 10; ++i)
        workload.push_back(makeRequest(i, 0.01 * i, /*input=*/90,
                                       /*output=*/10)); // peak 100 tokens
    auto run = [&](int pipeline_blk) {
        // The observer always checks the 16-token paged invariant,
        // whatever granularity the pipeline enforces.
        BudgetedServer s(model::ModelSpec::opt6_7b(), cfg, budget,
                         /*chunk=*/0, /*enforce=*/true, pipeline_blk,
                         /*observe_block_tokens=*/16);
        s.drive(workload);
        s.sim.run();
        EXPECT_EQ(s.requests.completedCount(), 10);
        EXPECT_EQ(s.violations, 0); // token invariant holds either way
        return s.blockViolations;
    };
    EXPECT_GT(run(1), 0);  // token-granular admission breaks the paged line
    EXPECT_EQ(run(16), 0); // block-granular admission holds it
}

TEST(BlockAdmissionTest, DegenerateBudgetKeepsTokenGranularity)
{
    // A (loudly warned) budget smaller than one block — the no-headroom
    // clamp path — must degrade to token granularity, not round up to a
    // whole block: a 10-token budget under 16-token blocks would
    // otherwise become a 1-block = 16-token budget and admit a request
    // into a replica the memory model says has no real headroom.
    BudgetedServer s(model::ModelSpec::opt6_7b(),
                     par::ParallelConfig{1, 1, 4, 8}, /*budget=*/10,
                     /*chunk=*/0, /*enforce=*/true, /*block=*/16);
    EXPECT_EQ(s.pipeline->kvBlockTokens(), 1);
    EXPECT_EQ(s.pipeline->kvBudgetBlocks(), 10);
    // Peak 12 tokens: fits one 16-token block, but NOT the 10 tokens
    // that actually exist — it must starve exactly as the token path
    // always did.
    s.drive({makeRequest(1, 0.0, /*input=*/8, /*output=*/4)});
    s.sim.run();
    EXPECT_EQ(s.requests.completedCount(), 0);
    EXPECT_EQ(s.requests.pendingCount(), 1u);
    EXPECT_EQ(s.violations, 0);
}

TEST(BlockAdmissionTest, BlockOneReproducesTokenPathExactly)
{
    // kvBlockTokens = 1 is the ablation that must reproduce the
    // token-granular path bit-for-bit: identical admission order,
    // identical completion times, identical boundary counts — and the
    // block-space accessors must equal the token accessors at every
    // boundary.
    const long budget = 2600;
    auto workload = [] {
        sim::Rng rng(33);
        auto w = wl::stationaryPoisson(0.8, 120.0, cost::SeqSpec{256, 64},
                                       rng);
        wl::capOutputs(w, 256, 8, 64, rng);
        return w;
    }();
    auto run = [&](int blk, long &boundaries,
                   std::vector<wl::RequestId> &order) {
        OptimisticServer s(model::ModelSpec::opt6_7b(),
                           par::ParallelConfig{1, 1, 4, 8}, budget,
                           /*chunk=*/128,
                           engine::KvAdmissionMode::Optimistic, blk);
        if (blk == 1) {
            // At block = 1 the block budget degenerates to the token
            // budget the PR 3 path enforced.
            EXPECT_EQ(s.pipeline->kvBudgetBlocks(), budget);
        }
        s.drive(workload);
        s.sim.run();
        if (blk == 1)
            EXPECT_EQ(s.tokenEquivalenceViolations, 0);
        boundaries = s.boundaries;
        order.clear();
        for (const auto &[id, t] : s.completedAt)
            order.push_back(id);
        return s.completedAt;
    };
    long b1 = 0, b2 = 0;
    std::vector<wl::RequestId> o1, o2;
    const auto token_times = run(1, b1, o1);
    // A second, independent run through the same block=1 path must be
    // bit-identical (pins determinism of the ablation baseline)...
    const auto again = run(1, b2, o2);
    EXPECT_EQ(b1, b2);
    ASSERT_EQ(token_times.size(), again.size());
    for (const auto &[id, t] : token_times) {
        auto it = again.find(id);
        ASSERT_NE(it, again.end());
        EXPECT_DOUBLE_EQ(t, it->second) << "request " << id;
    }
    EXPECT_EQ(token_times.size(), workload.size());
}

TEST(BlockAdmissionTest, HeldBlocksInvariantEngineMatrix)
{
    // Engine-level matrix: Poisson / spike / long-input early-stopping
    // workloads, chunked and unchunked, both admission modes, at the
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

    const int blk = 16;
    int variant = 0;
    for (const auto &make : {std::function<wl::Workload()>(poisson),
                             std::function<wl::Workload()>(spike),
                             std::function<wl::Workload()>(longInput)}) {
        const auto workload = make();
        for (int chunk : {0, 128}) {
            for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                    engine::KvAdmissionMode::Optimistic}) {
                OptimisticServer s(model::ModelSpec::opt6_7b(),
                                   par::ParallelConfig{1, 1, 4, 8},
                                   /*budget=*/2600, chunk, mode, blk);
                s.drive(workload);
                s.sim.run();
                EXPECT_EQ(s.blockViolations, 0)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode);
                EXPECT_EQ(s.violations, 0)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode);
                EXPECT_GT(s.boundaries, 0);
                EXPECT_EQ(s.requests.completedCount(),
                          static_cast<long>(workload.size()))
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode);
            }
        }
        ++variant;
    }
}

TEST(BlockSystemTest, HeldBlocksInvariantAcrossTracesAndMigrations)
{
    // Full-system matrix at the paged block size (or the value CI
    // injects via SPOTSERVE_TEST_KV_BLOCK_TOKENS): Poisson, spike and
    // long-input early-stopping workloads across preemption-driven
    // migrations, chunked and unchunked, both admission modes — the
    // inherited mid-prefill batches of the chunked runs are trimmed in
    // block space against the inheriting replica.
    const cost::SeqSpec seq{};
    const int blk = testBlockTokens();
    auto poisson = [&] {
        sim::Rng rng(61);
        auto w = wl::stationaryPoisson(0.3, 900.0, seq, rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
        return w;
    };
    auto spike = [&] {
        sim::Rng rng(62);
        auto w = wl::fluctuating(
            [](sim::SimTime t) {
                return (t >= 300.0 && t < 420.0) ? 1.2 : 0.2;
            },
            1.0, 900.0, seq, rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
        return w;
    };
    auto longInput = [&] {
        sim::Rng rng(63);
        auto w = wl::stationaryPoisson(0.25, 900.0, seq, rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
        const int lens[] = {512, 1024, 2048};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        return w;
    };

    int variant = 0;
    for (const auto &make : {std::function<wl::Workload()>(poisson),
                             std::function<wl::Workload()>(spike),
                             std::function<wl::Workload()>(longInput)}) {
        const auto workload = make();
        for (int chunk : {0, 256}) {
            for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                    engine::KvAdmissionMode::Optimistic}) {
                auto options = chunkedOptions(chunk);
                options.engine.kvAdmissionMode = mode;
                options.engine.kvBlockTokens = blk;
                // Ceil-rounded held blocks (and, in Reserve mode, the
                // reservations) fit the block budget, and the
                // bottleneck stage stays under the memory line: it holds
                // ceil(L/P) layers of weights and of every held block.
                const auto r = runSystemInvariant(
                    workload, options,
                    [mode, blk](const engine::InferencePipeline &p) {
                        const auto &c = p.config();
                        const long budget = kChurnMem.kvBudgetBlocks(c, blk);
                        long v = p.kvBlocksHeld() > budget ? 1 : 0;
                        if (mode == engine::KvAdmissionMode::Reserve &&
                            p.kvBlocksReserved() > budget)
                            ++v;
                        const int bl =
                            (kChurnSpec.numLayers() + c.pp - 1) / c.pp;
                        const double kv_bytes =
                            static_cast<double>(p.kvBlocksHeld()) * blk *
                            kChurnSpec.kvBytesPerTokenPerLayer() * bl / c.tp;
                        return v + overGpuLine(p, kv_bytes);
                    });
                EXPECT_EQ(r.violations, 0)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode) << " blk " << blk;
                EXPECT_GT(r.checks, 0);
                EXPECT_GE(r.migrations, 2); // initial + preemption-driven
                EXPECT_EQ(r.completed, r.arrived)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode) << " blk " << blk;
            }
        }
        ++variant;
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
