/**
 * @file
 * Refcounted paged-KV block store: radix prefix sharing over whole
 * blocks.
 *
 * Store unit tests pin the refcount/index semantics (full-block sharing,
 * an unaligned prefix's partial tail kept private, cached-block LRU
 * reclaim, the radix walk stopping at a reclaimed level, carry dedup for
 * migrated-in batches and the migration trim's cohort charge).  The
 * system-level matrix runs SpotServe over the churn trace with
 * shared-prefix workloads in both admission modes,
 * asserting at every boundary of every replica that the
 * *physical* (deduplicated) block holding fits the block budget and that
 * no reference leaks (the store's live refs equal the batch's block-id
 * holdings).  The oracle pin checks, at every boundary of a prefix-free
 * churn run, that the store's physical accounting collapses to the
 * per-request block formulas when nothing exists to share; the sharing
 * ablation compares a shared-prefix workload against a copy with the
 * prefix ids stripped.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include <stdexcept>

#include "baselines/rerouting_system.h"
#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "costmodel/memory_model.h"
#include "engine/inference_pipeline.h"
#include "engine/kv_block_store.h"
#include "model/model_spec.h"
#include "serving/experiment.h"
#include "serving/request_manager.h"
#include "simcore/simulation.h"
#include "workload/workload.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

engine::ActiveRequest
makeActive(wl::RequestId id, int input_len, int output_len, int prefix_id,
           int prefix_len)
{
    engine::ActiveRequest r;
    r.request.id = id;
    r.request.inputLen = input_len;
    r.request.outputLen = output_len;
    r.request.prefixId = prefix_id;
    r.request.prefixLen = prefix_len;
    return r;
}

/** Commit @p r's progress up to @p prefill input and @p output tokens
 *  and extend its blocks, as a pipeline boundary would. */
void
commitTo(engine::KvBlockStore &store, engine::ActiveRequest &r, int prefill,
         int output)
{
    r.prefillTokens = prefill;
    r.prefilled = r.prefillTokens >= r.request.inputLen;
    r.committedTokens = output;
    store.commitProgress(r);
}

// ---------------------------------------------------------------------
// Store unit tests
// ---------------------------------------------------------------------

TEST(KvBlockStoreTest, FullBlockSharingRefcountsAndCaching)
{
    // The two-argument constructor accepts only the one block size.
    EXPECT_NO_THROW(engine::KvBlockStore(100, engine::kKvBlockTokens));
    EXPECT_THROW(engine::KvBlockStore(100, 1), std::invalid_argument);

    engine::KvBlockStore store(/*capacity=*/100);

    // First writer of class 0: no match, computes everything, publishes
    // the two complete prefix levels on commit.
    auto a = makeActive(1, /*input=*/64, /*output=*/8, /*prefix_id=*/0,
                        /*prefix_len=*/32);
    EXPECT_EQ(store.quoteSharedBlocks(a), 0);
    EXPECT_EQ(store.attach(a), 0);
    commitTo(store, a, 64, 0);
    EXPECT_EQ(store.liveBlocks(), 4);
    EXPECT_EQ(store.totalLiveRefs(), 4);
    EXPECT_EQ(store.prefixHits(), 0);

    // Classmate: both prefix levels are live -> quoted, matched without
    // compute; its non-prefix levels stay private.
    auto b = makeActive(2, 64, 8, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(b), 2);
    EXPECT_EQ(store.attach(b), 32);
    EXPECT_EQ(b.prefillTokens, 32);
    EXPECT_EQ(store.prefixHits(), 1);
    EXPECT_EQ(store.prefixMatchedTokens(), 32);
    EXPECT_EQ(store.liveBlocks(), 4); // shared levels counted once
    EXPECT_EQ(store.totalLiveRefs(), 6);
    commitTo(store, b, 64, 0);
    EXPECT_EQ(store.liveBlocks(), 6);
    ASSERT_EQ(b.kvBlockIds.size(), 4u);
    EXPECT_EQ(a.kvBlockIds[0], b.kvBlockIds[0]);
    EXPECT_EQ(a.kvBlockIds[1], b.kvBlockIds[1]);
    EXPECT_NE(a.kvBlockIds[2], b.kvBlockIds[2]);

    // Releasing one sharer keeps the shared levels live; releasing both
    // demotes them to cached (warm, still physical) instead of freeing.
    store.release(a);
    EXPECT_EQ(store.liveBlocks(), 4);
    EXPECT_EQ(store.cachedBlocks(), 0);
    store.release(b);
    EXPECT_EQ(store.liveBlocks(), 0);
    EXPECT_EQ(store.cachedBlocks(), 2);
    EXPECT_EQ(store.totalLiveRefs(), 0);

    // A cached hit still skips the compute but is NOT quoted: reviving
    // the blocks consumes budget again, so admission must charge them.
    auto c = makeActive(3, 64, 8, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(c), 0);
    EXPECT_EQ(store.attach(c), 32);
    EXPECT_EQ(store.prefixHits(), 2);
    EXPECT_EQ(store.liveBlocks(), 2);
    EXPECT_EQ(store.cachedBlocks(), 0);
    store.release(c);
}

TEST(KvBlockStoreTest, UnalignedPrefixSharesOnlyItsFullBlocks)
{
    engine::KvBlockStore store(100);

    // prefixLen 24 = one full level + an 8-token tail inside level 1.
    auto a = makeActive(1, /*input=*/40, /*output=*/8, 0, /*prefix_len=*/24);
    store.attach(a);
    commitTo(store, a, 40, 0); // 3 blocks; only level 0 is indexed
    EXPECT_EQ(store.liveBlocks(), 3);
    const std::vector<int> a_blocks = a.kvBlockIds;

    // The classmate is quoted and granted the full level only: the tail
    // is recomputed into a private block, so no block is ever written by
    // two requests and nothing is copied.
    auto b = makeActive(2, /*input=*/50, 8, 0, 24);
    EXPECT_EQ(store.quoteSharedBlocks(b), 1);
    EXPECT_EQ(store.attach(b), 16);
    EXPECT_EQ(b.prefillTokens, 16);
    ASSERT_EQ(b.kvBlockIds.size(), 1u);
    EXPECT_EQ(b.kvBlockIds[0], a.kvBlockIds[0]);
    EXPECT_EQ(store.liveBlocks(), 3);
    commitTo(store, b, 50, 0);
    ASSERT_EQ(b.kvBlockIds.size(), 4u); // ceil(50/16)
    EXPECT_NE(b.kvBlockIds[1], a.kvBlockIds[1]); // b's own level 1
    EXPECT_EQ(store.liveBlocks(), 6);            // 1 shared + 2 + 3 private
    commitTo(store, b, 50, 8);
    EXPECT_EQ(store.liveBlocks(), 6);
    EXPECT_EQ(store.totalLiveRefs(), 7);
    EXPECT_EQ(a.kvBlockIds, a_blocks); // the first writer's blocks untouched

    // Only the full level stays cached once both leave; the tails free.
    store.release(a);
    store.release(b);
    EXPECT_EQ(store.totalLiveRefs(), 0);
    EXPECT_EQ(store.cachedBlocks(), 1);
}

TEST(KvBlockStoreTest, CachedBlocksReclaimedLruAndLiveOveruseThrows)
{
    engine::KvBlockStore store(/*capacity=*/4);

    // Two classes fill the capacity with cached prefix blocks.
    auto a = makeActive(1, 32, 8, 0, 32);
    store.attach(a);
    commitTo(store, a, 32, 0);
    store.release(a); // class 0 levels cached (older)
    auto b = makeActive(2, 32, 8, 1, 32);
    store.attach(b);
    commitTo(store, b, 32, 0);
    store.release(b); // class 1 levels cached (newer)
    EXPECT_EQ(store.cachedBlocks(), 4);
    EXPECT_EQ(store.physicalBlocks(), 4);

    // A third class needs room: the LRU (class 0) blocks are reclaimed,
    // the warmer class 1 survives.
    auto c = makeActive(3, 32, 8, 2, 32);
    store.attach(c);
    commitTo(store, c, 32, 0);
    EXPECT_EQ(store.cachedReclaims(), 2);
    EXPECT_LE(store.physicalBlocks(), 4);
    auto d0 = makeActive(4, 32, 8, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(d0), 0); // class 0 evicted
    auto d1 = makeActive(5, 32, 8, 1, 32);
    store.attach(d1); // class 1 still matches (cached revival)
    EXPECT_EQ(d1.prefillTokens, 32);
    store.release(c);
    store.release(d1);

    // When every resident block is live, exceeding the capacity is an
    // accounting bug upstream and must throw, not over-allocate.
    engine::KvBlockStore tight(/*capacity=*/2, 16);
    auto big = makeActive(6, 48, 8, -1, 0);
    tight.attach(big);
    big.prefillTokens = 48;
    EXPECT_THROW(tight.commitProgress(big), std::logic_error);
}

TEST(KvBlockStoreTest, CarriedBatchesDeduplicateSharedLevels)
{
    engine::KvBlockStore store(100);

    // Two migrated-in classmates arrive with committed progress (the
    // inherited-batch path): each shared prefix level materializes once
    // on the inheriting replica, later carriers take references.
    auto a = makeActive(1, 64, 8, 0, 32);
    a.prefillTokens = 64;
    EXPECT_EQ(store.attach(a), 0); // carries never count as prefix hits
    EXPECT_EQ(store.liveBlocks(), 4);
    auto b = makeActive(2, 64, 8, 0, 32);
    b.prefillTokens = 64;
    EXPECT_EQ(store.attach(b), 0);
    EXPECT_EQ(store.carryDedupBlocks(), 2);
    EXPECT_EQ(store.liveBlocks(), 6); // 2 shared + 2+2 private
    EXPECT_EQ(store.prefixHits(), 0);
    EXPECT_EQ(a.kvBlockIds[0], b.kvBlockIds[0]);
    EXPECT_EQ(a.kvBlockIds[1], b.kvBlockIds[1]);
    store.release(a);
    store.release(b);
    EXPECT_EQ(store.totalLiveRefs(), 0);
}

// Migration trimming: a carried cohort is charged each shared prefix
// block once, the same sum a pipeline checks when the batch starts.
TEST(KvBlockStoreTest, CarriedCohortChargesSharedLevelsOnce)
{
    // Three classmates mid-decode: 512-token inputs whose first 256
    // tokens (16 blocks) are the class prefix, 10 of 32 output tokens
    // committed.  Each holds 33 blocks and peaks at 34.
    auto carried = [](int prefix_id) {
        std::vector<engine::ActiveRequest> cohort;
        for (int i = 0; i < 3; ++i) {
            auto r = makeActive(i, 512, 32, prefix_id, prefix_id < 0 ? 0 : 256);
            r.prefillTokens = 512;
            r.committedTokens = 10;
            cohort.push_back(r);
        }
        return cohort;
    };
    const auto reserve = engine::KvAdmissionMode::Reserve;
    const auto shared = carried(4);
    ASSERT_EQ(shared[0].kvBlocksHeld(), 33);
    ASSERT_EQ(shared[0].kvPeakBlocks(), 34);
    // 34 for the first, then 34 - 16 carried levels for each classmate.
    EXPECT_EQ(engine::carriedCohortFit(shared, 8, 70, reserve), 3u);
    EXPECT_EQ(engine::carriedCohortFit(shared, 8, 69, reserve), 2u);
    EXPECT_EQ(engine::carriedCohortFit(shared, 8, 33, reserve), 0u);
    EXPECT_EQ(engine::carriedCohortFit(shared, 2, engine::kUnboundedKvBlocks,
                                       reserve),
              2u);
    // Without a prefix class nothing is shared: 3 x 34.
    const auto prefix_free = carried(-1);
    EXPECT_EQ(engine::carriedCohortFit(prefix_free, 8, 101, reserve), 2u);
    EXPECT_EQ(engine::carriedCohortFit(prefix_free, 8, 102, reserve), 3u);

    // The kept cohort starts on a replica of exactly that budget.
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    engine::BatchingOptions batching;
    batching.kvBudgetBlocks = 70;
    batching.kvAdmissionMode = reserve;
    engine::InferencePipeline pipeline(sim, latency,
                                       par::ParallelConfig{1, 1, 4, 8}, 0,
                                       {}, batching);
    pipeline.startBatch(shared);
    EXPECT_EQ(pipeline.kvBlocksCharged(), 70);
}

// The full-level index is a per-class vector of level slots, and a match
// is a radix descent that stops at the first empty slot.  Every holder of
// level k holds levels 0..k, so a hole below an indexed level can only
// open in the cached tier: LRU reclaim takes level 1 of a sparse class id
// while levels 0 and 2 stay indexed, and a walk that skipped the hole
// would grant level 2.
TEST(KvBlockStoreTest, MatchStopsAtTheFirstUnindexedLevel)
{
    constexpr int kClass = 1'000'003; // ids are not dense
    engine::KvBlockStore store(/*capacity=*/4);

    // A prefills class kClass's three prefix levels whole and publishes
    // them; B, declaring only the first level, shares level 0.
    auto a = makeActive(1, /*input=*/48, /*output=*/8, kClass,
                        /*prefix_len=*/48);
    store.attach(a);
    commitTo(store, a, 48, 0);
    const std::vector<int> a_blocks = a.kvBlockIds;
    ASSERT_EQ(a_blocks.size(), 3u);
    auto b = makeActive(2, 32, 8, kClass, /*prefix_len=*/16);
    EXPECT_EQ(store.attach(b), 16);

    // A leaves before B, so level 0 is the most recently used of the
    // three cached levels and level 1 the least.  A private request then
    // needs one more block than the free room: LRU reclaims level 1.
    store.release(a);
    store.release(b);
    EXPECT_EQ(store.cachedBlocks(), 3);
    auto filler = makeActive(3, 32, 8, -1, 0);
    store.attach(filler);
    commitTo(store, filler, 32, 0);
    EXPECT_EQ(store.cachedReclaims(), 1);
    EXPECT_EQ(store.cachedBlocks(), 2);
    store.release(filler);

    // Cached levels are never quoted; the match stops at the hole.
    auto probe = makeActive(4, 64, 8, kClass, 48);
    EXPECT_EQ(store.quoteSharedBlocks(probe), 0);
    EXPECT_EQ(store.attach(probe), 16);
    ASSERT_EQ(probe.kvBlockIds.size(), 1u);
    EXPECT_EQ(probe.kvBlockIds[0], a_blocks[0]);
    auto early = makeActive(5, 64, 8, kClass, 48);
    EXPECT_EQ(store.quoteSharedBlocks(early), 1); // level 0 live, then hole

    // The probe's whole prefill publishes a fresh level 1 into the hole
    // and revives the cached level 2: the full match is back.
    commitTo(store, probe, 64, 0);
    ASSERT_EQ(probe.kvBlockIds.size(), 4u);
    EXPECT_EQ(probe.kvBlockIds[2], a_blocks[2]);
    EXPECT_EQ(store.cachedBlocks(), 0);
    auto again = makeActive(6, 64, 8, kClass, 48);
    EXPECT_EQ(store.quoteSharedBlocks(again), 3);
    EXPECT_EQ(store.attach(again), 48);
    for (std::size_t k = 0; k < 3; ++k)
        EXPECT_EQ(again.kvBlockIds[k], probe.kvBlockIds[k]);

    // Asking for more levels than were ever published matches what is
    // there and stops.
    auto longer = makeActive(7, 128, 8, kClass, 128);
    EXPECT_EQ(store.quoteSharedBlocks(longer), 3);
    EXPECT_EQ(store.attach(longer), 48);

    // No class, no quote; an unknown class, no quote.
    auto none = makeActive(8, 64, 8, -1, 48);
    EXPECT_EQ(store.quoteSharedBlocks(none), 0);
    EXPECT_EQ(store.attach(none), 0);
    auto stranger = makeActive(9, 64, 8, kClass + 1, 48);
    EXPECT_EQ(store.quoteSharedBlocks(stranger), 0);

    for (auto *r : {&probe, &again, &longer, &none})
        store.release(*r);
    EXPECT_EQ(store.totalLiveRefs(), 0);
}

// ---------------------------------------------------------------------
// System-level invariant matrix
// ---------------------------------------------------------------------

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

/** Join 8, preempt one, join one, preempt another: the standard
 *  migration-churn backdrop the admission suites use. */
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

struct PrefixInvariantResult
{
    long checks = 0;
    long violations = 0;
    long refLeaks = 0;
    /** report().peakKvHeldBlocks, and the running max of
     *  kvBlocksHeld() this observer saw at the same boundaries. */
    long reportedPeakHeldBlocks = 0;
    long observedPeakHeldBlocks = 0;
    long prefixHits = 0;
    int migrations = 0;
    long completed = 0;
    long arrived = 0;
    /** Boundaries whose logical holding (a shared block counted once
     *  per sharer) exceeded the block budget. */
    long logicalOverBudget = 0;
};

/**
 * Run SpotServe with prefix sharing over the churn trace, asserting at
 * every boundary of every replica:
 *  - physical (deduplicated) blocks held fit the block budget — the
 *    CI-gated invariant;
 *  - the store's resident blocks fit its capacity and its live refs
 *    equal the batch's block-id holdings exactly (zero leaked refs; an
 *    empty batch therefore implies zero live blocks);
 *  - logical holdings equal the store's live references (one per held
 *    level);
 * and record the running max of the logical holding next to the
 * report's peakKvHeldBlocks.  The logical holding has no budget bound:
 * admission discounts a head's live shared blocks in both modes, so a
 * block two sharers hold counts twice logically but once against the
 * budget.  The boundaries where it exceeds the budget are counted.
 */
PrefixInvariantResult
runPrefixSystemInvariant(const wl::Workload &workload,
                         engine::KvAdmissionMode mode)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = churnTrace();
    const cost::SeqSpec seq{};
    const cost::MemoryModel mem(spec, kParams);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.designArrivalRate = 0.35;
    options.engine.kvAdmissionMode = mode;
    core::SpotServeSystem system(sim, instances, requests, spec, kParams,
                                 seq, options);

    PrefixInvariantResult out;
    system.setKvObserver([&](const engine::InferencePipeline &p) {
        ++out.checks;
        const long budget_blocks = mem.kvBudgetBlocks(p.config());
        if (p.kvPhysicalBlocksHeld() > budget_blocks)
            ++out.violations;
        if (p.kvBlocksHeld() > budget_blocks)
            ++out.logicalOverBudget;
        const engine::KvBlockStore &store = p.kvStore();
        if (store.capacityBlocks() != engine::kUnboundedKvBlocks &&
            store.physicalBlocks() > store.capacityBlocks())
            ++out.violations;
        long held_refs = 0;
        for (const auto &r : p.batch())
            held_refs += static_cast<long>(r.kvBlockIds.size());
        if (held_refs != store.totalLiveRefs())
            ++out.refLeaks;
        // One reference per held level: the store's live references are
        // the logical block holding the serving layer's peak gauge reads.
        if (p.kvBlocksHeld() != store.totalLiveRefs())
            ++out.violations;
        out.observedPeakHeldBlocks =
            std::max(out.observedPeakHeldBlocks, p.kvBlocksHeld());
        if (p.batch().empty() && store.liveBlocks() != 0)
            ++out.refLeaks;
    });

    instances.setListener(&system);
    instances.loadTrace(trace);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    // Long enough for every row to drain, the fifth row's cap-length
    // outputs included.
    sim.run(trace.duration() + 4000.0);

    serving::ExperimentResult stats;
    system.report(stats);
    out.reportedPeakHeldBlocks = stats.peakKvHeldBlocks;
    out.prefixHits = stats.prefixHits;
    out.migrations = system.migrationsCompleted();
    out.completed = requests.completedCount();
    out.arrived = requests.arrivedCount();
    return out;
}

TEST(PrefixSystemTest, PhysicalBlocksAndRefsInvariantAcrossChurnMatrix)
{
    // Poisson, spike and long-input early-stopping workloads — each with
    // a shared-prefix mix whose class length is deliberately NOT a block
    // multiple, so full levels are shared while every partial tail stays
    // private — across preemption-driven migrations, in both admission
    // modes.  The
    // fourth fills each replica's KV budget with long few-shot prompts.
    // The fifth mixes
    // long few-shot prompts with cap-length outputs, so Optimistic
    // admission's shared-block discount lets the logical holding exceed
    // the budget while the physical holding stays within it.
    const cost::SeqSpec seq{};
    auto poisson = [&] {
        sim::Rng rng(71);
        auto w = wl::stationaryPoisson(0.3, 900.0, seq, rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
        wl::withSharedPrefixes(w, {{200, 1.0}, {88, 1.0}}, rng,
                               /*no_prefix_weight=*/0.5);
        return w;
    };
    auto spike = [&] {
        sim::Rng rng(72);
        auto w = wl::fluctuating(
            [](sim::SimTime t) {
                return (t >= 300.0 && t < 420.0) ? 1.2 : 0.2;
            },
            1.0, 900.0, seq, rng);
        wl::capOutputs(w, 512, 16, 128, rng);
        wl::withSystemPrompt(w, /*prompt_tokens=*/152);
        return w;
    };
    auto longInput = [&] {
        sim::Rng rng(73);
        auto w = wl::stationaryPoisson(0.25, 900.0, seq, rng);
        wl::capOutputs(w, 512, 16, 128, rng);
        const int lens[] = {512, 1024, 2048};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        wl::withFewShotPrefixes(w, /*num_classes=*/3, /*class_tokens=*/168,
                                rng);
        return w;
    };
    auto budgetBound = [&] {
        sim::Rng rng(74);
        auto w = wl::stationaryPoisson(0.3, 900.0, seq, rng);
        wl::capOutputs(w, 512, 16, 48, rng);
        for (auto &r : w)
            r.inputLen = 6000;
        wl::withFewShotPrefixes(w, 3, 168, rng);
        return w;
    };
    auto logicalOverflow = [&] {
        sim::Rng rng(74);
        auto w = wl::stationaryPoisson(0.3, 900.0, seq, rng);
        wl::capOutputs(w, 2048, 16, 48, rng);
        const int lens[] = {4096, 2048, 1365};
        for (std::size_t i = 0; i < w.size(); ++i) {
            w[i].inputLen = lens[i % 3];
            if (i % 4 == 3)
                w[i].outputLen = w[i].outputCap;
        }
        wl::withFewShotPrefixes(w, 3, 168, rng);
        return w;
    };

    int variant = 0;
    for (const auto &make : {std::function<wl::Workload()>(poisson),
                             std::function<wl::Workload()>(spike),
                             std::function<wl::Workload()>(longInput),
                             std::function<wl::Workload()>(budgetBound),
                             std::function<wl::Workload()>(logicalOverflow)}) {
        const auto workload = make();
        for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                engine::KvAdmissionMode::Optimistic}) {
            const auto r = runPrefixSystemInvariant(workload, mode);
            EXPECT_EQ(r.violations, 0)
                << "workload " << variant << " mode " << engine::toString(mode);
            EXPECT_EQ(r.refLeaks, 0)
                << "workload " << variant << " mode " << engine::toString(mode);
            EXPECT_EQ(r.reportedPeakHeldBlocks, r.observedPeakHeldBlocks)
                << "workload " << variant << " mode " << engine::toString(mode);
            EXPECT_GT(r.checks, 0);
            EXPECT_GT(r.prefixHits, 0)
                << "workload " << variant << " mode " << engine::toString(mode);
            EXPECT_GE(r.migrations, 2); // initial + preemption-driven
            EXPECT_EQ(r.completed, r.arrived)
                << "workload " << variant << " mode " << engine::toString(mode);
            // The physical holding never crossed the budget (violations
            // above), yet the logical one did: only the former is bounded.
            if (variant == 4 && mode == engine::KvAdmissionMode::Optimistic) {
                EXPECT_GT(r.logicalOverBudget, 0);
            }
        }
        ++variant;
    }
}

TEST(PrefixSystemTest, ReroutingLeakAuditCountsSlotPipelines)
{
    // Rerouting's pipelines are the replicas of its base deployment,
    // dropped and rebuilt as instances churn; the leak audit behind
    // liveKvRefsAtEnd must see their stores while they serve and read 0
    // once every request is done.
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = churnTrace();
    const cost::SeqSpec seq{};
    sim::Rng rng(74);
    auto workload = wl::stationaryPoisson(0.3, trace.duration(), seq, rng);
    wl::withFewShotPrefixes(workload, /*num_classes=*/3,
                            /*class_tokens=*/168, rng);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    baselines::ReroutingOptions options;
    options.designArrivalRate = 0.3;
    baselines::ReroutingSystem system(sim, instances, requests, spec,
                                      kParams, seq, options);
    long resident_refs = 0;
    system.setKvObserver([&](const engine::InferencePipeline &p) {
        if (!p.batch().empty())
            resident_refs = std::max(resident_refs, system.liveKvRefs());
    });
    instances.setListener(&system);
    instances.loadTrace(trace);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(trace.duration() + 900.0);

    EXPECT_GT(resident_refs, 0);
    EXPECT_EQ(requests.completedCount(), requests.arrivedCount());
    EXPECT_EQ(system.liveKvRefs(), 0);
}

// ---------------------------------------------------------------------
// Per-request oracle and sharing win (experiment level)
// ---------------------------------------------------------------------

serving::ExperimentResult
runSpotServe(const wl::Workload &workload,
             engine::KvAdmissionMode mode = engine::KvAdmissionMode::Optimistic,
             std::function<void(const engine::InferencePipeline &)> observer =
                 {})
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::SeqSpec seq{};
    serving::SystemFactory factory =
        [&](sim::Executor &exec, cluster::InstanceManager &inst,
            serving::RequestManager &req) {
            core::SpotServeOptions options;
            options.designArrivalRate = 0.35;
            options.engine.kvAdmissionMode = mode;
            auto system = std::make_unique<core::SpotServeSystem>(
                exec, inst, req, spec, kParams, seq, options);
            if (observer)
                system->setKvObserver(observer);
            return system;
        };
    return serving::runExperiment(spec, kParams, churnTrace(), workload,
                                  factory);
}

TEST(PrefixAblationTest, StoreMatchesPerRequestOracleOnPrefixFreeWorkload)
{
    // With no prefixes in the workload the store shares nothing, so at
    // every boundary of every replica — across preemption-driven
    // migrations, in both admission modes — its physical accounting must
    // equal the per-request block formulas: live blocks == the logical
    // holding, and the charged / reserved totals == the per-request sums
    // (no shared level counted once).
    sim::Rng rng(81);
    auto w = wl::stationaryPoisson(0.3, 600.0, cost::SeqSpec{}, rng);
    wl::capOutputs(w, 512, 16, 128, rng);

    for (const auto mode : {engine::KvAdmissionMode::Reserve,
                            engine::KvAdmissionMode::Optimistic}) {
        SCOPED_TRACE(engine::toString(mode));
        long boundaries = 0, physical = 0, charged = 0, reserved = 0;
        const auto r = runSpotServe(
            w, mode, [&](const engine::InferencePipeline &p) {
                ++boundaries;
                long charge = 0, peak = 0;
                for (const auto &req : p.batch()) {
                    charge += req.kvChargedBlocks(p.kvAdmissionMode());
                    peak += req.kvPeakBlocks();
                }
                if (p.kvPhysicalBlocksHeld() != p.kvBlocksHeld())
                    ++physical;
                if (p.kvBlocksCharged() != charge)
                    ++charged;
                if (p.kvBlocksReserved() != peak)
                    ++reserved;
            });
        EXPECT_GT(boundaries, 0);
        EXPECT_EQ(physical, 0);
        EXPECT_EQ(charged, 0);
        EXPECT_EQ(reserved, 0);
        EXPECT_GE(r.migrationsCompleted, 2); // initial + preemption-driven
        EXPECT_EQ(r.completed, r.arrived);
        EXPECT_EQ(r.prefixHits, 0);
        EXPECT_EQ(r.savedPrefillSeconds, 0.0);
        EXPECT_EQ(r.peakKvPhysicalBlocks, r.peakKvHeldBlocks);
    }
}

TEST(PrefixAblationTest, SharingWinsOnSharedPrefixWorkload)
{
    // On a workload dominated by few-shot templates, sharing must hit
    // (skipping real prefill seconds), deduplicate physical blocks below
    // the logical holding, and never complete fewer requests than the
    // same workload with its prefix ids stripped (same tokens, nothing
    // to share) at the same budget.
    sim::Rng rng(82);
    auto w = wl::stationaryPoisson(0.3, 600.0, cost::SeqSpec{}, rng);
    wl::capOutputs(w, 512, 16, 128, rng);
    wl::withFewShotPrefixes(w, /*num_classes=*/2, /*class_tokens=*/256, rng);
    auto stripped = w;
    for (auto &r : stripped) {
        r.prefixId = -1;
        r.prefixLen = 0;
    }

    const auto off = runSpotServe(stripped);
    const auto on = runSpotServe(w);
    EXPECT_GT(on.prefixHits, 0);
    EXPECT_GT(on.prefixMatchedTokens, 0);
    EXPECT_GT(on.savedPrefillSeconds, 0.0);
    EXPECT_LT(on.peakKvPhysicalBlocks, on.peakKvHeldBlocks);
    EXPECT_LT(on.peakKvPhysicalBlocks, off.peakKvPhysicalBlocks);
    EXPECT_GE(on.completed, off.completed);
    EXPECT_EQ(off.prefixHits, 0);
    EXPECT_EQ(off.peakKvPhysicalBlocks, off.peakKvHeldBlocks);
}

// ---------------------------------------------------------------------
// Workload decorators
// ---------------------------------------------------------------------

TEST(PrefixWorkloadTest, SharedPrefixDecorators)
{
    const cost::SeqSpec seq{};
    sim::Rng rng(91);
    auto w = wl::stationaryPoisson(0.5, 300.0, seq, rng);
    const int base_input = w.front().inputLen;

    auto prepended = w;
    wl::withSharedPrefixes(prepended, {{100, 3.0}, {60, 1.0}}, rng,
                           /*no_prefix_weight=*/1.0);
    int with_prefix = 0;
    int cls_counts[2] = {0, 0};
    for (std::size_t i = 0; i < prepended.size(); ++i) {
        const auto &r = prepended[i];
        if (r.prefixId < 0) {
            EXPECT_EQ(r.prefixLen, 0);
            EXPECT_EQ(r.inputLen, base_input);
            continue;
        }
        ++with_prefix;
        ASSERT_GE(r.prefixId, 0);
        ASSERT_LT(r.prefixId, 2);
        ++cls_counts[r.prefixId];
        const int expect_len = r.prefixId == 0 ? 100 : 60;
        EXPECT_EQ(r.prefixLen, expect_len);
        EXPECT_EQ(r.inputLen, base_input + expect_len); // prepended text
    }
    // Weights 3:1:1 over ~150 requests: every bucket is populated and
    // class 0 dominates class 1.
    EXPECT_GT(with_prefix, 0);
    EXPECT_LT(with_prefix, static_cast<int>(prepended.size()));
    EXPECT_GT(cls_counts[0], cls_counts[1]);

    // In-place declaration leaves lengths untouched (the sharing-off run
    // over such a workload is the *same* workload).
    auto inplace = w;
    wl::withSharedPrefixes(inplace, {{1000, 1.0}}, rng, 0.0,
                           /*prepend=*/false);
    for (std::size_t i = 0; i < inplace.size(); ++i) {
        EXPECT_EQ(inplace[i].inputLen, w[i].inputLen);
        EXPECT_EQ(inplace[i].prefixLen,
                  std::min(1000, w[i].inputLen)); // clamped to the prompt
    }

    // Presets.
    auto sys = w;
    wl::withSystemPrompt(sys, 128);
    for (const auto &r : sys) {
        EXPECT_EQ(r.prefixId, 0);
        EXPECT_EQ(r.prefixLen, 128);
    }
    auto few = w;
    wl::withFewShotPrefixes(few, 4, 96, rng);
    for (const auto &r : few) {
        EXPECT_GE(r.prefixId, 0);
        EXPECT_LT(r.prefixId, 4);
        EXPECT_EQ(r.prefixLen, 96);
    }
    EXPECT_THROW(wl::withSharedPrefixes(few, {}, rng),
                 std::invalid_argument);
    EXPECT_THROW(wl::withSharedPrefixes(few, {{0, 1.0}}, rng),
                 std::invalid_argument);
}

} // namespace
} // namespace spotserve
