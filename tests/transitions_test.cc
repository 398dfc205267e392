/**
 * @file
 * Property sweep over configuration transitions: for every (old, new)
 * pair in a realistic set, the mapper + planner pipeline must satisfy
 * byte conservation, co-location, determinism, and timing invariants
 * (among them: the link-scheduled makespan never exceeds the serialized
 * cursor, up to fleet-scale transitions over 128 instances).  Golden
 * digests pin the mapper's and planner's exact output on every transition
 * and on two churned fleets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>

#include "closed_forms.h"
#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "costmodel/migration_cost.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

struct Transition
{
    par::ParallelConfig from;
    par::ParallelConfig to;
    /** planDigest() of the sweep's packed transition. */
    std::uint64_t digest;
};

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return fnv1a(h, bits);
}

std::uint64_t
fnv1a(std::uint64_t h, int v)
{
    return fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

/**
 * FNV-1a over everything the mapper and the planner decide: the mesh, the
 * inheritance and the reuse; every step's layer, transfers, cold loads and
 * offsets; the per-stage and per-replica timing, the dependency sets, the
 * durations and the byte accounting.  Vector lengths are folded too.
 */
std::uint64_t
planDigest(const MappingResult &mapping, const MigrationPlan &plan)
{
    std::uint64_t h = 14695981039346656037ULL;
    const auto &topo = mapping.mesh.topology();
    for (int i = 0; i < topo.size(); ++i)
        h = fnv1a(h, mapping.mesh.gpuAt(topo.position(i)));
    for (int od : mapping.inheritedOldPipeline)
        h = fnv1a(h, od);
    h = fnv1a(h, mapping.reusedModelBytes);
    h = fnv1a(h, mapping.reusedCacheBytes);

    h = fnv1a(h, static_cast<int>(plan.steps.size()));
    for (const auto &s : plan.steps) {
        h = fnv1a(h, s.layer);
        h = fnv1a(h, static_cast<int>(s.transfers.size()));
        for (const auto &t : s.transfers) {
            h = fnv1a(h, t.srcInstance);
            h = fnv1a(h, t.dstInstance);
            h = fnv1a(h, t.bytes);
        }
        h = fnv1a(h, static_cast<int>(s.coldLoads.size()));
        for (const auto &[inst, bytes] : s.coldLoads) {
            h = fnv1a(h, inst);
            h = fnv1a(h, bytes);
        }
        h = fnv1a(h, s.startOffset);
        h = fnv1a(h, s.finishOffset);
    }
    for (double r : plan.stageReady)
        h = fnv1a(h, r);
    for (double r : plan.pipelineResume)
        h = fnv1a(h, r);
    for (const auto &stages : plan.dpStepDeps) {
        for (const auto &deps : stages) {
            h = fnv1a(h, static_cast<int>(deps.size()));
            for (int s : deps)
                h = fnv1a(h, s);
        }
    }
    const double serialized =
        cost::MigrationCostModel(kParams).serializedDuration(
            MigrationPlanner::transferSteps(plan));
    for (double v : {plan.totalDuration, plan.resumeOffset, serialized,
                     plan.movedModelBytes, plan.movedCacheBytes,
                     plan.reusedBytes, plan.coldLoadBytes,
                     plan.peakBufferBytes})
        h = fnv1a(h, v);
    return h;
}

class TransitionSweep : public ::testing::TestWithParam<Transition>
{
  protected:
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    DeviceMapper mapper{spec, kParams};
    MigrationPlanner planner{spec, kParams};

    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;

    void
    makeInstances(int n)
    {
        for (int i = 0; i < n; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, 4, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
    }

    engine::ContextSnapshot
    packedSnapshot(const par::ParallelConfig &cfg, double cache_tokens)
    {
        engine::ContextSnapshot snap;
        par::Topology topo(cfg, spec.numLayers());
        for (int i = 0; i < topo.size(); ++i) {
            engine::GpuContext ctx;
            ctx.gpu = i;
            ctx.instance = i / 4;
            ctx.hasModelContext = true;
            ctx.config = cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = cache_tokens;
            snap.gpus.push_back(ctx);
        }
        return snap;
    }
};

TEST_P(TransitionSweep, MapperAndPlannerInvariants)
{
    const auto &[from, to, digest] = GetParam();
    const int gpi = kParams.gpusPerInstance;
    const int n = std::max((from.totalGpus() + gpi - 1) / gpi,
                           (to.totalGpus() + gpi - 1) / gpi) +
                  (to.tp > gpi ? 2 : 0);
    makeInstances(n);

    const double tokens = 8 * 600.0;
    const auto snap = packedSnapshot(from, tokens);
    std::vector<double> old_tokens(from.dp, tokens);

    const auto mapping = mapper.map(snap, to, instances, old_tokens);

    // Complete, co-located mesh.
    ASSERT_TRUE(meshComplete(mapping.mesh));
    const auto &topo = mapping.mesh.topology();
    for (int d = 0; d < to.dp; ++d) {
        for (int p = 0; p < to.pp; ++p) {
            std::set<int> insts;
            for (int m = 0; m < to.tp; ++m) {
                insts.insert(cluster::Instance::instanceOfGpu(
                    mapping.mesh.gpuAt(par::Position{d, p, m}), gpi));
            }
            EXPECT_EQ(static_cast<int>(insts.size()),
                      std::max(1, to.tp / gpi))
                << "stage (" << d << "," << p << ") spread over "
                << insts.size() << " instances";
        }
    }

    // Inheritance indices valid and distinct.
    std::set<int> inherited;
    for (int od : mapping.inheritedOldPipeline) {
        if (od >= 0) {
            EXPECT_LT(od, from.dp);
            EXPECT_TRUE(inherited.insert(od).second) << "duplicate";
        }
    }

    const auto plan = planner.plan(snap, mapping, to, old_tokens);
    EXPECT_EQ(planDigest(mapping, plan), digest)
        << std::hex << "0x" << planDigest(mapping, plan);

    // Conservation: every needed byte reused, moved, or cold-loaded.
    EXPECT_NEAR(plan.reusedBytes + plan.movedModelBytes + 0.0,
                mapping.neededModelBytes, mapping.neededModelBytes * 1e-6);
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0)
        << "peers hold every byte; nothing should come from disk";

    // Timing invariants.
    EXPECT_GE(plan.totalDuration, 0.0);
    EXPECT_LE(plan.resumeOffset, plan.totalDuration + 1e-9);
    ASSERT_EQ(plan.pipelineResume.size(), static_cast<std::size_t>(to.dp));
    for (double r : plan.pipelineResume) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, plan.totalDuration + 1e-9);
    }
    double sum = kParams.migrationSetupTime;
    for (const auto &s : plan.steps) {
        EXPECT_GE(s.duration, 0.0);
        sum += s.duration;
    }
    EXPECT_NEAR(sum, plan.totalDuration, 1e-6);
    // The interleaved link schedule is never slower than the serialized
    // cursor it is measured against.
    EXPECT_LE(plan.totalDuration,
              cost::MigrationCostModel(kParams).serializedDuration(
                  MigrationPlanner::transferSteps(plan)) +
                  1e-9);

    // Every layer appears exactly once after the optional cache step.
    std::set<int> layers;
    for (const auto &s : plan.steps) {
        if (!s.isCache()) {
            EXPECT_TRUE(layers.insert(s.layer).second);
        }
    }
    EXPECT_EQ(static_cast<int>(layers.size()), spec.numLayers());

    // Determinism.
    const auto mapping2 = mapper.map(snap, to, instances, old_tokens);
    for (int i = 0; i < topo.size(); ++i) {
        const auto pos = topo.position(i);
        EXPECT_EQ(mapping.mesh.gpuAt(pos), mapping2.mesh.gpuAt(pos));
    }
    const auto plan2 = planner.plan(snap, mapping2, to, old_tokens);
    EXPECT_DOUBLE_EQ(plan.totalDuration, plan2.totalDuration);
    EXPECT_DOUBLE_EQ(plan.movedModelBytes, plan2.movedModelBytes);
}

// A fleet mid-churn: the packed (16, 2, 8, 8) deployment on 64 instances
// loses 4 instances, 4 fresh ones (daemons without model context) join,
// half the replicas carry in-flight cache, and the snapshot lists its
// entries in reverse GPU order, so every tie between equally good sources
// is broken by snapshot order rather than by GPU id.
TEST_F(TransitionSweep, ChurnedFleetPlanDigestIsPinned)
{
    const par::ParallelConfig cfg{16, 2, 8, 8};
    const double tokens = 8 * 600.0;
    const int gpi = kParams.gpusPerInstance;
    const std::set<int> dropped = {5, 22, 40, 61};
    makeInstances(68);
    std::vector<const cluster::Instance *> survivors;
    for (const auto *inst : instances) {
        if (dropped.count(inst->id()) == 0)
            survivors.push_back(inst);
    }

    engine::ContextSnapshot snap;
    std::vector<double> old_tokens(cfg.dp, 0.0);
    for (int d = 0; d < cfg.dp; d += 2)
        old_tokens[d] = tokens;
    for (auto ctx : packedSnapshot(cfg, 0.0).gpus) {
        if (dropped.count(ctx.instance) > 0)
            continue;
        ctx.cacheTokens = old_tokens[ctx.position.d];
        snap.gpus.push_back(ctx);
    }
    for (int g = 64 * gpi; g < 68 * gpi; ++g) {
        engine::GpuContext fresh;
        fresh.gpu = g;
        fresh.instance = g / gpi;
        snap.gpus.push_back(fresh);
    }
    std::reverse(snap.gpus.begin(), snap.gpus.end());

    const auto mapping = mapper.map(snap, cfg, survivors, old_tokens);
    ASSERT_TRUE(meshComplete(mapping.mesh));
    const auto plan = planner.plan(snap, mapping, cfg, old_tokens);
    EXPECT_GT(plan.movedModelBytes, 0.0);
    EXPECT_GT(plan.movedCacheBytes, 0.0);
    EXPECT_EQ(planDigest(mapping, plan), 0x967a0bc93a0529eULL)
        << std::hex << "0x" << planDigest(mapping, plan);
}

// The sweep's (2, 3, 4, 8) -> (2, 2, 8, 8) transition mid-churn: both
// holders of old stage 1 (instances 1 and 4) are gone and four fresh
// instances (daemons without model context) join.  The snapshot's holder
// lists then have an empty segment between two held ones, the layers of
// old stage 1 are cold-loaded, and the fresh instances give the mapper
// many identical all-zero weight matrices.
TEST_F(TransitionSweep, StageLostMidChurnPlanDigestIsPinned)
{
    const par::ParallelConfig from{2, 3, 4, 8};
    const par::ParallelConfig to{2, 2, 8, 8};
    const double tokens = 8 * 600.0;
    const int gpi = kParams.gpusPerInstance;
    const std::set<int> dropped = {1, 4};
    makeInstances(10);
    std::vector<const cluster::Instance *> survivors;
    for (const auto *inst : instances) {
        if (dropped.count(inst->id()) == 0)
            survivors.push_back(inst);
    }

    engine::ContextSnapshot snap;
    for (const auto &ctx : packedSnapshot(from, tokens).gpus) {
        if (dropped.count(ctx.instance) == 0)
            snap.gpus.push_back(ctx);
    }
    for (int g = 6 * gpi; g < 10 * gpi; ++g) {
        engine::GpuContext fresh;
        fresh.gpu = g;
        fresh.instance = g / gpi;
        snap.gpus.push_back(fresh);
    }
    const std::vector<double> old_tokens(from.dp, tokens);

    const auto mapping = mapper.map(snap, to, survivors, old_tokens);
    ASSERT_TRUE(meshComplete(mapping.mesh));
    const auto plan = planner.plan(snap, mapping, to, old_tokens);
    EXPECT_GT(plan.coldLoadBytes, 0.0);
    EXPECT_GT(plan.movedModelBytes - plan.coldLoadBytes, 0.0)
        << "layers the survivors hold move from them, not from disk";
    EXPECT_NEAR(plan.reusedBytes + plan.movedModelBytes,
                mapping.neededModelBytes, mapping.neededModelBytes * 1e-6);
    EXPECT_EQ(planDigest(mapping, plan), 0xb5e1d207dff401aULL)
        << std::hex << "0x" << planDigest(mapping, plan);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTransitions, TransitionSweep,
    ::testing::Values(
        // Figure 4a: re-sharding under a preemption.
        Transition{{1, 2, 8, 8}, {1, 3, 4, 8},
                   0xd02bb0842f6f3316ULL},
        // Figure 8 narrative.
        Transition{{2, 2, 8, 8}, {3, 3, 4, 8},
                   0xc26edf5c60c00be3ULL},
        Transition{{3, 3, 4, 8}, {3, 2, 8, 8},
                   0x9364dc1db63770aULL},
        Transition{{3, 2, 8, 8}, {2, 2, 8, 8},
                   0x13056a5339d34b61ULL},
        // Scale in/out with unchanged parallelism.
        Transition{{2, 2, 8, 8}, {1, 2, 8, 8},
                   0xd9cdb9b523db4d71ULL},
        Transition{{1, 2, 8, 8}, {2, 2, 8, 8},
                   0x6e9b4ae38437fd11ULL},
        // Tensor-only and pipeline-only re-sharding.
        Transition{{1, 3, 4, 8}, {1, 3, 4, 4},
                   0xea5705309ff68152ULL},
        Transition{{2, 3, 4, 8}, {2, 2, 8, 8},
                   0x33778930d07cff0eULL},
        Transition{{1, 6, 2, 8}, {1, 3, 4, 8},
                   0x9e794d4706804441ULL},
        Transition{{1, 4, 1, 8}, {1, 1, 4, 8},
                   0xc2fe9e12c88df7feULL},
        // Identity (membership-only) remap.
        Transition{{2, 3, 4, 8}, {2, 3, 4, 8},
                   0x9993d700d5514a3dULL},
        // Fleet scale: P2M8 -> P3M4 filling 32, 64 and 128 instances.
        Transition{{8, 2, 8, 8}, {10, 3, 4, 8},
                   0xef14c4adf6ea4daULL},
        Transition{{16, 2, 8, 8}, {21, 3, 4, 8},
                   0xa097d7d8e4d731c4ULL},
        Transition{{32, 2, 8, 8}, {42, 3, 4, 8},
                   0x5ff588a3526f0953ULL}),
    [](const ::testing::TestParamInfo<Transition> &info) {
        const auto &t = info.param;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "D%dP%dM%d_to_D%dP%dM%d",
                      t.from.dp, t.from.pp, t.from.tp, t.to.dp, t.to.pp,
                      t.to.tp);
        return std::string(buf);
    });

} // namespace
} // namespace spotserve::core
