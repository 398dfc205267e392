/**
 * @file
 * Property sweep over configuration transitions: for every (old, new)
 * pair in a realistic set, the mapper + planner pipeline must satisfy
 * byte conservation, co-location, determinism, and timing invariants
 * (among them: the link-scheduled makespan never exceeds the serialized
 * cursor, up to fleet-scale transitions over 128 instances).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/device_mapper.h"
#include "core/migration_planner.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

struct Transition
{
    par::ParallelConfig from;
    par::ParallelConfig to;
};

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
    const auto [from, to] = GetParam();
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
    ASSERT_TRUE(mapping.mesh.complete());
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
    EXPECT_LE(plan.totalDuration, plan.serializedDuration + 1e-9);

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

INSTANTIATE_TEST_SUITE_P(
    PaperTransitions, TransitionSweep,
    ::testing::Values(
        // Figure 4a: re-sharding under a preemption.
        Transition{{1, 2, 8, 8}, {1, 3, 4, 8}},
        // Figure 8 narrative.
        Transition{{2, 2, 8, 8}, {3, 3, 4, 8}},
        Transition{{3, 3, 4, 8}, {3, 2, 8, 8}},
        Transition{{3, 2, 8, 8}, {2, 2, 8, 8}},
        // Scale in/out with unchanged parallelism.
        Transition{{2, 2, 8, 8}, {1, 2, 8, 8}},
        Transition{{1, 2, 8, 8}, {2, 2, 8, 8}},
        // Tensor-only and pipeline-only re-sharding.
        Transition{{1, 3, 4, 8}, {1, 3, 4, 4}},
        Transition{{2, 3, 4, 8}, {2, 2, 8, 8}},
        Transition{{1, 6, 2, 8}, {1, 3, 4, 8}},
        Transition{{1, 4, 1, 8}, {1, 1, 4, 8}},
        // Identity (membership-only) remap.
        Transition{{2, 3, 4, 8}, {2, 3, 4, 8}},
        // Fleet scale: P2M8 -> P3M4 filling 32, 64 and 128 instances.
        Transition{{8, 2, 8, 8}, {10, 3, 4, 8}},
        Transition{{16, 2, 8, 8}, {21, 3, 4, 8}},
        Transition{{32, 2, 8, 8}, {42, 3, 4, 8}}),
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
