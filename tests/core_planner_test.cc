/**
 * @file
 * Tests for the migration planner (Algorithm 2, §3.4).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "costmodel/link_schedule.h"
#include "costmodel/migration_cost.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

class PlannerFixture : public ::testing::Test
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
        storage.clear();
        instances.clear();
        for (int i = 0; i < n; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, 4, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
    }

    engine::ContextSnapshot
    packedSnapshot(const par::ParallelConfig &cfg, double cache_tokens = 0.0)
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

TEST_F(PlannerFixture, IdentityMigrationIsNearlyFree)
{
    par::ParallelConfig cfg{2, 2, 8, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(cfg);
    const auto mapping = mapper.map(snap, cfg, instances, {0.0, 0.0});
    const auto plan = planner.plan(snap, mapping, cfg, {0.0, 0.0});
    EXPECT_NEAR(plan.movedModelBytes, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0);
    EXPECT_LE(plan.totalDuration, kParams.migrationSetupTime + 1e-9);
}

TEST_F(PlannerFixture, ColdStartLoadsEverythingFromDisk)
{
    par::ParallelConfig cfg{1, 2, 8, 8};
    makeInstances(4);
    const auto mapping =
        mapper.map(engine::ContextSnapshot{}, cfg, instances, {});
    const auto plan =
        planner.plan(engine::ContextSnapshot{}, mapping, cfg, {});
    EXPECT_NEAR(plan.coldLoadBytes, spec.totalWeightBytes(),
                spec.totalWeightBytes() * 1e-9);
    EXPECT_DOUBLE_EQ(plan.movedModelBytes, plan.coldLoadBytes);
    // Per-instance disk loads run concurrently: the duration tracks the
    // per-instance bytes (W/4 per instance at 1 GB/s), not the total.
    const double per_instance = spec.totalWeightBytes() / 4.0;
    EXPECT_NEAR(plan.totalDuration,
                kParams.migrationSetupTime +
                    per_instance / kParams.diskBandwidth,
                2.0);
}

TEST_F(PlannerFixture, ByteConservation)
{
    // Re-parallelize (2,2,8) -> (2,3,4) on the same 8 instances: every
    // needed byte is either reused in place or moved.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {0.0, 0.0});
    EXPECT_NEAR(plan.reusedBytes + plan.movedModelBytes,
                mapping.neededModelBytes, mapping.neededModelBytes * 1e-6);
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0);
    EXPECT_GT(plan.reusedBytes, 0.0);
    EXPECT_GT(plan.movedModelBytes, 0.0);
}

TEST_F(PlannerFixture, CacheStepComesFirst)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 5000.0);
    const auto mapping =
        mapper.map(snap, new_cfg, instances, {5000.0, 5000.0});
    const auto plan =
        planner.plan(snap, mapping, new_cfg, {5000.0, 5000.0});
    ASSERT_FALSE(plan.steps.empty());
    EXPECT_TRUE(plan.cacheMigrated);
    EXPECT_TRUE(plan.steps.front().isCache());
    EXPECT_GT(plan.movedCacheBytes, 0.0);
    for (std::size_t i = 1; i < plan.steps.size(); ++i)
        EXPECT_FALSE(plan.steps[i].isCache());
}

TEST_F(PlannerFixture, MigrateCacheFalseDropsCacheStep)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 5000.0);
    const auto mapping =
        mapper.map(snap, new_cfg, instances, {5000.0, 5000.0});
    PlannerOptions opts;
    opts.migrateCache = false;
    const auto plan =
        planner.plan(snap, mapping, new_cfg, {5000.0, 5000.0}, opts);
    EXPECT_FALSE(plan.cacheMigrated);
    EXPECT_DOUBLE_EQ(plan.movedCacheBytes, 0.0);
    for (const auto &s : plan.steps)
        EXPECT_FALSE(s.isCache());
}

TEST_F(PlannerFixture, ProgressiveResumeBeatsBlocking)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});

    PlannerOptions progressive;
    const auto p1 = planner.plan(snap, mapping, new_cfg, {0.0, 0.0},
                                 progressive);
    PlannerOptions blocking;
    blocking.progressive = false;
    const auto p2 =
        planner.plan(snap, mapping, new_cfg, {0.0, 0.0}, blocking);

    // Progressive resume never waits longer than blocking; the *strict*
    // win shows on replicas whose context is reused in place (see
    // UntouchedReplicaResumesImmediately) — when the memory-optimised
    // order defers a front-stage layer to the end, a fully re-sharded
    // replica can only start when everything has arrived.
    EXPECT_LE(p1.resumeOffset, p2.resumeOffset + 1e-12);
    EXPECT_DOUBLE_EQ(p2.resumeOffset, p2.totalDuration);
    EXPECT_LE(p1.resumeOffset, p1.totalDuration + 1e-12);
    for (double r : p1.pipelineResume)
        EXPECT_LE(r, p1.totalDuration + 1e-12);
}

TEST_F(PlannerFixture, UntouchedReplicaResumesImmediately)
{
    // One replica keeps its context in place; the other is rebuilt on
    // four fresh instances.  The warm replica's resume must be ~setup
    // time only.
    par::ParallelConfig cfg{2, 2, 8, 8};
    makeInstances(12);
    auto snap = packedSnapshot(cfg);
    // Drop replica 0's holdings (instances 0-3) as if those were lost.
    engine::ContextSnapshot partial;
    for (const auto &g : snap.gpus) {
        if (g.instance >= 4)
            partial.gpus.push_back(g);
    }
    // Survivors: warm instances 4..7 plus fresh instances 8..11.
    std::vector<const cluster::Instance *> survivors(instances.begin() + 4,
                                                     instances.end());
    const auto mapping = mapper.map(partial, cfg, survivors, {0.0, 0.0});
    const auto plan = planner.plan(partial, mapping, cfg, {0.0, 0.0});
    ASSERT_EQ(plan.pipelineResume.size(), 2u);
    const double fast =
        std::min(plan.pipelineResume[0], plan.pipelineResume[1]);
    const double slow =
        std::max(plan.pipelineResume[0], plan.pipelineResume[1]);
    EXPECT_NEAR(fast, kParams.migrationSetupTime, 1e-6);
    EXPECT_GT(slow, fast);
}

TEST_F(PlannerFixture, MemoryOptRespectsUmaxWhenPossible)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});

    PlannerOptions opt;
    const auto optimised = planner.plan(snap, mapping, new_cfg, {0.0, 0.0},
                                        opt);
    PlannerOptions naive;
    naive.memoryOpt = false;
    const auto plain =
        planner.plan(snap, mapping, new_cfg, {0.0, 0.0}, naive);

    EXPECT_LE(optimised.peakBufferBytes, plain.peakBufferBytes + 1.0);
    // Both plans carry every layer exactly once.
    std::set<int> layers_a, layers_b;
    for (const auto &s : optimised.steps) {
        if (!s.isCache())
            layers_a.insert(s.layer);
    }
    for (const auto &s : plain.steps) {
        if (!s.isCache())
            layers_b.insert(s.layer);
    }
    EXPECT_EQ(layers_a.size(), static_cast<std::size_t>(spec.numLayers()));
    EXPECT_EQ(layers_a, layers_b);
    EXPECT_NEAR(optimised.movedModelBytes, plain.movedModelBytes, 1.0);
}

TEST_F(PlannerFixture, StageReadyWithinTotal)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {0.0, 0.0});
    ASSERT_EQ(plan.stageReady.size(), 3u);
    for (double r : plan.stageReady) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, plan.totalDuration + 1e-9);
    }
    // Step durations sum to the total.
    double sum = kParams.migrationSetupTime;
    for (const auto &s : plan.steps)
        sum += s.duration;
    EXPECT_NEAR(sum, plan.totalDuration, 1e-6);
}

TEST_F(PlannerFixture, ScaleInFindsPeerSources)
{
    // (2,2,8) on 8 instances -> (1,2,8) on 4 survivors: the survivors
    // hold replica-0 or replica-1 context; all needs are servable from
    // peers, nothing from disk.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{1, 2, 8, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    std::vector<const cluster::Instance *> survivors(instances.begin(),
                                                     instances.begin() + 4);
    engine::ContextSnapshot partial;
    for (const auto &g : snap.gpus) {
        if (g.instance < 4)
            partial.gpus.push_back(g);
    }
    const auto mapping = mapper.map(partial, new_cfg, survivors, {0.0});
    const auto plan = planner.plan(partial, mapping, new_cfg, {0.0});
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0);
    // Identity on the survivors: nothing moves either.
    EXPECT_NEAR(plan.movedModelBytes, 0.0, 1.0);
}

TEST_F(PlannerFixture, StepEventScheduleIsConsistent)
{
    // The per-step event schedule (startOffset/finishOffset) must agree
    // with the duration chain: stageReady covers the latest finishing
    // step of each stage, and durations telescope to totalDuration.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {600.0, 600.0});
    ASSERT_FALSE(plan.steps.empty());

    double prev_finish = kParams.migrationSetupTime;
    double sum = kParams.migrationSetupTime;
    std::vector<double> stage_latest(new_cfg.pp, kParams.migrationSetupTime);
    const par::Topology topo(new_cfg, spec.numLayers());
    for (const auto &s : plan.steps) {
        EXPECT_GE(s.finishOffset, s.startOffset - 1e-9);
        EXPECT_LE(s.finishOffset, plan.totalDuration + 1e-9);
        sum += s.duration;
        EXPECT_NEAR(s.duration,
                    std::max(s.finishOffset - prev_finish, 0.0), 1e-9);
        prev_finish = std::max(prev_finish, s.finishOffset);
        if (!s.isCache()) {
            const int p = topo.stageOfLayer(s.layer);
            stage_latest[p] = std::max(stage_latest[p], s.finishOffset);
        }
    }
    EXPECT_NEAR(sum, plan.totalDuration, 1e-6);
    for (int p = 0; p < new_cfg.pp; ++p)
        EXPECT_GE(plan.stageReady[p] + 1e-9, stage_latest[p]);
}

TEST_F(PlannerFixture, LinkScheduledPlanBeatsOrMatchesSerializedCursor)
{
    // Default (link-scheduled) timing: step finishes need not be
    // monotone — disjoint instance pairs overlap — but every finish
    // stays inside totalDuration, stageReady still tracks the latest
    // finishing step of each stage, the per-replica resumes stay causal,
    // and the adopted makespan never exceeds the serialized-cursor
    // reference bound.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {600.0, 600.0});
    ASSERT_FALSE(plan.steps.empty());

    // The plan is timed on idle links: exactly a link schedule of its
    // steps from origin 0 with the setup charged once.
    const auto steps = MigrationPlanner::transferSteps(plan);
    cost::LinkScheduleOptions lopts;
    lopts.setupTime = kParams.migrationSetupTime;
    const auto sched = cost::LinkSchedule(kParams).build(steps, lopts);
    EXPECT_DOUBLE_EQ(sched.makespan, plan.totalDuration);
    ASSERT_EQ(sched.stepFinish.size(), plan.steps.size());
    for (std::size_t k = 0; k < plan.steps.size(); ++k) {
        EXPECT_DOUBLE_EQ(sched.stepStart[k], plan.steps[k].startOffset);
        EXPECT_DOUBLE_EQ(sched.stepFinish[k], plan.steps[k].finishOffset);
    }

    const double serialized =
        cost::MigrationCostModel(kParams).serializedDuration(steps);
    EXPECT_LE(plan.totalDuration, serialized + 1e-9);
    // This transition has two replicas exchanging context over disjoint
    // NIC pairs: interleaving must genuinely beat the serial cursor.
    EXPECT_LT(plan.totalDuration, serialized - 1e-6);

    std::vector<double> stage_latest(new_cfg.pp,
                                     kParams.migrationSetupTime);
    const par::Topology topo(new_cfg, spec.numLayers());
    for (const auto &s : plan.steps) {
        EXPECT_GE(s.startOffset, kParams.migrationSetupTime - 1e-9);
        EXPECT_GE(s.finishOffset, s.startOffset - 1e-9);
        EXPECT_LE(s.finishOffset, plan.totalDuration + 1e-9);
        if (!s.isCache()) {
            const int p = topo.stageOfLayer(s.layer);
            stage_latest[p] = std::max(stage_latest[p], s.finishOffset);
        }
    }
    for (int p = 0; p < new_cfg.pp; ++p)
        EXPECT_NEAR(plan.stageReady[p], stage_latest[p], 1e-9);
    for (int d = 0; d < new_cfg.dp; ++d) {
        EXPECT_GE(plan.pipelineResume[d],
                  kParams.migrationSetupTime - 1e-9);
        EXPECT_LE(plan.pipelineResume[d], plan.totalDuration + 1e-9);
    }
}

TEST_F(PlannerFixture, RetimeShiftsResumesWithStepFinishes)
{
    // retime() re-derives every timing field from external step finishes
    // (what the transfer data plane feeds back after scheduling against
    // busy links): shifting all finishes by a constant shifts
    // totalDuration and every resume by at most that constant, and
    // keeps stageReady consistent.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});
    auto plan = planner.plan(snap, mapping, new_cfg, {600.0, 600.0});
    ASSERT_FALSE(plan.steps.empty());
    const double base_total = plan.totalDuration;
    const double base_resume = plan.resumeOffset;

    const double shift = 2.5;
    std::vector<double> starts, finishes;
    for (const auto &s : plan.steps) {
        starts.push_back(s.startOffset + shift);
        finishes.push_back(s.finishOffset + shift);
    }
    planner.retime(plan, new_cfg, PlannerOptions{}, starts, finishes);
    EXPECT_NEAR(plan.totalDuration, base_total + shift, 1e-9);
    EXPECT_GE(plan.resumeOffset, base_resume - 1e-9);
    EXPECT_LE(plan.resumeOffset, base_resume + shift + 1e-9);
    for (int d = 0; d < new_cfg.dp; ++d)
        EXPECT_LE(plan.pipelineResume[d], plan.totalDuration + 1e-9);

    // One start and one finish per step, or nothing is retimed.
    starts.pop_back();
    EXPECT_THROW(
        planner.retime(plan, new_cfg, PlannerOptions{}, starts, finishes),
        std::invalid_argument);
    EXPECT_NEAR(plan.totalDuration, base_total + shift, 1e-9);
}

} // namespace
} // namespace spotserve::core
