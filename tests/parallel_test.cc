/**
 * @file
 * Tests for parallel configurations, topology arithmetic and device meshes.
 */

#include <gtest/gtest.h>

#include "closed_forms.h"
#include "parallel/device_mesh.h"
#include "parallel/parallel_config.h"

namespace spotserve::par {
namespace {

TEST(ParallelConfigTest, DerivedCounts)
{
    ParallelConfig c{2, 3, 4, 8};
    EXPECT_EQ(c.gpusPerPipeline(), 12);
    EXPECT_EQ(c.totalGpus(), 24);
    EXPECT_EQ(c.concurrentRequests(), 16);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(c.str(), "(D=2, P=3, M=4, B=8)");
    EXPECT_EQ(c.shortStr(), "(2,3,4)");
}

TEST(ParallelConfigTest, InvalidConfigs)
{
    EXPECT_FALSE((ParallelConfig{0, 1, 1, 1}).valid());
    EXPECT_FALSE((ParallelConfig{1, 0, 1, 1}).valid());
    EXPECT_FALSE((ParallelConfig{1, 1, -1, 1}).valid());
    EXPECT_FALSE((ParallelConfig{1, 1, 1, 0}).valid());
}

/** Position/index round trips across a sweep of configurations. */
class TopologyRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(TopologyRoundTrip, FlatIndexIsInverse)
{
    auto [dp, pp, tp] = GetParam();
    ParallelConfig c{dp, pp, tp, 1};
    Topology topo(c, 48);
    for (int i = 0; i < topo.size(); ++i) {
        const Position pos = topo.position(i);
        EXPECT_EQ(topo.flatIndex(pos), i);
        EXPECT_GE(pos.d, 0);
        EXPECT_LT(pos.d, dp);
        EXPECT_GE(pos.p, 0);
        EXPECT_LT(pos.p, pp);
        EXPECT_GE(pos.m, 0);
        EXPECT_LT(pos.m, tp);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, TopologyRoundTrip,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 2, 2),
                      std::make_tuple(3, 2, 4), std::make_tuple(2, 3, 4),
                      std::make_tuple(1, 2, 8), std::make_tuple(4, 1, 2),
                      std::make_tuple(2, 6, 1)));

/** Stage layer ranges must partition [0, L). */
class StagePartition : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(StagePartition, LayersPartitioned)
{
    auto [layers, pp] = GetParam();
    Topology topo(ParallelConfig{1, pp, 1, 1}, layers);
    int covered = 0;
    int prev_last = 0;
    for (int p = 0; p < pp; ++p) {
        auto [first, last] = topo.stageLayers(p);
        EXPECT_EQ(first, prev_last);
        EXPECT_GT(last, first);
        prev_last = last;
        covered += last - first;
        for (int l = first; l < last; ++l)
            EXPECT_EQ(topo.stageOfLayer(l), p);
    }
    EXPECT_EQ(covered, layers);
    // Earlier stages take the remainder.
    auto [f0, l0] = topo.stageLayers(0);
    auto [fl, ll] = topo.stageLayers(pp - 1);
    EXPECT_GE(l0 - f0, ll - fl);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StagePartition,
                         ::testing::Values(std::make_pair(32, 1),
                                           std::make_pair(32, 2),
                                           std::make_pair(44, 3),
                                           std::make_pair(60, 7),
                                           std::make_pair(44, 8),
                                           std::make_pair(5, 5)));

TEST(TopologyTest, RejectsMoreStagesThanLayers)
{
    EXPECT_THROW(Topology(ParallelConfig{1, 9, 1, 1}, 8),
                 std::invalid_argument);
}

TEST(TopologyTest, ShardIntervalsTile)
{
    Topology topo(ParallelConfig{1, 1, 4, 1}, 8);
    double prev_hi = 0.0;
    for (int m = 0; m < 4; ++m) {
        auto [lo, hi] = topo.shardInterval(m);
        EXPECT_DOUBLE_EQ(lo, prev_hi);
        EXPECT_DOUBLE_EQ(hi - lo, 0.25);
        prev_hi = hi;
    }
    EXPECT_DOUBLE_EQ(prev_hi, 1.0);
}

TEST(ShardOverlapTest, IdenticalShardsOverlapFully)
{
    EXPECT_DOUBLE_EQ(shardOverlapFraction(1, 4, 1, 4), 0.25);
}

TEST(ShardOverlapTest, DisjointShards)
{
    EXPECT_DOUBLE_EQ(shardOverlapFraction(0, 4, 3, 4), 0.0);
    EXPECT_DOUBLE_EQ(shardOverlapFraction(0, 2, 1, 2), 0.0);
}

TEST(ShardOverlapTest, RefinementNests)
{
    // Shard 0 of 2 covers shards 0 and 1 of 4.
    EXPECT_DOUBLE_EQ(shardOverlapFraction(0, 2, 0, 4), 0.25);
    EXPECT_DOUBLE_EQ(shardOverlapFraction(0, 2, 1, 4), 0.25);
    EXPECT_DOUBLE_EQ(shardOverlapFraction(0, 2, 2, 4), 0.0);
}

TEST(ShardOverlapTest, Symmetry)
{
    for (int m = 0; m < 4; ++m) {
        for (int m2 = 0; m2 < 8; ++m2) {
            EXPECT_DOUBLE_EQ(shardOverlapFraction(m, 4, m2, 8),
                             shardOverlapFraction(m2, 8, m, 4));
        }
    }
}

TEST(ShardOverlapTest, SumsOverTargetEqualSourceWidth)
{
    // The overlap of shard m of M with all shards of M2 covers exactly
    // shard m's width 1/M.
    for (int m = 0; m < 3; ++m) {
        double sum = 0.0;
        for (int m2 = 0; m2 < 5; ++m2)
            sum += shardOverlapFraction(m, 3, m2, 5);
        EXPECT_NEAR(sum, 1.0 / 3.0, 1e-12);
    }
}

TEST(DeviceMeshTest, AssignAndQuery)
{
    DeviceMesh mesh(ParallelConfig{2, 2, 2, 1}, 8);
    EXPECT_FALSE(meshComplete(mesh));
    int gpu = 100;
    for (int i = 0; i < mesh.topology().size(); ++i)
        mesh.assign(mesh.topology().position(i), gpu++);
    EXPECT_TRUE(meshComplete(mesh));
    EXPECT_EQ(mesh.gpuAt(Position{0, 0, 0}), 100);
    EXPECT_EQ(mesh.gpuAt(Position{1, 1, 1}), 107);
    EXPECT_EQ(mesh.positionOf(103), (Position{0, 1, 1}));
    EXPECT_TRUE(mesh.contains(105));
    EXPECT_FALSE(mesh.contains(99));
}

TEST(DeviceMeshTest, PipelineViews)
{
    DeviceMesh mesh(ParallelConfig{2, 2, 2, 1}, 8);
    int gpu = 0;
    for (int i = 0; i < mesh.topology().size(); ++i)
        mesh.assign(mesh.topology().position(i), gpu++);
    EXPECT_EQ(mesh.pipelineGpus(0), (std::vector<GpuId>{0, 1, 2, 3}));
    EXPECT_EQ(mesh.pipelineGpus(1), (std::vector<GpuId>{4, 5, 6, 7}));
    EXPECT_THROW(mesh.pipelineGpus(2), std::out_of_range);
}

TEST(DeviceMeshTest, DoubleBindingRejected)
{
    DeviceMesh mesh(ParallelConfig{1, 1, 2, 1}, 4);
    mesh.assign(Position{0, 0, 0}, 7);
    EXPECT_THROW(mesh.assign(Position{0, 0, 1}, 7), std::invalid_argument);
    EXPECT_THROW(mesh.assign(Position{0, 0, 1}, -1), std::invalid_argument);
}

TEST(DeviceMeshTest, ReassignReleasesOldGpu)
{
    DeviceMesh mesh(ParallelConfig{1, 1, 2, 1}, 4);
    mesh.assign(Position{0, 0, 0}, 7);
    mesh.assign(Position{0, 0, 0}, 9);
    EXPECT_FALSE(mesh.contains(7));
    EXPECT_EQ(mesh.gpuAt(Position{0, 0, 0}), 9);
}

TEST(DeviceMeshTest, UnknownGpuThrows)
{
    DeviceMesh mesh(ParallelConfig{1, 1, 1, 1}, 4);
    EXPECT_THROW(mesh.positionOf(3), std::out_of_range);
}

} // namespace
} // namespace spotserve::par
