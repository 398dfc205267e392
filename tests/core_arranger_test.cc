/**
 * @file
 * Tests for the interruption arranger (JIT arrangement, §4.1).
 */

#include <gtest/gtest.h>

#include "core/interruption_arranger.h"
#include "model/model_spec.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

class ArrangerFixture : public ::testing::Test
{
  protected:
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    cost::LatencyModel latency{spec, kParams};
    InterruptionArranger arranger{latency};
    par::ParallelConfig cfg{1, 2, 8, 8};
};

TEST_F(ArrangerFixture, MaximalIterationsWithinGrace)
{
    const double t_mig = 5.0;
    const double grace = 15.0;
    const auto a =
        arranger.arrangeForPreemption(cfg, 560, 128, 100.0, grace, t_mig);
    ASSERT_GT(a.iterations, 0);
    // The arranged span plus one in-flight iteration fits the budget...
    const double span =
        latency.decodeSpanTime(cfg, 560, a.iterations) +
        latency.decodeIterTime(cfg, 560);
    EXPECT_LT(span, grace - t_mig);
    // ... and one more iteration would not (maximality).
    const double span_plus =
        latency.decodeSpanTime(cfg, 560, a.iterations + 1) +
        latency.decodeIterTime(cfg, 560);
    EXPECT_GE(span_plus, grace - t_mig);
}

TEST_F(ArrangerFixture, NoBudgetMeansNoIterations)
{
    const auto a =
        arranger.arrangeForPreemption(cfg, 560, 80, 100.0, 4.0, 5.0);
    EXPECT_EQ(a.iterations, 0);
}

TEST_F(ArrangerFixture, CappedByRemainingTokens)
{
    const auto a =
        arranger.arrangeForPreemption(cfg, 560, 3, 100.0, 300.0, 1.0);
    EXPECT_EQ(a.iterations, 3);
}

TEST_F(ArrangerFixture, CacheMigrationGuard)
{
    // T_mig must be smaller than the execution time of the committed
    // progress, otherwise rerouting (recompute) is cheaper (§4.1).
    const auto keep =
        arranger.arrangeForPreemption(cfg, 560, 80, 100.0, 30.0, 5.0);
    EXPECT_TRUE(keep.migrateCache);
    const auto drop =
        arranger.arrangeForPreemption(cfg, 560, 80, 2.0, 30.0, 5.0);
    EXPECT_FALSE(drop.migrateCache);
}

TEST_F(ArrangerFixture, RecomputeTimeMatchesModel)
{
    const double t = arranger.recomputeTime(cfg, 512, 50);
    EXPECT_NEAR(t,
                latency.prefillTime(cfg, 512) +
                    latency.decodeSpanTime(cfg, 513, 50),
                1e-9);
    EXPECT_DOUBLE_EQ(arranger.recomputeTime(cfg, 512, 0), 0.0);
}

TEST_F(ArrangerFixture, MoreGraceMoreIterations)
{
    int prev = -1;
    for (double grace : {6.0, 10.0, 20.0, 30.0}) {
        const auto a =
            arranger.arrangeForPreemption(cfg, 560, 128, 100.0, grace, 5.0);
        EXPECT_GE(a.iterations, prev);
        prev = a.iterations;
    }
}

} // namespace
} // namespace spotserve::core
