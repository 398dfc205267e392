/**
 * @file
 * Tests for the interruption arranger (JIT arrangement, §4.1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
    const int s = arranger.arrangeForPreemption(cfg, 560, 128, grace, t_mig);
    ASSERT_GT(s, 0);
    // The arranged span plus one in-flight iteration fits the budget...
    const double span =
        latency.decodeSpanTime(cfg, 560, s) +
        latency.decodeIterTime(cfg, 560);
    EXPECT_LT(span, grace - t_mig);
    // ... and one more iteration would not (maximality).
    const double span_plus =
        latency.decodeSpanTime(cfg, 560, s + 1) +
        latency.decodeIterTime(cfg, 560);
    EXPECT_GE(span_plus, grace - t_mig);
}

TEST_F(ArrangerFixture, NoBudgetMeansNoIterations)
{
    EXPECT_EQ(arranger.arrangeForPreemption(cfg, 560, 80, 4.0, 5.0), 0);
}

TEST_F(ArrangerFixture, CappedByRemainingTokens)
{
    EXPECT_EQ(arranger.arrangeForPreemption(cfg, 560, 3, 300.0, 1.0), 3);
}

TEST_F(ArrangerFixture, CacheMigrationGuard)
{
    // T_mig must be smaller than the execution time of the committed
    // progress, otherwise rerouting (recompute) is cheaper (§4.1); a tie
    // recomputes.
    EXPECT_TRUE(arranger.migrateCache(5.0, 100.0));
    EXPECT_FALSE(arranger.migrateCache(5.0, 2.0));
    EXPECT_FALSE(arranger.migrateCache(5.0, 5.0));
    EXPECT_FALSE(arranger.migrateCache(0.0, 0.0));
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

TEST_F(ArrangerFixture, CommittedWorkIsTheMostProgressedMember)
{
    // A mixed-progress batch is worth its most-progressed member's
    // recompute time, priced at the batch's live size.
    std::vector<engine::ActiveRequest> batch(3);
    batch[0].request.inputLen = 512;
    batch[0].committedTokens = 10;
    batch[1].request.inputLen = 256;
    batch[1].committedTokens = 90;
    batch[2].request.inputLen = 1024;
    batch[2].committedTokens = 0;
    par::ParallelConfig live = cfg;
    live.batch = 3;
    const double expected =
        std::max({arranger.recomputeTime(live, 512, 10),
                  arranger.recomputeTime(live, 256, 90),
                  arranger.recomputeTime(live, 1024, 0)});
    EXPECT_GT(expected, 0.0);
    EXPECT_DOUBLE_EQ(arranger.committedWork(cfg, batch), expected);
    EXPECT_DOUBLE_EQ(arranger.committedWork(cfg, {}), 0.0);
}

TEST_F(ArrangerFixture, MoreGraceMoreIterations)
{
    int prev = -1;
    for (double grace : {6.0, 10.0, 20.0, 30.0}) {
        const int s = arranger.arrangeForPreemption(cfg, 560, 128, grace, 5.0);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

} // namespace
} // namespace spotserve::core
