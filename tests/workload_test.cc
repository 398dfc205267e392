/**
 * @file
 * Tests for workload generation: Gamma arrivals, fluctuating rates, MAF
 * trace.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/maf_trace.h"
#include "workload/workload.h"

namespace spotserve::wl {
namespace {

const cost::SeqSpec kSeq{};

TEST(WorkloadTest, StationaryGammaHitsRate)
{
    sim::Rng rng(3);
    const auto w = stationaryGamma(1.5, 6.0, 20000.0, kSeq, rng);
    EXPECT_NEAR(static_cast<double>(w.size()) / 20000.0, 1.5, 0.15);
}

TEST(WorkloadTest, ArrivalsSortedWithIdsAndLengths)
{
    sim::Rng rng(4);
    const auto w = stationaryGamma(0.5, 6.0, 2000.0, kSeq, rng);
    ASSERT_FALSE(w.empty());
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i].id, static_cast<RequestId>(i));
        EXPECT_EQ(w[i].inputLen, 512);
        EXPECT_EQ(w[i].outputLen, 128);
        if (i > 0) {
            EXPECT_GE(w[i].arrival, w[i - 1].arrival);
        }
        EXPECT_LT(w[i].arrival, 2000.0);
    }
}

TEST(WorkloadTest, GammaCv6IsBurstier)
{
    sim::Rng rng_a(5), rng_b(5);
    const auto bursty = stationaryGamma(1.0, 6.0, 50000.0, kSeq, rng_a);
    const auto smooth = stationaryPoisson(1.0, 50000.0, kSeq, rng_b);
    // Compare the CV of inter-arrival gaps (population stddev / mean).
    auto cv = [](const Workload &w) {
        std::vector<double> gaps;
        for (std::size_t i = 1; i < w.size(); ++i)
            gaps.push_back(w[i].arrival - w[i - 1].arrival);
        double sum = 0.0;
        for (double g : gaps)
            sum += g;
        const double mean = sum / static_cast<double>(gaps.size());
        double squares = 0.0;
        for (double g : gaps)
            squares += (g - mean) * (g - mean);
        return std::sqrt(squares / static_cast<double>(gaps.size())) / mean;
    };
    EXPECT_GT(cv(bursty), 3.0);
    EXPECT_NEAR(cv(smooth), 1.0, 0.15);
}

TEST(WorkloadTest, DeterministicPerSeed)
{
    sim::Rng a(9), b(9), c(10);
    const auto wa = stationaryGamma(1.0, 6.0, 1000.0, kSeq, a);
    const auto wb = stationaryGamma(1.0, 6.0, 1000.0, kSeq, b);
    const auto wc = stationaryGamma(1.0, 6.0, 1000.0, kSeq, c);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_DOUBLE_EQ(wa[i].arrival, wb[i].arrival);
    EXPECT_NE(wa.size(), wc.size());
}

TEST(WorkloadTest, FluctuatingFollowsRateFunction)
{
    sim::Rng rng(6);
    auto rate = [](sim::SimTime t) { return t < 5000.0 ? 0.5 : 2.0; };
    const auto w = fluctuating(rate, 1.0, 10000.0, kSeq, rng);
    long early = 0, late = 0;
    for (const auto &r : w)
        (r.arrival < 5000.0 ? early : late) += 1;
    EXPECT_NEAR(early / 5000.0, 0.5, 0.1);
    EXPECT_NEAR(late / 5000.0, 2.0, 0.3);
}

TEST(WorkloadTest, DefaultRatesMatchPaper)
{
    EXPECT_DOUBLE_EQ(defaultRateForModel("OPT-6.7B"), 1.5);
    EXPECT_DOUBLE_EQ(defaultRateForModel("GPT-20B"), 0.35);
    EXPECT_DOUBLE_EQ(defaultRateForModel("LLaMA-30B"), 0.2);
    EXPECT_THROW(defaultRateForModel("GPT-5"), std::invalid_argument);
}

TEST(MafTraceTest, Fig8SegmentShape)
{
    const auto maf = MafTrace::fig8Segment();
    // 18 one-minute buckets.
    EXPECT_EQ(maf.rates().size(), 18u);
    // Stable start below capacity; burst peaks past the (2,2,8) capacity
    // region around t = 270-600 s; decay afterwards (§6.3).
    EXPECT_NEAR(maf.rateAt(0.0), 0.55, 1e-9);
    EXPECT_GT(maf.peakRate(), 0.9);
    EXPECT_GT(maf.rateAt(400.0), 0.85);
    EXPECT_LT(maf.rateAt(700.0), 0.7);
    EXPECT_LT(maf.rateAt(1079.0), 0.6);
    // Clamps beyond the end.
    EXPECT_DOUBLE_EQ(maf.rateAt(5000.0), maf.rates().back());
}

TEST(MafTraceTest, Validation)
{
    EXPECT_THROW(MafTrace({}, 60.0), std::invalid_argument);
    EXPECT_THROW(MafTrace({1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(MafTrace({1.0, -1.0}, 60.0), std::invalid_argument);
}

} // namespace
} // namespace spotserve::wl
