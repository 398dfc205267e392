/**
 * @file
 * Tests for the Kuhn-Munkres matcher, including randomized comparison
 * against an exponential brute-force reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "matching/hungarian.h"
#include "simcore/rng.h"

namespace spotserve::match {
namespace {

/**
 * Exponential-time exact reference (max weight): every ordered selection
 * of the larger side for the smaller one, via permutations of the full
 * range.  Tiny rectangular instances only.
 */
Assignment
bruteForceMaxWeight(const Matrix &weights)
{
    const std::size_t rows = weights.size();
    const std::size_t cols = rows == 0 ? 0 : weights[0].size();
    Assignment best;
    best.rowToCol.assign(rows, -1);
    if (rows == 0 || cols == 0)
        return best;
    const bool rows_small = rows <= cols;
    const std::size_t small = std::min(rows, cols);
    std::vector<int> perm(std::max(rows, cols));
    std::iota(perm.begin(), perm.end(), 0);
    double best_sum = -std::numeric_limits<double>::infinity();
    std::vector<int> best_sel;
    do {
        double sum = 0.0;
        for (std::size_t k = 0; k < small; ++k)
            sum += rows_small ? weights[k][perm[k]] : weights[perm[k]][k];
        if (sum > best_sum) {
            best_sum = sum;
            best_sel.assign(perm.begin(), perm.begin() + small);
        }
    } while (std::next_permutation(perm.begin(), perm.end()));

    for (std::size_t k = 0; k < small; ++k) {
        if (rows_small)
            best.rowToCol[k] = best_sel[k];
        else
            best.rowToCol[best_sel[k]] = static_cast<int>(k);
    }
    for (std::size_t i = 0; i < rows; ++i) {
        if (best.rowToCol[i] >= 0)
            best.totalWeight += weights[i][best.rowToCol[i]];
    }
    return best;
}

TEST(HungarianTest, TrivialSingleton)
{
    const auto a = maxWeightAssignment({{5.0}});
    EXPECT_EQ(a.rowToCol, (std::vector<int>{0}));
    EXPECT_DOUBLE_EQ(a.totalWeight, 5.0);
}

TEST(HungarianTest, PicksDiagonalWhenOptimal)
{
    Matrix w = {{10, 1, 1}, {1, 10, 1}, {1, 1, 10}};
    const auto a = maxWeightAssignment(w);
    EXPECT_EQ(a.rowToCol, (std::vector<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(a.totalWeight, 30.0);
}

TEST(HungarianTest, AvoidsGreedyTrap)
{
    // Greedy would match row0->col0 (9) forcing row1->col1 (1), total 10;
    // optimal is 8 + 8 = 16.
    Matrix w = {{9, 8}, {8, 1}};
    const auto a = maxWeightAssignment(w);
    EXPECT_DOUBLE_EQ(a.totalWeight, 16.0);
    EXPECT_EQ(a.rowToCol, (std::vector<int>{1, 0}));
}

TEST(HungarianTest, RectangularWideMatchesAllRows)
{
    Matrix w = {{1, 5, 2, 0}, {5, 1, 0, 2}};
    const auto a = maxWeightAssignment(w);
    EXPECT_EQ(a.rowToCol.size(), 2u);
    EXPECT_DOUBLE_EQ(a.totalWeight, 10.0);
}

TEST(HungarianTest, RectangularTallLeavesRowsUnmatched)
{
    Matrix w = {{5}, {7}, {6}};
    const auto a = maxWeightAssignment(w);
    EXPECT_DOUBLE_EQ(a.totalWeight, 7.0);
    EXPECT_EQ(a.rowToCol[1], 0);
    EXPECT_EQ(a.rowToCol[0], -1);
    EXPECT_EQ(a.rowToCol[2], -1);
}

TEST(HungarianTest, HandlesNegativeWeights)
{
    Matrix w = {{-1, -5}, {-5, -1}};
    const auto a = maxWeightAssignment(w);
    EXPECT_DOUBLE_EQ(a.totalWeight, -2.0);
}

TEST(HungarianTest, MinCostIsDualOfMaxWeight)
{
    Matrix c = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
    const auto a = minCostAssignment(c);
    EXPECT_DOUBLE_EQ(a.totalWeight, 5.0); // 1 + 2 + 2
}

TEST(HungarianTest, ColToRowInvertsMapping)
{
    Matrix w = {{10, 1, 1}, {1, 1, 10}};
    const auto a = maxWeightAssignment(w);
    const auto inv = a.colToRow(3);
    EXPECT_EQ(inv[0], 0);
    EXPECT_EQ(inv[2], 1);
    EXPECT_EQ(inv[1], -1);
}

TEST(HungarianTest, EmptyMatrix)
{
    const auto a = maxWeightAssignment({});
    EXPECT_TRUE(a.rowToCol.empty());
    EXPECT_DOUBLE_EQ(a.totalWeight, 0.0);
}

TEST(HungarianTest, RejectsRaggedAndNonFinite)
{
    EXPECT_THROW(maxWeightAssignment({{1.0, 2.0}, {1.0}}),
                 std::invalid_argument);
    EXPECT_THROW(
        maxWeightAssignment({{std::numeric_limits<double>::infinity()}}),
        std::invalid_argument);
}

TEST(HungarianTest, DeterministicOnTies)
{
    Matrix w = {{1, 1}, {1, 1}};
    const auto a = maxWeightAssignment(w);
    const auto b = maxWeightAssignment(w);
    EXPECT_EQ(a.rowToCol, b.rowToCol);
    EXPECT_DOUBLE_EQ(a.totalWeight, 2.0);
}

/** Randomized optimality property: KM == brute force on small instances. */
class KmVsBruteForce
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(KmVsBruteForce, TotalWeightOptimal)
{
    const auto [rows, cols] = GetParam();
    sim::Rng rng(1000 + rows * 17 + cols);
    for (int trial = 0; trial < 40; ++trial) {
        Matrix w(rows, std::vector<double>(cols));
        for (auto &row : w) {
            for (auto &v : row)
                v = rng.uniform(-10.0, 10.0);
        }
        const auto km = maxWeightAssignment(w);
        const auto bf = bruteForceMaxWeight(w);
        EXPECT_NEAR(km.totalWeight, bf.totalWeight, 1e-9)
            << "rows=" << rows << " cols=" << cols << " trial=" << trial;

        // The reported total must equal the sum of matched entries.
        double sum = 0.0;
        int matched = 0;
        for (int i = 0; i < rows; ++i) {
            if (km.rowToCol[i] >= 0) {
                sum += w[i][km.rowToCol[i]];
                ++matched;
            }
        }
        EXPECT_NEAR(sum, km.totalWeight, 1e-9);
        EXPECT_EQ(matched, std::min(rows, cols));

        // No column used twice.
        std::vector<int> used(cols, 0);
        for (int i = 0; i < rows; ++i) {
            if (km.rowToCol[i] >= 0)
                ++used[km.rowToCol[i]];
        }
        for (int c : used)
            EXPECT_LE(c, 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, KmVsBruteForce,
    ::testing::Values(std::make_pair(2, 2), std::make_pair(3, 3),
                      std::make_pair(4, 4), std::make_pair(5, 5),
                      std::make_pair(3, 6), std::make_pair(6, 3),
                      std::make_pair(2, 7), std::make_pair(7, 2),
                      std::make_pair(4, 8), std::make_pair(8, 4)));

TEST(HungarianTest, LargeInstanceRuns)
{
    sim::Rng rng(5);
    const int n = 64;
    Matrix w(n, std::vector<double>(n));
    for (auto &row : w) {
        for (auto &v : row)
            v = rng.uniform(0.0, 1e9);
    }
    const auto a = maxWeightAssignment(w);
    // Perfect matching, all distinct.
    std::vector<int> used(n, 0);
    for (int i = 0; i < n; ++i) {
        ASSERT_GE(a.rowToCol[i], 0);
        ++used[a.rowToCol[i]];
    }
    for (int c : used)
        EXPECT_EQ(c, 1);
    // At least as good as the identity assignment.
    double identity = 0.0;
    for (int i = 0; i < n; ++i)
        identity += w[i][i];
    EXPECT_GE(a.totalWeight, identity);
}

} // namespace
} // namespace spotserve::match
