#include "matching/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spotserve {
namespace match {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Validate a rectangular, finite matrix; return {rows, cols}. */
std::pair<std::size_t, std::size_t>
shapeOf(const Matrix &m)
{
    const std::size_t rows = m.size();
    if (rows == 0)
        return {0, 0};
    const std::size_t cols = m[0].size();
    for (const auto &row : m) {
        if (row.size() != cols)
            throw std::invalid_argument("hungarian: ragged matrix");
        for (double v : row) {
            if (!std::isfinite(v))
                throw std::invalid_argument("hungarian: non-finite weight");
        }
    }
    return {rows, cols};
}

/**
 * Core O(n^3) Hungarian solver, minimisation, requires rows <= cols.
 * Classic potentials formulation (1-indexed internally).
 * Returns rowToCol (0-indexed).
 */
std::vector<int>
solveMinRect(const Matrix &a, std::size_t n, std::size_t m)
{
    std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
    std::vector<int> p(m + 1, 0), way(m + 1, 0);

    for (std::size_t i = 1; i <= n; ++i) {
        p[0] = static_cast<int>(i);
        std::size_t j0 = 0;
        std::vector<double> minv(m + 1, kInf);
        std::vector<char> used(m + 1, 0);
        do {
            used[j0] = 1;
            const std::size_t i0 = p[j0];
            double delta = kInf;
            std::size_t j1 = 0;
            for (std::size_t j = 1; j <= m; ++j) {
                if (used[j])
                    continue;
                const double cur = a[i0 - 1][j - 1] - u[i0] - v[j];
                if (cur < minv[j]) {
                    minv[j] = cur;
                    way[j] = static_cast<int>(j0);
                }
                if (minv[j] < delta) {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for (std::size_t j = 0; j <= m; ++j) {
                if (used[j]) {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
        } while (p[j0] != 0);
        // Augment along the alternating path.
        do {
            const std::size_t j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
        } while (j0 != 0);
    }

    std::vector<int> row_to_col(n, -1);
    for (std::size_t j = 1; j <= m; ++j) {
        if (p[j] != 0)
            row_to_col[p[j] - 1] = static_cast<int>(j) - 1;
    }
    return row_to_col;
}

double
matchedSum(const Matrix &w, const std::vector<int> &row_to_col)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < row_to_col.size(); ++i) {
        if (row_to_col[i] >= 0)
            sum += w[i][row_to_col[i]];
    }
    return sum;
}

} // namespace

std::vector<int>
Assignment::colToRow(std::size_t num_cols) const
{
    std::vector<int> out(num_cols, -1);
    for (std::size_t i = 0; i < rowToCol.size(); ++i) {
        const int c = rowToCol[i];
        if (c >= 0) {
            if (static_cast<std::size_t>(c) >= num_cols)
                throw std::out_of_range("Assignment::colToRow: bad num_cols");
            out[c] = static_cast<int>(i);
        }
    }
    return out;
}

Assignment
minCostAssignment(const Matrix &costs)
{
    auto [rows, cols] = shapeOf(costs);
    Assignment result;
    if (rows == 0 || cols == 0) {
        result.rowToCol.assign(rows, -1);
        return result;
    }

    if (rows <= cols) {
        result.rowToCol = solveMinRect(costs, rows, cols);
    } else {
        // Transpose, solve, invert the mapping.  Columns are the smaller
        // side, so every column is matched and some rows stay at -1.
        Matrix t(cols, std::vector<double>(rows));
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j)
                t[j][i] = costs[i][j];
        }
        const auto col_to_row = solveMinRect(t, cols, rows);
        result.rowToCol.assign(rows, -1);
        for (std::size_t j = 0; j < cols; ++j) {
            if (col_to_row[j] >= 0)
                result.rowToCol[col_to_row[j]] = static_cast<int>(j);
        }
    }
    result.totalWeight = matchedSum(costs, result.rowToCol);
    return result;
}

Assignment
maxWeightAssignment(const Matrix &weights)
{
    auto [rows, cols] = shapeOf(weights);
    if (rows == 0 || cols == 0) {
        Assignment r;
        r.rowToCol.assign(rows, -1);
        return r;
    }
    Matrix neg(rows, std::vector<double>(cols));
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j)
            neg[i][j] = -weights[i][j];
    }
    Assignment r = minCostAssignment(neg);
    r.totalWeight = matchedSum(weights, r.rowToCol);
    return r;
}

} // namespace match
} // namespace spotserve
