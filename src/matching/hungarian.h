/**
 * @file
 * Kuhn-Munkres (Hungarian) weighted bipartite matching.
 *
 * SpotServe formalises device mapping as maximum-weight bipartite matching
 * between available GPU devices and the pipeline-stage-shard positions of
 * the target configuration (§3.3), with edge weights equal to the reusable
 * context bytes.  This module provides the O(n^3) potentials-based solver
 * plus an exponential brute-force reference used by the property tests.
 */

#ifndef SPOTSERVE_MATCHING_HUNGARIAN_H
#define SPOTSERVE_MATCHING_HUNGARIAN_H

#include <vector>

namespace spotserve {
namespace match {

/** Dense weight/cost matrix indexed [row][col]. */
using Matrix = std::vector<std::vector<double>>;

/** Result of an assignment problem. */
struct Assignment
{
    /**
     * rowToCol[i] = column matched to row i, or -1 when unmatched (only
     * possible when rows > cols).
     */
    std::vector<int> rowToCol;

    /** Sum of matched entries under the *original* objective. */
    double totalWeight = 0.0;

    /** colToRow view of the same matching (-1 for unmatched columns). */
    std::vector<int> colToRow(std::size_t num_cols) const;
};

/**
 * Maximum-weight perfect-on-the-smaller-side assignment.  Handles
 * rectangular matrices; every row (or column, whichever side is smaller)
 * is matched.  Weights may be any finite doubles.
 */
Assignment maxWeightAssignment(const Matrix &weights);

/** Minimum-cost counterpart. */
Assignment minCostAssignment(const Matrix &costs);

} // namespace match
} // namespace spotserve

#endif // SPOTSERVE_MATCHING_HUNGARIAN_H
