/**
 * @file
 * Enumeration of deployable parallel configurations.
 *
 * The optimizer searches over C = (D, P, M, B) with B and M in {1,2,4,8}
 * (§6.1) and P in {1,2,3,4,6,8}, the practical stage counts of
 * FasterTransformer-style deployments.  These choice sets are fixed.  A
 * configuration is deployable on N instances when its tensor groups can
 * be packed onto whole instances (an M=8 group occupies two full 4-GPU
 * instances) and each GPU's memory budget holds.
 *
 * Enumeration is memoised: the memory-feasibility of a (P, M, B) shape is
 * D-independent and cached after the first probe, and the full result for
 * a given instance budget is cached so repeated controller sweeps on an
 * unchanged fleet cost O(result) instead of re-running the memory model
 * over the whole space.  The enumeration also drops configurations that
 * can never win Algorithm 1's selection (see enumerate()).
 */

#ifndef SPOTSERVE_COSTMODEL_CONFIG_SPACE_H
#define SPOTSERVE_COSTMODEL_CONFIG_SPACE_H

#include <map>
#include <tuple>
#include <vector>

#include "costmodel/latency_model.h"
#include "costmodel/memory_model.h"
#include "model/model_spec.h"
#include "parallel/parallel_config.h"

namespace spotserve {
namespace cost {

/** The one setting of the search space. */
struct ConfigSpaceOptions
{
    /**
     * Honour the memory-optimised planner's smaller migration reserve
     * (false = the Figure 9 planner ablation's naive double-buffering).
     */
    bool memOptPlanner = true;
};

/** Enumerates feasible configurations for a model on this hardware. */
class ConfigSpace
{
  public:
    ConfigSpace(const model::ModelSpec &spec, const CostParams &params,
                const SeqSpec &seq, ConfigSpaceOptions options = {});

    /**
     * Number of instances a configuration occupies.  Tensor groups of
     * M <= 4 GPUs tile 4-GPU instances exactly (M divides 4); M = 8 groups
     * take two whole instances per stage.
     */
    int instancesNeeded(const par::ParallelConfig &config) const;

    /** Memory-feasible and packable, ignoring the instance budget. */
    bool feasible(const par::ParallelConfig &config) const;

    /**
     * The feasible configurations deployable on @p num_instances that can
     * win Algorithm 1's selection — every returned config satisfies
     * feasible(c) and instancesNeeded(c) <= num_instances (an invariant
     * costmodel_test.cc asserts).  This also serves Algorithm 1 lines
     * 2-3, which consider configs the cloud could satisfy by allocating
     * more instances: call it with that upper bound.
     *
     * Dominated configurations are dropped: c2 is pruned when some c1
     * needs strictly fewer instances while phi(c1) >= phi(c2) and
     * l_exe(c1) <= l_exe(c2).  Because l_req(C, alpha) = l_exe + a
     * Kingman term monotone in both alpha/phi and 1/phi, such a c1 is
     * eligible whenever c2 is, has latency <= c2's at every alpha, and
     * beats c2 in the monetary-cost tie-break — so pruning is
     * decision-preserving (a regression test checks the controller
     * byte-for-byte against a sweep over enumerateAll()).  Prunedness is
     * budget-independent, so enumerate(m) is exactly enumerate(n >= m)
     * filtered to instancesNeeded <= m.  Results are cached per budget.
     */
    std::vector<par::ParallelConfig>
    enumerate(int num_instances) const;

    /**
     * Every feasible configuration deployable on @p num_instances,
     * dominated ones included: the reference space enumerate() prunes.
     * Not cached (the shape-feasibility cache still applies).
     */
    std::vector<par::ParallelConfig> enumerateAll(int num_instances) const;

    const MemoryModel &memory() const { return memory_; }

  private:
    /** D-independent memory feasibility of a (P, M, B) shape, cached. */
    bool shapeFits(int pp, int tp, int batch) const;

    /** Drop dominated configs (see enumerate()). */
    std::vector<par::ParallelConfig>
    prune(std::vector<par::ParallelConfig> candidates) const;

    model::ModelSpec spec_;
    CostParams params_;
    SeqSpec seq_;
    ConfigSpaceOptions options_;
    MemoryModel memory_;
    LatencyModel latency_;

    /** (P, M, B) -> memory_.fits (the expensive part of feasible()). */
    mutable std::map<std::tuple<int, int, int>, bool> shapeFits_;
    /** Instance budget -> final enumeration result. */
    mutable std::map<int, std::vector<par::ParallelConfig>> enumCache_;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_CONFIG_SPACE_H
