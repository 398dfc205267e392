/**
 * @file
 * Wall-clock cost model for one reconfiguration planning pass.
 *
 * SpotServe overlaps reconfiguration with serving (§4.1-4.2): while the
 * controller sweeps the configuration space, the device mapper runs its
 * two-step Kuhn-Munkres solve and the migration planner orders the layer
 * schedule, the deployed pipelines keep admitting and decoding.  In the
 * simulation that planning work executes instantly in wall-clock terms,
 * so its real cost must be *charged* as simulated time — this model
 * estimates it from the same size parameters that drive the real
 * algorithms: candidate count (and how many candidates the memoised
 * sweep actually had to evaluate cold), fleet size, mesh positions and
 * layer count.  The paper reports the online optimizer overhead as
 * negligible (<1 s) at testbed scale (~12 instances); the constants
 * below are calibrated so that scale costs tens of milliseconds while a
 * cold 128-instance sweep grows toward the ~1 s envelope — which is
 * exactly why the serving system runs it off the hot path.
 */

#ifndef SPOTSERVE_COSTMODEL_PLANNING_LATENCY_MODEL_H
#define SPOTSERVE_COSTMODEL_PLANNING_LATENCY_MODEL_H

#include <cstddef>

namespace spotserve {
namespace cost {

/** Calibrated constants and the composition of one planning pass. */
struct PlanningLatencyModel
{
    /** Plan dissemination + bookkeeping per pass (RPC fan-out). */
    double fixedOverhead = 0.020;

    /** One cold candidate evaluation (throughput + queueing model). */
    double candidateEvalTime = 4.0e-6;

    /** One memoised candidate lookup (cache hit). */
    double candidateLookupTime = 0.1e-6;

    /** Inter-instance Kuhn-Munkres: per n^3 unit of the square solve. */
    double matchingUnitTime = 0.4e-6;

    /** One intra-instance (instance, slot) sub-matching + edge scoring. */
    double slotPairTime = 2.0e-6;

    /** Migration planner: per (layer x snapshot GPU) analysis unit. */
    double plannerUnitTime = 0.15e-6;

    /**
     * Algorithm 1 sweep time: @p cold_evals candidates paid the full
     * cost-model evaluation, the rest of @p candidates hit the
     * memoisation cache — repeated sweeps on an unchanged fleet are
     * O(changed), not O(space).
     */
    double chooseConfigTime(std::size_t candidates,
                            std::size_t cold_evals) const;

    /**
     * Device-mapper time for @p instances survivors and @p slots
     * instance-sized position groups; @p every_replica_kept models a pass
     * that pins every replica in place, so neither Hungarian stage runs.
     */
    double mapperTime(int instances, int slots,
                      bool every_replica_kept) const;

    /** Migration-planner time over @p layers and @p snapshot_gpus. */
    double plannerTime(int layers, int snapshot_gpus) const;

    /** One full pass: sweep + mapping + migration planning. */
    double totalTime(std::size_t candidates, std::size_t cold_evals,
                     int instances, int slots, bool every_replica_kept,
                     int layers, int snapshot_gpus) const;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_PLANNING_LATENCY_MODEL_H
