/**
 * @file
 * Deterministic fault injection on the executor seam.
 *
 * Replays a cluster::FaultPlan against a live experiment: unannounced
 * (hard) preemptions go through InstanceManager so the serving system
 * sees a real onInstancePreempted with no preceding notice; migration
 * kills pick their victim from the TransferDataPlane's in-flight link
 * occupancy at fire time (deferring deterministically until a transfer is
 * actually in flight); link faults stall or degrade the data plane's
 * realized bandwidth below the quoted schedule.  All victim choices come
 * from the plan's own seeded RNG, so a given (plan, workload, trace)
 * triple always produces the same failure history.  The class lives in
 * namespace sim because it is pure executor-side machinery — it mutates
 * the cluster only through the same public interfaces the trace replay
 * uses.
 */

#ifndef SPOTSERVE_CLUSTER_FAULT_INJECTOR_H
#define SPOTSERVE_CLUSTER_FAULT_INJECTOR_H

#include "cluster/fault_plan.h"
#include "cluster/instance_manager.h"
#include "simcore/executor.h"
#include "simcore/rng.h"

namespace spotserve {

namespace core {
class TransferDataPlane;
}

namespace sim {

class FaultInjector
{
  public:
    FaultInjector(Executor &executor, cluster::InstanceManager &instances,
                  cluster::FaultPlan plan);

    /**
     * Give the injector the serving system's data plane: required for
     * link faults and for picking mid-migration victims.  Without it,
     * KillMigration* events degrade to hard preemptions and link faults
     * are skipped.
     */
    void attachDataPlane(core::TransferDataPlane *data_plane);

    /** Schedule every event of the plan; call once before running. */
    void arm();

  private:
    void fire(const cluster::FaultEvent &event);
    void fireMigrationKill(const cluster::FaultEvent &event,
                           SimTime deadline);
    void fireLinkFault(const cluster::FaultEvent &event);
    /** Seeded victim choice among candidate instance ids. */
    int pickVictim(const std::vector<int> &candidates);

    Executor &sim_;
    cluster::InstanceManager &instances_;
    cluster::FaultPlan plan_;
    core::TransferDataPlane *dataPlane_ = nullptr;
    Rng rng_;
    bool armed_ = false;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_CLUSTER_FAULT_INJECTOR_H
