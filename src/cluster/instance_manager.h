/**
 * @file
 * Cloud-side instance management: trace replay, dynamic allocation,
 * preemption notices, and billing.
 *
 * Mirrors the paper's instance manager (§3.1): it "interacts with the
 * cloud and receives instance preemption/acquisition notifications", can
 * allocate on-demand and spot instances together (Algorithm 1 line 8) and
 * releases over-provisioned capacity on-demand-first (line 10).
 */

#ifndef SPOTSERVE_CLUSTER_INSTANCE_MANAGER_H
#define SPOTSERVE_CLUSTER_INSTANCE_MANAGER_H

#include <memory>
#include <vector>

#include "cluster/availability_trace.h"
#include "cluster/instance.h"
#include "costmodel/cost_params.h"
#include "simcore/rng.h"
#include "simcore/executor.h"

namespace spotserve {
namespace cluster {

/** Receives availability callbacks from the InstanceManager. */
class ClusterListener
{
  public:
    virtual ~ClusterListener() = default;

    /** Instance finished provisioning and can serve. */
    virtual void onInstanceReady(const Instance &instance) = 0;

    /** Grace period started; the instance dies at @p preempt_at. */
    virtual void onPreemptionNotice(const Instance &instance,
                                    sim::SimTime preempt_at) = 0;

    /** Grace period expired; the instance is gone. */
    virtual void onInstancePreempted(const Instance &instance) = 0;

    /** We released the instance voluntarily. */
    virtual void onInstanceReleased(const Instance &instance) = 0;
};

/**
 * Owns every Instance of a simulation, replays an AvailabilityTrace,
 * serves dynamic allocation requests, and accounts monetary cost.
 */
class InstanceManager
{
  public:
    /**
     * @param victim_seed seeds the choice of which running spot instance a
     *        preemption notice hits; the cloud reclaims arbitrary
     *        capacity, so victims are drawn uniformly (deterministically
     *        per seed for reproducibility).
     */
    InstanceManager(sim::Executor &executor,
                    const cost::CostParams &params,
                    std::uint64_t victim_seed = 12345);

    /** Attach the (single) listener; must outlive the manager. */
    void setListener(ClusterListener *listener) { listener_ = listener; }

    /**
     * Schedule every event of @p trace onto the simulation.  Join events
     * create instances that become ready at the event time; preemption
     * notices pick the youngest running spot instance; releases retire
     * on-demand instances first.
     */
    void loadTrace(const AvailabilityTrace &trace);

    /**
     * Dynamically allocate @p count instances of @p type; they become
     * ready after the acquisition lead time (§3.2 treats engine launch +
     * initialisation as the acquisition grace period).
     * @return ids of the provisioning instances.
     */
    std::vector<InstanceId> requestInstances(int count, InstanceType type);

    /** Release one specific instance. */
    void releaseInstance(InstanceId id);

    /**
     * Kill @p count running spot instances with no notice at all: the
     * listener sees onInstancePreempted without a preceding
     * onPreemptionNotice.  Victims are drawn from the same seeded RNG as
     * noticed preemptions.  Returns the victims actually killed.
     */
    std::vector<InstanceId> hardPreempt(int count);

    /**
     * Kill one specific instance immediately (mid-migration fault
     * injection).  Usable instances die unannounced; instances already in
     * their grace period die early.  Returns false if the instance does
     * not exist or is already gone.
     */
    bool hardPreemptInstance(InstanceId id);

    /** Unannounced kills fired so far (trace + injector). */
    long hardPreemptions() const { return hardPreemptions_; }

    /** Lookup (valid for the lifetime of the manager). */
    const Instance *get(InstanceId id) const;

    /** Instances currently usable for serving (Running or GracePeriod). */
    std::vector<const Instance *> usableInstances() const;

    /** Usable instances that are not under a preemption notice. */
    std::vector<const Instance *> survivingInstances() const;

    /**
     * N_t for Algorithm 1: instances available for the *next*
     * configuration = surviving + provisioning (includes newly allocated,
     * excludes instances about to be preempted).
     */
    int planningCount() const;

    int usableCount() const;

    /** Accrued USD cost of all instances up to @p now. */
    double accruedCost(sim::SimTime now) const;

    /** Accrued instance-hours split by type, up to @p now. @{ */
    double spotInstanceHours(sim::SimTime now) const;
    double ondemandInstanceHours(sim::SimTime now) const;
    /** @} */

    int gpusPerInstance() const { return params_.gpusPerInstance; }
    const cost::CostParams &params() const { return params_; }

  private:
    Instance &create(InstanceType type, sim::SimTime ready_time);
    void fireReady(InstanceId id);
    void firePreemptNotice(int count, double grace_override = -1.0);
    void firePreempt(InstanceId id);
    void fireRelease(InstanceType type, int count);
    double billedSeconds(const Instance &inst, sim::SimTime now) const;

    sim::Executor &sim_;
    cost::CostParams params_;
    ClusterListener *listener_ = nullptr;
    std::vector<std::unique_ptr<Instance>> instances_;
    sim::Rng victimRng_;
    long hardPreemptions_ = 0;
};

} // namespace cluster
} // namespace spotserve

#endif // SPOTSERVE_CLUSTER_INSTANCE_MANAGER_H
