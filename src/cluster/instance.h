/**
 * @file
 * One cloud GPU instance (g4dn.12xlarge: 4 GPUs) and its lifecycle.
 */

#ifndef SPOTSERVE_CLUSTER_INSTANCE_H
#define SPOTSERVE_CLUSTER_INSTANCE_H

#include <string>
#include <vector>

#include "parallel/device_mesh.h"
#include "simcore/sim_time.h"

namespace spotserve {
namespace cluster {

/** Billing class of an instance. */
enum class InstanceType
{
    Spot,
    OnDemand,
};

/** Lifecycle states. */
enum class InstanceState
{
    Provisioning, ///< Requested; not yet usable.
    Running,      ///< Usable.
    GracePeriod,  ///< Preemption notice received; still usable until the end.
    Preempted,    ///< Terminated by the cloud.
    Released,     ///< Terminated by us.
};

const char *toString(InstanceType type);
const char *toString(InstanceState state);

/** Identifier of an instance within a simulation. */
using InstanceId = int;

constexpr InstanceId kInvalidInstance = -1;

/**
 * One GPU instance.  GPUs carry global ids derived from the instance id so
 * the device mapper can reason about co-location (GPU g lives on instance
 * g / gpusPerInstance).
 */
class Instance
{
  public:
    Instance(InstanceId id, InstanceType type, int gpus_per_instance,
             sim::SimTime ready_time);

    InstanceId id() const { return id_; }
    InstanceType type() const { return type_; }
    InstanceState state() const { return state_; }

    /** Global GPU ids hosted by this instance. */
    std::vector<par::GpuId> gpuIds() const;

    /** Instance hosting a given global GPU id. */
    static InstanceId instanceOfGpu(par::GpuId gpu, int gpus_per_instance);

    /** Time the instance became (or becomes) usable. */
    sim::SimTime readyTime() const { return readyTime_; }

    /** Time the preemption notice arrived; only valid in GracePeriod+. */
    sim::SimTime noticeTime() const { return noticeTime_; }

    /** Scheduled end of the grace period; only valid in GracePeriod+. */
    sim::SimTime preemptTime() const { return preemptTime_; }

    /** Time the instance stopped running (preempted or released). */
    sim::SimTime endTime() const { return endTime_; }

    /** Usable for serving right now (Running or GracePeriod). */
    bool usable() const;

    /** State transitions, enforced in order. @{ */
    void markRunning(sim::SimTime now);
    void markGrace(sim::SimTime now, sim::SimTime preempt_at);
    void markPreempted(sim::SimTime now);
    void markReleased(sim::SimTime now);
    /** @} */

    std::string str() const;

  private:
    InstanceId id_;
    InstanceType type_;
    InstanceState state_ = InstanceState::Provisioning;
    int numGpus_;
    sim::SimTime readyTime_ = 0.0;
    sim::SimTime noticeTime_ = -1.0;
    sim::SimTime preemptTime_ = -1.0;
    sim::SimTime endTime_ = -1.0;
};

} // namespace cluster
} // namespace spotserve

#endif // SPOTSERVE_CLUSTER_INSTANCE_H
