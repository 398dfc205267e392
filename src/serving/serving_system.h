/**
 * @file
 * Abstract serving system: what the experiment driver drives.
 */

#ifndef SPOTSERVE_SERVING_SERVING_SYSTEM_H
#define SPOTSERVE_SERVING_SERVING_SYSTEM_H

#include <functional>
#include <string>
#include <vector>

#include "cluster/instance_manager.h"
#include "parallel/parallel_config.h"
#include "workload/request.h"

namespace spotserve {
namespace core {
class TransferDataPlane;
}
namespace engine {
struct ActiveRequest;
}
namespace serving {

struct ExperimentResult;

/** One (re)configuration of the deployment, for Figure 8 annotations. */
struct ConfigChange
{
    sim::SimTime time = 0.0;
    par::ParallelConfig config;
    std::string reason;
};

/**
 * A serving system reacts to request arrivals and cluster availability
 * events; it owns deployments on the cluster's GPUs and reports its
 * configuration history.
 */
class ServingSystem : public cluster::ClusterListener
{
  public:
    ~ServingSystem() override = default;

    /** System name as reported in result tables. */
    virtual std::string name() const = 0;

    /** The workload delivered one request. */
    virtual void onRequestArrival(const wl::Request &request) = 0;

    /** Every configuration (re)activation since start. */
    virtual const std::vector<ConfigChange> &configHistory() const = 0;

    /** The link data plane migrations and cold loads run through (the
     *  fault injector attaches its link faults here). */
    virtual core::TransferDataPlane &dataPlane() = 0;

    /**
     * Observer fired once per request per committed output token.  The
     * socket ingress streams tokens from here; experiments leave it
     * unset.  Read at fire time, so it takes effect immediately for live
     * pipelines too.
     */
    virtual void setTokenObserver(
        std::function<void(const engine::ActiveRequest &)> observer) = 0;

    /** Fill this system's diagnostic counters into @p result. */
    virtual void report(ExperimentResult &result) const = 0;
};

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_SERVING_SYSTEM_H
