#include "baselines/rerouting_system.h"

#include <algorithm>

#include "simcore/logging.h"

namespace spotserve {
namespace baselines {

ReroutingSystem::ReroutingSystem(sim::Executor &executor,
                                 cluster::InstanceManager &instances,
                                 serving::RequestManager &requests,
                                 const model::ModelSpec &spec,
                                 const cost::CostParams &params,
                                 const cost::SeqSpec &seq,
                                 ReroutingOptions options)
    : BaseServingSystem(executor, instances, requests, spec, params, seq,
                        options.engine),
      controller_(spec, params, seq, cost::ConfigSpaceOptions{},
                  options.controller),
      policy_(controller_, requests, options.designArrivalRate)
{
}

std::string
ReroutingSystem::name() const
{
    return "Rerouting";
}

int
ReroutingSystem::instancesPerPipeline() const
{
    if (!fixed_)
        return 0;
    const int gpi = params_.gpusPerInstance;
    return (fixed_->gpusPerPipeline() + gpi - 1) / gpi;
}

void
ReroutingSystem::ensureFixedConfig()
{
    if (fixed_)
        return;
    const int n = instances_.usableCount();
    const auto decision = controller_.chooseConfig(n, policy_.planningRate());
    if (!decision)
        return;
    fixed_ = decision->config;
    recordConfig(*fixed_, "pre-defined optimal configuration");
}

void
ReroutingSystem::onInstanceReady(const cluster::Instance &instance)
{
    pool_.push_back(instance.id());
    // Coalesce same-instant joins so the fixed configuration is chosen
    // with the full initial fleet in view.
    sim_.schedule(sim_.now(), [this] {
        ensureFixedConfig();
        assemble();
    });
}

void
ReroutingSystem::onPreemptionNotice(const cluster::Instance &, sim::SimTime)
{
    // Reactive baseline: the grace period is not used.
}

void
ReroutingSystem::onInstancePreempted(const cluster::Instance &inst)
{
    // Rerouting gets no notice: the death is always abrupt, so any cold
    // load still streaming toward the instance is lost and its link
    // reservations must not keep throttling surviving replicas.
    dataPlane_.failInstance(inst.id());
    forgetInstance(inst.id());
    lastRole_.erase(inst.id());
    pool_.erase(std::remove(pool_.begin(), pool_.end(), inst.id()),
                pool_.end());
    dropReplicasUsing(inst.id());
    assemble();
}

void
ReroutingSystem::onInstanceReleased(const cluster::Instance &inst)
{
    forgetInstance(inst.id());
    lastRole_.erase(inst.id());
    pool_.erase(std::remove(pool_.begin(), pool_.end(), inst.id()),
                pool_.end());
    dropReplicasUsing(inst.id());
    assemble();
}

void
ReroutingSystem::dropReplicasUsing(cluster::InstanceId id)
{
    const std::vector<int> doomed = pipelinesUsingInstance(id);
    if (doomed.empty())
        return;
    for (int d : doomed) {
        // The preemption hangs the whole pipeline: interrupted requests
        // are rerouted and recomputed from the beginning.
        restartAndRequeue(removePipeline(d));
        // Its surviving members idle until re-assembled (GPUs run in
        // role order, so each member's GPUs are consecutive).
        cluster::InstanceId last = cluster::kInvalidInstance;
        for (par::GpuId g : deployment().mesh.pipelineGpus(d)) {
            const auto m =
                cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance);
            if (m == last)
                continue;
            last = m;
            const auto *inst = instances_.get(m);
            if (m != id && inst && inst->usable())
                pool_.push_back(m);
        }
    }
    redeploy({}, {});
}

void
ReroutingSystem::assemble()
{
    if (!fixed_)
        return;
    const int k = instancesPerPipeline();
    const int gpp = fixed_->gpusPerPipeline();
    std::vector<std::vector<par::GpuId>> fresh_gpus;
    std::vector<sim::SimTime> fresh_ready;
    while (static_cast<int>(pool_.size()) >= k) {
        std::vector<cluster::InstanceId> members(k,
                                                 cluster::kInvalidInstance);

        // Fill each role with an instance that held the same role before
        // (its shards are resident), falling back to any pooled instance.
        for (int r = 0; r < k; ++r) {
            auto it = std::find_if(pool_.begin(), pool_.end(),
                                   [this, r](cluster::InstanceId m) {
                                       auto f = lastRole_.find(m);
                                       return f != lastRole_.end() &&
                                              f->second == r;
                                   });
            if (it != pool_.end()) {
                members[r] = *it;
                pool_.erase(it);
            }
        }
        for (int r = 0; r < k; ++r) {
            if (members[r] == cluster::kInvalidInstance) {
                members[r] = pool_.front();
                pool_.pop_front();
            }
        }

        // Rebuilding a pipeline changes the process-group membership, so
        // the engine always relaunches; role-mismatched members also pull
        // their shards from storage.
        bool all_warm = true;
        for (int r = 0; r < k; ++r) {
            auto f = lastRole_.find(members[r]);
            if (f == lastRole_.end() || f->second != r)
                all_warm = false;
        }
        par::ParallelConfig pipe_cfg = *fixed_;
        pipe_cfg.dp = 1;
        // Cold members pull their shards over the data plane's disk
        // links (on idle disks exactly the closed-form cold start,
        // engineRestartTime + bytes / diskBandwidth; a member re-pooled
        // from a just-dropped replica may still have a load in flight
        // and honestly delays the new replica).
        double delay = params_.engineRestartTime;
        if (!all_warm) {
            const double bytes = latency_.coldLoadBytesPerInstance(pipe_cfg);
            std::vector<std::pair<int, double>> loads;
            loads.reserve(static_cast<std::size_t>(k));
            for (int r = 0; r < k; ++r)
                loads.emplace_back(static_cast<int>(members[r]), bytes);
            delay += dataPlane_.submitColdLoad(loads);
        }
        std::vector<par::GpuId> gpus;
        for (int r = 0; r < k; ++r) {
            lastRole_[members[r]] = r;
            for (par::GpuId g : instances_.get(members[r])->gpuIds())
                gpus.push_back(g);
        }
        gpus.resize(static_cast<std::size_t>(gpp));
        fresh_gpus.push_back(std::move(gpus));
        fresh_ready.push_back(sim_.now() + delay);
        // A replica dropped while initialising is simply gone by then.
        sim_.scheduleAfter(delay, [this] { dispatchAll(); });
    }
    if (!fresh_gpus.empty())
        redeploy(fresh_gpus, fresh_ready);
}

void
ReroutingSystem::redeploy(
    const std::vector<std::vector<par::GpuId>> &fresh_gpus,
    const std::vector<sim::SimTime> &fresh_ready)
{
    std::vector<std::vector<par::GpuId>> gpus;
    std::vector<std::unique_ptr<engine::InferencePipeline>> carried;
    std::vector<sim::SimTime> ready;
    if (hasDeployment()) {
        auto &old = deployment();
        for (int d = 0; d < old.config.dp; ++d) {
            if (!old.pipelines[d])
                continue; // dropped
            gpus.push_back(old.mesh.pipelineGpus(d));
            carried.push_back(std::move(old.pipelines[d]));
            ready.push_back(old.readyAt[d]);
        }
        clearDeployment();
    }
    gpus.insert(gpus.end(), fresh_gpus.begin(), fresh_gpus.end());
    ready.insert(ready.end(), fresh_ready.begin(), fresh_ready.end());
    if (gpus.empty())
        return;

    par::ParallelConfig cfg = *fixed_;
    cfg.dp = static_cast<int>(gpus.size());
    par::DeviceMesh mesh(cfg, spec_.numLayers());
    const auto &topo = mesh.topology();
    const int gpp = cfg.gpusPerPipeline();
    for (int d = 0; d < cfg.dp; ++d) {
        for (int i = 0; i < gpp; ++i)
            mesh.assign(topo.position(d * gpp + i), gpus[d][i]);
    }
    installDeployment(cfg, std::move(mesh), std::move(carried));
    deployment().readyAt = std::move(ready);
}

} // namespace baselines
} // namespace spotserve
