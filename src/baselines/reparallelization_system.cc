#include "baselines/reparallelization_system.h"

#include "simcore/logging.h"

namespace spotserve {
namespace baselines {

ReparallelizationSystem::ReparallelizationSystem(
    sim::Executor &executor, cluster::InstanceManager &instances,
    serving::RequestManager &requests, const model::ModelSpec &spec,
    const cost::CostParams &params, const cost::SeqSpec &seq,
    ReparallelizationOptions options)
    : BaseServingSystem(executor, instances, requests, spec, params, seq,
                        options.engine),
      controller_(spec, params, seq, cost::ConfigSpaceOptions{},
                  options.controller),
      policy_(controller_, requests, options.designArrivalRate)
{
    sim_.scheduleAfter(core::ReconfigPolicy::kCheckInterval,
                       [this] { workloadTick(); });
}

std::string
ReparallelizationSystem::name() const
{
    return "Reparallelization";
}

void
ReparallelizationSystem::onInstanceReady(const cluster::Instance &)
{
    scheduleEval();
}

void
ReparallelizationSystem::onPreemptionNotice(const cluster::Instance &,
                                            sim::SimTime)
{
    // Reactive baseline: grace-period notifications are not used.
}

void
ReparallelizationSystem::onInstancePreempted(const cluster::Instance &inst)
{
    // Abort any restart cold load streaming toward the dead instance so
    // its disk-link reservations do not throttle the next restart.
    dataPlane_.failInstance(inst.id());
    forgetInstance(inst.id());
    scheduleEval();
}

void
ReparallelizationSystem::onInstanceReleased(const cluster::Instance &inst)
{
    forgetInstance(inst.id());
    if (hasDeployment() && meshUsesInstance(inst.id()))
        scheduleEval();
}

void
ReparallelizationSystem::scheduleEval()
{
    if (evalScheduled_)
        return;
    evalScheduled_ = true;
    sim_.schedule(sim_.now(), [this] { evaluate(); });
}

void
ReparallelizationSystem::evaluate()
{
    evalScheduled_ = false;
    if (phase_ == Phase::Restarting) {
        pendingReconfig_ = true;
        return;
    }

    // Reactive view: every usable instance counts, including those in an
    // unnoticed grace period.
    const auto usable = instances_.usableInstances();
    const double alpha = policy_.planningRate();

    const auto decision =
        controller_.chooseConfig(static_cast<int>(usable.size()), alpha);
    if (!decision) {
        tearDownDeployment();
        phase_ = Phase::Steady;
        return;
    }

    bool forced = !hasDeployment();
    if (hasDeployment()) {
        for (cluster::InstanceId id : meshInstances()) {
            const auto *inst = instances_.get(id);
            if (!inst || !inst->usable())
                forced = true;
        }
    }
    // Same voluntary-change gate as SpotServe: a full restart must be
    // forced, fix an overload, or buy a substantial latency win.
    if (!forced &&
        !policy_.worthChanging(deployment().config, *decision, alpha)) {
        return;
    }
    beginRestart(decision->config, hasDeployment() ? "availability change"
                                                   : "initial deployment");
}

void
ReparallelizationSystem::workloadTick()
{
    sim_.scheduleAfter(core::ReconfigPolicy::kCheckInterval,
                       [this] { workloadTick(); });
    if (phase_ != Phase::Steady || !hasDeployment())
        return;
    const double alpha = policy_.planningRate();
    const auto usable = instances_.usableInstances();
    const auto decision =
        controller_.chooseConfig(static_cast<int>(usable.size()), alpha);
    if (const auto reason =
            policy_.periodic(deployment().config, decision, alpha)) {
        beginRestart(decision->config, *reason);
    }
}

void
ReparallelizationSystem::beginRestart(const par::ParallelConfig &target,
                                      const std::string &reason)
{
    // Full system restart: every in-flight request recomputes from
    // scratch, and all instances reload weights from persistent storage.
    tearDownDeployment();
    phase_ = Phase::Restarting;
    pending_ = PendingRestart{target, reason};

    // The per-instance weight loads run through the data plane's disk
    // links: with idle disks the stall is byte-identical to the
    // closed-form coldLoadTime; a disk still draining a previous load
    // (back-to-back restarts) honestly delays this one.
    const double bytes = latency_.coldLoadBytesPerInstance(target);
    std::vector<std::pair<int, double>> loads;
    const auto usable = instances_.usableInstances();
    const int needed = controller_.space().instancesNeeded(target);
    for (const auto *inst : usable) {
        if (static_cast<int>(loads.size()) >= needed)
            break;
        loads.emplace_back(static_cast<int>(inst->id()), bytes);
    }
    const double stall =
        params_.engineRestartTime + dataPlane_.submitColdLoad(loads);
    sim_.scheduleAfter(stall, [this] { activate(); });
}

void
ReparallelizationSystem::activate()
{
    if (phase_ != Phase::Restarting || !pending_)
        return;
    const auto pm = *pending_;
    pending_.reset();

    // Pick the first instances that are still usable.
    auto usable = instances_.usableInstances();
    const int needed = controller_.space().instancesNeeded(pm.target);
    par::ParallelConfig target = pm.target;
    if (static_cast<int>(usable.size()) < needed) {
        // Availability collapsed during the restart: come up with fewer
        // replicas of the same parallelism (the survivors just loaded
        // their shards) rather than paying another full reload.
        target.dp = maxReplicas(target.pp, target.tp,
                                static_cast<int>(usable.size()));
        if (target.dp < 1) {
            phase_ = Phase::Steady;
            scheduleEval();
            return;
        }
    }
    usable.resize(controller_.space().instancesNeeded(target));
    installDeployment(target, packedMesh(target, usable));
    recordConfig(target, pm.reason);
    phase_ = Phase::Steady;
    dispatchAll();
    if (pendingReconfig_) {
        pendingReconfig_ = false;
        scheduleEval();
    }
}

} // namespace baselines
} // namespace spotserve
