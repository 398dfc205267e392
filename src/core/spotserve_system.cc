#include "core/spotserve_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "serving/experiment.h"
#include "simcore/logging.h"

namespace spotserve {
namespace core {

SpotServeSystem::SpotServeSystem(sim::Executor &executor,
                                 cluster::InstanceManager &instances,
                                 serving::RequestManager &requests,
                                 const model::ModelSpec &spec,
                                 const cost::CostParams &params,
                                 const cost::SeqSpec &seq,
                                 SpotServeOptions options)
    : BaseServingSystem(executor, instances, requests, spec, params, seq,
                        options.engine),
      options_(options),
      controller_(spec, params, seq,
                  cost::ConfigSpaceOptions{
                      .memOptPlanner = options.enableMigrationPlanner},
                  options.controller),
      mapper_(spec, params,
              DeviceMapperOptions{.useKuhnMunkres =
                                      options.enableDeviceMapper}),
      planner_(spec, params), arranger_(latency_),
      policy_(controller_, requests, options.designArrivalRate)
{
    // The KV budget must deduct the same migration reserve the
    // feasibility check assumed (naive double-buffering when the
    // memory-optimised planner is ablated).
    setMemOptReserve(options_.enableMigrationPlanner);
    // Periodic workload monitor (overload and scale-down detection, §3.2).
    sim_.scheduleAfter(ReconfigPolicy::kCheckInterval,
                       [this] { workloadTick(); });
    if (options_.dynamicAllocation) {
        // Nothing may ever join on its own in dynamic mode: bootstrap the
        // fleet from the declared workload.
        scheduleEval();
    }
}

void
SpotServeSystem::report(serving::ExperimentResult &result) const
{
    BaseServingSystem::report(result);
    result.migrationsCompleted = migrationsCompleted_;
    result.migrationMakespanTotal = totalMigrationMakespan_;
    result.contendedMigrations = dataPlane_.contendedSubmissions();
    result.migrationAborts = migrationAborts_;
    result.migrationRetries = migrationRetries_;
    result.requestsRecovered = requestsRecovered_;
}

std::string
SpotServeSystem::name() const
{
    return "SpotServe";
}

void
SpotServeSystem::onInstanceReady(const cluster::Instance &)
{
    scheduleEval();
}

void
SpotServeSystem::onPreemptionNotice(const cluster::Instance &instance,
                                    sim::SimTime preempt_at)
{
    notices_[instance.id()] = preempt_at;
    scheduleEval();
}

void
SpotServeSystem::onInstancePreempted(const cluster::Instance &instance)
{
    // Announced victims die exactly when the §4.2 deadline fallback
    // modeled, so their in-flight schedules keep their committed timeline.
    // A death without a notice, or before the noticed time (a noticed
    // source killed mid-migration), is one the plan did not see coming:
    // it voids every in-flight transfer the victim still carries and
    // fires the plans' failure callbacks.
    const auto notice = notices_.find(instance.id());
    const bool unannounced =
        notice == notices_.end() || sim_.now() < notice->second;
    notices_.erase(instance.id());
    forgetInstance(instance.id());
    if (unannounced)
        dataPlane_.failInstance(instance.id());
    dropVictimReplicas(instance.id());
}

void
SpotServeSystem::onInstanceReleased(const cluster::Instance &instance)
{
    // A noticed instance can be released before its preemption fires (or
    // the trace can revoke capacity another way); the stale notice would
    // otherwise pin every later reconfiguration to a dead deadline.
    notices_.erase(instance.id());
    forgetInstance(instance.id());
    dropVictimReplicas(instance.id());
}

void
SpotServeSystem::dropVictimReplicas(cluster::InstanceId id)
{
    // Normal path: the grace-period migration already moved everything
    // off the victim.  Otherwise (§4.2) a replica still standing on it —
    // serving, through an overlapped planning pass, still draining, or
    // kept serving on the OLD mesh through a migration — loses its cache
    // context with the instance and stops now.  activate() revalidates
    // the *target* side.  A victim that was still draining fires
    // onPipelineHalted from inside removePipeline, so the all-drained
    // transition is deferred past the loop like the arrangement loop
    // defers it.
    const bool on_mesh = meshUsesInstance(id);
    arrangingHalts_ = true;
    for (int d : pipelinesUsingInstance(id))
        restartAndRequeue(removePipeline(d));
    arrangingHalts_ = false;
    if (!pending_) {
        if (on_mesh)
            scheduleEval();
        return;
    }
    pendingReconfig_ = true;
    if (phase_ == Phase::Draining && pending_->waitingHalts <= 0)
        startMigration();
}

void
SpotServeSystem::enterPhase(Phase next)
{
    const bool steady = phase_ == Phase::Steady;
    const bool legal =
        (next == Phase::Steady && phase_ != Phase::Draining) ||
        (next == Phase::Planning && steady) ||
        (next == Phase::Draining && (steady || phase_ == Phase::Planning)) ||
        (next == Phase::Migrating && phase_ == Phase::Draining);
    if (!legal) {
        throw std::logic_error(
            "SpotServeSystem: illegal phase change " +
            std::to_string(static_cast<int>(phase_)) + " -> " +
            std::to_string(static_cast<int>(next)));
    }
    phase_ = next;
}

void
SpotServeSystem::scheduleEval()
{
    if (evalScheduled_)
        return;
    evalScheduled_ = true;
    // Same-timestamp events (e.g. simultaneous preemption notices) all
    // fire before this evaluation, so one reconfiguration covers them.
    sim_.schedule(sim_.now(), [this] { evaluate(); });
}

std::optional<ControllerDecision>
SpotServeSystem::fallbackDecision(int instances, double alpha) const
{
    if (!fixedParallelism_) {
        // Lock the parallelism the full controller would pick first.
        auto d = controller_.chooseConfig(instances, alpha);
        if (!d)
            return std::nullopt;
        fixedParallelism_ = d->config;
    }
    // No adaptive optimization: keep the locked configuration, shrinking
    // the replica count only when the fleet cannot host it.
    par::ParallelConfig c = *fixedParallelism_;
    const int dp =
        std::min(c.dp, maxReplicas(c.pp, c.tp, instances));
    if (dp < 1)
        return std::nullopt;
    c.dp = dp;
    ControllerDecision dec;
    dec.config = c;
    dec.throughput = controller_.throughputModel().throughput(c, seq_);
    dec.estimatedLatency = controller_.throughputModel().requestLatency(
        c, seq_, alpha, options_.controller.arrivalCv);
    dec.meetsDemand = dec.throughput >= alpha;
    dec.instancesNeeded = controller_.space().instancesNeeded(c);
    return dec;
}

std::optional<ControllerDecision>
SpotServeSystem::decide(int instances, double alpha) const
{
    if (!options_.enableController)
        return fallbackDecision(instances, alpha);
    return controller_.chooseConfig(instances, alpha);
}

void
SpotServeSystem::evaluate()
{
    evalScheduled_ = false;
    if (phase_ == Phase::Planning) {
        // A planning pass is in flight; it re-reads the fleet state when
        // it commits, so this trigger is already covered.
        return;
    }
    if (phase_ == Phase::Draining || phase_ == Phase::Migrating) {
        pendingReconfig_ = true;
        return;
    }
    if (sim_.now() < migrationTailUntil_) {
        // The previous migration's tail transfers are still on the wire;
        // re-evaluate once they finish.
        evalScheduled_ = true;
        sim_.schedule(migrationTailUntil_, [this] { evaluate(); });
        return;
    }

    const double alpha = policy_.planningRate();

    if (options_.dynamicAllocation)
        manageFleet(alpha);

    const auto survivors = instances_.survivingInstances();
    const auto decision = decide(static_cast<int>(survivors.size()), alpha);
    if (!decision) {
        if (hasDeployment())
            suspendServing();
        return;
    }
    if (!shouldReconfigure(*decision, alpha))
        return;
    requestReconfig(decision->config, hasDeployment()
                                          ? "availability change"
                                          : "initial deployment");
}

bool
SpotServeSystem::shouldReconfigure(const ControllerDecision &decision,
                                   double alpha) const
{
    // Forced remap: no deployment yet, a mesh member is dying or gone, or
    // a replica is broken ("this step is still necessary ... since
    // memberships update", §3.2).
    if (!hasDeployment())
        return true;
    for (cluster::InstanceId id : meshInstances()) {
        const auto *inst = instances_.get(id);
        if (!inst || inst->state() != cluster::InstanceState::Running)
            return true;
    }
    for (const auto &p : deployment().pipelines) {
        if (!p)
            return true;
    }
    // Voluntary change (e.g. new capacity joined): only worth a
    // reconfiguration when the deployment is struggling or the win is
    // substantial; otherwise the newcomers wait in the candidate pool.
    return policy_.worthChanging(deployment().config, decision, alpha);
}

double
SpotServeSystem::planningDuration(const par::ParallelConfig &target,
                                  int survivors) const
{
    const auto &stats = controller_.lastSweepStats();
    const int gpi = params_.gpusPerInstance;
    const int slots = (target.totalGpus() + gpi - 1) / gpi;
    // Charged as no solve only when every replica is kept in place: the
    // target must equal the deployed config AND every mesh member must
    // still be a survivor — a forced remap after a loss runs the full
    // two-step Hungarian solve even when the config is unchanged, and
    // must be charged for it.
    bool every_kept = hasDeployment() && deployment().config == target;
    if (every_kept) {
        for (cluster::InstanceId id : meshInstances()) {
            const auto *inst = instances_.get(id);
            if (!inst || inst->state() != cluster::InstanceState::Running ||
                notices_.find(id) != notices_.end()) {
                every_kept = false;
            }
        }
    }
    return planningModel_.totalTime(stats.candidates, stats.coldEvals,
                                    survivors, slots, every_kept,
                                    spec_.numLayers(), survivors * gpi);
}

void
SpotServeSystem::requestReconfig(const par::ParallelConfig &target,
                                 const std::string &reason)
{
    if (!hasDeployment()) {
        // Nothing is serving, so there is nothing to overlap the
        // planning pass with.
        beginReconfig(planReconfig(target, reason));
        return;
    }
    // The evaluation that just ran costs real wall-clock on a real
    // controller; charge it as a scheduled planning event while every
    // pipeline keeps admitting and decoding.  The commit re-reads the
    // fleet, so changes that land during the pass are honoured.
    enterPhase(Phase::Planning);
    const double duration = planningDuration(
        target, static_cast<int>(instances_.survivingInstances().size()));
    ++planningEvents_;
    totalPlanningTime_ += duration;
    sim_.scheduleAfter(duration,
                       [this, reason] { finishPlanning(reason); });
}

void
SpotServeSystem::finishPlanning(const std::string &reason)
{
    // Re-validate the decision against the fleet as it stands now: joins,
    // notices or preemptions may have landed while the pass ran.
    const double alpha = policy_.planningRate();
    const auto survivors = instances_.survivingInstances();
    const auto decision = decide(static_cast<int>(survivors.size()), alpha);
    if (!decision) {
        suspendServing();
        return;
    }
    if (!shouldReconfigure(*decision, alpha)) {
        enterPhase(Phase::Steady); // the trigger evaporated while we planned
        return;
    }
    beginReconfig(planReconfig(decision->config, reason));
}

void
SpotServeSystem::manageFleet(double alpha)
{
    // What would we run if the cloud granted everything we asked for?
    const auto desired = decide(options_.maxDynamicInstances, alpha);
    if (!desired)
        return;
    const int want = std::min(options_.maxDynamicInstances,
                              desired->instancesNeeded + kCandidatePoolSize);
    const int have = instances_.planningCount();
    if (have < want) {
        // Line 8: allocate Spot immediately; instances join after the
        // acquisition lead time and trigger another evaluation.
        instances_.requestInstances(want - have, cluster::InstanceType::Spot);
    } else if (have > want) {
        // Line 10: release over-provisioned capacity (on-demand first),
        // but never an instance the active mesh is standing on.
        int excess = have - want;
        auto release_idle = [&](cluster::InstanceType type) {
            auto usable = instances_.usableInstances();
            for (auto it = usable.rbegin();
                 it != usable.rend() && excess > 0; ++it) {
                const auto *inst = *it;
                if (inst->type() != type ||
                    inst->state() != cluster::InstanceState::Running ||
                    meshUsesInstance(inst->id())) {
                    continue;
                }
                instances_.releaseInstance(inst->id());
                --excess;
            }
        };
        release_idle(cluster::InstanceType::OnDemand);
        release_idle(cluster::InstanceType::Spot);
    }
}

void
SpotServeSystem::workloadTick()
{
    sim_.scheduleAfter(ReconfigPolicy::kCheckInterval,
                       [this] { workloadTick(); });
    if (phase_ != Phase::Steady || !hasDeployment())
        return;

    const double alpha = policy_.planningRate();
    if (options_.dynamicAllocation)
        manageFleet(alpha);
    const auto survivors = instances_.survivingInstances();
    const auto decision = decide(static_cast<int>(survivors.size()), alpha);
    if (const auto reason =
            policy_.periodic(deployment().config, decision, alpha)) {
        requestReconfig(decision->config, *reason);
    }
}

SpotServeSystem::PendingMigration
SpotServeSystem::planReconfig(const par::ParallelConfig &target,
                              const std::string &reason) const
{
    const auto survivors = instances_.survivingInstances();

    auto old_tokens = replicaCacheTokens();
    const auto snapshot = snapshotContext(old_tokens);

    // A live pipeline can only be kept in place when the replica shape is
    // unchanged (its object serves the exact same (P, M, B) geometry).
    const bool same_shape = hasDeployment() &&
                            deployment().config.pp == target.pp &&
                            deployment().config.tp == target.tp &&
                            deployment().config.batch == target.batch;

    // Pin every live replica whose members all survive under an unchanged
    // (P, M, B) shape: model-context weights tie across same-shape
    // replicas, so without pins the Hungarian solve may mix stages from
    // different old replicas into one new replica — zero reuse gain, but
    // every live pipeline broken.  Pinned replicas are the partial-drain
    // keep set.
    std::vector<ReplicaPin> pins;
    if (same_shape &&
        (target.pp * target.tp) % params_.gpusPerInstance == 0) {
        const auto &dep = deployment();
        std::unordered_set<cluster::InstanceId> surv;
        for (const auto *inst : survivors)
            surv.insert(inst->id());
        std::vector<int> keepable;
        for (std::size_t od = 0; od < dep.pipelines.size(); ++od) {
            if (!dep.pipelines[od])
                continue;
            bool alive = true;
            for (par::GpuId g :
                 dep.mesh.pipelineGpus(static_cast<int>(od))) {
                if (surv.find(cluster::Instance::instanceOfGpu(
                        g, params_.gpusPerInstance)) == surv.end())
                    alive = false;
            }
            if (alive)
                keepable.push_back(static_cast<int>(od));
        }
        if (static_cast<int>(keepable.size()) > target.dp) {
            // More survivors than target slots: keep the most
            // progressed batches serving (§3.3).
            std::stable_sort(
                keepable.begin(), keepable.end(), [&](int a, int b) {
                    return old_tokens[a] > old_tokens[b];
                });
            keepable.resize(target.dp);
        }
        std::sort(keepable.begin(), keepable.end());
        int next_new = 0;
        for (int od : keepable) {
            ReplicaPin pin;
            pin.newReplica = next_new++;
            pin.oldReplica = od;
            pin.gpus = dep.mesh.pipelineGpus(od);
            pins.push_back(std::move(pin));
        }
    }
    auto mapping =
        mapper_.map(snapshot, target, survivors, old_tokens, pins);

    // Earliest active preemption deadline bounds the whole reconfig.
    sim::SimTime deadline = sim::kTimeInfinity;
    for (const auto &[id, at] : notices_)
        deadline = std::min(deadline, at);

    // Partial drain: a pinned replica keeps its GPUs in place under an
    // unchanged (P, M, B) shape, so it never needs to stop — its model
    // context, cache context and live batch are already where the target
    // wants them.  The mapper bound the pins verbatim and set their
    // inheritance; the kept set IS the pin set.
    const int old_dp =
        hasDeployment() ? static_cast<int>(deployment().pipelines.size())
                        : 0;
    std::vector<int> kept(target.dp, -1);
    std::vector<bool> touched(old_dp, true);
    for (const auto &pin : pins) {
        kept[pin.newReplica] = pin.oldReplica;
        touched[pin.oldReplica] = false;
    }

    auto plan = planner_.plan(snapshot, mapping, target, old_tokens,
                              plannerOptions(options_.enableArranger));

    // Arranger: decide whether moving the cache beats recomputation (JIT,
    // §4.1).  Only drained batches migrate, so only they count here.
    double committed_work = 0.0;
    for (int od = 0; od < old_dp; ++od) {
        const auto &p = deployment().pipelines[od];
        if (!p || p->batch().empty() || !touched[od])
            continue;
        par::ParallelConfig c = deployment().config;
        c.batch = static_cast<int>(p->batch().size());
        // Continuous batching: progress differs per request, so the
        // batch is worth its most-progressed member's recompute time.
        for (const auto &r : p->batch()) {
            committed_work = std::max(
                committed_work, arranger_.recomputeTime(c, r.request.inputLen,
                                                        r.committedTokens));
        }
    }

    PendingMigration pm{
        .target = target,
        .mapping = std::move(mapping),
        .plan = std::move(plan),
        .oldTokens = std::move(old_tokens),
        .reason = reason,
        .deadline = deadline,
        .committedWork = committed_work,
        .hadDeployment = hasDeployment(),
        .keptOldPipeline = std::move(kept),
        .touchedOld = std::move(touched),
    };
    pm.migrateCache = options_.enableArranger &&
                      pm.plan.totalDuration < committed_work;
    if (!pm.migrateCache && pm.plan.cacheMigrated)
        pm.plan = planWithoutCache(pm);
    return pm;
}

void
SpotServeSystem::beginReconfig(PendingMigration pm)
{
    enterPhase(Phase::Draining);
    pending_ = std::move(pm);
    const double remaining_grace =
        pending_->deadline == sim::kTimeInfinity
            ? 0.0
            : pending_->deadline - sim_.now();

    // How long each affected pipeline may keep decoding (JIT, §4.1); kept
    // replicas serve straight through.  The all-halted transition waits
    // for the loop: synchronous halts would otherwise tear the deployment
    // down while we are still iterating its pipelines.
    int kept_live = 0;
    arrangingHalts_ = true;
    for (std::size_t od = 0; od < pending_->touchedOld.size(); ++od) {
        auto &p = deployment().pipelines[od];
        if (!p)
            continue;
        if (!pending_->touchedOld[od]) {
            ++kept_live;
            continue;
        }
        ++pending_->waitingHalts;
        if (!options_.enableArranger) {
            // Ablated: suspend immediately; in-flight work is lost.
            p->haltNow();
            continue;
        }
        if (!p->executing()) {
            p->haltAfter(0);
            continue;
        }
        int iters = 0;
        if (remaining_grace > 0.0) {
            par::ParallelConfig c = deployment().config;
            c.batch = static_cast<int>(p->batch().size());
            // Mixed-progress batch: time iterations at the longest
            // context (slowest, conservative), but budget them by the
            // largest remaining output — early finishers leave the batch
            // individually, so the drain may keep decoding for the rest.
            int max_ctx = 0;
            int max_remaining = 0;
            for (const auto &r : p->batch()) {
                max_ctx = std::max(max_ctx, r.request.inputLen +
                                                r.committedTokens + 1);
                max_remaining = std::max(
                    max_remaining, r.request.outputLen - r.committedTokens);
            }
            const Arrangement a = arranger_.arrangeForPreemption(
                c, max_ctx, max_remaining, pending_->committedWork,
                remaining_grace, pending_->plan.totalDuration);
            iters = a.iterations;
        }
        p->haltAfter(iters);
    }
    arrangingHalts_ = false;
    pipelinesKeptServing_ += kept_live;
    if (kept_live > 0)
        ++partialReconfigs_;
    if (pending_->waitingHalts <= 0)
        startMigration();
}

void
SpotServeSystem::onPipelineHalted(engine::InferencePipeline &pipeline)
{
    // Partial drain: only affected replicas count toward the all-drained
    // barrier.  (An unaffected replica can only halt here through the
    // §4.2 victim cleanup, which requeues its work.)
    if (phase_ != Phase::Draining ||
        !pending_->touchedOld[pipeline.index()])
        return;
    if (--pending_->waitingHalts <= 0 && !arrangingHalts_)
        startMigration();
}

void
SpotServeSystem::startMigration()
{
    enterPhase(Phase::Migrating);
    auto &pm = *pending_;
    const long fault_epoch = ++migrationEpoch_;

    bool any_kept = false;
    for (int od : pm.keptOldPipeline) {
        if (od >= 0)
            any_kept = true;
    }

    // Collect the halted batches of the affected replicas.  Kept replicas
    // stay live inside the old deployment and keep serving (the request
    // manager rebalances the queue onto them via dispatchAll) until
    // activation adopts their pipeline objects.
    std::vector<std::vector<engine::ActiveRequest>> batches;
    if (hasDeployment()) {
        auto &dep = deployment();
        batches.resize(dep.pipelines.size());
        for (std::size_t od = 0; od < dep.pipelines.size(); ++od) {
            if (!pm.touchedOld[od])
                continue;
            batches[od] = removePipeline(static_cast<int>(od));
        }
        if (!any_kept)
            clearDeployment();
    }

    const PlannerOptions popts = plannerOptions(pm.migrateCache);

    // Quote the plan against the data plane's *current* link state: a
    // previous migration's tail may still occupy NIC/disk ports, and the
    // quote (not the planner's idle-link estimate) is what the §4.2
    // deadline decision below must judge.  The plan's step offsets,
    // stageReady and per-replica resumes are re-derived from the quoted
    // step finishes, so contention propagates into the activation events.
    // The last quote is what the data plane commits below: nothing between
    // here and the submit touches the link state, so it is committed as
    // built instead of being scheduled a second time.
    std::optional<TransferDataPlane::Quote> quote;
    auto quote_on_links = [&] {
        quote = dataPlane_.preview(MigrationPlanner::transferSteps(pm.plan),
                                   params_.migrationSetupTime);
        planner_.retime(pm.plan, pm.target, popts, quote->result.stepStart,
                        quote->result.stepFinish);
    };
    quote_on_links();

    double duration = pm.plan.totalDuration;
    std::vector<double> resumes = pm.plan.pipelineResume;
    bool cache_ok = pm.migrateCache && pm.plan.cacheMigrated;

    // Fault tolerance (§4.2): if the plan cannot finish inside the
    // earliest grace deadline, first give up the cache context; weights
    // that still cannot move in time reload from cloud storage at disk
    // bandwidth.  The fallback fires after the drain consumed most of the
    // grace period, so it re-plans against the *current* holdings — a
    // migration source may have died since beginReconfig and the
    // schedule must not pretend otherwise.
    if (pm.deadline != sim::kTimeInfinity) {
        double remaining = pm.deadline - sim_.now();
        if (duration > remaining && cache_ok) {
            cache_ok = false;
            pm.plan = planWithoutCache(pm);
            quote_on_links();
            duration = pm.plan.totalDuration;
            resumes = pm.plan.pipelineResume;
        }
        if (duration > remaining && remaining >= 0.0) {
            const double overflow = duration - remaining;
            const double slowdown =
                params_.interBandwidth / params_.diskBandwidth;
            duration = remaining + overflow * slowdown;
            resumes.assign(pm.target.dp, duration);
        }
    }

    // A deployment built from nothing also pays the engine launch.
    if (!pm.hadDeployment) {
        duration += params_.engineRestartTime;
        for (double &r : resumes)
            r += params_.engineRestartTime;
    }

    pm.resumeAbs.resize(pm.target.dp);
    double first_resume = duration;
    double affected_resume = 0.0;
    bool any_affected = false;
    for (int d = 0; d < pm.target.dp; ++d) {
        if (pm.keptOldPipeline[d] >= 0) {
            // Kept replicas never stop; they are "resumed" already.
            pm.resumeAbs[d] = sim_.now();
            continue;
        }
        pm.resumeAbs[d] = sim_.now() + resumes[d];
        first_resume = std::min(first_resume, resumes[d]);
        affected_resume = std::max(affected_resume, resumes[d]);
        any_affected = true;
    }
    if (!any_affected)
        first_resume = 0.0; // membership-only relabel: activate now

    // Assign inherited batches to the new replicas.
    pm.inherited.assign(pm.target.dp, {});
    if (cache_ok) {
        for (int d = 0; d < pm.target.dp; ++d) {
            if (pm.keptOldPipeline[d] >= 0)
                continue; // serving through; nothing to hand over
            const int od = pm.mapping.inheritedOldPipeline[d];
            if (od < 0 || od >= static_cast<int>(batches.size()))
                continue;
            auto &batch = batches[od];
            // Continuous batching drains mixed-progress batches: recover
            // each request's committed KV individually — decode tokens
            // and matched prefix tokens alike.  Requests with any
            // committed KV ride in the inherited batch of the replica
            // that receives their cache, so that KV stays accounted
            // against that replica's budget from the moment it activates
            // (a request that attached a shared prefix but has not yet
            // prefilled the rest of its input resumes from the prefix
            // there).  Requests that never committed anything recompute
            // from the queue.
            std::vector<engine::ActiveRequest> recovered;
            std::vector<engine::ActiveRequest> lost;
            for (auto &r : batch)
                (r.kvTokensHeld() > 0 ? recovered : lost)
                    .push_back(std::move(r));
            batch.clear();
            restartAndRequeue(std::move(lost));
            // The new configuration may hold fewer concurrent requests
            // (batch slots) or less KV cache (token budget): keep the
            // most-progressed cache contexts, displaced ones recompute
            // (§3.3).  Requests are charged under the active admission
            // mode, so an optimistic deployment inherits as many cache
            // contexts as their charges say fit — predicted footprints
            // for never-restarted requests (prefix-matched mid-prefill
            // ones included), full worst-case peaks for previously
            // restarted ones (the storm guard applies across
            // reconfigurations too).
            std::stable_sort(recovered.begin(), recovered.end(),
                             [](const engine::ActiveRequest &a,
                                const engine::ActiveRequest &b) {
                                 return a.kvTokensHeld() > b.kvTokensHeld();
                             });
            // Trimming charges whole KV blocks against the inheriting
            // replica's block budget — the same denomination every
            // admission path uses — and each shared prefix block the
            // cohort carries once, as the replica's store will hold it.
            const std::size_t keep = engine::carriedCohortFit(
                recovered, pm.target.batch, replicaKvBudgetBlocks(pm.target),
                engineOptions().kvAdmissionMode);
            if (keep < recovered.size()) {
                std::vector<engine::ActiveRequest> displaced(
                    std::make_move_iterator(recovered.begin() + keep),
                    std::make_move_iterator(recovered.end()));
                recovered.resize(keep);
                restartAndRequeue(std::move(displaced));
            }
            pm.inherited[d] = std::move(recovered);
        }
    }
    // Kept replicas' batches never left their pipelines and inherited
    // ones were moved out above: what remains recomputes.
    for (auto &batch : batches) {
        if (!batch.empty())
            restartAndRequeue(std::move(batch));
    }

    totalBytesMigrated_ += pm.plan.movedModelBytes + pm.plan.movedCacheBytes;
    totalBytesReused_ += pm.plan.reusedBytes;
    // Only the affected replicas ever stalled: the serving stall of this
    // reconfiguration is their critical path, not the full plan span.
    totalMigrationStall_ += affected_resume;
    totalMigrationMakespan_ += duration;
    migrationTailUntil_ = sim_.now() + duration;

    // Commit the schedule: the data plane reserves every link slice it
    // occupies, so a migration submitted while this one drains is quoted
    // — and executed — behind (or interleaved around) it.  The failure
    // callback makes the transfer crash-consistent: an unannounced death
    // of a source/destination, or a link fault stretching the plan past
    // its deadline, aborts into the recovery path instead of pretending
    // the context landed.
    TransferDataPlane::SubmitOptions so;
    so.onFail = [this, fault_epoch](
                    const TransferDataPlane::PlanFailure &failure) {
        onMigrationFailed(fault_epoch, failure);
    };
    // Headroom over the quoted makespan: only a link fault that stretches
    // the realized schedule can trip it.
    so.deadline =
        kMigrationDeadlineFactor * std::max(pm.plan.totalDuration, 1.0);
    dataPlane_.submit(std::move(*quote), std::move(so));

    // Activate as soon as the first affected replica's context is ready;
    // the rest come online at their own progressive-resume times and the
    // kept replicas never left.
    // The epoch guard drops the event when this migration aborted: a
    // backed-off retry may be Migrating by then, and it activates on its
    // own schedule.
    sim_.scheduleAfter(first_resume, [this, fault_epoch] {
        if (fault_epoch == migrationEpoch_)
            activate();
    });
}

PlannerOptions
SpotServeSystem::plannerOptions(bool migrate_cache) const
{
    PlannerOptions popts;
    popts.progressive = options_.enableMigrationPlanner;
    popts.memoryOpt = options_.enableMigrationPlanner;
    popts.migrateCache = migrate_cache;
    return popts;
}

MigrationPlan
SpotServeSystem::planWithoutCache(const PendingMigration &pm) const
{
    return planner_.plan(snapshotContext(replicaCacheTokens()), pm.mapping,
                         pm.target, pm.oldTokens, plannerOptions(false));
}

void
SpotServeSystem::activate()
{
    if (phase_ != Phase::Migrating)
        return;
    auto pm = std::move(*pending_);
    pending_.reset();
    enterPhase(Phase::Steady);

    // Adopt the kept replicas' live pipeline objects — batches, in-flight
    // iterations and KV accounting move across untouched.
    std::vector<std::unique_ptr<engine::InferencePipeline>> carried(
        pm.target.dp);
    std::vector<bool> was_kept(pm.target.dp, false);
    if (hasDeployment()) {
        auto &old = deployment();
        for (int d = 0; d < pm.target.dp; ++d) {
            const int od = pm.keptOldPipeline[d];
            if (od >= 0 && od < static_cast<int>(old.pipelines.size()) &&
                old.pipelines[od]) {
                carried[d] = std::move(old.pipelines[od]);
                was_kept[d] = true;
            }
        }
        // startMigration removed every affected replica; the kept ones
        // were carried above.
        for (const auto &p : old.pipelines) {
            if (p)
                throw std::logic_error("activate: a drained replica is live");
        }
        clearDeployment();
    }

    installDeployment(pm.target, std::move(pm.mapping.mesh),
                      std::move(carried));
    deployment().readyAt = pm.resumeAbs;
    deployment().awaitingBatch.assign(pm.target.dp, false);
    recordConfig(pm.target, pm.reason);
    const long epoch = ++deployEpoch_;

    bool broken = false;
    for (int d = 0; d < pm.target.dp; ++d) {
        // Revalidate the replica's instances: a preemption or release may
        // have hit a planned member while the migration ran (§4.2).
        bool alive = true;
        for (par::GpuId g : deployment().mesh.pipelineGpus(d)) {
            const auto *inst = instances_.get(
                cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance));
            if (!inst || !inst->usable())
                alive = false;
        }
        if (!alive) {
            // A kept pipeline's live batch is requeued with the rest.
            restartAndRequeue(removePipeline(d));
            restartAndRequeue(std::move(pm.inherited[d]));
            broken = true;
            continue;
        }
        if (was_kept[d])
            continue; // never stopped serving
        if (pm.resumeAbs[d] <= sim_.now() + 1e-9) {
            if (!pm.inherited[d].empty())
                loadBatch(d, std::move(pm.inherited[d]));
            continue;
        }
        // This replica's context is still in flight; start it when its
        // progressive migration completes.
        auto batch = std::make_shared<std::vector<engine::ActiveRequest>>(
            std::move(pm.inherited[d]));
        deployment().awaitingBatch[d] = !batch->empty();
        sim_.schedule(pm.resumeAbs[d], [this, epoch, d, batch] {
            if (epoch != deployEpoch_ || !hasDeployment() ||
                !deployment().pipelines[d]) {
                restartAndRequeue(std::move(*batch));
                return;
            }
            deployment().awaitingBatch[d] = false;
            if (!batch->empty())
                loadBatch(d, std::move(*batch));
            dispatchAll();
        });
    }

    ++migrationsCompleted_;
    migrationRetryCount_ = 0; // an activation resets the backoff
    dispatchAll();

    if (pendingReconfig_ || broken) {
        pendingReconfig_ = false;
        scheduleEval();
    }
}

void
SpotServeSystem::onMigrationFailed(
    long epoch, const TransferDataPlane::PlanFailure &failure)
{
    if (epoch != migrationEpoch_ || phase_ != Phase::Migrating)
        return; // stale: that migration already activated or tore down
    ++migrationAborts_;
    sim::logWarn("t=" + std::to_string(sim_.now()) +
                 " SpotServe: migration schedule failed (" +
                 (failure.timedOut
                      ? std::string("deadline")
                      : "instance " +
                            std::to_string(failure.failedInstance)) +
                 "); recovering");

    // The data plane already dropped the plan.  Abort the whole
    // migration; its scheduled activate() no-ops on the epoch check.
    auto pm = std::move(*pending_);
    pending_.reset();
    enterPhase(Phase::Steady);
    migrationTailUntil_ = sim_.now();

    if (!options_.faultRecovery) {
        // The ablation still must not lose work — crash consistency of
        // the request queue is an invariant, not a feature flag — but it
        // gives up every kept replica, then pays a cold deployment from
        // scratch.
        for (auto &batch : pm.inherited)
            restartAndRequeue(std::move(batch));
        suspendServing();
        scheduleEval();
        return;
    }

    // Requeue the inherited work and re-plan fresh: the retry's
    // beginReconfig snapshots current holdings, where a dead source holds
    // nothing (the §4.2 no-cache route).  Kept replicas are still live
    // inside the old deployment and serve through the retry.
    for (auto &batch : pm.inherited) {
        requestsRecovered_ += static_cast<long>(batch.size());
        restartAndRequeue(std::move(batch));
    }
    pendingReconfig_ = false;
    dispatchAll();
    scheduleRetryEval();
}

void
SpotServeSystem::scheduleRetryEval()
{
    if (migrationRetryCount_ >= kMigrationMaxRetries) {
        // Bounded: beyond the retry budget stop thrashing, tear down and
        // rebuild cold.
        migrationRetryCount_ = 0;
        suspendServing();
        scheduleEval();
        return;
    }
    ++migrationRetryCount_;
    ++migrationRetries_;
    const double delay =
        kMigrationRetryBackoff * std::pow(2.0, migrationRetryCount_ - 1);
    sim_.scheduleAfter(delay, [this] { scheduleEval(); });
}

void
SpotServeSystem::suspendServing()
{
    tearDownDeployment();
    enterPhase(Phase::Steady);
    sim::logWarn("t=" + std::to_string(sim_.now()) +
                 " SpotServe: no feasible configuration; serving suspended");
}

} // namespace core
} // namespace spotserve
