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
      options_(options),
      controller_(spec, params, seq, cost::ConfigSpaceOptions{},
                  options.controller)
{
}

long
ReroutingSystem::bestPrefixDiscount(const engine::ActiveRequest &head) const
{
    long best = 0;
    for (const auto &s : slots_) {
        if (s->pipeline)
            best = std::max(best,
                            s->pipeline->kvStore().quoteSharedBlocks(head));
    }
    return best;
}

std::string
ReroutingSystem::name() const
{
    return "Rerouting";
}

int
ReroutingSystem::onlinePipelines() const
{
    int n = 0;
    for (const auto &s : slots_) {
        if (s->online)
            ++n;
    }
    return n;
}

long
ReroutingSystem::liveKvRefs() const
{
    long refs = 0;
    for (const auto &s : slots_) {
        if (s->pipeline)
            refs += s->pipeline->kvStore().totalLiveRefs();
    }
    return refs;
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
    const double alpha = std::max(requests_.estimatedArrivalRate(120.0),
                                  options_.designArrivalRate);
    const auto decision = controller_.chooseConfig(n, alpha);
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
    // reservations must not keep throttling surviving slots.
    dataPlane_.failInstance(inst.id());
    forgetInstance(inst.id());
    lastRole_.erase(inst.id());
    pool_.erase(std::remove(pool_.begin(), pool_.end(), inst.id()),
                pool_.end());
    dropSlotsUsing(inst.id());
    assemble();
}

void
ReroutingSystem::onInstanceReleased(const cluster::Instance &inst)
{
    forgetInstance(inst.id());
    lastRole_.erase(inst.id());
    pool_.erase(std::remove(pool_.begin(), pool_.end(), inst.id()),
                pool_.end());
    dropSlotsUsing(inst.id());
    assemble();
}

void
ReroutingSystem::dropSlotsUsing(cluster::InstanceId id)
{
    for (auto it = slots_.begin(); it != slots_.end();) {
        Slot &slot = **it;
        if (std::find(slot.members.begin(), slot.members.end(), id) ==
            slot.members.end()) {
            ++it;
            continue;
        }
        // The preemption hangs the whole pipeline: interrupted requests
        // are rerouted and recomputed from the beginning.
        if (slot.pipeline) {
            slot.pipeline->haltNow();
            restartAndRequeue(slot.pipeline->takeBatch());
        }
        for (cluster::InstanceId m : slot.members) {
            if (m == id)
                continue;
            const auto *inst = instances_.get(m);
            if (inst && inst->usable())
                pool_.push_back(m); // survivors idle until re-assembled
        }
        it = slots_.erase(it);
    }
}

void
ReroutingSystem::assemble()
{
    if (!fixed_)
        return;
    const int k = instancesPerPipeline();
    while (static_cast<int>(pool_.size()) >= k) {
        auto slot = std::make_unique<Slot>();
        slot->members.assign(k, cluster::kInvalidInstance);

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
                slot->members[r] = *it;
                pool_.erase(it);
            }
        }
        for (int r = 0; r < k; ++r) {
            if (slot->members[r] == cluster::kInvalidInstance) {
                slot->members[r] = pool_.front();
                pool_.pop_front();
            }
        }

        // Rebuilding a pipeline changes the process-group membership, so
        // the engine always relaunches; role-mismatched members also pull
        // their shards from storage.
        bool all_warm = true;
        for (int r = 0; r < k; ++r) {
            auto f = lastRole_.find(slot->members[r]);
            if (f == lastRole_.end() || f->second != r)
                all_warm = false;
        }
        par::ParallelConfig pipe_cfg = *fixed_;
        pipe_cfg.dp = 1;
        // Cold members pull their shards over the data plane's disk
        // links (identical to coldLoadTime when the disks are idle; a
        // member re-pooled from a just-destroyed slot may still have a
        // load in flight and honestly delays the new slot).
        double delay = params_.engineRestartTime;
        if (!all_warm) {
            const double bytes = latency_.coldLoadBytesPerInstance(pipe_cfg);
            std::vector<std::pair<int, double>> loads;
            loads.reserve(static_cast<std::size_t>(k));
            for (int r = 0; r < k; ++r)
                loads.emplace_back(static_cast<int>(slot->members[r]), bytes);
            delay += dataPlane_.submitColdLoad(loads);
        }
        for (int r = 0; r < k; ++r)
            lastRole_[slot->members[r]] = r;
        slot->pipeline = makePipeline(pipe_cfg, nextSlotIndex_++);
        Slot *raw = slot.get();
        slots_.push_back(std::move(slot));
        sim_.scheduleAfter(delay, [this, raw] {
            // The slot may have died while initialising.
            for (const auto &s : slots_) {
                if (s.get() == raw) {
                    raw->online = true;
                    dispatchSlots();
                    return;
                }
            }
        });
    }
}

void
ReroutingSystem::dispatchSlots()
{
    if (!fixed_)
        return;
    // Same policy as BaseServingSystem::dispatchAll: a head that exceeds
    // a whole (fixed-configuration) replica's budget can never be served.
    par::ParallelConfig pipe_cfg = *fixed_;
    pipe_cfg.dp = 1;
    rejectUnservableHeads(replicaKvBudgetBlocks(pipe_cfg),
                          effectiveKvBlockTokens(pipe_cfg));
    for (auto &s : slots_) {
        if (!s->online || !s->pipeline || !s->pipeline->idle() ||
            s->pipeline->haltPending()) {
            continue;
        }
        if (requests_.pendingEmpty())
            return;
        auto batch = requests_.nextBatch(fixed_->batch,
                                         s->pipeline->freeKvBlocks(),
                                         s->pipeline->kvAdmissionMode(),
                                         s->pipeline->kvBudgetBlocks(),
                                         s->pipeline->kvBlockTokens(),
                                         &s->pipeline->kvStore());
        if (batch.empty())
            return;
        s->pipeline->startBatch(std::move(batch));
    }
}

void
ReroutingSystem::onPipelineIdle(engine::InferencePipeline &)
{
    dispatchSlots();
}

void
ReroutingSystem::handleArrival(const wl::Request &request)
{
    requests_.submit(request);
    dispatchSlots();
}

} // namespace baselines
} // namespace spotserve
