#include "serving/base_system.h"

#include <algorithm>
#include <stdexcept>

#include "serving/experiment.h"
#include "simcore/logging.h"

namespace spotserve {
namespace serving {

BaseServingSystem::BaseServingSystem(sim::Executor &executor,
                                     cluster::InstanceManager &instances,
                                     RequestManager &requests,
                                     const model::ModelSpec &spec,
                                     const cost::CostParams &params,
                                     const cost::SeqSpec &seq,
                                     const EngineOptions &engine_options)
    : sim_(executor), instances_(instances), requests_(requests),
      spec_(spec), params_(params), seq_(seq), latency_(spec, params),
      memory_(spec, params), throughput_(latency_),
      dataPlane_(executor, params), engine_(engine_options)
{
}

void
BaseServingSystem::report(ExperimentResult &result) const
{
    result.peakKvHeldBlocks = peakKvHeldBlocks_;
    result.peakKvPhysicalBlocks = peakKvPhysicalBlocks_;
    result.prefixHits = prefixHitsTotal_;
    result.prefixMatchedTokens = prefixMatchedTokensTotal_;
    result.savedPrefillSeconds = savedPrefillSecondsTotal_;
    result.peakConcurrentRequests = peakConcurrentRequests_;
    result.evictions = evictionsTotal_;
    result.evictedWorkSeconds = evictedWorkSeconds_;
    result.restartedRequeues = restartedRequeues_;
    result.liveKvRefsAtEnd = liveKvRefs();
}

long
BaseServingSystem::rejectUnservableHeads(long budget_blocks)
{
    long rejected = 0;
    while (!requests_.pendingEmpty()) {
        // Undiscounted: a live shared prefix may leave before the head
        // reaches its peak, so only a peak that fits alone is servable.
        if (requests_.pending().front().kvPeakBlocks(kKvBlockTokens) <=
            budget_blocks)
            break;
        // Even an empty replica cannot host this request: reject it
        // rather than letting it head-block the strict-FIFO queue.
        const wl::RequestId id = requests_.rejectHead();
        sim::logWarn(name() + ": rejecting request " + std::to_string(id) +
                     " (KV peak exceeds the replica budget " +
                     std::to_string(budget_blocks) + " blocks of " +
                     std::to_string(kKvBlockTokens) + " tokens)");
        ++rejected;
    }
    return rejected;
}

long
BaseServingSystem::replicaKvBudget(const par::ParallelConfig &config) const
{
    const long budget = memory_.kvBudgetTokens(config, memOptReserve_);
    if (budget < kKvBlockTokens)
        throw std::logic_error("replicaKvBudget: configuration " +
                               config.str() +
                               " has less than one KV block of headroom");
    return budget;
}

long
BaseServingSystem::replicaKvBudgetBlocks(
    const par::ParallelConfig &config) const
{
    return replicaKvBudget(config) / kKvBlockTokens;
}

void
BaseServingSystem::onRequestArrival(const wl::Request &request)
{
    requests_.submit(request);
    dispatchAll();
}

std::optional<par::ParallelConfig>
BaseServingSystem::currentConfig() const
{
    if (!deployment_)
        return std::nullopt;
    return deployment_->config;
}

par::DeviceMesh
BaseServingSystem::packedMesh(
    const par::ParallelConfig &config,
    const std::vector<const cluster::Instance *> &instance_list) const
{
    par::DeviceMesh mesh(config, spec_.numLayers());
    std::vector<par::GpuId> gpus;
    for (const auto *inst : instance_list) {
        for (par::GpuId g : inst->gpuIds())
            gpus.push_back(g);
    }
    const int total = config.totalGpus();
    if (static_cast<int>(gpus.size()) < total)
        throw std::invalid_argument("packedMesh: not enough GPUs");
    const auto &topo = mesh.topology();
    for (int i = 0; i < total; ++i)
        mesh.assign(topo.position(i), gpus[i]);
    return mesh;
}

std::vector<cluster::InstanceId>
BaseServingSystem::meshInstances() const
{
    std::vector<cluster::InstanceId> out;
    if (!deployment_)
        return out;
    for (par::GpuId g : deployment_->mesh.gpus()) {
        const auto inst =
            cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance);
        if (std::find(out.begin(), out.end(), inst) == out.end())
            out.push_back(inst);
    }
    return out;
}

bool
BaseServingSystem::meshUsesInstance(cluster::InstanceId id) const
{
    if (!deployment_)
        return false;
    for (par::GpuId g : deployment_->mesh.gpus()) {
        if (cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance) == id)
            return true;
    }
    return false;
}

std::vector<int>
BaseServingSystem::pipelinesUsingInstance(cluster::InstanceId id) const
{
    std::vector<int> out;
    if (!deployment_)
        return out;
    const auto &cfg = deployment_->config;
    for (int d = 0; d < cfg.dp; ++d) {
        bool uses = false;
        for (par::GpuId g : deployment_->mesh.pipelineGpus(d)) {
            if (g != par::kInvalidGpu &&
                cluster::Instance::instanceOfGpu(
                    g, params_.gpusPerInstance) == id) {
                uses = true;
                break;
            }
        }
        if (uses)
            out.push_back(d);
    }
    return out;
}

std::unique_ptr<engine::InferencePipeline>
BaseServingSystem::makePipeline(const par::ParallelConfig &config, int index)
{
    engine::InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [this](const engine::ActiveRequest &r) {
        requests_.complete(r);
    };
    cb.onToken = [this](const engine::ActiveRequest &r) {
        if (tokenObserver_)
            tokenObserver_(r);
    };
    cb.onIdle = [this](engine::InferencePipeline &p) { onPipelineIdle(p); };
    cb.onHalted = [this](engine::InferencePipeline &p) {
        onPipelineHalted(p);
    };
    if (engine_.continuousBatching) {
        cb.onAdmit = [this](engine::InferencePipeline &p, int free_slots) {
            return admitAtBoundary(p, free_slots);
        };
    }
    // Prefix-sharing counters are monotone per pipeline; harvest them as
    // deltas against a per-pipeline last-seen snapshot so totals survive
    // pipeline teardown (migrations rebuild pipelines constantly).
    struct PrefixSeen
    {
        long hits = 0;
        long tokens = 0;
        double saved = 0.0;
    };
    auto seen = std::make_shared<PrefixSeen>();
    cb.onBoundary = [this, seen](const engine::InferencePipeline &p) {
        const engine::KvBlockStore &store = p.kvStore();
        // Each resident request holds one store reference per held
        // level, so the live references are the logical block holding.
        peakKvHeldBlocks_ = std::max(peakKvHeldBlocks_, store.totalLiveRefs());
        peakKvPhysicalBlocks_ =
            std::max(peakKvPhysicalBlocks_, p.kvPhysicalBlocksHeld());
        prefixHitsTotal_ += store.prefixHits() - seen->hits;
        seen->hits = store.prefixHits();
        prefixMatchedTokensTotal_ +=
            store.prefixMatchedTokens() - seen->tokens;
        seen->tokens = store.prefixMatchedTokens();
        savedPrefillSecondsTotal_ += p.savedPrefillSeconds() - seen->saved;
        seen->saved = p.savedPrefillSeconds();
        peakConcurrentRequests_ = std::max(
            peakConcurrentRequests_, static_cast<int>(p.batch().size()));
        if (kvObserver_)
            kvObserver_(p);
    };
    cb.onEvict = [this](engine::InferencePipeline &p,
                        std::vector<engine::ActiveRequest> evicted) {
        evictionsTotal_ += static_cast<long>(evicted.size());
        for (const auto &r : evicted) {
            evictedWorkSeconds_ += latency_.recomputeTime(
                p.config(), r.request.inputLen, r.prefillTokens,
                r.committedTokens);
        }
        // The victims' cache is gone: reset and requeue through the one
        // shared restart path (they re-enter in arrival order, charged
        // their full worst case — the eviction-storm guard).
        requests_.requeueRestarted(std::move(evicted));
        // The evicting pipeline is mid-boundary; let idle replicas with
        // real headroom pick the work up once this event settles.
        sim_.schedule(sim_.now(), [this] { dispatchAll(); });
    };
    engine::BatchingOptions batching;
    batching.kvBudgetTokens = replicaKvBudget(config);
    batching.kvBlockTokens = kKvBlockTokens;
    batching.kvAdmissionMode = engine_.kvAdmissionMode;
    return std::make_unique<engine::InferencePipeline>(
        sim_, latency_, config, index, std::move(cb), batching);
}

void
BaseServingSystem::installDeployment(
    const par::ParallelConfig &config, par::DeviceMesh mesh,
    std::vector<std::unique_ptr<engine::InferencePipeline>> carried)
{
    if (deployment_)
        throw std::logic_error("installDeployment: clear the old one first");
    Deployment dep{config, std::move(mesh), {}, {}, {}};
    dep.pipelines.reserve(config.dp);
    for (int d = 0; d < config.dp; ++d) {
        if (d < static_cast<int>(carried.size()) && carried[d]) {
            if (carried[d]->config().pp != config.pp ||
                carried[d]->config().tp != config.tp ||
                carried[d]->config().batch != config.batch) {
                throw std::logic_error(
                    "installDeployment: carried pipeline shape mismatch");
            }
            carried[d]->setIndex(d);
            dep.pipelines.push_back(std::move(carried[d]));
            continue;
        }
        dep.pipelines.push_back(makePipeline(config, d));
    }
    deployment_ = std::move(dep);

    // Every mapped GPU's context daemon now holds its position's model
    // context (migration/cold load completed before activation).
    const auto &topo = deployment_->mesh.topology();
    for (int i = 0; i < topo.size(); ++i) {
        const par::Position pos = topo.position(i);
        const par::GpuId g = deployment_->mesh.gpuAt(pos);
        engine::GpuContext ctx;
        ctx.gpu = g;
        ctx.instance =
            cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance);
        ctx.hasModelContext = true;
        ctx.config = config;
        ctx.position = pos;
        holdings_[g] = ctx;
    }
}

void
BaseServingSystem::clearDeployment()
{
    deployment_.reset();
}

void
BaseServingSystem::loadBatch(int pipeline_idx,
                             std::vector<engine::ActiveRequest> batch)
{
    if (!deployment_)
        throw std::logic_error("loadBatch: no deployment");
    auto &p = deployment_->pipelines.at(pipeline_idx);
    if (!p)
        throw std::logic_error("loadBatch: broken pipeline");
    if (batch.empty())
        return;
    p->startBatch(std::move(batch));
}

bool
BaseServingSystem::dispatchable(std::size_t d) const
{
    const auto &p = deployment_->pipelines[d];
    if (!p || !p->idle() || p->haltPending())
        return false;
    if (d < deployment_->readyAt.size() &&
        deployment_->readyAt[d] > sim_.now())
        return false; // not online yet
    // Its resume event loads a recovered batch first.
    return d >= deployment_->awaitingBatch.size() ||
           !deployment_->awaitingBatch[d];
}

void
BaseServingSystem::dispatchAll()
{
    if (!deployment_)
        return;
    std::vector<engine::InferencePipeline *> ready;
    for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
        if (dispatchable(d))
            ready.push_back(deployment_->pipelines[d].get());
    }
    if (ready.empty() || requests_.pendingEmpty())
        return;

    // Deal the FIFO queue onto the least-loaded replica one request at a
    // time (fewest requests, then least charged KV): D small batches
    // decode faster than one full batch and keep KV headroom even.
    // All budgets and charges are in whole KV blocks, matching what the
    // pipelines enforce.
    const long budget = replicaKvBudgetBlocks(deployment_->config);
    const engine::KvAdmissionMode mode = engine_.kvAdmissionMode;
    std::vector<std::vector<engine::ActiveRequest>> batches(ready.size());
    std::vector<long> charged(ready.size(), 0);
    while (!requests_.pendingEmpty()) {
        if (rejectUnservableHeads(budget) > 0)
            continue;
        if (requests_.pendingEmpty())
            break;
        // Least-loaded replica with a free slot AND enough KV headroom
        // for the FIFO head; stop only when the head fits no replica
        // (strict head-blocking — nothing slips past it).  No prefix
        // discount: a ready replica is idle and the batches dealt here
        // start only below, so its store holds no live blocks to share.
        const long head_charge = requests_.headKvCharge(mode, kKvBlockTokens);
        int best = -1;
        for (int i = 0; i < static_cast<int>(ready.size()); ++i) {
            if (static_cast<int>(batches[i].size()) >=
                deployment_->config.batch)
                continue;
            if (charged[i] + head_charge > budget)
                continue;
            if (best < 0 || batches[i].size() < batches[best].size() ||
                (batches[i].size() == batches[best].size() &&
                 charged[i] < charged[best])) {
                best = i;
            }
        }
        if (best < 0)
            break;
        auto got = requests_.nextBatch(1, budget - charged[best], mode,
                                       budget, kKvBlockTokens);
        if (got.empty())
            break;
        charged[best] += got.front().kvChargedBlocks(mode, kKvBlockTokens);
        batches[best].push_back(std::move(got.front()));
    }
    for (std::size_t i = 0; i < ready.size(); ++i) {
        if (!batches[i].empty())
            ready[i]->startBatch(std::move(batches[i]));
    }
}

void
BaseServingSystem::tearDownDeployment()
{
    if (!deployment_)
        return;
    std::vector<std::vector<engine::ActiveRequest>> batches(
        deployment_->pipelines.size());
    for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
        auto &p = deployment_->pipelines[d];
        if (!p)
            continue;
        p->haltNow();
        batches[d] = p->takeBatch();
    }
    for (auto &b : batches)
        restartAndRequeue(std::move(b));
    clearDeployment();
}

std::vector<engine::ActiveRequest>
BaseServingSystem::removePipeline(int idx)
{
    if (!deployment_)
        return {};
    auto &p = deployment_->pipelines.at(idx);
    if (!p)
        return {};
    p->haltNow();
    auto batch = p->takeBatch();
    p.reset();
    return batch;
}

void
BaseServingSystem::restartAndRequeue(std::vector<engine::ActiveRequest> batch)
{
    // Single-source restart semantics (resetForRestart) shared with the
    // eviction and drop paths, applied inside the request manager.
    restartedRequeues_ += static_cast<long>(batch.size());
    requests_.requeueRestarted(std::move(batch));
}

long
BaseServingSystem::liveKvRefs() const
{
    if (!hasDeployment())
        return 0;
    long refs = 0;
    for (const auto &p : deployment().pipelines) {
        if (p != nullptr)
            refs += p->kvStore().totalLiveRefs();
    }
    return refs;
}

void
BaseServingSystem::recordConfig(const par::ParallelConfig &config,
                                const std::string &reason)
{
    history_.push_back(ConfigChange{sim_.now(), config, reason});
    sim::logInfo("t=" + std::to_string(sim_.now()) + " " + name() +
                 " config -> " + config.str() + " (" + reason + ")");
}

engine::ContextSnapshot
BaseServingSystem::snapshotContext(
    const std::vector<double> &replica_tokens) const
{
    // Every GPU whose instance is still usable, in GPU order (a
    // deterministic order for the mapper).
    engine::ContextSnapshot snap;
    snap.gpus.reserve(holdings_.size());
    par::GpuId max_gpu = par::kInvalidGpu;
    for (const auto &[gpu, held] : holdings_) {
        const auto *inst = instances_.get(held.instance);
        if (!inst || !inst->usable())
            continue;
        snap.gpus.push_back(held);
        snap.gpus.back().cacheTokens = 0.0;
        max_gpu = std::max(max_gpu, gpu);
    }
    std::sort(snap.gpus.begin(), snap.gpus.end(),
              [](const engine::GpuContext &a, const engine::GpuContext &b) {
                  return a.gpu < b.gpu;
              });
    // Fill cache tokens from live batches: every GPU of replica d holds
    // that replica's KV slice for its own stage/shard.
    if (deployment_) {
        std::vector<int> slot_of(static_cast<std::size_t>(max_gpu + 1), -1);
        for (std::size_t i = 0; i < snap.gpus.size(); ++i)
            slot_of[snap.gpus[i].gpu] = static_cast<int>(i);
        for (std::size_t d = 0; d < replica_tokens.size(); ++d) {
            const double tokens = replica_tokens[d];
            if (tokens <= 0.0)
                continue;
            for (par::GpuId g :
                 deployment_->mesh.pipelineGpus(static_cast<int>(d))) {
                if (g >= 0 && g <= max_gpu && slot_of[g] >= 0)
                    snap.gpus[slot_of[g]].cacheTokens = tokens;
            }
        }
    }
    return snap;
}

void
BaseServingSystem::forgetInstance(cluster::InstanceId id)
{
    for (auto it = holdings_.begin(); it != holdings_.end();) {
        if (it->second.instance == id)
            it = holdings_.erase(it);
        else
            ++it;
    }
}

int
BaseServingSystem::maxReplicas(int pp, int tp, int num_instances) const
{
    const int gpi = params_.gpusPerInstance;
    if (tp > gpi) {
        // Whole instances per stage.
        const int inst_per_replica = pp * (tp / gpi);
        return num_instances / inst_per_replica;
    }
    return num_instances * gpi / (pp * tp);
}

void
BaseServingSystem::onPipelineIdle(engine::InferencePipeline &pipeline)
{
    if (!deployment_ || pipeline.haltPending())
        return;
    // Balanced refill: the newly idle replica competes with any other
    // idle ones for the queue instead of grabbing a full batch alone.
    dispatchAll();
}

void
BaseServingSystem::onPipelineHalted(engine::InferencePipeline &)
{
}

std::vector<engine::ActiveRequest>
BaseServingSystem::admitAtBoundary(engine::InferencePipeline &pipeline,
                                   int free_slots)
{
    if (requests_.pendingEmpty())
        return {}; // the common boundary: nothing waits
    // A head whose worst-case peak exceeds the whole replica budget is
    // unservable on every admission path.  Optimistic charging could
    // admit it (its *predicted* footprint fits), but if the output then
    // ran toward its cap it would outgrow the budget alone and be evicted
    // even as the batch's oldest member, its work lost — so it is
    // rejected here exactly as idle-batch formation rejects it, keeping a
    // request's fate independent of which admission path reaches it
    // first.
    rejectUnservableHeads(pipeline.kvBudgetBlocks());
    // Replica balancing at the boundary: when other idle replicas could
    // start this work immediately in fresh (faster, lighter) batches, the
    // boundary admission only claims its even split of the queue and the
    // remainder is dealt to the idle replicas right after.
    int idle_others = 0;
    if (deployment_) {
        for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
            if (deployment_->pipelines[d].get() != &pipeline &&
                dispatchable(d))
                ++idle_others;
        }
    }
    int slots = free_slots;
    if (idle_others > 0) {
        const long pending = static_cast<long>(requests_.pendingCount());
        const long share = (pending + idle_others) / (idle_others + 1);
        slots = static_cast<int>(
            std::min<long>(slots, std::max<long>(1, share)));
    }
    auto admitted = requests_.admitAtBoundary(slots, pipeline.freeKvBlocks(),
                                              pipeline.kvAdmissionMode(),
                                              pipeline.kvBudgetBlocks(),
                                              pipeline.kvBlockTokens(),
                                              &pipeline.kvStore());
    // The asking pipeline is mid-boundary (not idle), so dispatchAll only
    // touches the others.
    if (idle_others > 0 && !requests_.pendingEmpty())
        dispatchAll();
    return admitted;
}

std::vector<double>
BaseServingSystem::replicaCacheTokens() const
{
    std::vector<double> tokens;
    if (!deployment_)
        return tokens;
    tokens.assign(deployment_->pipelines.size(), 0.0);
    for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
        if (const auto &p = deployment_->pipelines[d])
            tokens[d] = static_cast<double>(p->kvTokensHeldPhysical());
    }
    return tokens;
}

} // namespace serving
} // namespace spotserve
