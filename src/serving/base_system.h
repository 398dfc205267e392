/**
 * @file
 * Shared machinery for all serving systems.
 *
 * SpotServe and both baselines run on the same engine substrate ("they are
 * implemented with the same inference engine as SpotServe to avoid
 * unfairness", §6.1): this base class owns the engine options, the
 * deployment (configuration, device mesh, pipelines), the transfer data
 * plane, the dispatch loop, context-daemon holdings, and configuration
 * history.
 *
 * One deployment model serves all three systems: every system's pipelines
 * are the replicas of its Deployment, so dispatch, boundary admission and
 * the KV leak audit run one code path.  The systems differ only in when
 * and how they rebuild the deployment (the ClusterListener callbacks);
 * the one engine hook a subclass overrides is onPipelineHalted, for
 * SpotServe's just-in-time halts.
 */

#ifndef SPOTSERVE_SERVING_BASE_SYSTEM_H
#define SPOTSERVE_SERVING_BASE_SYSTEM_H

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/transfer_data_plane.h"
#include "costmodel/latency_model.h"
#include "costmodel/memory_model.h"
#include "costmodel/throughput_model.h"
#include "engine/context_state.h"
#include "engine/inference_pipeline.h"
#include "model/model_spec.h"
#include "serving/request_manager.h"
#include "serving/serving_system.h"
#include "simcore/executor.h"

namespace spotserve {
namespace serving {

/**
 * Tokens per paged KV block in every serving-layer pipeline: the
 * PagedAttention allocation unit.  Admission charges ceil-rounded whole
 * blocks per request and the per-replica budget is floored to whole
 * blocks, so the enforced budget matches what a paged allocator can hand
 * out.  (The engine still takes any block size; its tests use 1 as the
 * token-granular reference.)
 */
constexpr int kKvBlockTokens = 16;

/**
 * The inference-engine knobs.  SpotServe and both baselines each carry one
 * of these and hand it to BaseServingSystem, which builds every pipeline
 * from it, so the engine the three systems run is one value declared
 * once.  Defaults are the serving defaults.
 */
struct EngineOptions
{
    /**
     * Iteration-level (continuous) batching: admit queued requests into
     * live batches at decode-iteration boundaries.  false = rigid
     * run-to-completion batching, the FasterTransformer-style engine the
     * paper inherits (batches only form when a pipeline is idle).
     */
    bool continuousBatching = true;

    /**
     * How requests are charged against the KV budget.  Optimistic charges
     * held + predicted-output tokens, learns the output-length
     * distribution from completions, and evicts LIFO victims when the
     * next step's KV blocks would not fit the budget; Reserve charges the
     * worst case (prompt + output cap), the ablation.
     */
    engine::KvAdmissionMode kvAdmissionMode =
        engine::KvAdmissionMode::Optimistic;
};

/** Common deployment + dispatch machinery. */
class BaseServingSystem : public ServingSystem
{
  public:
    BaseServingSystem(sim::Executor &executor,
                      cluster::InstanceManager &instances,
                      RequestManager &requests, const model::ModelSpec &spec,
                      const cost::CostParams &params,
                      const cost::SeqSpec &seq,
                      const EngineOptions &engine_options);

    void onRequestArrival(const wl::Request &request) override;
    const std::vector<ConfigChange> &configHistory() const override
    {
        return history_;
    }
    core::TransferDataPlane &dataPlane() override { return dataPlane_; }
    void setTokenObserver(
        std::function<void(const engine::ActiveRequest &)> observer) override
    {
        tokenObserver_ = std::move(observer);
    }
    /** KV, prefix-sharing, eviction and restart counters. */
    void report(ExperimentResult &result) const override;

    /** Current configuration if a deployment is active. */
    std::optional<par::ParallelConfig> currentConfig() const;

    /**
     * Live KV block references summed over every deployed replica's
     * KvBlockStore (0 with no deployment).  Leak
     * audit for the fault tests: once every request has completed or
     * been rejected, any nonzero value is a reference a recovery path
     * failed to release.
     */
    long liveKvRefs() const;

    /**
     * Observer forwarded to every pipeline's iteration-boundary callback
     * (tests assert the KV-budget invariant here; benches sample peaks).
     * Read at fire time, so it takes effect immediately for live
     * pipelines too.
     */
    void setKvObserver(
        std::function<void(const engine::InferencePipeline &)> observer)
    {
        kvObserver_ = std::move(observer);
    }

  protected:
    /** Active deployment: configuration, mesh, one pipeline per replica. */
    struct Deployment
    {
        par::ParallelConfig config;
        par::DeviceMesh mesh;
        /** Index d; broken replicas are nullptr. */
        std::vector<std::unique_ptr<engine::InferencePipeline>> pipelines;
        /**
         * Absolute time each replica comes online (a progressive
         * migration's resume, or a new Rerouting replica's engine launch);
         * empty means all replicas are ready immediately.
         */
        std::vector<sim::SimTime> readyAt;
        /**
         * Replicas whose recovered batch waits for their resume event to
         * load it; dispatchAll deals them nothing until then, even once
         * readyAt has arrived (another replica resuming at the same
         * instant dispatches first).  Empty means none wait.
         */
        std::vector<bool> awaitingBatch;
    };

    bool hasDeployment() const { return deployment_.has_value(); }
    Deployment &deployment() { return *deployment_; }
    const Deployment &deployment() const { return *deployment_; }

    /** The engine knobs every pipeline is built with. */
    const EngineOptions &engineOptions() const { return engine_; }

    /**
     * Pack the configuration's positions onto @p instance_list in order:
     * flat (d, p, m) positions fill each instance's GPUs before moving to
     * the next.  Tensor groups never straddle instances because M divides
     * the per-instance GPU count (or is a multiple of it).
     */
    par::DeviceMesh
    packedMesh(const par::ParallelConfig &config,
               const std::vector<const cluster::Instance *> &instance_list)
        const;

    /** Instances referenced by the active mesh (deduplicated). */
    std::vector<cluster::InstanceId> meshInstances() const;
    bool meshUsesInstance(cluster::InstanceId id) const;

    /** Replica indices whose pipeline maps any GPU of @p id. */
    std::vector<int> pipelinesUsingInstance(cluster::InstanceId id) const;

    /**
     * Replace the deployment: build one InferencePipeline per replica and
     * update context-daemon holdings for every mapped GPU.
     *
     * @param carried optional per-replica pipelines to adopt instead of
     *        building fresh ones (overlapped reconfiguration: replicas
     *        whose GPUs and shape the new mapping keeps in place serve
     *        straight through and their live pipeline objects — batches,
     *        in-flight iterations, KV accounting — move into the new
     *        deployment untouched).  A carried pipeline must have been
     *        built for the same (P, M, B) shape; entries may be null.
     */
    void installDeployment(
        const par::ParallelConfig &config, par::DeviceMesh mesh,
        std::vector<std::unique_ptr<engine::InferencePipeline>> carried = {});

    /** Destroy all pipelines (holdings are retained: daemons stay alive). */
    void clearDeployment();

    /** Give replica @p pipeline_idx a recovered batch and start it. */
    void loadBatch(int pipeline_idx,
                   std::vector<engine::ActiveRequest> batch);

    /**
     * Fill idle replicas from the request queue, spreading the FIFO head
     * across the least-loaded replicas (fewest live requests, then least
     * reserved KV): several small batches decode faster than one full
     * batch and keep per-replica KV headroom even across the
     * data-parallel pipelines.
     */
    void dispatchAll();

    /**
     * Stop serving entirely: halt every replica, then restart and requeue
     * their batches in replica order, then clear the deployment.  The
     * cache context is lost, so every interrupted request recomputes.
     * No-op without a deployment.
     */
    void tearDownDeployment();

    /** Remove one replica's pipeline and return its batch. */
    std::vector<engine::ActiveRequest> removePipeline(int idx);

    /** Reset progress of @p batch and put it back on the queue. */
    void restartAndRequeue(std::vector<engine::ActiveRequest> batch);

    /** Append to the configuration history. */
    void recordConfig(const par::ParallelConfig &config,
                      const std::string &reason);

    /**
     * Physical (deduplicated) KV tokens per replica id, 0 for an empty
     * slot; empty without a deployment.  Shared blocks transfer once, so
     * these are the tokens a migration moves.
     */
    std::vector<double> replicaCacheTokens() const;

    /**
     * Snapshot every usable GPU's context-daemon holdings; every GPU of
     * replica d holds @p replica_tokens[d] cache tokens (as returned by
     * replicaCacheTokens()).
     */
    engine::ContextSnapshot
    snapshotContext(const std::vector<double> &replica_tokens) const;

    /** Drop the holdings of an instance that left the cluster. */
    void forgetInstance(cluster::InstanceId id);

    /** Replicas of (P, M) that fit on @p num_instances. */
    int maxReplicas(int pp, int tp, int num_instances) const;

    /** A replica finished its batch: refill it from the queue. */
    void onPipelineIdle(engine::InferencePipeline &pipeline);

    /** Hook: a replica drained after haltAfter() (default: nothing). */
    virtual void onPipelineHalted(engine::InferencePipeline &pipeline);

    /**
     * Iteration-level admission (continuous batching).  Called by an
     * executing pipeline at every iteration boundary with its free slot
     * count; packs the batch back toward capacity from the FIFO queue,
     * bounded by the replica's remaining KV block budget and by an even
     * share of the queue when other idle replicas could take the work.
     * Never called once a halt is pending on the pipeline.
     */
    std::vector<engine::ActiveRequest>
    admitAtBoundary(engine::InferencePipeline &pipeline, int free_slots);

    /**
     * Whether the migration reserve deducted from the KV budget assumes
     * the memory-optimised planner (Algorithm 2).  Must match the
     * feasibility check that picked the deployment
     * (ConfigSpaceOptions::memOptPlanner), or the enforced budget
     * overstates the real headroom during migrations.
     */
    void setMemOptReserve(bool enabled) { memOptReserve_ = enabled; }

    /**
     * The KV token budget one replica of @p config gets at runtime.  A
     * deployed configuration passed MemoryModel::fits, so it holds at
     * least B worst-case sequences.
     * @throws std::logic_error if the budget is under one KV block (the
     *         configuration could not have passed fits).
     */
    long replicaKvBudget(const par::ParallelConfig &config) const;

    /**
     * The per-replica budget in whole KV blocks:
     * replicaKvBudget / kKvBlockTokens.  This is the budget every
     * admission path charges against.
     */
    long replicaKvBudgetBlocks(const par::ParallelConfig &config) const;

    /**
     * Drop queue heads whose worst-case KV (in kKvBlockTokens blocks)
     * exceeds @p budget_blocks (they can never be served by any replica
     * of the active configuration, so leaving them would head-block the
     * strict-FIFO queue forever).  The peak is undiscounted: a live
     * shared prefix a replica holds now may be gone before the head
     * reaches its peak, so a head that fits only through sharing is
     * rejected too.  Returns how many were rejected.
     */
    long rejectUnservableHeads(long budget_blocks);

    /** Build a pipeline wired to this system's callbacks. */
    std::unique_ptr<engine::InferencePipeline>
    makePipeline(const par::ParallelConfig &config, int index);

    sim::Executor &sim_;
    cluster::InstanceManager &instances_;
    RequestManager &requests_;
    model::ModelSpec spec_;
    cost::CostParams params_;
    cost::SeqSpec seq_;
    cost::LatencyModel latency_;
    cost::MemoryModel memory_;
    cost::ThroughputModel throughput_;
    /** Link-level data plane every migration and cold load runs through. */
    core::TransferDataPlane dataPlane_;

  private:
    /**
     * Replica @p d can take a fresh batch from dispatchAll right now:
     * idle, no halt pending, past its readyAt, and no
     * recovered batch waiting for its resume event.  Boundary admission
     * counts the same replicas when it leaves them a share of the queue.
     */
    bool dispatchable(std::size_t d) const;

    EngineOptions engine_;
    std::optional<Deployment> deployment_;
    std::vector<ConfigChange> history_;
    long restartedRequeues_ = 0;
    bool memOptReserve_ = true;
    std::function<void(const engine::InferencePipeline &)> kvObserver_;
    std::function<void(const engine::ActiveRequest &)> tokenObserver_;
    long peakKvHeldBlocks_ = 0;
    long peakKvPhysicalBlocks_ = 0;
    long prefixHitsTotal_ = 0;
    long prefixMatchedTokensTotal_ = 0;
    double savedPrefillSecondsTotal_ = 0.0;
    int peakConcurrentRequests_ = 0;
    long evictionsTotal_ = 0;
    double evictedWorkSeconds_ = 0.0;

    /** What each GPU's context daemon holds (survives clearDeployment). */
    std::unordered_map<par::GpuId, engine::GpuContext> holdings_;
};

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_BASE_SYSTEM_H
