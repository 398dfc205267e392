/**
 * @file
 * The SpotServe serving system (§3, §4).
 *
 * Orchestrates the parallelization controller (Algorithm 1), device mapper
 * (Kuhn-Munkres matching), migration planner (Algorithm 2) and
 * interruption arranger (JIT stateful recovery) into the proactive
 * reconfiguration loop:
 *
 *   availability / workload change
 *     -> controller proposes C_{t+1}      (Planning: serving continues)
 *     -> device mapper binds surviving GPUs to the new mesh
 *     -> migration planner schedules context movement
 *     -> interruption arranger drains the AFFECTED pipelines just in time
 *        (partial drain: replicas the mapping keeps in place never stop)
 *     -> context migration                (untouched replicas keep serving;
 *        the request queue rebalances onto them)
 *     -> progressive per-replica resume with recovered batches.
 *
 * Reconfiguration overlaps with serving end to end: planning is a costed,
 * scheduled event (PlanningLatencyModel) rather than an instantaneous
 * global stall, only the replicas whose mesh members are lost or
 * reassigned drain, and every migration runs on the link-level
 * TransferDataPlane, where the fault plane can see (and kill) it.  Each
 * paper component can be disabled independently (Figure 9).
 *
 * One state machine drives it: Steady -> Planning -> Draining ->
 * Migrating -> Steady, every change through enterPhase().  The mapper,
 * planner and arranger run in planReconfig(), a const pass that returns
 * the PendingMigration; beginReconfig() only commits it.
 */

#ifndef SPOTSERVE_CORE_SPOTSERVE_SYSTEM_H
#define SPOTSERVE_CORE_SPOTSERVE_SYSTEM_H

#include <map>
#include <optional>
#include <unordered_set>

#include "core/controller.h"
#include "core/device_mapper.h"
#include "core/interruption_arranger.h"
#include "core/migration_planner.h"
#include "core/transfer_data_plane.h"
#include "costmodel/planning_latency_model.h"
#include "serving/base_system.h"

namespace spotserve {
namespace core {

/** Feature switches and tuning for SpotServe. */
struct SpotServeOptions
{
    /** Adaptive configuration optimization (Algorithm 1). */
    bool enableController = true;

    /** Kuhn-Munkres device mapping (§3.3). */
    bool enableDeviceMapper = true;

    /** Progressive + memory-optimised migration planning (§3.4). */
    bool enableMigrationPlanner = true;

    /** JIT arrangement and cache-context migration (§4). */
    bool enableArranger = true;

    /** Inference-engine knobs (the same struct both baselines carry). */
    serving::EngineOptions engine{};

    /**
     * Expected workload rate: the floor of every rate the
     * ReconfigPolicy plans for (the arrival-rate estimator has no history
     * at t=0, and a lull must not shrink the deployment below it).
     */
    double designArrivalRate = 0.0;

    /**
     * Algorithm 1 lines 6-10 live: allocate instances when the chosen
     * configuration needs more than the fleet holds and release
     * over-provisioned capacity (on-demand first).  Off by default — the
     * paper's experiments replay pre-generated availability traces; turn
     * on when driving a live (simulated) cloud.
     */
    bool dynamicAllocation = false;

    /** Upper bound on the fleet the controller may request. */
    int maxDynamicInstances = 12;

    /**
     * Spare instances kept "as a candidate pool for smoother instance
     * substitution" (§3.2; the paper keeps two).
     */
    int candidatePoolSize = 2;

    /**
     * Crash-consistent recovery from unannounced faults (hard
     * preemptions and mid-migration deaths): when an in-flight transfer
     * schedule dies, abort the pending migration, requeue its inherited
     * work, keep the untouched replicas serving, and re-plan with bounded
     * retry + exponential backoff.  Disable for the abort-and-cold-restart
     * ablation: any mid-migration failure tears the whole deployment down
     * and pays a fresh cold start.
     */
    bool faultRecovery = true;

    ControllerOptions controller{};
};

/** The SpotServe system. */
class SpotServeSystem : public serving::BaseServingSystem
{
  public:
    SpotServeSystem(sim::Executor &executor,
                    cluster::InstanceManager &instances,
                    serving::RequestManager &requests,
                    const model::ModelSpec &spec,
                    const cost::CostParams &params, const cost::SeqSpec &seq,
                    SpotServeOptions options = {});

    std::string name() const override;

    // ClusterListener
    void onInstanceReady(const cluster::Instance &instance) override;
    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override;
    void onInstancePreempted(const cluster::Instance &instance) override;
    void onInstanceReleased(const cluster::Instance &instance) override;

    /** The base counters, then migration and fault-recovery counters. */
    void report(serving::ExperimentResult &result) const override;

    /** Diagnostics for tests and benches. @{ */
    int migrationsCompleted() const { return migrationsCompleted_; }
    double totalMigrationStall() const { return totalMigrationStall_; }
    double totalBytesMigrated() const { return totalBytesMigrated_; }
    double totalBytesReused() const { return totalBytesReused_; }
    /** Planning passes charged as scheduled events. */
    long planningEvents() const { return planningEvents_; }
    /** Simulated seconds spent in Phase::Planning (serving continued). */
    double totalPlanningTime() const { return totalPlanningTime_; }
    /** Replicas that served straight through a reconfiguration. */
    long pipelinesKeptServing() const { return pipelinesKeptServing_; }
    /** Reconfigurations where at least one replica never stopped. */
    int partialReconfigs() const { return partialReconfigs_; }
    const SpotServeOptions &options() const { return options_; }
    /** @} */

  protected:
    void onPipelineHalted(engine::InferencePipeline &pipeline) override;

  private:
    /**
     * The reconfiguration state machine.  enterPhase() is the only writer
     * and allows Steady->Planning, Steady/Planning->Draining,
     * Draining->Migrating and ->Steady from any phase but Draining.
     * pending_ is set exactly in Draining and Migrating.
     */
    enum class Phase
    {
        Steady,    ///< No reconfiguration in flight (deployed or not).
        Planning,  ///< Costed planning pass in flight; serving continues.
        Draining,  ///< Arranged halts pending on the affected replicas.
        Migrating, ///< Context migration in flight; untouched replicas
                   ///< keep serving.
    };

    /** One reconfiguration, planned by planReconfig(). */
    struct PendingMigration
    {
        par::ParallelConfig target;
        MappingResult mapping;
        /** The plan in force. */
        MigrationPlan plan;
        std::vector<double> oldTokens;
        std::string reason;
        int waitingHalts = 0;
        sim::SimTime deadline = sim::kTimeInfinity;
        bool migrateCache = true;
        /** What the drained cache is worth: its recompute time (§4.1). */
        double committedWork = 0.0;
        bool hadDeployment = false;
        /**
         * keptOldPipeline[d] = old replica whose live pipeline the new
         * replica d keeps in place (identical GPUs at identical
         * positions, same shape), or -1.  Kept replicas never drain:
         * their pipeline objects move into the new deployment at
         * activation.
         */
        std::vector<int> keptOldPipeline;
        /**
         * Old replicas that must drain (complement of the kept set): one
         * entry per old replica, none without a deployment.
         */
        std::vector<bool> touchedOld;
        /** Batches assigned to each new replica at activation. */
        std::vector<std::vector<engine::ActiveRequest>> inherited{};
        /** Absolute per-replica progressive-resume times. */
        std::vector<sim::SimTime> resumeAbs{};
    };

    /** The one writer of phase_; std::logic_error on an illegal move. */
    void enterPhase(Phase next);

    /** Coalesced deferred reconfiguration evaluation. */
    void scheduleEval();
    void evaluate();

    /**
     * Route a reconfiguration decision: with no live deployment it
     * commits immediately; otherwise it enters Phase::Planning and
     * commits after the modeled planning latency, re-validating the
     * decision against the then-current fleet.
     */
    void requestReconfig(const par::ParallelConfig &target,
                         const std::string &reason);

    /** The planning pass completed: re-decide on fresh state and commit. */
    void finishPlanning(const std::string &reason);

    /**
     * The one reconfiguration gate evaluate() and finishPlanning() share:
     * true when the remap is forced (no deployment, a mesh member dying
     * or gone, a broken replica) or the voluntary change passes
     * ReconfigPolicy::worthChanging.
     */
    bool shouldReconfigure(const ControllerDecision &decision,
                           double alpha) const;

    /** Modeled wall-clock of the planning pass just performed. */
    double planningDuration(const par::ParallelConfig &target,
                            int survivors) const;

    /** Periodic workload monitor (overload / scale-down detection). */
    void workloadTick();

    /** Algorithm 1 lines 6-10: grow/shrink the fleet (dynamic mode). */
    void manageFleet(double alpha);

    /** Controller-ablated fallback: fixed (P, M, B), adaptive D. */
    std::optional<ControllerDecision> fallbackDecision(int instances,
                                                       double alpha) const;

    std::optional<ControllerDecision> decide(int instances,
                                             double alpha) const;

    /**
     * The read-only planning pass toward @p target: context snapshot,
     * replica pins, device mapping, deadline, kept/touched sets,
     * migration plan and the arranger's cache-vs-recompute choice.
     */
    PendingMigration planReconfig(const par::ParallelConfig &target,
                                  const std::string &reason) const;

    /** Commit @p pm: enter Draining and arrange the affected halts. */
    void beginReconfig(PendingMigration pm);

    /** All pipelines drained: run the context migration. */
    void startMigration();

    /** Migration (front) finished: install and resume. */
    void activate();

    /**
     * The in-flight transfer schedule died (kill/timeout): abort the
     * pending migration, requeue its inherited work and re-plan with
     * backoff (or cold restart under faultRecovery = false).
     */
    void onMigrationFailed(long epoch,
                           const TransferDataPlane::PlanFailure &failure);

    /** Retry with exponential backoff (bounded; cold restart beyond). */
    void scheduleRetryEval();

    /**
     * An instance left the fleet (preempted or released): stop every live
     * replica standing on it and requeue its batch, in any phase.
     */
    void dropVictimReplicas(cluster::InstanceId id);

    /** Cached tokens per live replica (inheritance ranking). */
    std::vector<double> pipelineCacheTokens() const;

    /** Tear everything down and queue all work (cannot serve). */
    void suspendServing();

    /** Re-plan attempts after a failed migration before cold restart. */
    static constexpr int kMigrationMaxRetries = 3;
    /** Base seconds of the exponential retry backoff (base * 2^k). */
    static constexpr double kMigrationRetryBackoff = 1.0;
    /**
     * Per-plan deadline as a multiple of the quoted link-schedule
     * makespan: a transfer stretched past it by link faults is failed
     * and re-planned instead of stalling the reconfiguration forever.
     */
    static constexpr double kMigrationDeadlineFactor = 3.0;

    SpotServeOptions options_;
    /** Wall-clock model of one planning pass. */
    cost::PlanningLatencyModel planningModel_;
    ParallelizationController controller_;
    DeviceMapper mapper_;
    MigrationPlanner planner_;
    InterruptionArranger arranger_;
    /** Planning rate, voluntary-change gate and monitor hysteresis. */
    ReconfigPolicy policy_;

    Phase phase_ = Phase::Steady;
    bool evalScheduled_ = false;
    bool pendingReconfig_ = false;
    /** True while a loop halts pipelines: defers the all-drained step. */
    bool arrangingHalts_ = false;
    sim::SimTime migrationTailUntil_ = 0.0;

    /**
     * Active preemption notices: instance -> preemption time.  Every exit
     * from a grace period reaches the listener, which erases the notice.
     * Ordered map on purpose: the planning-deadline scan iterates it, and
     * this map feeds the golden-hash timeline — an unordered container
     * here is exactly the bug class the determinism lint's
     * unordered-iteration rule bans in src/core.
     */
    std::map<cluster::InstanceId, sim::SimTime> notices_;

    std::optional<PendingMigration> pending_;

    /** The planner switches this system runs with, cache as given. */
    PlannerOptions plannerOptions(bool migrate_cache) const;

    /**
     * @p pm's plan re-planned without the cache context, on the current
     * holdings: the arranger's recompute flip (§4.1) and the §4.2
     * grace-deadline fallback.
     */
    MigrationPlan planWithoutCache(const PendingMigration &pm) const;

    /** Bumped at every activation; guards deferred replica start events. */
    long deployEpoch_ = 0;

    /**
     * Bumped at every startMigration; guards the failure callback and the
     * scheduled activation.
     */
    long migrationEpoch_ = 0;

    /** Consecutive failed re-plan rounds (reset on clean activation). */
    int migrationRetryCount_ = 0;

    /** Fixed parallelism once chosen (controller ablation). */
    mutable std::optional<par::ParallelConfig> fixedParallelism_;

    int migrationsCompleted_ = 0;
    double totalMigrationStall_ = 0.0;
    double totalMigrationMakespan_ = 0.0;
    double totalBytesMigrated_ = 0.0;
    double totalBytesReused_ = 0.0;
    long planningEvents_ = 0;
    double totalPlanningTime_ = 0.0;
    long pipelinesKeptServing_ = 0;
    int partialReconfigs_ = 0;
    long migrationAborts_ = 0;
    long migrationRetries_ = 0;
    long requestsRecovered_ = 0;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_SPOTSERVE_SYSTEM_H
