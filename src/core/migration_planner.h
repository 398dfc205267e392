/**
 * @file
 * Migration planner (Algorithm 2, §3.4).
 *
 * Produces the ordered context-migration schedule for a configuration
 * switch: the cache context first (interruption fault-tolerance), then the
 * model context layer by layer, prioritising front layers so front
 * pipeline stages can resume serving while later stages still migrate
 * (progressive migration).  The memory-optimised variant bounds each
 * instance's transient communication-buffer usage by U_max, deferring
 * layers that would overflow and ordering the deferred ones by the min-max
 * rule of Algorithm 2.
 *
 * One plan() call indexes the context snapshot once (engine::ContextIndex).
 * Each target position then looks up its own GPU's holding by id and,
 * for each layer it is missing, walks only that layer's holders, in
 * snapshot order, to pick the source: the first holder with the largest
 * shard overlap wins, with a 1e-6 bonus for a holder on the destination
 * instance.  The stale copies each old GPU frees are counted over its own
 * held layer range.
 */

#ifndef SPOTSERVE_CORE_MIGRATION_PLANNER_H
#define SPOTSERVE_CORE_MIGRATION_PLANNER_H

#include <vector>

#include "core/device_mapper.h"
#include "costmodel/link_schedule.h"
#include "costmodel/migration_cost.h"

namespace spotserve {
namespace core {

/**
 * One step of the migration schedule: the link scheduler's TransferStep
 * (cache step when layer < 0, else one model-context layer) plus the
 * timing the planner derives for it.
 */
struct MigrationStep : cost::TransferStep
{
    bool isCache() const { return layer < 0; }

    /** Critical-path contribution: how far this step extends the latest
     *  finish of the steps before it (computed by the planner). */
    double duration = 0.0;

    /**
     * Event schedule, as offsets from migration start: when this step's
     * wire transfers begin (after the shared setup; steps interleave on
     * the links, see cost::LinkSchedule) and when the step's context has
     * fully landed (wire plus any overlapped per-instance disk loads).
     * Destination stages may start serving as soon as every step they
     * depend on has finished — the plan's per-replica pipelineResume
     * offsets (what the serving system schedules activation by) are
     * derived from exactly these finishes, and the schedule itself is
     * exposed for tests and tooling (the plan inspector prints it).  The
     * buffer bound U_max is already honoured by the step *order*
     * (Algorithm 2), so consumers need no extra memory checks.
     */
    double startOffset = 0.0;
    double finishOffset = 0.0;
};

/** The full migration plan. */
struct MigrationPlan
{
    std::vector<MigrationStep> steps;

    /** End-to-end plan duration including the fixed setup cost. */
    double totalDuration = 0.0;

    /**
     * Offset (from migration start) at which serving can resume: with
     * progressive migration this is when the pipeline front can start
     * while later stages still receive context, ideally about a single
     * stage's transfer time; without it, totalDuration.
     */
    double resumeOffset = 0.0;

    /** Completion offset of each target stage's context. */
    std::vector<double> stageReady;

    /**
     * Per-replica serving-resume offset: a replica whose GPUs receive
     * little or no context (its shards were reused in place) resumes far
     * earlier than one rebuilt from remote context.  resumeOffset is the
     * maximum entry.
     */
    std::vector<double> pipelineResume;

    /** Byte accounting. @{ */
    double movedModelBytes = 0.0;
    double movedCacheBytes = 0.0;
    double reusedBytes = 0.0;
    double coldLoadBytes = 0.0;
    /** @} */

    /** Peak per-instance communication-buffer usage reached by the plan. */
    double peakBufferBytes = 0.0;

    /** Whether cache context was included. */
    bool cacheMigrated = false;

    /**
     * Step indices each (replica d, stage p) depends on — the cache step
     * when the replica inherits migrated cache, plus every step moving a
     * layer of that stage the position was missing.  This is what lets
     * the timing be *re-derived* from actual step finishes when the
     * transfer data plane schedules the plan against busy links (see
     * MigrationPlanner::retime).
     */
    std::vector<std::vector<std::vector<int>>> dpStepDeps;
};

/** Planner behaviour switches (Figure 9 ablations). */
struct PlannerOptions
{
    /** Overlap front-stage serving with later-stage migration (§3.4). */
    bool progressive = true;

    /** Algorithm 2's memory-optimised layer ordering under U_max. */
    bool memoryOpt = true;

    /** Move the cache context (the arranger may decide not to, §4.1). */
    bool migrateCache = true;
};

/** The migration planner. */
class MigrationPlanner
{
  public:
    MigrationPlanner(const model::ModelSpec &spec,
                     const cost::CostParams &params);

    /**
     * Build the schedule realising @p mapping for @p target, given the
     * context daemons' current holdings in @p snapshot, in one pass:
     * transfers, layer order, steps and dependency sets, then the timing
     * on idle links (the link-level schedule from origin 0, setup charged
     * once, read through retime()).
     *
     * @param old_pipeline_tokens cached tokens per old replica (sizing the
     *        cache step); may be empty.
     */
    MigrationPlan plan(const engine::ContextSnapshot &snapshot,
                       const MappingResult &mapping,
                       const par::ParallelConfig &target,
                       const std::vector<double> &old_pipeline_tokens,
                       PlannerOptions options = {}) const;

    /**
     * Re-derive every timing field of @p plan (step offsets, stageReady,
     * the per-replica progressive resumes, totalDuration) from actual
     * per-step start/finish offsets — the transfer data plane calls this
     * after scheduling the plan's steps against the *current* link state,
     * so contention with other in-flight migrations propagates into the
     * serving system's activation events instead of being ignored.
     * Offsets are from migration start and include setup.
     *
     * @throws std::invalid_argument unless @p step_start and
     *         @p step_finish hold one offset per step of @p plan.
     */
    void retime(MigrationPlan &plan, const par::ParallelConfig &target,
                const PlannerOptions &options,
                const std::vector<double> &step_start,
                const std::vector<double> &step_finish) const;

    /** The plan's steps as link-scheduler input (transfers + cold),
     *  sliced to their cost::TransferStep part. */
    static std::vector<cost::TransferStep>
    transferSteps(const MigrationPlan &plan);

  private:
    model::ModelSpec spec_;
    cost::CostParams params_;
    cost::LinkSchedule linkScheduler_;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_MIGRATION_PLANNER_H
