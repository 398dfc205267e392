/**
 * @file
 * End-to-end experiment driver: trace x workload x system -> metrics.
 */

#ifndef SPOTSERVE_SERVING_EXPERIMENT_H
#define SPOTSERVE_SERVING_EXPERIMENT_H

#include <functional>
#include <memory>
#include <string>

#include "cluster/fault_plan.h"
#include "cluster/trace_library.h"
#include "serving/base_system.h"
#include "serving/request_manager.h"
#include "workload/workload.h"

namespace spotserve {
namespace serving {

/** Everything a run produces. */
struct ExperimentResult
{
    std::string systemName;
    std::string traceName;
    std::string modelName;

    /** Completed-request latency distribution (censored latencies of
     *  never-finished requests included so overload stays visible). */
    sim::LatencyRecorder latencies;

    /** Per-request completion records (Figure 8g/8h). */
    std::vector<CompletionRecord> perRequest;

    /** Configuration history (Figure 8 annotations). */
    std::vector<ConfigChange> configHistory;

    long arrived = 0;
    long completed = 0;
    long unfinished = 0;
    /** Requests dropped as unservable under the KV budget (should be 0
     *  for any workload the deployed configurations can host). */
    long rejected = 0;

    double tokensGenerated = 0.0;
    double costUsd = 0.0;
    double spotInstanceHours = 0.0;
    double ondemandInstanceHours = 0.0;

    /** Largest logical KV holding any replica reached at an iteration
     *  boundary, in whole blocks (per-request ceil rounding — the
     *  footprint a paged allocator would hand out without sharing; fig8
     *  admission-ablation row). */
    long peakKvHeldBlocks = 0;

    /** Largest *physical* (deduplicated) block holding any replica
     *  reached at a boundary.  Equals peakKvHeldBlocks on a prefix-free
     *  workload; strictly smaller whenever prompt prefixes were shared. */
    long peakKvPhysicalBlocks = 0;

    /**
     * Prefix-sharing diagnostics (KvBlockStore): attaches that matched a
     * cached prefix, prefix tokens whose prefill compute was skipped, and
     * the prefill seconds the hits saved (LatencyModel::prefillSavedTime).
     * All zero on a prefix-free workload.
     * @{ */
    long prefixHits = 0;
    long prefixMatchedTokens = 0;
    double savedPrefillSeconds = 0.0;
    /** @} */

    /** Always 0: the store shares whole blocks only and copies none.
     *  perfbench's `engine.cow_copies` reads it. */
    long cowCopies = 0;

    /** Largest live batch any replica reached at a boundary (requests) —
     *  the admitted concurrency the Reserve/Optimistic ablation compares. */
    int peakConcurrentRequests = 0;

    /** Requests evicted by optimistic admission, and the committed work
     *  (seconds to recompute) those evictions discarded. */
    long evictions = 0;
    double evictedWorkSeconds = 0.0;

    /**
     * Migration data-plane diagnostics (SpotServe systems only): plans
     * executed, their cumulative end-to-end makespan, and how many found
     * at least one of their links still busy from an earlier migration.
     * @{ */
    int migrationsCompleted = 0;
    double migrationMakespanTotal = 0.0;
    long contendedMigrations = 0;
    /** @} */

    /**
     * Fault-plane diagnostics: unannounced (zero-notice) preemptions the
     * cluster delivered, migration schedules that died mid-flight
     * (instance kill or deadline), backed-off re-plans after such a
     * death, requests whose lost context the recovery path requeued, and
     * total requests that crossed the shared restart path.  All zero in a
     * fault-free run.
     * @{ */
    long hardPreemptions = 0;
    long migrationAborts = 0;
    long migrationRetries = 0;
    long requestsRecovered = 0;
    long restartedRequeues = 0;
    /** Live KV block references still held when the run ended.  With
     *  unfinished == 0 any nonzero value is a refcount a recovery path
     *  leaked (resident requests are the only legitimate holders). */
    long liveKvRefsAtEnd = 0;
    /** @} */

    /** USD per generated output token. */
    double costPerToken() const
    {
        return tokensGenerated > 0.0 ? costUsd / tokensGenerated : 0.0;
    }
};

/** Builds the serving system under test on the driver's executor. */
using SystemFactory = std::function<std::unique_ptr<ServingSystem>(
    sim::Executor &, cluster::InstanceManager &, RequestManager &)>;

/** Driver knobs. */
struct ExperimentOptions
{
    /** Extra simulated time after the trace ends to drain the queue. */
    sim::SimTime drainTimeout = 900.0;

    /**
     * Requests arriving before this time are excluded from the latency
     * statistics: every system pays the same initial engine launch +
     * weight load, and the paper evaluates warmed-up serving.
     */
    sim::SimTime warmupCutoff = 120.0;

    /**
     * Optional fault plan replayed against the run by a seeded
     * sim::FaultInjector (caller-owned; must outlive the run).  nullptr
     * — the default — injects nothing and leaves the run byte-identical
     * to a driver without the fault plane.
     */
    const cluster::FaultPlan *faultPlan = nullptr;
};

/**
 * Replay @p trace and @p workload against the system built by @p factory
 * on a private deterministic Simulation and collect metrics.  Same
 * inputs, same outputs — byte-identical across runs.
 */
ExperimentResult
runExperiment(const model::ModelSpec &spec, const cost::CostParams &params,
              const cluster::AvailabilityTrace &trace,
              const wl::Workload &workload, const SystemFactory &factory,
              ExperimentOptions options = {});

/**
 * The same driver over a caller-supplied execution substrate: builds the
 * system graph on @p executor, schedules every trace and workload event,
 * and drives executor.run() to the horizon.  With a Simulation this is
 * exactly runExperiment; with a WallClockExecutor (typically at a large
 * timeScale) the identical serving stack replays the workload in real
 * time — the sim-vs-wallclock equivalence tests run both sides through
 * this one entry point.
 */
ExperimentResult
runExperimentOn(sim::Executor &executor, const model::ModelSpec &spec,
                const cost::CostParams &params,
                const cluster::AvailabilityTrace &trace,
                const wl::Workload &workload, const SystemFactory &factory,
                ExperimentOptions options = {});

/** The audit every drained run must pass: distinct completion ids, one
 *  record per completed request, nothing unfinished, no live KV block
 *  ref.  "" when it holds, else one line naming each broken clause. */
std::string auditDrainedRun(const ExperimentResult &result);

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_EXPERIMENT_H
