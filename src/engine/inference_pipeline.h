/**
 * @file
 * Simulated distributed inference pipeline (one data-parallel replica).
 *
 * Executes batches at iteration granularity with continuous (iteration-
 * level) batching: at every decode-iteration boundary, requests that
 * finished all their output tokens leave the batch individually, and new
 * requests are admitted into the free slots through the onAdmit callback
 * (ORCA-style).  Newly admitted requests run their whole prefill in one
 * step alongside the incumbents' decode step, and the pipeline enforces
 * the per-replica KV-cache token budget the memory model promised
 * (BatchingOptions); durations come from the analytical LatencyModel.
 * Supports the interruption arranger's just-in-time halting (run at most
 * S_t more iterations, then drain) and immediate suspension, both
 * preserving committed token progress (§4.1) — a drained batch may
 * therefore carry mixed per-request progress.
 */

#ifndef SPOTSERVE_ENGINE_INFERENCE_PIPELINE_H
#define SPOTSERVE_ENGINE_INFERENCE_PIPELINE_H

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "costmodel/latency_model.h"
#include "engine/active_request.h"
#include "engine/kv_block_store.h"
#include "simcore/executor.h"

namespace spotserve {
namespace engine {

/** Execution phase of a pipeline. */
enum class PipelinePhase
{
    Idle,    ///< No batch loaded.
    Prefill, ///< At least one request of the running step is in prefill.
    Decode,  ///< Incremental decoding, one token per iteration.
    Halted,  ///< Drained by the arranger; batch retained, not executing.
};

const char *toString(PipelinePhase phase);

/**
 * Engine-level batching knobs, shared by every serving system.
 */
struct BatchingOptions
{
    /**
     * Per-replica KV-cache budget in whole kKvBlockTokens-token blocks
     * (MemoryModel::kvBudgetBlocks).  The pipeline enforces sum of
     * kvChargedBlocks() over the live batch <= this budget at startBatch
     * and at every admission, and (optimistic mode) evicts before each
     * step whatever the step's physical block demand cannot fit.
     * kUnboundedKvBlocks disables the check (the bare-engine default;
     * serving systems always pass a real budget).
     */
    long kvBudgetBlocks = kUnboundedKvBlocks;

    /**
     * How requests are charged against the budget (default-on optimistic
     * admission, which evicts LIFO victims when the next step cannot
     * fit; Reserve keeps the worst-case reservation for the ablation).
     * A bounded-budget Optimistic pipeline requires the onEvict
     * callback.
     */
    KvAdmissionMode kvAdmissionMode = KvAdmissionMode::Optimistic;
};

/**
 * One inference pipeline bound to a (D-index of a) deployment.
 *
 * The pipeline does not know about instances; the serving system owns the
 * device mesh and rebuilds pipelines on reconfiguration, carrying the
 * ActiveRequests (and their committed progress) across.
 */
class InferencePipeline
{
  public:
    struct Callbacks
    {
        /** A request finished all its output tokens. */
        std::function<void(const ActiveRequest &)> onRequestComplete;
        /**
         * A request committed one output token (fired per decoding
         * request at each iteration boundary, before the completion
         * check).  A live ingress streams tokens to clients from here;
         * simulated experiments leave it unset.
         */
        std::function<void(const ActiveRequest &)> onToken;
        /** The whole batch completed; the pipeline is Idle again. */
        std::function<void(InferencePipeline &)> onIdle;
        /** haltAfter() drained; the pipeline is Halted with its batch. */
        std::function<void(InferencePipeline &)> onHalted;
        /**
         * Iteration-level admission: called at every iteration boundary
         * with the number of free batch slots; the returned requests (at
         * most @p free_slots, none finished) join the live batch, entering
         * prefill unless they carry committed progress.  Leave unset for
         * rigid FasterTransformer-style run-to-completion batching.
         */
        std::function<std::vector<ActiveRequest>(InferencePipeline &,
                                                 int free_slots)>
            onAdmit;
        /**
         * Observer fired after every iteration boundary (and batch start)
         * with the post-boundary batch state, before the next step is
         * scheduled.  KV-accounting invariants (tests) and peak-memory
         * statistics hang off this.
         */
        std::function<void(const InferencePipeline &)> onBoundary;
        /**
         * Optimistic admission evicted the given requests so the next
         * step's KV blocks fit the budget.  Their cache context is gone;
         * committed progress is still intact when the callback fires (so
         * the receiver can cost the lost work) and the receiver MUST
         * reset it via ActiveRequest::resetForRestart before requeueing
         * (RequestManager::requeueRestarted does both).  Required when
         * kvAdmissionMode is Optimistic and the budget is bounded.
         */
        std::function<void(InferencePipeline &,
                           std::vector<ActiveRequest>)>
            onEvict;
    };

    InferencePipeline(sim::Executor &executor,
                      const cost::LatencyModel &latency,
                      const par::ParallelConfig &config, int index,
                      Callbacks callbacks, BatchingOptions batching = {});

    ~InferencePipeline();

    InferencePipeline(const InferencePipeline &) = delete;
    InferencePipeline &operator=(const InferencePipeline &) = delete;

    /**
     * Load and start a batch.  Requests may carry mixed committed
     * progress: those with committed tokens resume decoding from their
     * cached state (stateful recovery) while the rest run their prefill
     * first.
     * @pre phase() == Idle and batch size <= config.batch.
     */
    void startBatch(std::vector<ActiveRequest> batch);

    /**
     * JIT arrangement: allow at most @p iterations more decode-iteration
     * boundaries, then drain to Halted and fire onHalted.  If the batch
     * finishes earlier the pipeline halts at that point (it may not pick
     * up new work once a halt is pending).  Calling with 0 halts at the
     * next boundary (an in-flight iteration still commits its token); on
     * an Idle pipeline it halts immediately.
     */
    void haltAfter(int iterations);

    /**
     * Suspend immediately: the in-flight iteration (or prefill) is
     * abandoned and its token is NOT committed.  Committed progress from
     * earlier iterations is retained.
     */
    void haltNow();

    /** Remove and return the loaded batch. @pre Halted or Idle. */
    std::vector<ActiveRequest> takeBatch();

    PipelinePhase phase() const { return phase_; }
    bool idle() const { return phase_ == PipelinePhase::Idle; }
    bool halted() const { return phase_ == PipelinePhase::Halted; }
    bool executing() const;
    /** True once a halt has been requested (pipeline won't take work). */
    bool haltPending() const { return haltPending_; }

    const std::vector<ActiveRequest> &batch() const { return batch_; }
    /** Free batch slots (config batch size minus live requests). */
    int freeSlots() const;
    int index() const { return index_; }
    /**
     * Rebind the replica index.  Overlapped reconfiguration carries live
     * pipeline objects into the new deployment (they serve straight
     * through the transition), where the replica may land at a different
     * D-slot; the owner re-indexes at adoption so diagnostics and logs
     * stay truthful.  Execution state is unaffected.
     */
    void setIndex(int index) { index_ = index; }
    const par::ParallelConfig &config() const { return config_; }
    const BatchingOptions &batching() const { return batching_; }

    /** KV tokens the live batch holds right now (committed input and
     *  output tokens). */
    long kvTokensHeld() const;
    /** KV blocks the live batch occupies (per-request ceil rounding). */
    long kvBlocksHeld() const;
    /**
     * Worst-case KV blocks reserved by the live batch, in physical form:
     * the store's live blocks (a shared prefix level counted once) plus
     * each member's peak levels not yet held.
     */
    long kvBlocksReserved() const;
    /**
     * KV blocks the live batch is charged under the admission mode: the
     * store's live blocks plus each member's charged levels not yet
     * held.  Every level past a member's full shared prefix levels is
     * private, so its growth is never deduplicated and the sum bounds
     * the physical demand.
     */
    long kvBlocksCharged() const;
    /**
     * The enforced per-replica budget in whole KV blocks
     * (kUnboundedKvBlocks = none): what every admission and eviction
     * decision compares against.
     */
    long kvBudgetBlocks() const { return batching_.kvBudgetBlocks; }
    /** The admission mode this pipeline charges requests under. */
    KvAdmissionMode kvAdmissionMode() const
    {
        return batching_.kvAdmissionMode;
    }
    /**
     * Remaining admission headroom in blocks: block budget minus charged
     * blocks (kUnboundedKvBlocks when no budget is enforced).
     */
    long freeKvBlocks() const;

    /** Decode iterations executed over this pipeline's lifetime. */
    long iterationsExecuted() const { return itersExecuted_; }
    /** Output tokens committed over this pipeline's lifetime. */
    long tokensCommitted() const { return tokensCommitted_; }
    /** Requests admitted at iteration boundaries (continuous batching). */
    long admittedMidBatch() const { return admittedMidBatch_; }
    /** Requests evicted to keep the held KV under the budget.  The lost
     *  work is costed by the onEvict receiver (LatencyModel::
     *  recomputeTime — the victims' progress is intact at callback
     *  time), keeping eviction costing single-source at the serving
     *  layer. */
    long evictionsPerformed() const { return evictions_; }

    /**
     * The replica's refcounted physical block pool and prefix index: the
     * one source of truth for the KV the live batch holds.  Requests
     * without a shared prefix own private blocks, so physical equals
     * logical for them.
     */
    const KvBlockStore &kvStore() const { return *store_; }

    /**
     * Physical (deduplicated) blocks the live batch holds.  This — not
     * the logical per-request sum — is what the budget bounds.
     */
    long kvPhysicalBlocksHeld() const { return store_->liveBlocks(); }

    /**
     * Token-space view of the physical holding, for migration volume:
     * shared blocks transfer once, so the bytes a snapshot moves are
     * bounded by the physical blocks, not the logical token sum.
     */
    long kvTokensHeldPhysical() const
    {
        return std::min(kvTokensHeld(),
                        store_->liveBlocks() * kKvBlockTokens);
    }

    /** Prefill seconds skipped thanks to prefix hits (LatencyModel-
     *  costed diagnostic). */
    double savedPrefillSeconds() const { return savedPrefillSeconds_; }

  private:
    /** Size, cost and schedule the next iteration over the live batch. */
    void scheduleStep();
    void scheduleBoundary(double delay);
    void onBoundary();
    /** Pull new work into the free slots through onAdmit. */
    void admitNewWork();
    void enterHalted();
    /** Recompute prefilled/prefillTokens consistency on (re)entry. */
    static void normalizeProgress(ActiveRequest &r);
    /** Give @p r its physical blocks (prefix hits skip prefill compute
     *  and are costed into savedPrefillSeconds_). */
    void attachToStore(ActiveRequest &r);
    /** Fire the onBoundary observer. */
    void observeBoundary();
    /**
     * Optimistic mode, before each step: the step's demand is the
     * store's live blocks plus each member's new levels (one decode
     * token per prefilled member, the whole remaining input per
     * prefiller).  While it exceeds the block budget, evict LIFO victims
     * (youngest arrival, least progress first; restarted members after
     * fresh ones, the batch's oldest member last, so it goes only if it
     * alone overflows), then fire onEvict with them.
     */
    void enforceKvPressure();

    sim::Executor &sim_;
    const cost::LatencyModel &latency_;
    par::ParallelConfig config_;
    int index_;
    Callbacks callbacks_;
    BatchingOptions batching_;
    /** Physical block pool + prefix index. */
    std::unique_ptr<KvBlockStore> store_;
    double savedPrefillSeconds_ = 0.0;

    PipelinePhase phase_ = PipelinePhase::Idle;
    std::vector<ActiveRequest> batch_;
    sim::EventId pendingEvent_ = sim::kInvalidEventId;

    bool haltPending_ = false;
    long allowedIters_ = 0;

    long itersExecuted_ = 0;
    long tokensCommitted_ = 0;
    long admittedMidBatch_ = 0;
    long evictions_ = 0;
};

} // namespace engine
} // namespace spotserve

#endif // SPOTSERVE_ENGINE_INFERENCE_PIPELINE_H
