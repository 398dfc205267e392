/**
 * @file
 * Request manager: queueing, batching, arrival-rate estimation, metrics.
 *
 * The inference server's request manager receives input requests,
 * partitions them into batches for the inference pipelines, and collects
 * outputs (§3.1).  It also estimates the arrival rate alpha_t by counting
 * arrivals over a caller-chosen trailing window, which the
 * reconfiguration policy (core::ReconfigPolicy) consumes.
 */

#ifndef SPOTSERVE_SERVING_REQUEST_MANAGER_H
#define SPOTSERVE_SERVING_REQUEST_MANAGER_H

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "engine/active_request.h"
#include "engine/kv_block_store.h"
#include "serving/output_predictor.h"
#include "simcore/executor.h"
#include "simcore/stats.h"
#include "workload/request.h"

namespace spotserve {
namespace serving {

/** Completed-request record (per-request timeline for Figure 8g/8h). */
struct CompletionRecord
{
    wl::RequestId id = wl::kInvalidRequest;
    sim::SimTime arrival = 0.0;
    double latency = 0.0;
    int restarts = 0;
};

/**
 * FIFO pending queue plus completion bookkeeping.  Restarted requests
 * re-enter at their arrival-order position so FIFO fairness holds across
 * interruptions.
 */
class RequestManager
{
  public:
    explicit RequestManager(sim::Executor &executor);

    /** A new request arrived (from the workload). */
    void submit(const wl::Request &request);

    /**
     * Reset @p requests through ActiveRequest::resetForRestart (the
     * single source of restart semantics) and requeue them.  The one
     * requeue path, shared by every cache-losing interruption: eviction,
     * preemption restart, displaced-batch drops.  Since every requeued
     * request is reset, the queue never holds KV.  Requests keep their
     * original arrival times and re-enter in arrival order.
     */
    void requeueRestarted(std::vector<engine::ActiveRequest> requests);

    /**
     * The one admission pop: up to @p max_count pending requests, oldest
     * first, whose KV charge under @p mode (worst-case peak in Reserve,
     * predicted output in Optimistic — the predictor estimate is stamped
     * on the request as it is popped) fits @p kv_budget.  Idle-batch
     * formation pops one dealt head at a time with an unbounded
     * @p kv_budget (it has already quoted the head); boundary admission
     * pops into a live batch's remaining blocks.
     *
     * Deliberately strict FIFO head-blocking: the pop stops at the first
     * head that does not fit the KV budget, so a large request is never
     * overtaken by smaller newcomers and cannot be starved under a tight
     * budget (it admits as soon as enough in-flight reservations drain).
     * Restarted requests re-enter at their arrival position, so FIFO
     * fairness holds across requeues and interruptions too.  Under
     * Optimistic mode a restarted request is charged its full peak — the
     * eviction-storm guard: a just-evicted request only re-admits into
     * genuine worst-case headroom, so it can never immediately push a
     * second victim out.
     *
     * A head that can never fit a replica is rejected when any pop
     * reaches it: when its undiscounted worst-case peak exceeds
     * @p replica_budget it is dropped (rejectedCount(), the rejection
     * observer, one warning) the moment it reaches the front — even
     * partway through a pop, which then carries on with the next head.
     * Optimistic charging could admit it, but if its output ran to the
     * cap it would outgrow the budget alone and be evicted even as the
     * batch's oldest member; dropping it instead of waiting keeps the
     * strict-FIFO queue from head-blocking forever.
     *
     * With a block @p store, the charge (never the servability test,
     * which runs first) is discounted by the head's matched-and-live
     * shared blocks — those blocks are already resident and counted in
     * the pipeline's charged total, so the discounted charge is the
     * request's marginal physical demand.  Restarted heads get no
     * discount, extending the storm guard.  All budgets and charges are
     * in engine::kKvBlockTokens-token KV blocks, matching what the
     * pipelines enforce.  Only fresh and restarted work lives in the
     * queue (no KV held); recovered batches are handed to pipelines
     * directly by the serving systems.
     */
    std::vector<engine::ActiveRequest>
    popAdmissible(int max_count, long kv_budget = engine::kUnboundedKvBlocks,
                  engine::KvAdmissionMode mode =
                      engine::KvAdmissionMode::Reserve,
                  long replica_budget = engine::kUnboundedKvBlocks,
                  const engine::KvBlockStore *store = nullptr);

    /** popAdmissible, kept only for perfbench's admission replay, which
     *  passes 16.
     *  @throws std::invalid_argument unless block_tokens ==
     *          engine::kKvBlockTokens. */
    std::vector<engine::ActiveRequest>
    admitAtBoundary(int free_slots, long free_kv,
                    engine::KvAdmissionMode mode, long replica_budget,
                    int block_tokens, const engine::KvBlockStore *store);

    /**
     * KV blocks the queue head would be charged under @p mode, undiscounted
     * (stamping a fresh prediction on it first).  Heads that can never
     * fit @p replica_budget are rejected first, exactly as popAdmissible
     * rejects them.  Used by idle-batch formation to pick a replica with
     * enough headroom before popping.  Empty when no head is left.
     */
    std::optional<long> headKvCharge(engine::KvAdmissionMode mode,
                                     long replica_budget);

    /** Requests dropped as unservable. */
    long rejectedCount() const { return rejected_; }

    bool pendingEmpty() const { return pending_.empty(); }
    std::size_t pendingCount() const { return pending_.size(); }

    /**
     * Arrivals per second over the trailing @p window_seconds (alpha_t).
     * The paper samples 30 s (§3.2 footnote); longer windows (up to 180 s
     * of retained history) give the smoother estimates the
     * reconfiguration policy plans and detects overload with.
     */
    double estimatedArrivalRate(double window_seconds) const;

    /** Record a finished request (feeds the output-length predictor). */
    void complete(const engine::ActiveRequest &request);

    /**
     * Observer fired after every complete() with the fresh record.  The
     * socket ingress streams the final completion line to the issuing
     * client from here; experiments leave it unset.  Runs on the
     * executor's driver thread.
     */
    void setCompletionObserver(
        std::function<void(const CompletionRecord &)> observer)
    {
        completionObserver_ = std::move(observer);
    }

    /**
     * Observer fired when a pop drops an unservable request, so a
     * live ingress can bounce it to the client instead of silently
     * swallowing it.  Runs on the executor's driver thread.
     */
    void setRejectionObserver(std::function<void(wl::RequestId)> observer)
    {
        rejectionObserver_ = std::move(observer);
    }

    /**
     * The output-length predictor optimistic admission charges against
     * (mutable access so tests and warm-started deployments can prime
     * it with historical completions).
     */
    OutputLengthPredictor &outputPredictor() { return predictor_; }
    const OutputLengthPredictor &outputPredictor() const
    {
        return predictor_;
    }

    /** Latency distribution over completed requests. */
    const sim::LatencyRecorder &latencies() const { return latencies_; }

    /** Per-request completion records in completion order. */
    const std::vector<CompletionRecord> &completions() const
    {
        return completions_;
    }

    long arrivedCount() const { return arrived_; }
    long completedCount() const { return static_cast<long>(completions_.size()); }

    /** Output tokens of completed requests (per-token cost denominator). */
    double tokensGenerated() const { return tokensGenerated_; }

    /** Requests never completed: queued + in-flight elsewhere (rejected
     *  ones are counted separately; completed + rejected + unfinished
     *  partitions arrived). */
    long unfinishedCount() const
    {
        return arrived_ - completedCount() - rejected_;
    }

    /** Pending requests (diagnostic view). */
    const std::deque<engine::ActiveRequest> &pending() const
    {
        return pending_;
    }

  private:
    /**
     * Reject every head whose undiscounted worst-case peak exceeds
     * @p replica_budget (it can never be served by a replica of that
     * budget).  Returns whether a servable head is left at the front.
     */
    bool servableHead(long replica_budget);

    /** Drop the queue head as unservable under @p replica_budget: count
     *  it, fire the rejection observer and log one warning. */
    void rejectHead(long replica_budget);

    /** Stamp a fresh predictor estimate on @p request (Optimistic). */
    void stampPrediction(engine::ActiveRequest &request,
                         engine::KvAdmissionMode mode);

    sim::Executor &sim_;
    OutputLengthPredictor predictor_;

    std::deque<engine::ActiveRequest> pending_;
    mutable std::deque<sim::SimTime> recentArrivals_;

    sim::LatencyRecorder latencies_;
    std::vector<CompletionRecord> completions_;
    std::function<void(const CompletionRecord &)> completionObserver_;
    std::function<void(wl::RequestId)> rejectionObserver_;
    long arrived_ = 0;
    long rejected_ = 0;
    double tokensGenerated_ = 0.0;
};

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_REQUEST_MANAGER_H
