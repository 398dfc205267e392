#include "serving/request_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spotserve {
namespace serving {

RequestManager::RequestManager(sim::Executor &executor) : sim_(executor) {}

void
RequestManager::submit(const wl::Request &request)
{
    engine::ActiveRequest active;
    active.request = request;
    pending_.push_back(active);
    recentArrivals_.push_back(sim_.now());
    ++arrived_;
}

void
RequestManager::requeueRestarted(std::vector<engine::ActiveRequest> requests)
{
    if (requests.empty())
        return;
    for (auto &r : requests) {
        r.resetForRestart();
        pending_.push_back(std::move(r));
    }
    // Restarted requests are older than fresh arrivals; restore FIFO order.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const engine::ActiveRequest &a,
                        const engine::ActiveRequest &b) {
                         return a.request.arrival < b.request.arrival;
                     });
}

void
RequestManager::stampPrediction(engine::ActiveRequest &request,
                                engine::KvAdmissionMode mode)
{
    if (mode != engine::KvAdmissionMode::Optimistic)
        return;
    request.predictedOutputTokens =
        predictor_.predict(request.outputCapTokens());
}

std::vector<engine::ActiveRequest>
RequestManager::popAdmissible(int max_count, long kv_budget,
                              engine::KvAdmissionMode mode,
                              long replica_budget, int block_tokens,
                              const engine::KvBlockStore *store)
{
    std::vector<engine::ActiveRequest> batch;
    long remaining = kv_budget;
    while (!pending_.empty() && static_cast<int>(batch.size()) < max_count) {
        engine::ActiveRequest &head = pending_.front();
        stampPrediction(head, mode);
        // Unservable whatever its charge: head-block until a rejection
        // site drops it.
        if (replica_budget != engine::kUnboundedKvBlocks &&
            head.kvPeakBlocks(block_tokens) > replica_budget)
            break;
        if (remaining != engine::kUnboundedKvBlocks) {
            // Prefix-sharing discount: matched-and-live shared blocks are
            // already resident (and already inside the pipeline's charged
            // total), so the head's marginal demand shrinks by that many
            // blocks.  Restarted heads stay undiscounted (storm guard).
            const long discount = (store != nullptr && head.restarts == 0)
                                      ? store->quoteSharedBlocks(head)
                                      : 0;
            const long charge = std::max(
                0L, head.kvChargedBlocks(mode, block_tokens) - discount);
            if (charge > remaining)
                break; // strict FIFO: nothing may slip past the head
            remaining -= charge;
        }
        batch.push_back(std::move(head));
        pending_.pop_front();
    }
    return batch;
}

std::vector<engine::ActiveRequest>
RequestManager::nextBatch(int max_size, long kv_budget,
                          engine::KvAdmissionMode mode, long replica_budget,
                          int block_tokens)
{
    return popAdmissible(max_size, kv_budget, mode, replica_budget,
                         block_tokens, nullptr);
}

std::vector<engine::ActiveRequest>
RequestManager::admitAtBoundary(int free_slots, long free_kv,
                                engine::KvAdmissionMode mode,
                                long replica_budget, int block_tokens,
                                const engine::KvBlockStore *store)
{
    auto admitted = popAdmissible(free_slots, free_kv, mode, replica_budget,
                                  block_tokens, store);
    midBatchAdmissions_ += static_cast<long>(admitted.size());
    return admitted;
}

long
RequestManager::headKvCharge(engine::KvAdmissionMode mode, int block_tokens)
{
    if (pending_.empty())
        throw std::logic_error("RequestManager::headKvCharge: empty queue");
    engine::ActiveRequest &head = pending_.front();
    stampPrediction(head, mode);
    return head.kvChargedBlocks(mode, block_tokens);
}

wl::RequestId
RequestManager::rejectHead()
{
    if (pending_.empty())
        throw std::logic_error("RequestManager::rejectHead: empty queue");
    const wl::RequestId id = pending_.front().request.id;
    pending_.pop_front();
    ++rejected_;
    if (rejectionObserver_)
        rejectionObserver_(id);
    return id;
}

double
RequestManager::estimatedArrivalRate(double window_seconds) const
{
    constexpr double kRetention = 180.0;
    const sim::SimTime now = sim_.now();
    while (!recentArrivals_.empty() &&
           recentArrivals_.front() < now - kRetention) {
        recentArrivals_.pop_front();
    }
    window_seconds = std::min(window_seconds, kRetention);
    std::size_t count = 0;
    for (auto it = recentArrivals_.rbegin(); it != recentArrivals_.rend();
         ++it) {
        if (*it < now - window_seconds)
            break;
        ++count;
    }
    // Divide by the elapsed-since-start time when it is shorter than the
    // window (cold start), clamped only by a small epsilon against t = 0.
    // The old 1.0 s floor underestimated alpha for every trace's first
    // second and skewed the controller's first chooseConfig.
    constexpr double kMinWindow = 1e-3;
    const double window = std::max(kMinWindow, std::min(now, window_seconds));
    return static_cast<double>(count) / window;
}

void
RequestManager::complete(const engine::ActiveRequest &request)
{
    const double latency = sim_.now() - request.request.arrival;
    latencies_.add(latency);
    completions_.push_back(CompletionRecord{request.request.id,
                                            request.request.arrival, latency,
                                            request.restarts});
    tokensGenerated_ += request.request.outputLen;
    // The completed length is the ground truth optimistic admission
    // learns from (the only place the actual EOS point becomes known).
    predictor_.observe(request.request.outputLen);
    if (completionObserver_)
        completionObserver_(completions_.back());
}

} // namespace serving
} // namespace spotserve
