#include "engine/inference_pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spotserve {
namespace engine {

const char *
toString(PipelinePhase phase)
{
    switch (phase) {
      case PipelinePhase::Idle:
        return "idle";
      case PipelinePhase::Prefill:
        return "prefill";
      case PipelinePhase::Decode:
        return "decode";
      case PipelinePhase::Halted:
        return "halted";
    }
    return "?";
}

const char *
toString(KvAdmissionMode mode)
{
    switch (mode) {
      case KvAdmissionMode::Reserve:
        return "reserve";
      case KvAdmissionMode::Optimistic:
        return "optimistic";
    }
    return "?";
}

InferencePipeline::InferencePipeline(sim::Executor &executor,
                                     const cost::LatencyModel &latency,
                                     const par::ParallelConfig &config,
                                     int index, Callbacks callbacks,
                                     BatchingOptions batching)
    : sim_(executor), latency_(latency), config_(config), index_(index),
      callbacks_(std::move(callbacks)), batching_(batching)
{
    if (batching_.kvBudgetBlocks <= 0)
        throw std::invalid_argument(
            "InferencePipeline: KV budget must be at least one block "
            "(use kUnboundedKvBlocks to disable)");
    const bool bounded = batching_.kvBudgetBlocks != kUnboundedKvBlocks;
    if (bounded &&
        batching_.kvAdmissionMode == KvAdmissionMode::Optimistic &&
        !callbacks_.onEvict)
        throw std::invalid_argument(
            "InferencePipeline: optimistic admission under a bounded "
            "budget requires the onEvict callback (evicted requests "
            "must be requeued, not dropped)");
    // The store's physical capacity IS the block budget: prefix sharing
    // may never let resident blocks exceed what admission promised
    // (allocation throws instead of over-committing).
    store_ = std::make_unique<KvBlockStore>(batching_.kvBudgetBlocks);
}

InferencePipeline::~InferencePipeline()
{
    if (pendingEvent_ != sim::kInvalidEventId)
        sim_.cancel(pendingEvent_);
}

void
InferencePipeline::startBatch(std::vector<ActiveRequest> batch)
{
    if (phase_ != PipelinePhase::Idle)
        throw std::logic_error("InferencePipeline::startBatch: not idle");
    if (haltPending_)
        throw std::logic_error(
            "InferencePipeline::startBatch: halt pending, refuse new work");
    if (batch.empty())
        throw std::invalid_argument("InferencePipeline::startBatch: empty");
    if (static_cast<int>(batch.size()) > config_.batch)
        throw std::invalid_argument(
            "InferencePipeline::startBatch: batch larger than B");
    for (const auto &r : batch) {
        if (r.done())
            throw std::invalid_argument(
                "InferencePipeline::startBatch: already-finished request");
    }

    batch_ = std::move(batch);
    // Committed tokens imply the KV cache of the prior tokens survived
    // (stateful recovery, §4): such requests resume decoding directly;
    // the rest run their prefill first (past a matched shared prefix,
    // only the remaining input).
    for (auto &r : batch_) {
        normalizeProgress(r);
        attachToStore(r);
    }
    if (kvBlocksCharged() > batching_.kvBudgetBlocks)
        throw std::invalid_argument(
            "InferencePipeline::startBatch: batch exceeds the KV budget");
    observeBoundary();
    scheduleStep();
}

void
InferencePipeline::attachToStore(ActiveRequest &r)
{
    const int matched = store_->attach(r);
    if (matched > 0)
        savedPrefillSeconds_ += latency_.prefillSavedTime(config_, matched);
}

void
InferencePipeline::normalizeProgress(ActiveRequest &r)
{
    // Committed output tokens imply a complete, cached prefill.
    if (r.committedTokens > 0)
        r.prefillTokens = r.request.inputLen;
    r.prefilled = r.prefillTokens >= r.request.inputLen;
}

int
InferencePipeline::freeSlots() const
{
    return config_.batch - static_cast<int>(batch_.size());
}

long
InferencePipeline::kvTokensHeld() const
{
    long held = 0;
    for (const auto &r : batch_)
        held += r.kvTokensHeld();
    return held;
}

long
InferencePipeline::kvBlocksHeld() const
{
    long held = 0;
    for (const auto &r : batch_)
        held += r.kvBlocksHeld();
    return held;
}

long
InferencePipeline::kvBlocksReserved() const
{
    // Physical form: resident live blocks (shared levels counted once)
    // plus each request's worst-case future growth — the levels it has
    // yet to allocate.
    long reserved = store_->liveBlocks();
    for (const auto &r : batch_)
        reserved += r.kvPeakBlocks() - r.kvBlocksHeld();
    return reserved;
}

long
InferencePipeline::kvBlocksCharged() const
{
    long charged = store_->liveBlocks();
    for (const auto &r : batch_)
        charged += r.kvChargedBlocks(batching_.kvAdmissionMode) -
                   r.kvBlocksHeld();
    return charged;
}

long
InferencePipeline::freeKvBlocks() const
{
    if (batching_.kvBudgetBlocks == kUnboundedKvBlocks)
        return kUnboundedKvBlocks;
    return std::max(0L, batching_.kvBudgetBlocks - kvBlocksCharged());
}

void
InferencePipeline::observeBoundary()
{
    if (callbacks_.onBoundary)
        callbacks_.onBoundary(*this);
}

void
InferencePipeline::haltAfter(int iterations)
{
    if (iterations < 0)
        throw std::invalid_argument("InferencePipeline::haltAfter: negative");
    if (phase_ == PipelinePhase::Halted)
        return;
    haltPending_ = true;
    allowedIters_ = iterations;
    if (phase_ == PipelinePhase::Idle) {
        enterHalted();
        return;
    }
    // During prefill with 0 allowed iterations we still let the prefill
    // boundary fire (it commits nothing) and halt there.
}

void
InferencePipeline::haltNow()
{
    if (phase_ == PipelinePhase::Halted)
        return;
    if (pendingEvent_ != sim::kInvalidEventId) {
        sim_.cancel(pendingEvent_);
        pendingEvent_ = sim::kInvalidEventId;
    }
    haltPending_ = true;
    allowedIters_ = 0;
    enterHalted();
}

std::vector<ActiveRequest>
InferencePipeline::takeBatch()
{
    if (executing())
        throw std::logic_error(
            "InferencePipeline::takeBatch: pipeline still executing");
    // Block ids are meaningless outside this pipeline's store: drop the
    // references (committed progress is untouched) and let the inheriting
    // replica's store rebuild — deduplicating shared prefix levels — at
    // attach.
    for (auto &r : batch_)
        store_->release(r);
    return std::exchange(batch_, {});
}

bool
InferencePipeline::executing() const
{
    return phase_ == PipelinePhase::Prefill || phase_ == PipelinePhase::Decode;
}

void
InferencePipeline::enforceKvPressure()
{
    if (batching_.kvAdmissionMode != KvAdmissionMode::Optimistic ||
        batching_.kvBudgetBlocks == kUnboundedKvBlocks || batch_.empty())
        return;

    // Members evicted so far (empty: none, so the common no-eviction
    // boundary allocates nothing).
    std::vector<bool> gone;
    // The next step's demand in physical blocks: the store's live blocks
    // (shared levels once; evicted members' references already dropped)
    // plus each survivor's new levels, one decode token per prefilled
    // member and the whole remaining input per prefiller.
    auto demand = [&] {
        long blocks = store_->liveBlocks();
        for (std::size_t i = 0; i < batch_.size(); ++i) {
            if (!gone.empty() && gone[i])
                continue;
            const ActiveRequest &r = batch_[i];
            blocks += store_->projectedGrowthBlocks(
                r, r.prefilled ? 1 : r.request.inputLen - r.prefillTokens);
        }
        return blocks;
    };
    if (demand() <= batching_.kvBudgetBlocks)
        return;

    // Victim order: LIFO — youngest arrival first, least progress first.
    // Restarted members go after fresh ones (their full worst case is
    // already charged; evicting them again would forfeit the storm
    // guard), and the batch's oldest member goes last, so it is evicted
    // only if it alone overflows the budget.
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < batch_.size(); ++i) {
        if (batch_[i].request.arrival < batch_[oldest].request.arrival ||
            (batch_[i].request.arrival == batch_[oldest].request.arrival &&
             batch_[i].request.id < batch_[oldest].request.id))
            oldest = i;
    }
    std::vector<std::size_t> order;
    order.reserve(batch_.size());
    for (std::size_t i = 0; i < batch_.size(); ++i) {
        if (i != oldest)
            order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         const ActiveRequest &ra = batch_[a];
                         const ActiveRequest &rb = batch_[b];
                         const int ca = ra.restarts > 0 ? 1 : 0;
                         const int cb = rb.restarts > 0 ? 1 : 0;
                         if (ca != cb)
                             return ca < cb; // fresh members go first
                         if (ra.request.arrival != rb.request.arrival)
                             return ra.request.arrival > rb.request.arrival;
                         if (ra.kvTokensHeld() != rb.kvTokensHeld())
                             return ra.kvTokensHeld() < rb.kvTokensHeld();
                         return ra.request.id > rb.request.id;
                     });
    order.push_back(oldest);

    // Evict one victim at a time until the next step fits.  Dropping a
    // victim's references frees only its sole blocks: shared prefix
    // blocks stay live while a survivor holds them (and cached once the
    // last sharer leaves, reclaimed LRU only under allocation pressure).
    // With every member gone the demand is 0, so the loop ends in a fit.
    gone.assign(batch_.size(), false);
    std::size_t victims = 0;
    while (demand() > batching_.kvBudgetBlocks) {
        const std::size_t idx = order[victims++];
        gone[idx] = true;
        store_->release(batch_[idx]);
    }
    std::vector<ActiveRequest> evicted;
    evicted.reserve(victims);
    for (std::size_t k = 0; k < victims; ++k)
        evicted.push_back(std::move(batch_[order[k]]));
    std::vector<ActiveRequest> survivors;
    survivors.reserve(batch_.size() - victims);
    for (std::size_t i = 0; i < batch_.size(); ++i) {
        if (!gone[i])
            survivors.push_back(std::move(batch_[i]));
    }
    batch_ = std::move(survivors);
    evictions_ += static_cast<long>(victims);
    callbacks_.onEvict(*this, std::move(evicted));
}

void
InferencePipeline::scheduleStep()
{
    // Optimistic admission: evict before sizing the step, so the
    // iteration that runs can never overflow the budget.
    enforceKvPressure();
    if (batch_.empty()) {
        // Eviction took the oldest member too (it outgrew the budget
        // alone, e.g. carried by a migration trim onto a smaller
        // replica): the replica goes idle.
        if (haltPending_) {
            enterHalted();
        } else {
            phase_ = PipelinePhase::Idle;
            if (callbacks_.onIdle)
                callbacks_.onIdle(*this);
        }
        return;
    }

    // Every unprefilled member runs its whole remaining input in this
    // step, alongside the prefilled members' decode.  (A drain never
    // holds one: a member is unprefilled only during the step right
    // after it enters, and entry is closed while a halt is pending.)
    int prefillers = 0;
    int decoders = 0;
    int max_input = 0;
    int max_prefix = 0;
    int max_ctx = 0;
    for (const auto &r : batch_) {
        if (r.prefilled) {
            ++decoders;
            max_ctx = std::max(max_ctx, r.nextContextLen());
        } else {
            ++prefillers;
            max_input =
                std::max(max_input, r.request.inputLen - r.prefillTokens);
            max_prefix = std::max(max_prefix, r.prefillTokens);
        }
    }
    phase_ = prefillers > 0 ? PipelinePhase::Prefill : PipelinePhase::Decode;
    scheduleBoundary(latency_.mixedIterTime(config_, prefillers, max_input,
                                            max_prefix, decoders, max_ctx));
}

void
InferencePipeline::scheduleBoundary(double delay)
{
    pendingEvent_ = sim_.scheduleAfter(delay, [this] { onBoundary(); });
}

void
InferencePipeline::onBoundary()
{
    pendingEvent_ = sim::kInvalidEventId;

    // Requests already prefilled when the elapsed step began were
    // decoding: each commits one token.  The rest ran their whole
    // remaining input in the step (which yields no output token) and
    // decode from the next step on.
    int decoded = 0;
    for (auto &r : batch_) {
        if (r.prefilled) {
            ++r.committedTokens;
            ++decoded;
            if (callbacks_.onToken)
                callbacks_.onToken(r);
        } else {
            r.prefillTokens = r.request.inputLen;
            r.prefilled = true;
        }
    }
    if (decoded > 0) {
        ++itersExecuted_;
        tokensCommitted_ += decoded;
    }
    // Extend every request's physical blocks over the tokens that just
    // committed: freshly completed prefix levels publish to the index
    // (or dedup onto a classmate's), everything else is private.
    for (auto &r : batch_)
        store_->commitProgress(r);

    // Requests leave the batch individually on completion.  Completions
    // fire while the batch is still intact; the survivors then close the
    // gaps in place, in order, by move.
    for (auto &r : batch_) {
        if (r.done()) {
            store_->release(r);
            if (callbacks_.onRequestComplete)
                callbacks_.onRequestComplete(r);
        }
    }
    batch_.erase(std::remove_if(batch_.begin(), batch_.end(),
                                [](const ActiveRequest &r) {
                                    return r.done();
                                }),
                 batch_.end());

    if (haltPending_) {
        observeBoundary();
        // Draining: no admission; spend the arranged decode budget, then
        // halt with whatever mixed-progress batch remains.
        if (batch_.empty() || allowedIters_ <= 0) {
            enterHalted();
            return;
        }
        if (decoded > 0)
            --allowedIters_;
        scheduleStep();
        return;
    }

    // Iteration-level admission into the freed slots.
    admitNewWork();
    observeBoundary();

    if (batch_.empty()) {
        phase_ = PipelinePhase::Idle;
        if (callbacks_.onIdle)
            callbacks_.onIdle(*this);
        return;
    }
    scheduleStep();
}

void
InferencePipeline::admitNewWork()
{
    if (!callbacks_.onAdmit)
        return;
    const int free = freeSlots();
    if (free <= 0)
        return;
    auto admitted = callbacks_.onAdmit(*this, free);
    if (admitted.empty())
        return;
    if (static_cast<int>(admitted.size()) > free)
        throw std::logic_error(
            "InferencePipeline::onAdmit returned more than the free slots");
    for (auto &r : admitted) {
        if (r.done())
            throw std::invalid_argument(
                "InferencePipeline: admitted already-finished request");
        normalizeProgress(r);
        attachToStore(r);
        batch_.push_back(std::move(r));
        ++admittedMidBatch_;
    }
    if (kvBlocksCharged() > batching_.kvBudgetBlocks)
        throw std::logic_error(
            "InferencePipeline::onAdmit overflowed the KV budget");
}

void
InferencePipeline::enterHalted()
{
    phase_ = PipelinePhase::Halted;
    if (callbacks_.onHalted)
        callbacks_.onHalted(*this);
}

} // namespace engine
} // namespace spotserve
