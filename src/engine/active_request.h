/**
 * @file
 * A request being decoded, with token-level committed progress.
 *
 * Stateful inference recovery (§4) commits progress at the token level:
 * committedTokens output tokens have been generated and their KV cache is
 * held by the context daemon, so a migrated request resumes from there
 * instead of recomputing.  A prefill never splits: prefillTokens is the
 * whole input once its prefill step ran, and before that only the whole
 * shared prefix blocks matched at admission.  Dropping the cache resets
 * both counters to 0 (resetForRestart(), the single reset shared by
 * eviction, preemption-restart and drop paths).
 */

#ifndef SPOTSERVE_ENGINE_ACTIVE_REQUEST_H
#define SPOTSERVE_ENGINE_ACTIVE_REQUEST_H

#include <algorithm>
#include <limits>
#include <vector>

#include "workload/request.h"

namespace spotserve {
namespace engine {

/** "No KV budget": block budgets of this value are never binding. */
constexpr long kUnboundedKvBlocks = std::numeric_limits<long>::max();

/**
 * Tokens per paged KV block: the PagedAttention allocation unit every
 * pipeline, store and admission path counts in.  Admission charges
 * ceil-rounded whole blocks per request and the per-replica budget is
 * floored to whole blocks (MemoryModel::kvBudgetBlocks), so the enforced
 * budget matches what a paged allocator can hand out.
 */
constexpr int kKvBlockTokens = 16;

/**
 * Ceil-divide a KV token count into kKvBlockTokens-token blocks: a
 * request holding t tokens occupies ceil(t / kKvBlockTokens) blocks.
 */
inline long
kvBlocksFor(long tokens)
{
    return (tokens + kKvBlockTokens - 1) / kKvBlockTokens;
}

/**
 * How admission charges a request against the KV block budget.
 *
 * Reserve charges the worst case (prompt + full output cap) so an admitted
 * request can always run to completion; on workloads whose outputs finish
 * far below the cap most of the budget sits idle.  Optimistic charges the
 * held tokens plus the *predicted* output length and relies on eviction
 * when predictions fall short (before each step the engine evicts LIFO
 * victims until the step's KV blocks fit, and they are requeued through
 * the restart path, so the OOM-free invariant still holds at every
 * iteration boundary).
 */
enum class KvAdmissionMode
{
    Reserve,
    Optimistic,
};

const char *toString(KvAdmissionMode mode);

/** One in-flight request with committed decoding progress. */
struct ActiveRequest
{
    wl::Request request;

    /** Output tokens generated and committed (KV cached). */
    int committedTokens = 0;

    /**
     * Input tokens whose KV is computed and committed.  Equals
     * request.inputLen once prefill finished; strictly between 0 and
     * inputLen only when matched shared prefix blocks (a block multiple)
     * cover part of the input and the rest awaits its prefill step.
     * Preserved across migration together with the cache context (a
     * mid-prefill request resumes from there).
     */
    int prefillTokens = 0;

    /**
     * Prefill completed on the pipeline currently running the request.
     * Engine-internal: recomputed from prefillTokens/committedTokens
     * whenever a batch is (re)started.
     */
    bool prefilled = false;

    /** Times the request was restarted from scratch (diagnostics, and the
     *  eviction-storm guard: restarted requests are charged their full
     *  worst case on re-admission). */
    int restarts = 0;

    /**
     * Output length the request manager's predictor expects this request
     * to generate (stamped at admission time).  0 = no prediction: charge
     * the worst case.  Never derived from request.outputLen — the engine
     * may not peek at the actual EOS point.
     */
    int predictedOutputTokens = 0;

    /**
     * Physical KV block ids this request holds references on, one per
     * block level (level k covers tokens [k*B, (k+1)*B), B =
     * kKvBlockTokens), owned by the pipeline's KvBlockStore.  Empty
     * whenever the request is outside a pipeline.  Entries for full
     * shared prefix levels may be shared with classmates; every other
     * entry is private to this request.
     * Never travels across pipelines: release() clears it and the
     * inheriting replica's store rebuilds it (deduplicating shared prefix
     * levels) at attach.
     */
    std::vector<int> kvBlockIds;

    /** All output tokens generated? */
    bool done() const { return committedTokens >= request.outputLen; }

    /** Context length the *next* decode iteration runs at (Eq. 1). */
    int nextContextLen() const
    {
        return request.inputLen + committedTokens + 1;
    }

    /** Declared generation cap: the most output tokens the request may
     *  ever produce (max-tokens; falls back to the actual length on
     *  workloads that do not model early stopping). */
    int outputCapTokens() const
    {
        return std::max(request.outputLen, request.outputCap);
    }

    /** KV-cache tokens this request currently holds on its replica. */
    long kvTokensHeld() const
    {
        return static_cast<long>(prefillTokens) + committedTokens;
    }

    /**
     * Worst-case KV-cache tokens the request will ever hold (full input
     * plus the declared output cap).  Reserve-mode admission charges this
     * peak so a request admitted once can always run to completion
     * without the replica exceeding the memory model's KV budget.
     */
    long kvPeakTokens() const
    {
        return static_cast<long>(request.inputLen) + outputCapTokens();
    }

    /**
     * KV tokens admission charges against the budget under @p mode.
     * Reserve: the worst case.  Optimistic: input plus the predicted
     * output (never below the committed progress plus the next token,
     * never above the cap) — except for restarted requests, which are
     * charged the worst case again (the eviction-storm guard: a
     * just-evicted request only re-admits into genuine worst-case
     * headroom, so its return can never immediately force a second
     * victim out).
     */
    long kvChargedTokens(KvAdmissionMode mode) const
    {
        if (mode == KvAdmissionMode::Reserve || restarts > 0 ||
            predictedOutputTokens <= 0) {
            return kvPeakTokens();
        }
        const int expected =
            std::clamp(predictedOutputTokens, committedTokens + 1,
                       outputCapTokens());
        return static_cast<long>(request.inputLen) + expected;
    }

    /** Blocks this request holds: ceil(held / block), rounded per
     *  request. */
    long kvBlocksHeld() const { return kvBlocksFor(kvTokensHeld()); }

    /** Worst-case blocks the request will ever occupy (kvPeakTokens). */
    long kvPeakBlocks() const { return kvBlocksFor(kvPeakTokens()); }

    /** Blocks admission charges under @p mode (kvChargedTokens). */
    long kvChargedBlocks(KvAdmissionMode mode) const
    {
        return kvBlocksFor(kvChargedTokens(mode));
    }

    /**
     * Drop cached progress (cache context lost, discarded, or evicted).
     * The single source of restart semantics: eviction, preemption
     * restart and drop paths all reset through here so they cannot
     * diverge.
     */
    void resetForRestart()
    {
        committedTokens = 0;
        prefillTokens = 0;
        prefilled = false;
        kvBlockIds.clear();
        ++restarts;
    }
};

} // namespace engine
} // namespace spotserve

#endif // SPOTSERVE_ENGINE_ACTIVE_REQUEST_H
