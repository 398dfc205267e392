/**
 * @file
 * Refcounted physical KV block store with radix prefix sharing over
 * whole blocks.
 *
 * Every replica keeps its KV here.  Per-request block counters alone
 * would make two requests whose prompts start with the same system
 * prompt or few-shot template pay for those blocks twice; the store
 * gives blocks *identity* — a per-replica pool of physical block ids with
 * refcounts, a free list, and a prefix index in the paged-attention +
 * prefix-caching lineage (vLLM's block-level prefix cache): block level k
 * of prefix class c always holds the same tokens, so (c, k) is the whole
 * content key.  The index keeps, per class, one vector of the block id
 * holding each full level (-1 where none is resident); a lookup finds the
 * class once and walks levels from 0, stopping at the first hole —
 * exactly a radix descent, with the level number as the edge label.
 *
 * Sharing semantics
 *  - The full block is the only unit of sharing.  A *full* level (all
 *    kKvBlockTokens tokens inside the shared prefix) is published to the
 *    index when the request that allocates it has committed all of it —
 *    or, if a classmate published it first, deduplicated onto the
 *    indexed block.  A prefill runs whole, so every in-prefix level is
 *    complete when it is allocated.  Later requests of the same class
 *    take a reference instead of allocating, and skip the prefill
 *    compute for those tokens.
 *  - Everything past a request's last full prefix level is private to
 *    it, including the partial tail of a prefix whose length is not a
 *    block multiple: those tokens are recomputed, and no block is ever
 *    written by two requests, so nothing is copied.
 *  - Releasing the last reference on an indexed block does not free it:
 *    the block stays resident as *cached* (still physical, still warm)
 *    and is reclaimed LRU over last-hit time only when allocation needs
 *    room — so shared prefix blocks are evicted last.
 *
 * Accounting (the identity the serving layers rely on): the pipeline's
 * charged demand is liveBlocks() plus each request's future growth
 * (charged − held levels), and the admission quote for a waiting request
 * discounts exactly the matched full blocks that are currently *live* —
 * those are already inside liveBlocks(), so the sum of quotes never
 * under-counts physical demand and the budget-overflow throw stays a real
 * invariant.  Cached (zero-ref) hits still skip prefill compute but are
 * charged: reviving them consumes budget again.
 */

#ifndef SPOTSERVE_ENGINE_KV_BLOCK_STORE_H
#define SPOTSERVE_ENGINE_KV_BLOCK_STORE_H

#include <unordered_map>
#include <vector>

#include "engine/active_request.h"

namespace spotserve {
namespace engine {

/** Per-replica refcounted physical-block pool with prefix sharing. */
class KvBlockStore
{
  public:
    /**
     * @param capacity_blocks physical blocks this replica may ever hold
     *        (live + cached); kUnboundedKvBlocks disables the cap.
     */
    explicit KvBlockStore(long capacity_blocks);
    /** Kept only for perfbench's store replay, which passes 16.
     *  @throws std::invalid_argument unless block_tokens == kKvBlockTokens. */
    KvBlockStore(long capacity_blocks, int block_tokens);

    long capacityBlocks() const { return capacityBlocks_; }

    /**
     * Admission quote: how many of @p r's prefix blocks are matched by
     * the index *and currently live* (referenced by a resident request).
     * The serving layers subtract this from the per-request charge — live
     * matches are already counted in liveBlocks(), so the discounted
     * charge is exactly the marginal physical demand.  Cached matches
     * are excluded (reviving them re-consumes budget).
     */
    long quoteSharedBlocks(const ActiveRequest &r) const;

    /**
     * Give @p r its physical blocks.  Fresh requests (no held tokens)
     * walk the radix index: matched full prefix levels are granted
     * without compute (prefillTokens is set; a full-input hit marks the
     * request prefilled).  Requests arriving with held tokens
     * (migrated-in / inherited batches) rebuild their block sequence,
     * taking references on already-resident shared prefix levels instead
     * of allocating — each shared block materializes once per replica no
     * matter how many inheritors carry it.
     *
     * @return prefix tokens newly matched from the index (0 for carries).
     */
    int attach(ActiveRequest &r);

    /**
     * Extend @p r's block list to cover its committed tokens; call at
     * every iteration boundary after progress commits.  One block per
     * new level: a complete in-prefix level takes a reference on the
     * indexed block if there is one, else allocates and publishes it;
     * any other level gets a private block.
     *
     * @return levels taken by reference (attach counts these for
     *         carried requests).
     */
    long commitProgress(ActiveRequest &r);

    /**
     * Drop all of @p r's references (completion, eviction, or batch
     * handoff).  Zero-ref indexed blocks become cached; private
     * blocks return to the free list.  Clears r.kvBlockIds only —
     * committed progress is untouched (migration keeps it; restarts go
     * through resetForRestart as before).
     */
    void release(ActiveRequest &r);

    /**
     * Physical blocks appending @p add_tokens to @p r may allocate: its
     * new levels.  An upper bound — shared hits on freshly completed
     * levels can only allocate less.
     */
    long projectedGrowthBlocks(const ActiveRequest &r, long add_tokens) const;

    /** Blocks with at least one live reference. */
    long liveBlocks() const { return liveBlocks_; }
    /** Zero-ref indexed blocks kept warm for future hits. */
    long cachedBlocks() const { return cachedBlocks_; }
    /** Total resident physical blocks (live + cached) — never exceeds
     *  capacityBlocks(). */
    long physicalBlocks() const { return liveBlocks_ + cachedBlocks_; }
    /** Sum of all live references (leak check: must equal the summed
     *  kvBlockIds sizes of resident requests). */
    long totalLiveRefs() const { return liveRefs_; }

    /** Attaches that matched at least one prefix token. */
    long prefixHits() const { return prefixHits_; }
    /** Prefix tokens whose prefill compute was skipped, total. */
    long prefixMatchedTokens() const { return prefixMatchedTokens_; }
    /** Cached blocks reclaimed (LRU) to make room for allocations. */
    long cachedReclaims() const { return cachedReclaims_; }
    /** Shared prefix blocks deduplicated while re-attaching carried
     *  requests (each counted block was transferred/allocated once
     *  instead of per-inheritor). */
    long carryDedupBlocks() const { return carryDedupBlocks_; }

  private:
    struct Block
    {
        int refs = 0;
        long lastHit = 0;
        int indexCls = -1;   ///< class of the full level it holds
        int indexLevel = -1; ///< that level, or -1 if not indexed
        bool freed = false;
    };

    struct Match
    {
        int fullLevels = 0; ///< consecutive resident full levels from 0
        int liveLevels = 0; ///< of those, how many have refs > 0
    };

    /** Shared full levels of r's class usable by r: (k+1)*B fits inside
     *  both the declared prefix and r's own prompt. */
    int shareLimitTokens(const ActiveRequest &r) const;
    Match matchPrefix(const ActiveRequest &r) const;
    /** Block id holding full level @p level of class @p cls, or -1. */
    int indexedLevel(int cls, int level) const;
    /** Point full level @p level of class @p cls at block @p id and stamp
     *  the block; @p id = -1 unpublishes the level. */
    void publishLevel(int cls, int level, int id);

    int allocate();
    void reclaimOneCached();
    void takeRef(int id);
    void dropRef(int id);

    std::vector<Block> blocks_;
    std::vector<int> freeList_;
    /** prefix class -> block id holding each full level (-1: none); a
     *  class with no resident level has no entry.  Looked up by class
     *  only, never iterated. */
    std::unordered_map<int, std::vector<int>> fullIndex_;

    long capacityBlocks_;
    long clock_ = 0;

    long liveBlocks_ = 0;
    long cachedBlocks_ = 0;
    long liveRefs_ = 0;
    long prefixHits_ = 0;
    long prefixMatchedTokens_ = 0;
    long cachedReclaims_ = 0;
    long carryDedupBlocks_ = 0;
};

/**
 * How many leading members of @p cohort (requests carrying committed KV
 * into one replica, in keep order) that replica can take: at most
 * @p max_count whose summed charges under @p mode fit @p budget_blocks.
 * A scratch store attaches copies in order, so each shared prefix block
 * the cohort carries is charged once, exactly as the replica's own store
 * will hold it: a member is charged its new live blocks plus its charged
 * but not yet held levels, the sum InferencePipeline::kvBlocksCharged
 * checks when the batch starts.
 */
std::size_t carriedCohortFit(const std::vector<ActiveRequest> &cohort,
                             int max_count, long budget_blocks,
                             KvAdmissionMode mode);

} // namespace engine
} // namespace spotserve

#endif // SPOTSERVE_ENGINE_KV_BLOCK_STORE_H
