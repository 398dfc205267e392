#include "engine/kv_block_store.h"

#include <algorithm>
#include <stdexcept>

namespace spotserve {
namespace engine {

KvBlockStore::KvBlockStore(long capacity_blocks)
    : capacityBlocks_(capacity_blocks)
{
    if (capacity_blocks < 0)
        throw std::invalid_argument("KvBlockStore: negative capacity");
}

KvBlockStore::KvBlockStore(long capacity_blocks, int block_tokens)
    : KvBlockStore(capacity_blocks)
{
    if (block_tokens != kKvBlockTokens)
        throw std::invalid_argument(
            "KvBlockStore: block_tokens must equal kKvBlockTokens");
}

int
KvBlockStore::shareLimitTokens(const ActiveRequest &r) const
{
    if (r.request.prefixId < 0 || r.request.prefixLen <= 0)
        return 0;
    return std::min(r.request.prefixLen, r.request.inputLen);
}

KvBlockStore::Match
KvBlockStore::matchPrefix(const ActiveRequest &r) const
{
    Match m;
    const int cls = r.request.prefixId;
    const int limit = shareLimitTokens(r);
    if (cls < 0 || limit <= 0)
        return m;
    const int full_max = limit / kKvBlockTokens;
    // One class lookup, then the radix descent down its level vector.
    auto cls_it = fullIndex_.find(cls);
    if (cls_it != fullIndex_.end()) {
        const std::vector<int> &levels = cls_it->second;
        const int walk =
            std::min(full_max, static_cast<int>(levels.size()));
        for (int k = 0; k < walk && levels[k] >= 0; ++k) {
            ++m.fullLevels;
            if (blocks_[levels[k]].refs > 0)
                ++m.liveLevels;
        }
    }
    return m;
}

int
KvBlockStore::indexedLevel(int cls, int level) const
{
    auto it = fullIndex_.find(cls);
    if (it == fullIndex_.end() ||
        level >= static_cast<int>(it->second.size()))
        return -1;
    return it->second[level];
}

void
KvBlockStore::publishLevel(int cls, int level, int id)
{
    std::vector<int> &levels = fullIndex_[cls];
    if (level >= static_cast<int>(levels.size()))
        levels.resize(level + 1, -1);
    levels[level] = id;
    if (id >= 0) {
        blocks_[id].indexCls = cls;
        blocks_[id].indexLevel = level;
        return;
    }
    // Clients pick class ids (the ingress takes any prefix=<id>), so the
    // index holds only what is resident: a class whose last level goes
    // leaves no entry behind.
    while (!levels.empty() && levels.back() < 0)
        levels.pop_back();
    if (levels.empty())
        fullIndex_.erase(cls);
}

long
KvBlockStore::quoteSharedBlocks(const ActiveRequest &r) const
{
    return matchPrefix(r).liveLevels;
}

int
KvBlockStore::allocate()
{
    if (freeList_.empty() && capacityBlocks_ != kUnboundedKvBlocks &&
        physicalBlocks() >= capacityBlocks_) {
        reclaimOneCached(); // frees exactly one block or throws
    }
    int id;
    if (!freeList_.empty()) {
        id = freeList_.back();
        freeList_.pop_back();
    } else {
        blocks_.emplace_back();
        id = static_cast<int>(blocks_.size()) - 1;
    }
    Block &b = blocks_[id];
    b = Block{};
    b.refs = 1;
    b.lastHit = ++clock_;
    ++liveBlocks_;
    ++liveRefs_;
    return id;
}

void
KvBlockStore::reclaimOneCached()
{
    int victim = -1;
    for (int id = 0; id < static_cast<int>(blocks_.size()); ++id) {
        const Block &b = blocks_[id];
        if (b.freed || b.refs > 0)
            continue;
        if (victim < 0 || b.lastHit < blocks_[victim].lastHit)
            victim = id;
    }
    if (victim < 0) {
        // Every resident block is live: admission and the engine's
        // pre-step eviction promised this could not happen.  Surface the accounting
        // bug instead of silently over-allocating.
        throw std::logic_error(
            "KvBlockStore: allocation exceeds the physical block budget");
    }
    Block &b = blocks_[victim];
    if (b.indexLevel >= 0)
        publishLevel(b.indexCls, b.indexLevel, -1);
    b = Block{};
    b.freed = true;
    freeList_.push_back(victim);
    --cachedBlocks_;
    ++cachedReclaims_;
}

void
KvBlockStore::takeRef(int id)
{
    Block &b = blocks_[id];
    if (b.refs == 0) {
        --cachedBlocks_;
        ++liveBlocks_;
    }
    ++b.refs;
    ++liveRefs_;
    b.lastHit = ++clock_;
}

void
KvBlockStore::dropRef(int id)
{
    Block &b = blocks_[id];
    if (b.refs <= 0)
        throw std::logic_error("KvBlockStore: refcount underflow");
    --b.refs;
    --liveRefs_;
    b.lastHit = ++clock_;
    if (b.refs > 0)
        return;
    --liveBlocks_;
    if (b.indexLevel >= 0) {
        // Shared content stays resident as cached: evicted last, LRU,
        // only when an allocation actually needs the room.
        ++cachedBlocks_;
        return;
    }
    b = Block{};
    b.freed = true;
    freeList_.push_back(id);
}

int
KvBlockStore::attach(ActiveRequest &r)
{
    if (!r.kvBlockIds.empty())
        throw std::logic_error("KvBlockStore: request already attached");
    // Size the block list once for the request's worst case, so the
    // per-token commits never regrow it.
    r.kvBlockIds.reserve(static_cast<std::size_t>(r.kvPeakBlocks()));
    if (r.kvTokensHeld() > 0) {
        // Carried progress (migration / inherited batch): rebuild the
        // block sequence, deduplicating shared prefix levels so each
        // shared block materializes once per replica.
        carryDedupBlocks_ += commitProgress(r);
        return 0;
    }
    const Match m = matchPrefix(r);
    const int cls = r.request.prefixId;
    for (int k = 0; k < m.fullLevels; ++k) {
        const int id = indexedLevel(cls, k);
        takeRef(id);
        r.kvBlockIds.push_back(id);
    }
    const int tokens = m.fullLevels * kKvBlockTokens;
    r.prefillTokens = tokens;
    r.prefilled = r.prefillTokens >= r.request.inputLen;
    if (tokens > 0) {
        ++prefixHits_;
        prefixMatchedTokens_ += tokens;
    }
    return tokens;
}

long
KvBlockStore::commitProgress(ActiveRequest &r)
{
    const long held = r.kvTokensHeld();
    const long target = kvBlocksFor(held);
    const int limit = shareLimitTokens(r);
    const int cls = r.request.prefixId;
    long by_ref = 0;
    for (long k = static_cast<long>(r.kvBlockIds.size()); k < target; ++k) {
        const long end = (k + 1) * kKvBlockTokens;
        if (held >= end && end <= limit) {
            // A complete in-prefix level: if the index already holds it
            // (published by a classmate), dedup the physical pages even
            // though the compute already happened.
            const int level = static_cast<int>(k);
            const int shared = indexedLevel(cls, level);
            if (shared >= 0) {
                takeRef(shared);
                r.kvBlockIds.push_back(shared);
                ++by_ref;
                continue;
            }
            const int id = allocate();
            publishLevel(cls, level, id);
            r.kvBlockIds.push_back(id);
            continue;
        }
        r.kvBlockIds.push_back(allocate());
    }
    return by_ref;
}

void
KvBlockStore::release(ActiveRequest &r)
{
    for (int id : r.kvBlockIds)
        dropRef(id);
    r.kvBlockIds.clear();
}

long
KvBlockStore::projectedGrowthBlocks(const ActiveRequest &r,
                                    long add_tokens) const
{
    if (add_tokens <= 0)
        return 0;
    const long held = r.kvTokensHeld();
    return kvBlocksFor(held + add_tokens) - kvBlocksFor(held);
}

std::size_t
carriedCohortFit(const std::vector<ActiveRequest> &cohort, int max_count,
                 long budget_blocks, KvAdmissionMode mode)
{
    KvBlockStore scratch(kUnboundedKvBlocks);
    long charged = 0;
    std::size_t keep = 0;
    while (keep < cohort.size() && static_cast<int>(keep) < max_count) {
        ActiveRequest carried = cohort[keep];
        const long live = scratch.liveBlocks();
        scratch.attach(carried);
        const long charge = scratch.liveBlocks() - live +
                            carried.kvChargedBlocks(mode) -
                            carried.kvBlocksHeld();
        if (charged + charge > budget_blocks)
            break;
        charged += charge;
        ++keep;
    }
    return keep;
}

} // namespace engine
} // namespace spotserve
