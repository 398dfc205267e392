/**
 * @file
 * Test oracles for a pipeline's KV block totals, computed from its live
 * batch and its block store.
 */

#ifndef SPOTSERVE_TESTS_KV_BLOCK_COUNTS_H
#define SPOTSERVE_TESTS_KV_BLOCK_COUNTS_H

#include "engine/inference_pipeline.h"

namespace spotserve {

/** KV blocks the live batch holds (per-request ceil rounding; a shared
 *  level counts once per sharer). */
inline long
kvBlocksHeld(const engine::InferencePipeline &p)
{
    long held = 0;
    for (const auto &r : p.batch())
        held += r.kvBlocksHeld();
    return held;
}

/**
 * Worst-case KV blocks the live batch reserves, in physical form: the
 * store's live blocks (a shared level counted once) plus each member's
 * peak levels not yet held.
 */
inline long
kvBlocksReserved(const engine::InferencePipeline &p)
{
    long reserved = p.kvStore().liveBlocks();
    for (const auto &r : p.batch())
        reserved += r.kvPeakBlocks() - r.kvBlocksHeld();
    return reserved;
}

} // namespace spotserve

#endif // SPOTSERVE_TESTS_KV_BLOCK_COUNTS_H
