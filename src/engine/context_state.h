/**
 * @file
 * Context-daemon state snapshots and reuse arithmetic.
 *
 * Every GPU runs a context daemon owning its model context (the weight
 * shard of its pipeline-stage-shard position) and cache context (the KV
 * cache of its pipeline's in-flight requests) (§3.1).  The device mapper
 * consumes a snapshot of all daemons to compute how many bytes mapping
 * GPU u to target position v would reuse (§3.3).
 *
 * A planning pass (one DeviceMapper::map or MigrationPlanner::plan call)
 * reads the snapshot through one ContextIndex built at its start: each
 * entry's held layer range and shard interval are resolved once (one
 * Topology per entry), GPUs are looked up by id in O(1), and each layer
 * lists the entries holding it in snapshot order.  Nothing inside the
 * mapper's weight matrices or the planner's per-layer source search
 * rebuilds topology or rescans the snapshot.
 */

#ifndef SPOTSERVE_ENGINE_CONTEXT_STATE_H
#define SPOTSERVE_ENGINE_CONTEXT_STATE_H

#include <algorithm>
#include <span>
#include <vector>

#include "cluster/instance.h"
#include "model/model_spec.h"
#include "parallel/parallel_config.h"

namespace spotserve {
namespace engine {

/** What one GPU's context daemon currently holds. */
struct GpuContext
{
    par::GpuId gpu = par::kInvalidGpu;
    cluster::InstanceId instance = cluster::kInvalidInstance;

    /** Valid model context held from a previous deployment? */
    bool hasModelContext = false;

    /** Configuration and position the held context belongs to. */
    par::ParallelConfig config;
    par::Position position;

    /**
     * Cache context: total cached tokens (input + committed output summed
     * over the pipeline's batch).  The daemon holds this pipeline's KV
     * slice for its own stage/shard only.
     */
    double cacheTokens = 0.0;
};

/** Snapshot of every usable GPU's daemon at reconfiguration time. */
struct ContextSnapshot
{
    std::vector<GpuContext> gpus;
};

/**
 * One snapshot entry with its geometry resolved: the layers and the
 * tensor-shard interval its model context covers.  An entry without model
 * context covers no layer.
 */
struct HeldContext
{
    HeldContext(const GpuContext &ctx, int num_layers);

    const GpuContext *ctx;
    /** Held layers [firstLayer, lastLayer); empty without model context. */
    int firstLayer = 0;
    int lastLayer = 0;
    /** Held shard interval [shardLo, shardHi) of each held layer. */
    double shardLo = 0.0;
    double shardHi = 0.0;

    bool holds(int layer) const
    {
        return layer >= firstLayer && layer < lastLayer;
    }

    /** Part of the shard interval [lo, hi) this entry's shard covers. */
    double shardCover(double lo, double hi) const
    {
        return std::max(0.0, std::min(hi, shardHi) - std::max(lo, shardLo));
    }
};

/**
 * Lookup structure over one ContextSnapshot for one planning pass.  The
 * snapshot must outlive the index and stay unchanged while it is used.
 */
class ContextIndex
{
  public:
    ContextIndex(const ContextSnapshot &snapshot, int num_layers);
    // holders() points into entries_: a copy would point into the source.
    ContextIndex(const ContextIndex &) = delete;
    ContextIndex &operator=(const ContextIndex &) = delete;

    /** Entries in snapshot order (entries()[i] resolves snapshot.gpus[i]). */
    const std::vector<HeldContext> &entries() const { return entries_; }

    /** The first entry for @p gpu, or nullptr when absent. */
    const HeldContext *find(par::GpuId gpu) const;

    /** Entries holding @p layer's model context, in snapshot order. */
    std::span<const HeldContext *const> holders(int layer) const;

    /**
     * The segment @p layer belongs to: layers with equal segments have the
     * same holders() list.  Segments are numbered in layer order.
     */
    int segmentOfLayer(int layer) const { return segmentOfLayer_[layer]; }

  private:
    std::vector<HeldContext> entries_;
    /** GpuId -> entry index, -1 when absent. */
    std::vector<int> entryOfGpu_;
    /**
     * holders(l) is holderList_[segmentStart_[s], segmentStart_[s + 1])
     * for s = segmentOfLayer_[l]: consecutive layers no entry's range
     * starts or ends between share one segment and one list.
     */
    std::vector<int> segmentOfLayer_;
    std::vector<int> segmentStart_;
    std::vector<const HeldContext *> holderList_;
};

/**
 * Model-context bytes reused if the daemon state @p held serves target
 * position @p target_pos under @p target topology: the intersection of
 * layer ranges times the shard-interval overlap per layer.
 */
double modelOverlapBytes(const model::ModelSpec &spec,
                         const HeldContext &held, const par::Topology &target,
                         const par::Position &target_pos);

/**
 * Cache-context bytes reused under the same mapping, provided the target
 * pipeline inherits the held pipeline's requests (the caller checks the
 * inheritance pairing before adding this term).
 */
double cacheOverlapBytes(const model::ModelSpec &spec,
                         const HeldContext &held, const par::Topology &target,
                         const par::Position &target_pos);

/** Model-context bytes position @p pos of @p target must hold in total. */
double neededModelBytes(const model::ModelSpec &spec,
                        const par::Topology &target, const par::Position &pos);

} // namespace engine
} // namespace spotserve

#endif // SPOTSERVE_ENGINE_CONTEXT_STATE_H
