#include "core/migration_planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

#include "costmodel/latency_model.h"

namespace spotserve {
namespace core {

namespace {

/** Aggregated transfers of one step keyed by (src, dst) instance pair. */
class TransferAccumulator
{
  public:
    void
    add(int src, int dst, double bytes)
    {
        if (bytes <= 0.0)
            return;
        bytes_[{src, dst}] += bytes;
    }

    std::vector<cost::Transfer>
    release()
    {
        std::vector<cost::Transfer> out;
        out.reserve(bytes_.size());
        for (const auto &[key, b] : bytes_)
            out.push_back(cost::Transfer{key.first, key.second, b});
        bytes_.clear();
        return out;
    }

  private:
    std::map<std::pair<int, int>, double> bytes_;
};

/**
 * Algorithm 2's layer order under the buffer model: migrating layer l
 * raises each receiving instance's footprint by @p layer_in[l] and lowers
 * it by the stale copies @p layer_freed[l] frees there.  With
 * @p memory_opt, layers whose migration stays under @p buffer_bytes go
 * front to back and the overflowing ones follow in min-max order;
 * otherwise front to back.  @p peak receives the running peak reached.
 */
std::vector<int>
orderLayers(const std::vector<std::map<int, double>> &layer_in,
            const std::vector<std::map<int, double>> &layer_freed,
            bool memory_opt, double buffer_bytes, double &peak)
{
    const int layers = static_cast<int>(layer_in.size());
    std::map<int, double> net; // cumulative footprint delta per instance
    peak = 0.0;

    auto apply_layer = [&](int l) {
        // Transient: the incoming tensors land before the stale copies
        // swap out (per-layer double buffering).
        for (const auto &[inst, bytes] : layer_in[l]) {
            net[inst] += bytes;
            peak = std::max(peak, net[inst]);
        }
        for (const auto &[inst, bytes] : layer_freed[l])
            net[inst] -= bytes;
    };

    auto max_after = [&](int l) {
        double mx = 0.0;
        for (const auto &[inst, delta] : net)
            mx = std::max(mx, delta);
        for (const auto &[inst, bytes] : layer_in[l]) {
            auto it = net.find(inst);
            const double base = it == net.end() ? 0.0 : it->second;
            mx = std::max(mx, base + bytes);
        }
        return mx;
    };

    std::vector<int> order;
    order.reserve(layers);
    if (memory_opt) {
        // First pass: front-to-back layers whose migration stays under
        // U_max; overflowing layers are deferred (Alg. 2 lines 12-17).
        std::vector<int> deferred;
        for (int l = 0; l < layers; ++l) {
            if (max_after(l) <= buffer_bytes) {
                order.push_back(l);
                apply_layer(l);
            } else {
                deferred.push_back(l);
            }
        }
        // Second pass: min-max selection (Alg. 2 lines 18-21).
        while (!deferred.empty()) {
            int best_l = deferred.front();
            double best_peak = std::numeric_limits<double>::infinity();
            for (int l : deferred) {
                const double pk = max_after(l);
                if (pk < best_peak) {
                    best_peak = pk;
                    best_l = l;
                }
            }
            order.push_back(best_l);
            apply_layer(best_l);
            deferred.erase(
                std::find(deferred.begin(), deferred.end(), best_l));
        }
    } else {
        for (int l = 0; l < layers; ++l) {
            order.push_back(l);
            apply_layer(l);
        }
    }
    return order;
}

} // namespace

MigrationPlanner::MigrationPlanner(const model::ModelSpec &spec,
                                   const cost::CostParams &params)
    : spec_(spec), params_(params), linkScheduler_(params)
{
}

MigrationPlan
MigrationPlanner::plan(const engine::ContextSnapshot &snapshot,
                       const MappingResult &mapping,
                       const par::ParallelConfig &target,
                       const std::vector<double> &old_pipeline_tokens,
                       PlannerOptions options) const
{
    MigrationPlan out;
    const par::Topology &topo = mapping.mesh.topology();
    const int layers = spec_.numLayers();
    const int gpi = params_.gpusPerInstance;

    // ------------------------------------------------------------------
    // 1. Compute per-layer model-context transfers and the cache step.
    // ------------------------------------------------------------------
    std::vector<TransferAccumulator> layer_acc(layers);
    // Cold (disk/S3) bytes per layer, split by loading instance.
    std::vector<std::map<int, double>> layer_cold(layers);
    TransferAccumulator cache_acc;

    // Algorithm 2's buffer model: migrating layer l raises each receiving
    // instance's footprint by the bytes received and lowers it by the
    // stale copies of layer l freed on that instance (old slices not
    // reused by the new positions).  The layer order controls the running
    // peak: front-to-back can force an instance to absorb its whole new
    // shard before anything stale frees, while the min-max order
    // interleaves receives with frees.
    std::vector<std::map<int, double>> layer_in(layers);
    std::vector<std::map<int, double>> layer_freed(layers);

    // Which layers each (d, p) still needs, and whether replica d takes
    // part in the cache step: these drive the per-replica resume.
    std::vector<std::vector<std::vector<int>>> missing_by_dp(
        target.dp, std::vector<std::vector<int>>(target.pp));
    std::vector<bool> cache_involves(target.dp, false);

    const engine::ContextIndex index(snapshot, layers);
    for (int i = 0; i < topo.size(); ++i) {
        const par::Position pos = topo.position(i);
        const par::GpuId gpu = mapping.mesh.gpuAt(pos);
        const int dst_inst = cluster::Instance::instanceOfGpu(gpu, gpi);
        const engine::HeldContext *own = index.find(gpu);
        const auto [lo, hi] = topo.shardInterval(pos.m);
        const auto [first, last] = topo.stageLayers(pos.p);
        const double needed_frac = hi - lo;
        // The part of each of its layer slices this GPU already holds.
        const double own_cover = own ? own->shardCover(lo, hi) : 0.0;

        const int inherit = mapping.inheritedOldPipeline[pos.d];
        const double tokens =
            (inherit >= 0 &&
             inherit < static_cast<int>(old_pipeline_tokens.size()))
                ? old_pipeline_tokens[inherit]
                : 0.0;
        const bool own_cache = own && own->ctx->hasModelContext &&
                               own->ctx->cacheTokens > 0.0 &&
                               own->ctx->position.d == inherit;

        // The sources found for the last holder segment scanned.
        int scanned_segment = -1;
        const engine::GpuContext *best = nullptr;
        const engine::GpuContext *best_cache = nullptr;
        for (int l = first; l < last; ++l) {
            const double own_frac = own && own->holds(l) ? own_cover : 0.0;
            double missing_frac = needed_frac - own_frac;
            out.reusedBytes += own_frac * spec_.layerWeightBytes();
            if (missing_frac <= 1e-12)
                missing_frac = 0.0;

            // Cache for this layer slice (only if this replica inherits
            // in-flight requests and we migrate cache at all).
            const double cache_layer_bytes =
                (options.migrateCache && tokens > 0.0)
                    ? tokens * spec_.kvBytesPerTokenPerLayer()
                    : 0.0;
            double cache_missing_frac = 0.0;
            if (cache_layer_bytes > 0.0) {
                const double own_cache_frac = own_cache ? own_frac : 0.0;
                cache_missing_frac =
                    std::max(0.0, needed_frac - own_cache_frac);
            }

            if (missing_frac <= 0.0 && cache_missing_frac <= 0.0)
                continue;

            // Pick a source: a daemon holding this layer with the largest
            // interval overlap, preferring the destination instance.  The
            // holders come in snapshot order, so the first maximum wins.
            // Nothing in the scan depends on the layer beyond its holder
            // list, so one scan serves every layer of a holder segment.
            if (index.segmentOfLayer(l) != scanned_segment) {
                scanned_segment = index.segmentOfLayer(l);
                best = nullptr;
                double best_score = 0.0;
                best_cache = nullptr;
                double best_cache_score = 0.0;
                for (const engine::HeldContext *h : index.holders(l)) {
                    const engine::GpuContext &g = *h->ctx;
                    if (g.gpu == gpu)
                        continue;
                    const double cover = h->shardCover(lo, hi);
                    if (cover <= 0.0)
                        continue;
                    const double local_bonus =
                        g.instance == dst_inst ? 1e-6 : 0.0;
                    if (cover + local_bonus > best_score) {
                        best_score = cover + local_bonus;
                        best = &g;
                    }
                    if (g.cacheTokens > 0.0 && g.position.d == inherit &&
                        cover + local_bonus > best_cache_score) {
                        best_cache_score = cover + local_bonus;
                        best_cache = &g;
                    }
                }
            }

            if (missing_frac > 0.0) {
                const double bytes = missing_frac * spec_.layerWeightBytes();
                out.movedModelBytes += bytes;
                if (best) {
                    layer_acc[l].add(best->instance, dst_inst, bytes);
                } else {
                    // No live replica: cold load from disk/S3 (§4.2).
                    layer_cold[l][dst_inst] += bytes;
                    out.coldLoadBytes += bytes;
                }
                layer_in[l][dst_inst] += bytes;
                missing_by_dp[pos.d][pos.p].push_back(l);
            }
            if (cache_missing_frac > 0.0) {
                const double bytes = cache_missing_frac * cache_layer_bytes;
                out.movedCacheBytes += bytes;
                cache_involves[pos.d] = true;
                // Cache with no live holder is lost: recomputed, never
                // reloaded.
                if (best_cache)
                    cache_acc.add(best_cache->instance, dst_inst, bytes);
            }
        }
    }

    // ------------------------------------------------------------------
    // 2. Per-layer memory deltas: stale copies freed on each instance.
    // ------------------------------------------------------------------
    for (const engine::HeldContext &h : index.entries()) {
        const engine::GpuContext &g = *h.ctx;
        if (!g.hasModelContext)
            continue;
        const double old_slice =
            spec_.layerWeightBytes() / g.config.tp;
        // The part of each old layer slice the GPU keeps in place: its
        // shard overlap, on the layers its new stage still owns.
        int kept_first = 0;
        int kept_last = 0;
        double kept_slice = 0.0;
        if (mapping.mesh.contains(g.gpu)) {
            const par::Position new_pos = mapping.mesh.positionOf(g.gpu);
            std::tie(kept_first, kept_last) = topo.stageLayers(new_pos.p);
            kept_slice = par::shardOverlapFraction(g.position.m, g.config.tp,
                                                   new_pos.m,
                                                   topo.config().tp) *
                         spec_.layerWeightBytes();
        }
        for (int l = h.firstLayer; l < h.lastLayer; ++l) {
            const double kept =
                l >= kept_first && l < kept_last ? kept_slice : 0.0;
            const double freed = std::max(0.0, old_slice - kept);
            if (freed > 0.0)
                layer_freed[l][g.instance] += freed;
        }
    }

    // ------------------------------------------------------------------
    // 3. Order the layers (Algorithm 2).  The order is cache-independent:
    //    the buffer model only tracks model-context bytes.
    // ------------------------------------------------------------------
    const std::vector<int> order =
        orderLayers(layer_in, layer_freed, options.memoryOpt,
                    params_.migrationBufferBytes, out.peakBufferBytes);

    // ------------------------------------------------------------------
    // 4. The step list: cache first, then the ordered layers.
    // ------------------------------------------------------------------
    out.cacheMigrated = out.movedCacheBytes > 0.0;
    if (out.cacheMigrated) {
        MigrationStep step;
        step.transfers = cache_acc.release();
        out.steps.push_back(std::move(step));
    }
    std::vector<int> step_of_layer(layers, -1);
    for (int l : order) {
        MigrationStep step;
        step.layer = l;
        step.transfers = layer_acc[l].release();
        for (const auto &[inst, bytes] : layer_cold[l])
            step.coldLoads.emplace_back(inst, bytes);
        step_of_layer[l] = static_cast<int>(out.steps.size());
        out.steps.push_back(std::move(step));
    }

    // Dependency sets: which steps each (replica, stage) waits for.  The
    // timing below — and any later re-timing against live link state —
    // derives stageReady and the per-replica resumes from exactly these.
    out.dpStepDeps.assign(target.dp,
                          std::vector<std::vector<int>>(target.pp));
    for (int d = 0; d < target.dp; ++d) {
        for (int p = 0; p < target.pp; ++p) {
            auto &deps = out.dpStepDeps[d][p];
            if (out.cacheMigrated && cache_involves[d])
                deps.push_back(0); // cache precedes everything
            for (int l : missing_by_dp[d][p]) {
                if (step_of_layer[l] >= 0)
                    deps.push_back(step_of_layer[l]);
            }
        }
    }

    // ------------------------------------------------------------------
    // 5. Timing on idle links: the link-level schedule from origin 0,
    //    setup charged once.  Steps interleave across disjoint instance
    //    pairs, and transfers sharing a port serialize honestly.
    // ------------------------------------------------------------------
    cost::LinkScheduleOptions lopts;
    lopts.setupTime = params_.migrationSetupTime;
    const auto sched = linkScheduler_.build(transferSteps(out), lopts);
    retime(out, target, options, sched.stepStart, sched.stepFinish);
    return out;
}

std::vector<cost::TransferStep>
MigrationPlanner::transferSteps(const MigrationPlan &plan)
{
    return {plan.steps.begin(), plan.steps.end()};
}

void
MigrationPlanner::retime(MigrationPlan &plan,
                         const par::ParallelConfig &target,
                         const PlannerOptions &options,
                         const std::vector<double> &step_start,
                         const std::vector<double> &step_finish) const
{
    if (step_start.size() != plan.steps.size() ||
        step_finish.size() != plan.steps.size())
        throw std::invalid_argument(
            "MigrationPlanner::retime: one start and one finish per step");
    const double setup = params_.migrationSetupTime;
    const par::Topology topo(target, spec_.numLayers());
    plan.stageReady.assign(target.pp, setup);

    double last_end = setup;
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
        MigrationStep &step = plan.steps[i];
        step.startOffset = step_start[i];
        const double step_end = step_finish[i];
        // Incremental critical-path contribution: how much this step
        // extends the latest finish seen so far (zero when it completed
        // under the shadow of an earlier step).
        step.duration = std::max(step_end - last_end, 0.0);
        step.finishOffset = step_end;
        last_end = std::max(last_end, step_end);
        if (!step.isCache()) {
            const int p = topo.stageOfLayer(step.layer);
            plan.stageReady[p] = std::max(plan.stageReady[p], step_end);
        } else {
            // Cache precedes everything; all stages depend on it.
            for (auto &r : plan.stageReady)
                r = std::max(r, step_end);
        }
    }
    plan.totalDuration = last_end;

    // ------------------------------------------------------------------
    // 6. Progressive resume, per replica: stage p of replica d must be
    //    ready by the time the first batch's wavefront reaches it, one
    //    stage-execution share later per stage (§3.4 "ideally ... the
    //    cost of a single stage's context transferring").  Replicas whose
    //    context was reused in place resume right after setup.
    // ------------------------------------------------------------------
    plan.resumeOffset = 0.0;
    plan.pipelineResume.assign(target.dp, setup);
    const cost::LatencyModel lat(spec_, params_);
    const double stage_share =
        lat.decodeIterTime(target, /*ctx_len=*/512) / target.pp;
    for (int d = 0; d < target.dp; ++d) {
        std::vector<double> ready(target.pp, setup);
        for (int p = 0; p < target.pp; ++p) {
            if (d < static_cast<int>(plan.dpStepDeps.size()) &&
                p < static_cast<int>(plan.dpStepDeps[d].size())) {
                for (int s : plan.dpStepDeps[d][p]) {
                    if (s >= 0 &&
                        s < static_cast<int>(plan.steps.size()))
                        ready[p] = std::max(
                            ready[p], plan.steps[s].finishOffset);
                }
            }
        }
        double resume;
        if (options.progressive) {
            resume = ready[0];
            for (int p = 1; p < target.pp; ++p)
                resume = std::max(resume, ready[p] - p * stage_share);
            resume = std::max(resume, ready[0]);
        } else {
            resume = plan.totalDuration;
        }
        plan.pipelineResume[d] = std::min(resume, plan.totalDuration);
        plan.resumeOffset =
            std::max(plan.resumeOffset, plan.pipelineResume[d]);
    }
}

} // namespace core
} // namespace spotserve
