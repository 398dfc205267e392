#include "core/migration_planner.h"

#include <algorithm>
#include <cmath>
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

} // namespace

/**
 * Everything the expensive snapshot pass produces: per-layer transfer
 * lists and buffer deltas, the cache step's transfers (empty unless the
 * options migrate cache), byte accounting, per-(d,p) dependency sets and
 * the Algorithm-2 layer order.
 */
struct MigrationPlanner::Analysis
{
    int layers = 0;
    std::vector<std::vector<cost::Transfer>> layerTransfers;
    /** Cold (disk/S3) bytes per layer, split by loading instance. */
    std::vector<std::map<int, double>> layerCold;
    std::vector<cost::Transfer> cacheTransfers;

    double reusedBytes = 0.0;
    double movedModelBytes = 0.0;
    double movedCacheBytes = 0.0;
    double coldLoadBytes = 0.0;
    double peakBufferBytes = 0.0;

    /** Which layers each (d, p) still needs; drives per-replica resume. */
    std::vector<std::vector<std::vector<int>>> missingByDp;
    /** Whether replica d takes part in the cache step. */
    std::vector<bool> cacheInvolves;

    /** Algorithm 2's layer order (cache-independent: the buffer model
     *  only tracks model-context bytes). */
    std::vector<int> order;
};

MigrationPlanner::MigrationPlanner(const model::ModelSpec &spec,
                                   const cost::CostParams &params)
    : spec_(spec), params_(params), costModel_(params), linkScheduler_(params)
{
}

MigrationPlanner::Analysis
MigrationPlanner::analyze(const engine::ContextSnapshot &snapshot,
                          const MappingResult &mapping,
                          const par::ParallelConfig &target,
                          const std::vector<double> &old_pipeline_tokens,
                          const PlannerOptions &options) const
{
    Analysis out;
    const par::Topology &topo = mapping.mesh.topology();
    const int layers = spec_.numLayers();
    const int gpi = params_.gpusPerInstance;
    out.layers = layers;

    // ------------------------------------------------------------------
    // 1. Compute per-layer model-context transfers and the cache step.
    // ------------------------------------------------------------------
    std::vector<TransferAccumulator> layer_acc(layers);
    out.layerCold.assign(layers, {});
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

    out.missingByDp.assign(target.dp,
                           std::vector<std::vector<int>>(target.pp));
    out.cacheInvolves.assign(target.dp, false);

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
                    out.layerCold[l][dst_inst] += bytes;
                    out.coldLoadBytes += bytes;
                }
                layer_in[l][dst_inst] += bytes;
                out.missingByDp[pos.d][pos.p].push_back(l);
            }
            if (cache_missing_frac > 0.0) {
                const double bytes = cache_missing_frac * cache_layer_bytes;
                out.movedCacheBytes += bytes;
                out.cacheInvolves[pos.d] = true;
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
    // 3. Order the layers (Algorithm 2).
    // ------------------------------------------------------------------
    std::map<int, double> net; // cumulative footprint delta per instance
    double peak = 0.0;

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

    out.order.reserve(layers);
    if (options.memoryOpt) {
        // First pass: front-to-back layers whose migration stays under
        // U_max; overflowing layers are deferred (Alg. 2 lines 12-17).
        std::vector<int> deferred;
        for (int l = 0; l < layers; ++l) {
            if (max_after(l) <= params_.migrationBufferBytes) {
                out.order.push_back(l);
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
            out.order.push_back(best_l);
            apply_layer(best_l);
            deferred.erase(
                std::find(deferred.begin(), deferred.end(), best_l));
        }
    } else {
        for (int l = 0; l < layers; ++l) {
            out.order.push_back(l);
            apply_layer(l);
        }
    }
    out.peakBufferBytes = peak;

    out.layerTransfers.resize(layers);
    for (int l = 0; l < layers; ++l)
        out.layerTransfers[l] = layer_acc[l].release();
    out.cacheTransfers = cache_acc.release();
    return out;
}

MigrationPlan
MigrationPlanner::assemble(const Analysis &analysis,
                           const par::ParallelConfig &target) const
{
    MigrationPlan plan;
    const int layers = analysis.layers;
    plan.reusedBytes = analysis.reusedBytes;
    plan.movedModelBytes = analysis.movedModelBytes;
    plan.coldLoadBytes = analysis.coldLoadBytes;
    plan.peakBufferBytes = analysis.peakBufferBytes;

    // ------------------------------------------------------------------
    // 4. Assemble the step list: cache first, then the ordered layers.
    // ------------------------------------------------------------------
    plan.cacheMigrated = analysis.movedCacheBytes > 0.0;
    plan.movedCacheBytes = analysis.movedCacheBytes;
    if (plan.cacheMigrated) {
        MigrationStep step;
        step.layer = -1;
        step.transfers = analysis.cacheTransfers;
        plan.steps.push_back(std::move(step));
    }
    std::vector<int> step_of_layer(layers, -1);
    for (int l : analysis.order) {
        MigrationStep step;
        step.layer = l;
        step.transfers = analysis.layerTransfers[l];
        for (const auto &[inst, bytes] : analysis.layerCold[l])
            step.coldLoads.emplace_back(inst, bytes);
        step_of_layer[l] = static_cast<int>(plan.steps.size());
        plan.steps.push_back(std::move(step));
    }

    // Dependency sets: which steps each (replica, stage) waits for.  The
    // timing below — and any later re-timing against live link state —
    // derives stageReady and the per-replica resumes from exactly these.
    plan.dpStepDeps.assign(target.dp,
                           std::vector<std::vector<int>>(target.pp));
    for (int d = 0; d < target.dp; ++d) {
        for (int p = 0; p < target.pp; ++p) {
            auto &deps = plan.dpStepDeps[d][p];
            if (plan.cacheMigrated && analysis.cacheInvolves[d])
                deps.push_back(0); // cache precedes everything
            for (int l : analysis.missingByDp[d][p]) {
                if (step_of_layer[l] >= 0)
                    deps.push_back(step_of_layer[l]);
            }
        }
    }

    return plan;
}

void
MigrationPlanner::timeOnIdleLinks(MigrationPlan &plan,
                                  const par::ParallelConfig &target,
                                  const PlannerOptions &options) const
{
    // ------------------------------------------------------------------
    // 5. Timing.  The serialized cursor — setup charged exactly once,
    //    then every step's closed-form port-bottleneck wire time back to
    //    back, with per-instance disk/S3 cold loads overlapped — is
    //    always computed as the reference bound tests and
    //    bench_ablation_migration compare against.  The plan's actual
    //    timeline comes from the link-level schedule: steps interleave
    //    across disjoint instance pairs, and transfers sharing a port
    //    serialize honestly.  The link schedule is adopted as is;
    //    tests and bench_ablation_migration check that it never
    //    exceeds the serialized cursor.
    // ------------------------------------------------------------------
    const double setup = params_.migrationSetupTime;
    {
        double wire_cursor = setup;
        std::map<int, double> disk_cursor; // per-instance disk completion
        plan.serializedDuration = setup;
        for (const MigrationStep &step : plan.steps) {
            wire_cursor += costModel_.wireTime(step.transfers);
            double step_end = wire_cursor;
            for (const auto &[inst, bytes] : step.coldLoads) {
                double &cursor = disk_cursor[inst];
                cursor = std::max(cursor, setup) +
                         bytes / params_.diskBandwidth;
                step_end = std::max(step_end, cursor);
            }
            plan.serializedDuration =
                std::max(plan.serializedDuration, step_end);
        }
    }

    cost::LinkScheduleOptions lopts;
    lopts.startTime = 0.0;
    lopts.setupTime = setup;
    const auto sched = linkScheduler_.build(transferSteps(plan), lopts);
    retime(plan, target, options, sched.stepStart, sched.stepFinish);
}

std::vector<cost::TransferStep>
MigrationPlanner::transferSteps(const MigrationPlan &plan)
{
    std::vector<cost::TransferStep> steps;
    steps.reserve(plan.steps.size());
    for (const MigrationStep &s : plan.steps) {
        cost::TransferStep t;
        t.layer = s.layer;
        t.transfers = s.transfers;
        t.coldLoads = s.coldLoads;
        steps.push_back(std::move(t));
    }
    return steps;
}

void
MigrationPlanner::retime(MigrationPlan &plan,
                         const par::ParallelConfig &target,
                         const PlannerOptions &options,
                         const std::vector<double> &step_start,
                         const std::vector<double> &step_finish) const
{
    const double setup = params_.migrationSetupTime;
    const par::Topology topo(target, spec_.numLayers());
    plan.stageReady.assign(target.pp, setup);

    double last_end = setup;
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
        MigrationStep &step = plan.steps[i];
        step.startOffset = i < step_start.size() ? step_start[i] : setup;
        const double step_end =
            i < step_finish.size() ? step_finish[i] : setup;
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

MigrationPlan
MigrationPlanner::plan(const engine::ContextSnapshot &snapshot,
                       const MappingResult &mapping,
                       const par::ParallelConfig &target,
                       const std::vector<double> &old_pipeline_tokens,
                       PlannerOptions options) const
{
    const Analysis analysis =
        analyze(snapshot, mapping, target, old_pipeline_tokens, options);
    MigrationPlan out = assemble(analysis, target);
    timeOnIdleLinks(out, target, options);
    return out;
}

} // namespace core
} // namespace spotserve
