/**
 * @file
 * Inspect a configuration switch end to end: the Kuhn-Munkres device
 * mapping, the Algorithm-2 migration schedule, and the just-in-time
 * arrangement — the Figure 4 scenario ((1,2,8) -> (1,3,4)) made
 * concrete.
 *
 * Demonstrates: direct use of DeviceMapper, MigrationPlanner and
 * InterruptionArranger outside the serving loop.
 */

#include <cstdio>
#include <memory>

#include "core/device_mapper.h"
#include "core/interruption_arranger.h"
#include "core/migration_planner.h"

using namespace spotserve;

int
main()
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::CostParams params = cost::CostParams::awsG4dn();

    // Figure 4a: change (D=1, P=2, M=8) into (D=1, P=3, M=4) while an
    // inference request is mid-decoding.
    const par::ParallelConfig old_cfg{1, 2, 8, 8};
    const par::ParallelConfig new_cfg{1, 3, 4, 8};

    // Four 4-GPU instances hold the old deployment; a request batch has
    // committed 64 output tokens on top of 512-token prompts.
    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;
    for (int i = 0; i < 4; ++i) {
        storage.push_back(std::make_unique<cluster::Instance>(
            i, cluster::InstanceType::Spot, 4, 0.0));
        storage.back()->markRunning(0.0);
        instances.push_back(storage.back().get());
    }
    engine::ContextSnapshot snapshot;
    par::Topology old_topo(old_cfg, spec.numLayers());
    const double cache_tokens = 8 * (512 + 64);
    for (int i = 0; i < old_topo.size(); ++i) {
        engine::GpuContext ctx;
        ctx.gpu = i;
        ctx.instance = i / 4;
        ctx.hasModelContext = true;
        ctx.config = old_cfg;
        ctx.position = old_topo.position(i);
        ctx.cacheTokens = cache_tokens;
        snapshot.gpus.push_back(ctx);
    }

    std::printf("switching %s -> %s for %s\n\n", old_cfg.str().c_str(),
                new_cfg.str().c_str(), spec.name().c_str());

    core::DeviceMapper mapper(spec, params);
    const auto mapping =
        mapper.map(snapshot, new_cfg, instances, {cache_tokens});
    std::printf("device mapping (Kuhn-Munkres):\n");
    for (int i = 0; i < mapping.mesh.topology().size(); ++i) {
        const auto pos = mapping.mesh.topology().position(i);
        std::printf("  position %-14s <- GPU %2d (instance %d)\n",
                    pos.str().c_str(), mapping.mesh.gpuAt(pos),
                    mapping.mesh.gpuAt(pos) / 4);
    }
    std::printf("  reuse: %.1f GB of model context, %.2f GB of KV cache "
                "(of %.1f GB needed)\n\n",
                mapping.reusedModelBytes / 1e9,
                mapping.reusedCacheBytes / 1e9,
                mapping.neededModelBytes / 1e9);

    core::MigrationPlanner planner(spec, params);
    const auto plan =
        planner.plan(snapshot, mapping, new_cfg, {cache_tokens});
    std::printf("migration plan (Algorithm 2):\n");
    std::printf("  %zu steps, cache first: %s\n", plan.steps.size(),
                plan.cacheMigrated ? "yes" : "no");
    std::printf("  moves %.2f GB of weights + %.3f GB of KV; "
                "%.2f GB reused in place\n",
                plan.movedModelBytes / 1e9, plan.movedCacheBytes / 1e9,
                plan.reusedBytes / 1e9);
    std::printf("  total %.2fs on the wire, serving resumes after %.2fs "
                "(progressive), peak buffer %.2f GB (U_max %.1f GB)\n",
                plan.totalDuration, plan.resumeOffset,
                plan.peakBufferBytes / 1e9,
                params.migrationBufferBytes / 1e9);
    std::printf("  first five steps of the event schedule "
                "(start -> finish offsets):\n");
    for (std::size_t i = 0; i < plan.steps.size() && i < 5; ++i) {
        const auto &s = plan.steps[i];
        std::printf("    %-8s %7.3fs -> %7.3fs  (%.0fms)\n",
                    s.isCache() ? "cache"
                                : ("layer " +
                                   std::to_string(s.layer)).c_str(),
                    s.startOffset, s.finishOffset, s.duration * 1e3);
    }
    std::printf("  per-replica progressive resume:");
    for (std::size_t d = 0; d < plan.pipelineResume.size(); ++d)
        std::printf("  d%zu %.2fs", d, plan.pipelineResume[d]);
    std::printf("\n\n");

    cost::LatencyModel latency(spec, params);
    core::InterruptionArranger arranger(latency);
    const double committed_work = arranger.recomputeTime(old_cfg, 512, 64);
    const int iterations = arranger.arrangeForPreemption(
        old_cfg, 512 + 64 + 1, 128 - 64, params.gracePeriod,
        plan.totalDuration);
    std::printf("JIT arrangement for a %.0fs grace period:\n",
                params.gracePeriod);
    std::printf("  run %d more decode iterations, then migrate "
                "(T_mig %.2fs); cache migration %s (recompute would "
                "cost %.1fs)\n",
                iterations, plan.totalDuration,
                arranger.migrateCache(plan.totalDuration, committed_work)
                    ? "worth it"
                    : "not worth it",
                committed_work);
    return 0;
}
