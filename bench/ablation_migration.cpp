/**
 * @file
 * Design-choice ablation for the migration machinery (§3.3–3.4):
 * for a set of realistic configuration transitions of GPT-20B, compare
 *
 *   - Kuhn-Munkres vs naive (id-order) device mapping: bytes moved;
 *   - progressive vs blocking migration: serving-resume offset;
 *   - memory-optimised vs front-to-back layer ordering: peak per-instance
 *     communication buffer vs U_max.
 *
 * These are the mechanisms behind Figure 9; this bench isolates each at
 * the plan level where the effect is exact rather than filtered through
 * end-to-end queueing.
 */

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "costmodel/migration_cost.h"

using namespace spotserve;

namespace {

struct Setup
{
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    cost::CostParams params = cost::CostParams::awsG4dn();
    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;
    engine::ContextSnapshot snapshot;

    Setup(const par::ParallelConfig &from, int n_instances,
          double cache_tokens)
    {
        for (int i = 0; i < n_instances; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, 4, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
        par::Topology topo(from, spec.numLayers());
        for (int i = 0; i < topo.size(); ++i) {
            engine::GpuContext ctx;
            ctx.gpu = i;
            ctx.instance = i / 4;
            ctx.hasModelContext = true;
            ctx.config = from;
            ctx.position = topo.position(i);
            ctx.cacheTokens = cache_tokens;
            snapshot.gpus.push_back(ctx);
        }
    }
};

/** (link-level makespan, serialized-cursor makespan) for the gate. */
std::pair<double, double>
runTransition(const par::ParallelConfig &from, const par::ParallelConfig &to,
              int n_instances)
{
    const double cache_tokens = 8 * 600.0;
    Setup s(from, n_instances, cache_tokens);
    std::vector<double> tokens(from.dp, cache_tokens);

    core::DeviceMapper km(s.spec, s.params);
    core::DeviceMapperOptions naive_opt;
    naive_opt.useKuhnMunkres = false;
    core::DeviceMapper naive(s.spec, s.params, naive_opt);
    core::MigrationPlanner planner(s.spec, s.params);

    const auto m_km = km.map(s.snapshot, to, s.instances, tokens);
    const auto m_naive = naive.map(s.snapshot, to, s.instances, tokens);

    core::PlannerOptions full;
    const auto p_full = planner.plan(s.snapshot, m_km, to, tokens, full);
    core::PlannerOptions blocking = full;
    blocking.progressive = false;
    const auto p_block =
        planner.plan(s.snapshot, m_km, to, tokens, blocking);
    core::PlannerOptions unordered = full;
    unordered.memoryOpt = false;
    const auto p_plain =
        planner.plan(s.snapshot, m_km, to, tokens, unordered);
    const auto p_naive_map = planner.plan(s.snapshot, m_naive, to, tokens,
                                          full);

    std::printf("%s -> %s on %d instances\n", from.shortStr().c_str(),
                to.shortStr().c_str(), n_instances);
    std::printf("  mapping:   KM moves %6.2f GB (reuses %5.1f%%) | naive "
                "moves %6.2f GB (reuses %5.1f%%)\n",
                p_full.movedModelBytes / 1e9,
                100.0 * p_full.reusedBytes / m_km.neededModelBytes,
                p_naive_map.movedModelBytes / 1e9,
                100.0 * p_naive_map.reusedBytes / m_naive.neededModelBytes);
    std::printf("  schedule:  progressive resume %5.2fs vs blocking "
                "%5.2fs (total %5.2fs)\n",
                p_full.resumeOffset, p_block.resumeOffset,
                p_full.totalDuration);
    std::printf("  ordering:  peak buffer %5.2f GB (mem-opt) vs %5.2f GB "
                "(front-to-back); U_max %.1f GB\n",
                p_full.peakBufferBytes / 1e9, p_plain.peakBufferBytes / 1e9,
                s.params.migrationBufferBytes / 1e9);
    const double serialized =
        cost::MigrationCostModel(s.params).serializedDuration(
            core::MigrationPlanner::transferSteps(p_full));
    std::printf("  data plane: link-level makespan %5.2fs vs serialized "
                "cursor %5.2fs (%.2fx)\n\n",
                p_full.totalDuration, serialized,
                p_full.totalDuration > 0.0
                    ? serialized / p_full.totalDuration
                    : 0.0);
    return {p_full.totalDuration, serialized};
}

} // namespace

int
main()
{
    std::printf("=== Migration design-choice ablation (GPT-20B) ===\n\n");
    std::vector<std::pair<double, double>> makespans;
    makespans.push_back(
        runTransition({1, 2, 8, 8}, {1, 3, 4, 8}, 4));  // Figure 4a
    makespans.push_back(
        runTransition({2, 2, 8, 8}, {2, 3, 4, 8}, 8));  // preemption fallback
    makespans.push_back(
        runTransition({2, 3, 4, 8}, {2, 2, 8, 8}, 8));  // recovery upgrade
    makespans.push_back(
        runTransition({2, 2, 8, 8}, {3, 2, 8, 8}, 12)); // scale-out
    makespans.push_back(
        runTransition({3, 2, 8, 8}, {2, 2, 8, 8}, 12)); // scale-in

    // Acceptance bar: the link-level schedule is never slower than the
    // serialized cursor, and strictly faster on at least one
    // multi-replica transition (the overlap it exists to exploit).
    bool strictly_better = false;
    for (const auto &[link_level, serialized] : makespans) {
        if (link_level > serialized + 1e-9) {
            std::fprintf(stderr,
                         "FAIL: link-level makespan %.4fs exceeds "
                         "serialized cursor %.4fs\n",
                         link_level, serialized);
            return 1;
        }
        if (link_level < serialized - 1e-6)
            strictly_better = true;
    }
    if (!strictly_better) {
        std::fprintf(stderr, "FAIL: link-level schedule never beat the "
                             "serialized cursor on any transition\n");
        return 1;
    }
    return 0;
}
