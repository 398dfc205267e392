/**
 * @file
 * Planning-path wall-clock harness: times the chooseConfig sweep (cold vs
 * memoised), the device mapper (full Hungarian solve vs identity fast
 * path), the migration planner and the link-schedule build at 32/64/128
 * instances.  The paper claims the online optimizer overhead is
 * negligible (<1 s); these rows show how far inside that budget the
 * implementation stays at fleet scale.
 *
 * `--json PATH` also writes a machine-readable summary.  Exits non-zero
 * unless the memoised sweep is >= 2x faster than the cold sweep at 128
 * instances and the interleaved migration schedule is never slower than
 * the serialized cursor.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "costmodel/link_schedule.h"

using namespace spotserve;

namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

/** Keeps timed results observable so the optimizer cannot drop them. */
volatile double g_sink = 0.0;

void
sink(double v)
{
    g_sink = g_sink + v;
}

/** A fleet of @p n instances whose GPUs all hold @p old_cfg's shards. */
struct MapperSetup
{
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    core::DeviceMapper mapper{spec, kParams};
    core::MigrationPlanner planner{spec, kParams};
    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;
    engine::ContextSnapshot snapshot;

    MapperSetup(int n, const par::ParallelConfig &old_cfg)
    {
        for (int i = 0; i < n; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, 4, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
        par::Topology topo(old_cfg, spec.numLayers());
        for (int i = 0; i < topo.size() && i < n * 4; ++i) {
            engine::GpuContext ctx;
            ctx.gpu = i;
            ctx.instance = i / 4;
            ctx.hasModelContext = true;
            ctx.config = old_cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = 5000.0;
            snapshot.gpus.push_back(ctx);
        }
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Fleet-filling configs: old (P=2, M=8), target (P=3, M=4). */
par::ParallelConfig
fillingConfig(int instances, int pp, int tp)
{
    const int gpus = instances * 4;
    return par::ParallelConfig{std::max(1, gpus / (pp * tp)), pp, tp, 8};
}

struct PlanningRow
{
    int instances = 0;
    std::size_t candidates = 0;
    double chooseColdSec = 0.0;
    double chooseWarmSec = 0.0;
    double mapperFullSec = 0.0;
    double mapperIdentitySec = 0.0;
    double plannerSec = 0.0;
    /** Migration makespans (simulated seconds) for the same plan. @{ */
    double serializedMakespan = 0.0;
    double interleavedMakespan = 0.0;
    /** @} */
    /** Wall-clock cost of building the link schedule itself. */
    double linkScheduleSec = 0.0;
};

PlanningRow
timePlanningPath(int instances)
{
    PlanningRow row;
    row.instances = instances;
    const auto spec = model::ModelSpec::gpt20b();
    const double rate = 0.35;

    // chooseConfig: cold = fresh controller's first sweep (averaged over
    // a few controllers); warm = repeated sweeps on the same controller,
    // same fleet and alpha bucket — the memoised path.
    {
        const int cold_reps = 3;
        double cold = 0.0;
        for (int k = 0; k < cold_reps; ++k) {
            core::ParallelizationController ctrl(spec, kParams, kSeq);
            const auto t0 = std::chrono::steady_clock::now();
            auto d = ctrl.chooseConfig(instances, rate);
            cold += secondsSince(t0);
            sink(d ? d->throughput : 0.0);
            row.candidates = ctrl.lastSweepStats().candidates;
        }
        row.chooseColdSec = cold / cold_reps;

        core::ParallelizationController ctrl(spec, kParams, kSeq);
        auto warmup = ctrl.chooseConfig(instances, rate);
        sink(warmup ? warmup->throughput : 0.0);
        const int warm_reps = 50;
        const auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < warm_reps; ++k) {
            auto d = ctrl.chooseConfig(instances, rate);
            sink(d ? d->throughput : 0.0);
        }
        row.chooseWarmSec = secondsSince(t0) / warm_reps;
    }

    // Device mapper: an old (P=2, M=8) deployment filling the fleet is
    // remapped to (P=3, M=4) (full two-step Hungarian solve), and to
    // itself (identity fast path).
    const par::ParallelConfig old_cfg = fillingConfig(instances, 2, 8);
    MapperSetup setup(instances, old_cfg);
    const std::vector<double> tokens(old_cfg.dp, 5000.0);
    const par::ParallelConfig target = fillingConfig(instances, 3, 4);
    {
        const auto t0 = std::chrono::steady_clock::now();
        auto m = setup.mapper.map(setup.snapshot, target, setup.instances,
                                  tokens);
        row.mapperFullSec = secondsSince(t0);
        sink(m.reusedModelBytes);
    }
    {
        const auto t0 = std::chrono::steady_clock::now();
        auto m = setup.mapper.map(setup.snapshot, old_cfg, setup.instances,
                                  tokens);
        row.mapperIdentitySec = secondsSince(t0);
        sink(m.reusedModelBytes);
    }

    // Migration planner over the full-solve mapping, and the link
    // scheduler on the resulting plan: serialized-cursor makespan vs the
    // interleaved link-level schedule, plus the
    // wall-clock cost of building the schedule itself.
    {
        const auto mapping =
            setup.mapper.map(setup.snapshot, target, setup.instances, tokens);
        const auto t0 = std::chrono::steady_clock::now();
        auto plan =
            setup.planner.plan(setup.snapshot, mapping, target, tokens);
        row.plannerSec = secondsSince(t0);
        row.serializedMakespan = plan.serializedDuration;
        row.interleavedMakespan = plan.totalDuration;

        const auto steps = core::MigrationPlanner::transferSteps(plan);
        cost::LinkSchedule scheduler(kParams);
        cost::LinkScheduleOptions lopts;
        lopts.setupTime = kParams.migrationSetupTime;
        const auto t1 = std::chrono::steady_clock::now();
        auto schedule = scheduler.build(steps, lopts);
        row.linkScheduleSec = secondsSince(t1);
        sink(schedule.makespan);
    }
    return row;
}

void
writeJson(const std::string &path, const std::vector<PlanningRow> &rows)
{
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        const double speedup =
            r.chooseWarmSec > 0.0 ? r.chooseColdSec / r.chooseWarmSec : 0.0;
        os << "  {\"instances\": " << r.instances
           << ", \"candidates\": " << r.candidates
           << ", \"choose_config_cold_s\": " << r.chooseColdSec
           << ", \"choose_config_memoised_s\": " << r.chooseWarmSec
           << ", \"choose_config_speedup\": " << speedup
           << ", \"mapper_full_s\": " << r.mapperFullSec
           << ", \"mapper_identity_s\": " << r.mapperIdentitySec
           << ", \"planner_s\": " << r.plannerSec
           << ", \"migration_serialized_makespan_s\": "
           << r.serializedMakespan
           << ", \"migration_interleaved_makespan_s\": "
           << r.interleavedMakespan
           << ", \"link_schedule_build_s\": " << r.linkScheduleSec << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    std::printf("wrote %zu planning rows to %s\n", rows.size(),
                path.c_str());
}

int
runPlanningHarness(const std::string &json_path)
{
    std::printf("=== planning-path wall clock (chooseConfig / mapper / "
                "planner) ===\n");
    std::vector<PlanningRow> rows;
    for (int n : {32, 64, 128})
        rows.push_back(timePlanningPath(n));

    for (const auto &r : rows) {
        std::printf("  n=%3d  candidates=%5zu  chooseConfig cold %8.3f ms  "
                    "memoised %8.3f ms (%.1fx)  mapper full %8.3f ms  "
                    "identity %8.3f ms  planner %8.3f ms\n",
                    r.instances, r.candidates, r.chooseColdSec * 1e3,
                    r.chooseWarmSec * 1e3,
                    r.chooseWarmSec > 0.0 ? r.chooseColdSec / r.chooseWarmSec
                                          : 0.0,
                    r.mapperFullSec * 1e3, r.mapperIdentitySec * 1e3,
                    r.plannerSec * 1e3);
        std::printf("         migration makespan serialized %8.3f s  "
                    "interleaved %8.3f s (%.2fx)  schedule build %8.3f ms\n",
                    r.serializedMakespan, r.interleavedMakespan,
                    r.interleavedMakespan > 0.0
                        ? r.serializedMakespan / r.interleavedMakespan
                        : 0.0,
                    r.linkScheduleSec * 1e3);
    }

    if (!json_path.empty())
        writeJson(json_path, rows);

    // The acceptance bar CI watches: memoisation must pay off at scale.
    const auto &big = rows.back();
    if (big.chooseWarmSec * 2.0 > big.chooseColdSec) {
        std::fprintf(stderr,
                     "FAIL: memoised sweep at %d instances is only %.2fx "
                     "faster than cold (need >= 2x)\n",
                     big.instances,
                     big.chooseWarmSec > 0.0
                         ? big.chooseColdSec / big.chooseWarmSec
                         : 0.0);
        return 1;
    }
    // Second bar: the interleaved link-level schedule must never be
    // slower than the serialized cursor it replaces (the planner falls
    // back to the serialized timing otherwise, so a violation means the
    // fallback broke).
    for (const auto &r : rows) {
        if (r.interleavedMakespan > r.serializedMakespan + 1e-9) {
            std::fprintf(stderr,
                         "FAIL: interleaved migration makespan %.6f s "
                         "exceeds serialized cursor %.6f s at %d "
                         "instances\n",
                         r.interleavedMakespan, r.serializedMakespan,
                         r.instances);
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[i + 1];
    }
    return runPlanningHarness(json_path);
}
