/**
 * @file
 * Figure 9: ablation study of GPT-20B on traces A_S and B_S.
 *
 * Starting from full SpotServe, each optimization is disabled
 * cumulatively — parallelization controller, migration planner,
 * interruption arranger, device mapper — reporting P99 tail and average
 * latency relative to the full system, plus the planner's side effect on
 * GPT-20B's minimum GPU count (16 -> 12 with the memory-optimised
 * planner).
 *
 * Exits non-zero if any run fails the drained-run audit
 * (serving::auditDrainedRun: each request completed once, nothing
 * unfinished, no KV block reference live).  Only this bench runs the
 * controller-ablated fixed-parallelism path.
 */

#include <cstdio>
#include <vector>

#include "cluster/trace_library.h"
#include "costmodel/memory_model.h"
#include "serving/presets.h"

using namespace spotserve;

namespace {

struct Variant
{
    const char *name;
    core::SpotServeOptions options;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    core::SpotServeOptions o;
    out.push_back({"SpotServe (full)", o});
    o.enableController = false;
    out.push_back({"- Controller", o});
    o.enableMigrationPlanner = false;
    out.push_back({"- Migration Planner", o});
    o.enableArranger = false;
    out.push_back({"- Interruption Arranger", o});
    o.enableDeviceMapper = false;
    out.push_back({"- Device Mapper", o});
    return out;
}

} // namespace

int
main()
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::CostParams params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};

    std::printf("=== Figure 9: ablation study (GPT-20B) ===\n");
    int exit_code = 0;

    cost::MemoryModel mem(spec, params);
    std::printf("memory-optimised migration planner: min #GPUs %d -> %d "
                "(enlarges the configuration space, §6.2)\n\n",
                mem.minGpus(false), mem.minGpus(true));

    for (const auto &trace : {cluster::traceAS(), cluster::traceBS()}) {
        sim::Rng rng(7);
        const auto workload =
            wl::stationaryGamma(0.35, 6.0, trace.duration(), seq, rng);

        std::printf("Trace %s:\n", trace.name().c_str());
        double base_p99 = 0.0, base_avg = 0.0;
        for (const auto &v : variants()) {
            core::SpotServeOptions options = v.options;
            options.designArrivalRate = 0.35;
            const auto factory =
                presets::spotServeFactory(spec, params, seq, options);
            const auto r = serving::runExperiment(spec, params, trace,
                                                  workload, factory);
            const double p99 = r.latencies.percentile(99);
            const double avg = r.latencies.mean();
            if (base_p99 == 0.0) {
                base_p99 = p99;
                base_avg = avg;
            }
            std::printf("  %-26s P99 %7.2fs (%.2fx)   avg %7.2fs (%.2fx)"
                        "   done %ld/%ld\n",
                        v.name, p99, p99 / base_p99, avg, avg / base_avg,
                        r.completed, r.arrived);
            const auto broken = serving::auditDrainedRun(r);
            if (!broken.empty()) {
                std::printf("  FAIL: %s: %s\n", v.name, broken.c_str());
                exit_code = 1;
            }
        }
        std::printf("\n");
    }
    std::printf("(paper: cumulative ablation raises P99 up to 1.61x on "
                "A_S and 3.41x on B_S)\n");
    return exit_code;
}
