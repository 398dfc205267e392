/**
 * @file
 * Figure 6: end-to-end serving performance on stable workloads.
 *
 * Reproduces the paper's grid — three models (OPT-6.7B, GPT-20B,
 * LLaMA-30B) x four traces (A_S, B_S, A_S+O, B_S+O) x three systems
 * (SpotServe, Reparallelization, Rerouting) — reporting average and
 * P90..P99 tail latencies plus SpotServe's improvement factors over both
 * baselines, the numbers printed on each subplot.
 *
 * Exits non-zero if any run fails the drained-run audit
 * (serving::auditDrainedRun: each request completed once, nothing
 * unfinished, no KV block reference live), or if SpotServe's P99 exceeds
 * Reparallelization's on any row (the paper's headline claim).
 *
 * Usage: fig6_stable_latency [model-substring] [trace-substring]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/trace_library.h"
#include "serving/presets.h"

using namespace spotserve;

namespace {

void
printRow(const serving::ExperimentResult &r)
{
    const auto s = r.latencies.summary();
    std::printf("  %-18s avg %7.2f  P90 %7.2f  P95 %7.2f  P96 %7.2f  "
                "P97 %7.2f  P98 %7.2f  P99 %7.2f  (done %ld/%ld)\n",
                r.systemName.c_str(), s.avg, s.p90, s.p95, s.p96, s.p97,
                s.p98, s.p99, r.completed, r.arrived);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string model_filter = argc > 1 ? argv[1] : "";
    const std::string trace_filter = argc > 2 ? argv[2] : "";

    std::printf("=== Figure 6: end-to-end latency on stable workloads "
                "(seconds) ===\n");

    int exit_code = 0;
    const std::vector<std::string> systems = {"SpotServe",
                                              "Reparallelization",
                                              "Rerouting"};

    for (const auto &spec : presets::evaluatedModels()) {
        if (!model_filter.empty() &&
            spec.name().find(model_filter) == std::string::npos) {
            continue;
        }
        for (const auto &trace : cluster::figure5Traces()) {
            if (!trace_filter.empty() &&
                trace.name().find(trace_filter) == std::string::npos) {
                continue;
            }
            std::printf("\n%s-%.4gr/s on %s\n", spec.name().c_str(),
                        presets::stableRate(spec), trace.name().c_str());

            std::vector<serving::ExperimentResult> results;
            for (const auto &system : systems)
                results.push_back(presets::runStable(spec, trace, system));
            for (const auto &r : results) {
                printRow(r);
                const auto broken = serving::auditDrainedRun(r);
                if (!broken.empty()) {
                    std::printf("  FAIL: %s: %s\n", r.systemName.c_str(),
                                broken.c_str());
                    exit_code = 1;
                }
            }

            const double spot_p99 = results[0].latencies.percentile(99);
            const double repar_p99 = results[1].latencies.percentile(99);
            const double rerout_p99 = results[2].latencies.percentile(99);
            const double spot_avg = results[0].latencies.mean();
            const double repar_avg = results[1].latencies.mean();
            const double rerout_avg = results[2].latencies.mean();
            std::printf("  SpotServe improvement: P99 %.2fx vs Repar, "
                        "%.2fx vs Rerouting | avg %.2fx vs Repar, "
                        "%.2fx vs Rerouting\n",
                        repar_p99 / spot_p99, rerout_p99 / spot_p99,
                        repar_avg / spot_avg, rerout_avg / spot_avg);
            if (spot_p99 > repar_p99) {
                std::printf("  FAIL: SpotServe P99 %.2f exceeds "
                            "Reparallelization's %.2f\n",
                            spot_p99, repar_p99);
                exit_code = 1;
            }
        }
    }
    return exit_code;
}
