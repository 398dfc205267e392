/**
 * @file
 * Figure 7: monetary cost comparison on GPT-20B.
 *
 * Per-token cost (USD) against average and P99 latency for the three
 * systems on the spot traces, plus the on-demand-only curve (constant
 * fleets of N on-demand instances: cost falls with N while latency
 * rises).  The paper's headline: spot serving saves up to 54% per token
 * versus on-demand at a modest latency increase.
 *
 * Exits non-zero if any run fails the drained-run audit
 * (serving::auditDrainedRun: each request completed once, nothing
 * unfinished, no KV block reference live).
 */

#include <cstdio>

#include "cluster/trace_library.h"
#include "serving/presets.h"

using namespace spotserve;

namespace {

void
printPoint(const char *label, const serving::ExperimentResult &r)
{
    std::printf("  %-24s cost %7.3e USD/token   avg %7.2fs   P99 %7.2fs"
                "   ($%.2f total, %.1f spot-h + %.1f od-h)\n",
                label, r.costPerToken(), r.latencies.mean(),
                r.latencies.percentile(99), r.costUsd, r.spotInstanceHours,
                r.ondemandInstanceHours);
}

/** The drained-run audit; prints a FAIL line if broken. */
bool
audited(const char *label, const serving::ExperimentResult &r)
{
    const auto broken = serving::auditDrainedRun(r);
    if (!broken.empty())
        std::printf("  FAIL: %s: %s\n", label, broken.c_str());
    return broken.empty();
}

} // namespace

int
main()
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::CostParams params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};

    std::printf("=== Figure 7: monetary cost comparison (GPT-20B, "
                "0.35 req/s) ===\n");
    std::printf("spot $%.1f/h vs on-demand $%.1f/h per 4-GPU instance\n\n",
                params.spotPricePerHour, params.ondemandPricePerHour);

    int exit_code = 0;
    std::printf("Serving systems on the spot traces:\n");
    serving::ExperimentResult spotserve_best;
    bool have_best = false;
    for (const auto &trace : cluster::figure5Traces()) {
        for (const char *system :
             {"SpotServe", "Reparallelization", "Rerouting"}) {
            const auto r = presets::runStable(spec, trace, system);
            char label[64];
            std::snprintf(label, sizeof(label), "%s/%s", system,
                          trace.name().c_str());
            printPoint(label, r);
            if (!audited(label, r))
                exit_code = 1;
            if (std::string(system) == "SpotServe" &&
                (!have_best ||
                 r.costPerToken() < spotserve_best.costPerToken())) {
                spotserve_best = r;
                have_best = true;
            }
        }
    }

    std::printf("\nOn-demand only (constant fleet, no preemptions):\n");
    sim::Rng rng(7);
    const auto workload = wl::stationaryGamma(0.35, 6.0, 1200.0, seq, rng);
    serving::ExperimentResult od_match; // first OD point matching demand
    bool have_match = false;
    for (int n : {3, 4, 6, 8, 10}) {
        cluster::AvailabilityTrace trace(
            "OD-" + std::to_string(n), 1200.0,
            {cluster::TraceEvent{0.0, cluster::TraceEventKind::Join,
                                 cluster::InstanceType::OnDemand, n}});
        const auto factory = presets::factoryByName("SpotServe", spec,
                                                    params, seq, 0.35);
        const auto r = serving::runExperiment(spec, params, trace, workload,
                                              factory);
        char label[64];
        std::snprintf(label, sizeof(label), "on-demand N=%d", n);
        printPoint(label, r);
        if (!audited(label, r))
            exit_code = 1;
        if (n == 8) {
            od_match = r;
            have_match = true;
        }
    }

    if (have_best && have_match && od_match.costPerToken() > 0.0) {
        const double saving =
            1.0 - spotserve_best.costPerToken() / od_match.costPerToken();
        const double avg_increase = spotserve_best.latencies.mean() /
                                        od_match.latencies.mean() -
                                    1.0;
        const double p99_increase =
            spotserve_best.latencies.percentile(99) /
                od_match.latencies.percentile(99) -
            1.0;
        std::printf("\nSpotServe (cheapest trace) vs on-demand N=8: "
                    "%.0f%% cost saving, avg latency %+.0f%%, "
                    "P99 %+.0f%%  (paper: 54%% saving, <18%% avg, "
                    "<90%% P99)\n",
                    saving * 100.0, avg_increase * 100.0,
                    p99_increase * 100.0);
    }
    return exit_code;
}
