/**
 * @file
 * Figure 8: comparison on the fluctuating (MAF-style) workload, GPT-20B.
 *
 * Prints: (a/b) the rescaled arrival-rate trace, (c/d) the availability
 * traces A'_S+O and B'_S+O, (e/f) end-to-end latency statistics per
 * system plus the batching/admission ablation rows (rigid, and
 * Reserve-vs-Optimistic KV admission on an early-stopping variant of the
 * workload), and (g/h) the per-request latency timeline (30 s buckets)
 * with each system's (D,P,M) reconfiguration points annotated.
 *
 * Flags: --json PATH additionally writes a machine-readable summary of
 * every row so CI can archive the numbers and catch perf-trajectory
 * regressions.
 *
 * Exits non-zero if any drained row fails serving::auditDrainedRun (each
 * request completed once, nothing unfinished, no KV block reference
 * live), if SpotServe's P99 exceeds Reparallelization's on either trace,
 * or if a prefix-sharing or resilience ablation gate below fails.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "serving/presets.h"
#include "workload/maf_trace.h"
#include "workload/workload.h"

using namespace spotserve;

namespace {

const char *kSystems[] = {"SpotServe", "Reparallelization", "Rerouting"};

/** One row of the machine-readable summary (--json). */
struct JsonRow
{
    std::string trace;
    std::string label;
    const serving::ExperimentResult *result;
};

void
writeJson(const std::string &path, const std::vector<JsonRow> &rows)
{
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = *rows[i].result;
        const auto s = r.latencies.summary();
        os << "  {\"trace\": \"" << rows[i].trace << "\", \"system\": \""
           << rows[i].label << "\", \"avg\": " << s.avg
           << ", \"p90\": " << s.p90 << ", \"p99\": " << s.p99
           << ", \"completed\": " << r.completed
           << ", \"arrived\": " << r.arrived
           << ", \"rejected\": " << r.rejected
           << ", \"peak_kv_held_blocks\": " << r.peakKvHeldBlocks
           << ", \"peak_kv_physical_blocks\": " << r.peakKvPhysicalBlocks
           << ", \"prefix_hits\": " << r.prefixHits
           << ", \"prefix_matched_tokens\": " << r.prefixMatchedTokens
           << ", \"saved_prefill_s\": " << r.savedPrefillSeconds
           << ", \"peak_concurrency\": " << r.peakConcurrentRequests
           << ", \"evictions\": " << r.evictions
           << ", \"migrations\": " << r.migrationsCompleted
           << ", \"migration_makespan_total_s\": "
           << r.migrationMakespanTotal
           << ", \"contended_migrations\": " << r.contendedMigrations
           << ", \"unfinished\": " << r.unfinished
           << ", \"hard_preemptions\": " << r.hardPreemptions
           << ", \"migration_aborts\": " << r.migrationAborts
           << ", \"migration_retries\": " << r.migrationRetries
           << ", \"requests_recovered\": " << r.requestsRecovered
           << ", \"live_kv_refs\": " << r.liveKvRefsAtEnd
           << ", \"cost_usd\": " << r.costUsd << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

void
latencyRow(const serving::ExperimentResult &r)
{
    const auto s = r.latencies.summary();
    std::printf("  %-18s avg %7.2f  P90 %7.2f  P95 %7.2f  P97 %7.2f  "
                "P99 %7.2f  (done %ld/%ld)\n",
                r.systemName.c_str(), s.avg, s.p90, s.p95, s.p97, s.p99,
                r.completed, r.arrived);
}

void
timeline(const std::vector<serving::ExperimentResult> &results,
         sim::SimTime duration)
{
    std::printf("  per-request latency, mean over 30 s arrival buckets "
                "(seconds):\n");
    std::printf("  %-8s", "t[s]");
    for (const auto &r : results)
        std::printf(" %-18s", r.systemName.c_str());
    std::printf("\n");
    const double dt = 30.0;
    for (double t = 0.0; t < duration; t += dt) {
        std::printf("  %-8.0f", t);
        for (const auto &r : results) {
            double sum = 0.0;
            int n = 0;
            for (const auto &c : r.perRequest) {
                if (c.arrival >= t && c.arrival < t + dt) {
                    sum += c.latency;
                    ++n;
                }
            }
            if (n > 0)
                std::printf(" %-18.1f", sum / n);
            else
                std::printf(" %-18s", "-");
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    int exit_code = 0;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    const auto spec = model::ModelSpec::gpt20b();
    const cost::CostParams params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};
    const auto maf = wl::MafTrace::fig8Segment();

    // Stable storage for every result a JSON row may reference.
    std::deque<serving::ExperimentResult> store;
    std::vector<JsonRow> json_rows;
    // Every row but the overloaded prefix-sharing pair (a 60 s drain
    // censors their backlog by design) must pass the drained-run audit.
    auto keep = [&](const std::string &trace_name, const std::string &label,
                    serving::ExperimentResult result, bool drained = true)
        -> const serving::ExperimentResult & {
        const auto broken =
            drained ? serving::auditDrainedRun(result) : std::string();
        if (!broken.empty()) {
            std::printf("  FAIL: %s/%s: %s\n", trace_name.c_str(),
                        label.c_str(), broken.c_str());
            exit_code = 1;
        }
        store.push_back(std::move(result));
        json_rows.push_back(JsonRow{trace_name, label, &store.back()});
        return store.back();
    };

    std::printf("=== Figure 8: fluctuating workload (GPT-20B, MAF-style "
                "trace) ===\n");

    std::printf("\n(a/b) arrival-rate trace (req/s per minute bucket):\n ");
    for (double r : maf.rates())
        std::printf(" %.2f", r);
    std::printf("\n  mean %.2f req/s, peak %.2f req/s\n", maf.meanRate(),
                maf.peakRate());

    for (const auto &trace : {cluster::traceFig8A(), cluster::traceFig8B()}) {
        std::printf("\n(c/d) availability trace %s:\n", trace.name().c_str());
        for (const auto &s : trace.series(60.0, params.gracePeriod)) {
            std::printf("  t=%5.0f  spot %2d  od %2d  total %2d\n", s.time,
                        s.spot, s.onDemand, s.total());
        }

        // One workload sample shared by all systems.
        sim::Rng rng(11);
        const auto workload = wl::fluctuating(
            [&maf](sim::SimTime t) { return maf.rateAt(t); }, 6.0,
            trace.duration(), seq, rng);

        std::vector<serving::ExperimentResult> results;
        for (const char *system : kSystems) {
            const auto factory = presets::factoryByName(
                system, spec, params, seq, /*design_rate=*/0.55);
            results.push_back(serving::runExperiment(spec, params, trace,
                                                     workload, factory));
        }

        std::printf("\n(e/f) end-to-end latency on %s:\n",
                    trace.name().c_str());
        for (const auto &r : results) {
            latencyRow(r);
            keep(trace.name(), r.systemName, r);
        }

        // Engine ablation: the same SpotServe stack with rigid
        // run-to-completion batching instead of iteration-level admission
        // quantifies the continuous-batching win under bursty arrivals.
        {
            core::SpotServeOptions rigid;
            rigid.designArrivalRate = 0.55;
            rigid.engine.continuousBatching = false;
            const auto r_rigid = serving::runExperiment(
                spec, params, trace, workload,
                presets::spotServeFactory(spec, params, seq, rigid));
            std::printf("  %-18s avg %7.2f  P99 %7.2f  (rigid batching "
                        "ablation; continuous is %.2fx better on avg)\n",
                        "SpotServe-rigid",
                        r_rigid.latencies.mean(),
                        r_rigid.latencies.percentile(99),
                        r_rigid.latencies.mean() /
                            results[0].latencies.mean());
            keep(trace.name(), "SpotServe-rigid", r_rigid);
        }
        // KV-charging ablation: Reserve (worst-case prompt + cap
        // reservation, PR 2's mode) vs Optimistic (predicted-output
        // charging with pre-step eviction, the default) on an
        // early-stopping variant of the same workload: same arrivals,
        // but every request declares a 8192-token cap (64x the typical
        // output) and actually stops at 16-128 tokens.  Reserving the
        // cap makes the KV budget — not the batch slots — the binding
        // constraint and idles most of it; Optimistic packs the replicas
        // (higher admitted concurrency) and completes the backlog
        // sooner, at the price of a few evictions when predictions fall
        // short.
        {
            sim::Rng cap_rng(23);
            auto capped = workload;
            wl::capOutputs(capped, /*cap=*/64 * seq.outputLen, /*min=*/16,
                           /*max=*/seq.outputLen, cap_rng);
            auto run_mode = [&](engine::KvAdmissionMode mode) {
                core::SpotServeOptions o;
                o.designArrivalRate = 0.55;
                o.engine.kvAdmissionMode = mode;
                return serving::runExperiment(
                    spec, params, trace, capped,
                    presets::spotServeFactory(spec, params, seq, o));
            };
            const auto r_res = run_mode(engine::KvAdmissionMode::Reserve);
            const auto r_opt =
                run_mode(engine::KvAdmissionMode::Optimistic);
            std::printf("  early-stopping workload (cap %d, actual "
                        "16-%d):\n",
                        64 * seq.outputLen, seq.outputLen);
            auto mode_row = [](const char *label,
                               const serving::ExperimentResult &r) {
                std::printf("  %-18s avg %7.2f  P99 %7.2f  done %ld/%ld  "
                            "peak KV held %ld blk  peak conc %d  "
                            "evictions %ld\n",
                            label, r.latencies.mean(),
                            r.latencies.percentile(99), r.completed,
                            r.arrived, r.peakKvHeldBlocks,
                            r.peakConcurrentRequests, r.evictions);
            };
            mode_row("SpotServe-reserve", r_res);
            mode_row("SpotServe-optimistic", r_opt);
            std::printf("  optimistic admits %.2fx the concurrency and "
                        "completes %+ld requests vs reserve\n",
                        r_res.peakConcurrentRequests > 0
                            ? static_cast<double>(
                                  r_opt.peakConcurrentRequests) /
                                  r_res.peakConcurrentRequests
                            : 0.0,
                        r_opt.completed - r_res.completed);
            keep(trace.name(), "SpotServe-reserve", r_res);
            keep(trace.name(), "SpotServe-optimistic", r_opt);
        }
        // Prefix-sharing ablation: the same arrivals with a few-shot
        // template mix prepended (4 classes x 768 tokens), run as is vs a
        // copy with the prefix ids stripped (same tokens, nothing the
        // block store could share).  Sharing must deduplicate the
        // template blocks (physical peak strictly below the logical
        // holding) and, because matched prefill is skipped and the freed
        // budget admits more work, finish at least as many requests
        // within the same horizon and budget — the CI exit gate below
        // enforces both.
        {
            sim::Rng prefix_rng(37);
            // Denser arrivals than the headline run: the prepended
            // templates make prefill the bottleneck, and at 1.6x the MAF
            // rate the unshared baseline cannot keep up — the run is
            // throughput-bound, so the sharing win is measured in
            // completions rather than just latency.
            auto shared = wl::fluctuating(
                [&maf](sim::SimTime t) { return 1.6 * maf.rateAt(t); }, 6.0,
                trace.duration(), seq, prefix_rng);
            wl::withFewShotPrefixes(shared, /*num_classes=*/4,
                                    /*class_tokens=*/768, prefix_rng);
            // A short drain window scores throughput, not just latency:
            // whatever is still backlogged shortly after the trace ends
            // is censored, so skipping matched prefill shows up as
            // strictly more completions, not only lower averages.
            serving::ExperimentOptions horizon;
            horizon.drainTimeout = 60.0;
            auto run_sharing = [&](const wl::Workload &w) {
                core::SpotServeOptions o;
                o.designArrivalRate = 0.55;
                return serving::runExperiment(
                    spec, params, trace, w,
                    presets::spotServeFactory(spec, params, seq, o),
                    horizon);
            };
            auto unshared = shared;
            for (auto &r : unshared) {
                r.prefixId = -1;
                r.prefixLen = 0;
            }
            const auto r_off = run_sharing(unshared);
            const auto r_on = run_sharing(shared);
            std::printf("  shared-prefix workload (4 few-shot classes x "
                        "768 tok prepended, 60 s drain):\n");
            auto sharing_row = [](const char *label,
                                  const serving::ExperimentResult &r) {
                std::printf("  %-18s avg %7.2f  P99 %7.2f  done %ld/%ld  "
                            "peak KV blocks %ld logical / %ld physical\n",
                            label, r.latencies.mean(),
                            r.latencies.percentile(99), r.completed,
                            r.arrived, r.peakKvHeldBlocks,
                            r.peakKvPhysicalBlocks);
            };
            sharing_row("SpotServe-noPrefix", r_off);
            sharing_row("SpotServe-prefix", r_on);
            std::printf("  prefix hit rate %.1f%% (%ld hits, %ld tokens "
                        "matched), prefill skipped %.1fs; "
                        "completions %+ld, peak physical blocks %+ld vs "
                        "logical\n",
                        r_on.arrived > 0
                            ? 100.0 * r_on.prefixHits / r_on.arrived
                            : 0.0,
                        r_on.prefixHits, r_on.prefixMatchedTokens,
                        r_on.savedPrefillSeconds,
                        r_on.completed - r_off.completed,
                        r_on.peakKvPhysicalBlocks - r_on.peakKvHeldBlocks);
            if (r_on.completed < r_off.completed) {
                std::printf("  FAIL: prefix sharing completed fewer "
                            "requests than the unshared baseline\n");
                exit_code = 1;
            }
            if (r_on.prefixHits == 0 ||
                r_on.peakKvPhysicalBlocks >= r_on.peakKvHeldBlocks) {
                std::printf("  FAIL: prefix sharing did not deduplicate "
                            "physical KV blocks\n");
                exit_code = 1;
            }
            keep(trace.name(), "SpotServe-noPrefix", r_off, false);
            keep(trace.name(), "SpotServe-prefix", r_on, false);
        }
        // Resilience ablation: the same stack on a hostile variant of
        // the trace — half the preemption notices become zero-notice
        // kills — plus a seeded fault plan that shoots a migration
        // source while its transfer schedule is in flight.  Recovery on
        // (abort, requeue, re-plan with backoff) is compared
        // against the abort-and-cold-restart ablation
        // (faultRecovery=false).  Gates: both runs pass the drained-run
        // audit (in keep), and recovery strictly beats cold restart in
        // churn-window completions, with the kill actually landing (a
        // migration aborted) in both.
        {
            const auto hostile = cluster::hardenPreemptions(trace, 0.5, 13);
            cluster::FaultPlan plan;
            plan.seed = 13;
            cluster::FaultEvent kill;
            // Armed 10 s into the grace window of the first preemption
            // notice hardening left in place: that reconfiguration keeps
            // most replicas, so shooting its source while transfers are
            // in flight is exactly the case where keep-serving recovery
            // and cold restart diverge.  (Hard kills give no notice and
            // start no migration to shoot.)  A tight patience stops the
            // kill from deferring into a later full-remap migration where
            // nothing is kept and both paths degenerate to the same
            // rebuild.
            const auto &events = hostile.events();
            const auto notice = std::find_if(
                events.begin(), events.end(), [](const auto &e) {
                    return e.kind == cluster::TraceEventKind::PreemptNotice;
                });
            if (notice == events.end()) {
                std::printf("  FAIL: hostile trace %s has no preemption "
                            "notice to arm the migration kill on\n",
                            hostile.name().c_str());
                return 1;
            }
            kill.time = notice->time + 10.0;
            kill.patience = 30.0;
            kill.kind = cluster::FaultEvent::Kind::KillMigrationSource;
            plan.events.push_back(kill);
            serving::ExperimentOptions fault_opts;
            fault_opts.faultPlan = &plan;
            auto run_recovery = [&](bool on) {
                core::SpotServeOptions o;
                o.designArrivalRate = 0.55;
                o.faultRecovery = on;
                return serving::runExperiment(
                    spec, params, hostile, workload,
                    presets::spotServeFactory(spec, params, seq, o),
                    fault_opts);
            };
            const auto r_rec = run_recovery(true);
            const auto r_cold = run_recovery(false);

            // Churn windows anchored on the recovery run's
            // reconfigurations (the spans the faults disrupt).
            std::vector<double> windows;
            for (std::size_t i = 1; i < r_rec.configHistory.size(); ++i)
                windows.push_back(r_rec.configHistory[i].time);
            auto in_window = [&windows](double t) {
                for (double w : windows) {
                    if (t >= w - 5.0 && t < w + 90.0)
                        return true;
                }
                return false;
            };
            auto window_goodput = [&](const serving::ExperimentResult &r) {
                long goodput = 0;
                for (const auto &c : r.perRequest) {
                    if (in_window(c.arrival + c.latency))
                        ++goodput;
                }
                return goodput;
            };
            const long g_rec = window_goodput(r_rec);
            const long g_cold = window_goodput(r_cold);
            std::printf("  hostile trace %s (hard kills %d, migration "
                        "kill armed):\n",
                        hostile.name().c_str(),
                        hostile.totalHardPreemptions());
            auto resilience_row = [](const char *label,
                                     const serving::ExperimentResult &r) {
                std::printf("  %-18s avg %7.2f  P99 %7.2f  done %ld/%ld  "
                            "aborts %ld  retries %ld  recovered %ld  "
                            "restarted %ld\n",
                            label, r.latencies.mean(),
                            r.latencies.percentile(99), r.completed,
                            r.arrived, r.migrationAborts,
                            r.migrationRetries, r.requestsRecovered,
                            r.restartedRequeues);
            };
            resilience_row("SpotServe-recovery", r_rec);
            resilience_row("SpotServe-coldRestart", r_cold);
            std::printf("  churn-window completions: recovery %ld vs cold "
                        "restart %ld (%+ld)\n",
                        g_rec, g_cold, g_rec - g_cold);
            for (const auto *r : {&r_rec, &r_cold}) {
                if (r->migrationAborts == 0) {
                    std::printf("  FAIL: the armed migration kill never "
                                "fired (no migration aborted)\n");
                    exit_code = 1;
                }
            }
            if (g_rec <= g_cold) {
                std::printf("  FAIL: recovery did not beat cold restart "
                            "in churn-window completions\n");
                exit_code = 1;
            }
            keep(trace.name(), "SpotServe-recovery", r_rec);
            keep(trace.name(), "SpotServe-coldRestart", r_cold);
        }
        const double spot_p99 = results[0].latencies.percentile(99);
        const double repar_p99 = results[1].latencies.percentile(99);
        std::printf("  SpotServe improvement: P99 %.2fx vs Repar, "
                    "%.2fx vs Rerouting\n",
                    repar_p99 / spot_p99,
                    results[2].latencies.percentile(99) / spot_p99);
        if (spot_p99 > repar_p99) {
            std::printf("  FAIL: SpotServe P99 %.2f exceeds "
                        "Reparallelization's %.2f\n",
                        spot_p99, repar_p99);
            exit_code = 1;
        }

        std::printf("\n(g/h) timeline on %s:\n", trace.name().c_str());
        timeline(results, trace.duration());

        for (const auto &r : results) {
            std::printf("  %s configurations:", r.systemName.c_str());
            for (const auto &c : r.configHistory)
                std::printf("  t=%.0f %s", c.time,
                            c.config.shortStr().c_str());
            std::printf("\n");
        }
    }
    if (!json_path.empty()) {
        writeJson(json_path, json_rows);
        std::printf("\nwrote %zu summary rows to %s\n", json_rows.size(),
                    json_path.c_str());
    }
    return exit_code;
}
