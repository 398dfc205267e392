/**
 * @file
 * spotbench: the SpotServe benchmark driver.
 *
 *   spotbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--param key=value ...]
 *
 * Workloads: fig8-churn, steady-fewshot and fleet-churn (simulated; the
 * traced run of fleet-churn adds a loopback trial on the wall clock).  Their
 * parameters come from perfbench/workloads.json via --param
 * (perfbench/run.py passes them).
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
 * the last line of standard output is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace {

/** Per-layer metrics only some workloads exercise, preset to 0. */
void
setLayerDefaults(perfbench::Metrics &metrics)
{
    // Layers a workload does not exercise report 0, so every traced run
    // carries the same metric set.
    static const std::pair<const char *, const char *> kLayerMetrics[] = {
        {"trace.overhead_pct", "%"},
        {"simcore.ns_per_event", "ns"},
        {"simcore.events_per_request", "count"},
        {"simcore.callback_us_p50", "us"},
        {"simcore.callback_ms_max", "ms"},
        {"wallclock.fire_late_p99_ms", "ms"},
        {"wallclock.callback_ms_max", "ms"},
        {"ingress.ack_p99_ms", "ms"},
        {"ingress.connections", "count"},
        {"ingress.protocol_errors", "count"},
        {"ingress.dropped_slow", "count"},
        {"loadgen.sent", "count"},
        {"loadgen.late_p99_ms", "ms"},
        {"loadgen.invalid_trials", "count"},
    };
    for (const auto &[name, unit] : kLayerMetrics)
        metrics.set(name, 0.0, unit);
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--param key=value ...]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--param") {
            const auto eq = value.find('=');
            if (eq == std::string::npos)
                usage(argv[0]);
            args.params[value.substr(0, eq)] = std::atof(value.c_str() + eq + 1);
        } else {
            usage(argv[0]);
        }
    }
    if (args.workload.empty())
        usage(argv[0]);

    Ledger ledger;
    Metrics metrics;
    if (args.trace)
        setLayerDefaults(metrics);
    try {
        std::printf("spotbench %s seed %llu, %.0f s, %s\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.seconds,
                    args.trace ? "traced" : "untraced");
        runSimulatedWorkload(args, ledger, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "spotbench: %s\n", e.what());
        return 1;
    }
    for (const auto &[name, entry] : metrics.all())
        std::printf("  %-36s %14.6g %s\n", name.c_str(), entry.first,
                    entry.second.c_str());
    std::printf("  correctness: %s (%ld attempted, %ld failed, %zu violated "
                "checks)\n",
                ledger.correct() ? "ok" : "FAILED", ledger.attempted,
                ledger.failed, ledger.violations.size());
    emitResult(ledger, metrics);
    return 0;
}
