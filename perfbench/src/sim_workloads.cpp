/**
 * @file
 * The simulated workloads: fig8-churn, steady-fewshot and fleet-churn.
 *
 * A run builds a fixed set of input samples from its seed (set-up), then:
 *  - untraced (--trace 0): replays every sample once with the token
 *    observer attached and reports the simulated serving metrics as
 *    per-sample means (latencies, SLO, churn-window completions), pooled
 *    percentiles (TTFT, gaps) or a ratio of totals (cost); then replays
 *    the samples again, with nothing
 *    attached, until the run's time is up and reports the median CPU
 *    microseconds per simulated request;
 *  - traced (--trace 1): alternates plain replays with replays through a
 *    TracingExecutor plus boundary and token observers, reports the layer
 *    numbers of the traced ones and the traced-minus-plain time, then
 *    runs the standalone layer replays.
 * Every replay is checked (request conservation, unique completions, no
 * leaked KV references); a replay that throws is counted as failed.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "core/spotserve_system.h"
#include "serving/experiment.h"
#include "serving/presets.h"
#include "simcore/simulation.h"
#include "tracing_executor.h"
#include "workload/maf_trace.h"
#include "workloads.h"

namespace perfbench {

using namespace spotserve;

namespace {

/** A scenario: model, fleet traces and how to draw one workload sample. */
struct Scenario
{
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    cost::CostParams params = cost::CostParams::awsG4dn();
    cost::SeqSpec seq{};
    core::SpotServeOptions options;
    std::vector<cluster::AvailabilityTrace> traces;
    std::function<wl::Workload(const cluster::AvailabilityTrace &, sim::Rng &)>
        draw;
    int samples = 1;
    double ttftLimit = 0.0; ///< simulated seconds
    double itlLimit = 0.0;  ///< simulated seconds (per-request mean gap)
    double rate = 0.0;      ///< design arrival rate (planning replays)
    serving::ExperimentOptions experiment;
    /** Accept only samples whose request count is within this fraction
     *  of nominalVolume (> 0). */
    double volumeBand = 0.0;
    double nominalVolume = 0.0;
};

struct Sample
{
    const cluster::AvailabilityTrace *trace = nullptr;
    wl::Workload workload;
};

Scenario
makeScenario(const RunArgs &args)
{
    Scenario s;
    s.samples = static_cast<int>(args.param("samples"));
    s.ttftLimit = args.param("ttft_limit_s");
    s.itlLimit = args.param("itl_limit_s");
    s.experiment.drainTimeout = args.param("drain_s");
    if (args.workload == "fig8-churn") {
        s.spec = model::ModelSpec::gpt20b();
        s.traces = {cluster::traceFig8A(), cluster::traceFig8B()};
        const double cv = args.param("cv");
        const auto maf = wl::MafTrace::fig8Segment();
        const auto seq = s.seq;
        s.draw = [maf, cv, seq](const cluster::AvailabilityTrace &trace,
                                sim::Rng &rng) {
            return wl::fluctuating(
                [&maf](sim::SimTime t) { return maf.rateAt(t); }, cv,
                trace.duration(), seq, rng);
        };
        s.rate = args.param("design_rate");
        s.nominalVolume = maf.meanRate() * s.traces.front().duration();
    } else if (args.workload == "steady-fewshot") {
        s.spec = model::ModelSpec::opt6_7b();
        const double duration = args.param("duration_s");
        s.traces = {cluster::AvailabilityTrace(
            "stable" + std::to_string(static_cast<int>(args.param("instances"))),
            duration,
            {{0.0, cluster::TraceEventKind::Join, cluster::InstanceType::Spot,
              static_cast<int>(args.param("instances"))}})};
        s.rate = args.param("rate");
        const double rate = s.rate;
        const int classes = static_cast<int>(args.param("prefix_classes"));
        const int tokens = static_cast<int>(args.param("prefix_tokens"));
        const auto seq = s.seq;
        s.draw = [rate, classes, tokens, seq](
                     const cluster::AvailabilityTrace &trace, sim::Rng &rng) {
            auto w = wl::stationaryPoisson(rate, trace.duration(), seq, rng);
            wl::withFewShotPrefixes(w, classes, tokens, rng);
            return w;
        };
    } else if (args.workload == "fleet-churn") {
        s.spec = model::ModelSpec::gpt20b();
        s.traces = {waveChurnTrace(static_cast<int>(args.param("instances")),
                                   args.param("first_notice_s"),
                                   args.param("period_s"),
                                   static_cast<int>(args.param("wave")),
                                   args.param("rejoin_after_s"),
                                   args.param("duration_s"))};
        s.rate = args.param("rate");
        const double rate = s.rate;
        const double cv = args.param("cv");
        const auto seq = s.seq;
        s.draw = [rate, cv, seq](const cluster::AvailabilityTrace &trace,
                                 sim::Rng &rng) {
            return wl::stationaryGamma(rate, cv, trace.duration(), seq, rng);
        };
    } else {
        throw std::invalid_argument("unknown workload " + args.workload);
    }
    if (s.nominalVolume == 0.0)
        s.nominalVolume = s.rate * s.traces.front().duration();
    s.volumeBand = args.param("volume_band");
    if (s.volumeBand <= 0.0)
        throw std::invalid_argument("volume_band must be positive");
    s.options.designArrivalRate = s.rate;
    return s;
}

/**
 * Draw a workload for @p trace from @p rng, repeating the draw until its
 * request count lies within the volume band around the scenario's nominal
 * volume: under bursty (CV 6) arrivals the count alone swings latency
 * several-fold, and conditioning on it leaves the burst placement as the
 * sample-to-sample variation.
 */
wl::Workload
drawInBand(const Scenario &s, const cluster::AvailabilityTrace &trace,
           sim::Rng &rng)
{
    for (int attempt = 0; attempt < 10000; ++attempt) {
        auto workload = s.draw(trace, rng);
        const double n = static_cast<double>(workload.size());
        if (std::abs(n - s.nominalVolume) <= s.volumeBand * s.nominalVolume)
            return workload;
    }
    throw std::runtime_error("no sample within the volume band");
}

/** Inputs of one run: sample i uses trace i mod #traces and sub-stream
 *  subSeed(seed, i), so a seed fixes every input. */
std::vector<Sample>
buildSamples(const Scenario &s, std::uint64_t seed)
{
    std::vector<Sample> out(static_cast<std::size_t>(s.samples));
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].trace = &s.traces[i % s.traces.size()];
        sim::Rng rng(subSeed(seed, i));
        out[i].workload = drawInBand(s, *out[i].trace, rng);
    }
    return out;
}

/** Per-request token timing from the token observer (simulated time). */
struct TokenProbe
{
    struct Stream
    {
        double arrival = 0.0;
        double first = -1.0;
        double last = 0.0;
        long tokens = 0;
    };
    /** Indexed by request id (workload ids are dense from 0). */
    std::vector<Stream> streams;
    double warmupCutoff = 0.0;
    LogHistogram ttft;
    LogHistogram gaps;

    explicit TokenProbe(double warmup_cutoff) : warmupCutoff(warmup_cutoff) {}

    /** Start over for a replay of @p workload. */
    void reset(const wl::Workload &workload)
    {
        streams.assign(workload.size(), Stream{});
        ttft = LogHistogram();
        gaps = LogHistogram();
    }

    void onToken(const engine::ActiveRequest &r, double now)
    {
        const auto id = static_cast<std::size_t>(r.request.id);
        if (r.request.arrival < warmupCutoff || id >= streams.size())
            return;
        auto &st = streams[id];
        if (st.tokens == 0) {
            st.arrival = r.request.arrival;
            st.first = now;
            ttft.add(now - r.request.arrival);
        } else {
            gaps.add(now - st.last);
        }
        st.last = now;
        ++st.tokens;
    }
};

/** Boundary observer tallies (traced replays). */
struct BoundaryProbe
{
    long boundaries = 0;
    double batchSum = 0.0;
};

struct Replay
{
    std::optional<serving::ExperimentResult> result;
    std::string error;
    double wallSec = 0.0;
    /** CPU time of the replaying thread: unlike wall time it does not
     *  count time the thread sat descheduled on a shared machine. */
    double cpuSec = 0.0;
    std::uint64_t events = 0;
};

/**
 * Replay one sample.  @p tokens / @p boundaries attach observers, @p tracer
 * (wrapping @p simulation) times callbacks; all null is the untraced run.
 */
Replay
replay(const Scenario &s, const Sample &sample, sim::Simulation &simulation,
       sim::Executor &executor, TokenProbe *tokens, BoundaryProbe *boundaries)
{
    Replay out;
    serving::SystemFactory factory =
        [&](sim::Executor &exec, cluster::InstanceManager &instances,
            serving::RequestManager &requests)
        -> std::unique_ptr<serving::ServingSystem> {
        auto sys = std::make_unique<core::SpotServeSystem>(
            exec, instances, requests, s.spec, s.params, s.seq, s.options);
        if (tokens != nullptr) {
            sys->setTokenObserver([tokens, &exec](const engine::ActiveRequest &r) {
                tokens->onToken(r, exec.now());
            });
        }
        if (boundaries != nullptr) {
            sys->setKvObserver([boundaries](const engine::InferencePipeline &p) {
                ++boundaries->boundaries;
                boundaries->batchSum += static_cast<double>(p.batch().size());
            });
        }
        return sys;
    };
    const auto t0 = Clock::now();
    const double cpu0 = threadCpuSeconds();
    try {
        out.result = serving::runExperimentOn(executor, s.spec, s.params,
                                              *sample.trace, sample.workload,
                                              factory, s.experiment);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.wallSec = secondsSince(t0);
    out.cpuSec = threadCpuSeconds() - cpu0;
    out.events = simulation.eventsFired();
    return out;
}

/** Check one replay and count its requests in the ledger. */
void
checkReplay(const Sample &sample, const Replay &r, Ledger &ledger)
{
    const long sent = static_cast<long>(sample.workload.size());
    ledger.attempted += sent;
    if (!r.result) {
        ledger.check(false, "replay on " + sample.trace->name() +
                                " threw: " + r.error);
        ledger.failed += sent;
        return;
    }
    const auto &res = *r.result;
    ledger.check(res.arrived == sent,
                 "arrived " + std::to_string(res.arrived) + " != sent " +
                     std::to_string(sent));
    ledger.check(res.arrived == res.completed + res.rejected + res.unfinished,
                 "conservation: arrived != completed + rejected + unfinished");
    ledger.check(res.unfinished != 0 || res.liveKvRefsAtEnd == 0,
                 std::to_string(res.liveKvRefsAtEnd) +
                     " KV refs leaked with nothing unfinished");
    std::vector<wl::RequestId> ids;
    ids.reserve(res.perRequest.size());
    for (const auto &c : res.perRequest)
        ids.push_back(c.id);
    std::sort(ids.begin(), ids.end());
    ledger.check(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                 "a request completed twice");
    ledger.failed += sent - res.completed;
}

/** The reference job's CPU time in an uncontended stretch on a 4-vCPU
 *  cloud VM: sim_us_per_request is reported at that machine speed. */
constexpr double kReferenceJobSeconds = 4.0e-3;

/**
 * CPU seconds of a fixed reference job in the benchmark's own code:
 * ordered-map updates over a 64k-key space, allocation-heavy like the
 * simulator.  Timed next to each replay, it measures how fast the machine
 * runs at that moment, independent of the program under test.
 */
double
referenceJobSeconds()
{
    const double c0 = threadCpuSeconds();
    std::map<long, long> m;
    long acc = 0;
    for (long k = 0; k < 40000; ++k) {
        m[(k * 7919) % 65521] += k;
        acc += m.begin()->second;
    }
    const double took = threadCpuSeconds() - c0;
    return acc == 42 ? took + 1e-12 : took; // keep the loop observable
}

std::vector<double>
finishTimes(const serving::ExperimentResult &res)
{
    std::vector<double> out;
    out.reserve(res.perRequest.size());
    for (const auto &c : res.perRequest)
        out.push_back(c.arrival + c.latency);
    return out;
}

/** Untraced run: per-sample serving metrics, then CPU cost per request. */
void
measureEndToEnd(const RunArgs &args, const Scenario &s,
                const std::vector<Sample> &samples, Clock::time_point start,
                Ledger &ledger, Metrics &metrics)
{
    // Latency and SLO figures are taken per sample and averaged over each
    // trace's samples, then over the traces; cost is total cost over total
    // tokens, churn-window completions a mean per sample.
    const double warmup = s.experiment.warmupCutoff;
    enum Figure { LatAvg, LatP99, Slo, kFigures };
    // per trace, per figure: one value per sample
    std::vector<std::array<std::vector<double>, kFigures>> perTrace(
        s.traces.size());
    // TTFT and inter-token gaps are pooled over all samples: a tail
    // percentile of one sample sits on the few migration stalls it got.
    LogHistogram ttft, gaps;
    double cost = 0.0, tokensOut = 0.0, windowDone = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto &sample = samples[i];
        auto &fig = perTrace[i % s.traces.size()];
        TokenProbe probe(warmup);
        probe.reset(sample.workload);
        sim::Simulation simulation;
        const auto r = replay(s, sample, simulation, simulation, &probe, nullptr);
        checkReplay(sample, r, ledger);
        if (!r.result)
            continue;
        const auto &res = *r.result;
        fig[LatAvg].push_back(res.latencies.mean());
        fig[LatP99].push_back(res.latencies.percentile(99.0));
        ttft.merge(probe.ttft);
        gaps.merge(probe.gaps);
        cost += res.costUsd;
        tokensOut += res.tokensGenerated;
        windowDone += static_cast<double>(
            churnWindowCompletions(res.configHistory, finishTimes(res)));
        long sent = 0, met = 0;
        for (const auto &req : sample.workload)
            sent += req.arrival >= warmup ? 1 : 0;
        for (const auto &c : res.perRequest) {
            if (c.arrival < warmup)
                continue;
            const auto &st = probe.streams[static_cast<std::size_t>(c.id)];
            if (st.tokens == 0)
                continue;
            const double meanGap =
                st.tokens > 1 ? (st.last - st.first) / (st.tokens - 1) : 0.0;
            if (st.first - st.arrival <= s.ttftLimit && meanGap <= s.itlLimit)
                ++met;
        }
        fig[Slo].push_back(sent > 0 ? static_cast<double>(met) / sent : 0.0);
    }
    auto figure = [&perTrace](Figure f) {
        double sum = 0.0;
        for (const auto &fig : perTrace)
            sum += mean(fig[f]);
        return sum / static_cast<double>(perTrace.size());
    };

    // Program cost: plain replays (nothing attached) cycling through the
    // samples until time is up, each preceded by the reference job.  On a
    // shared machine co-tenants slow whole minutes of runs by up to 1.8x,
    // CPU time included; scaling by the reference job's speed cancels that.
    std::vector<double> usPerRequest, refSec;
    for (std::size_t i = 0;
         usPerRequest.size() < 3 || secondsSince(start) < args.seconds; ++i) {
        const auto &sample = samples[i % samples.size()];
        refSec.push_back(referenceJobSeconds());
        sim::Simulation simulation;
        const auto r = replay(s, sample, simulation, simulation, nullptr, nullptr);
        checkReplay(sample, r, ledger);
        if (r.result && r.result->arrived > 0)
            usPerRequest.push_back(1e6 * r.cpuSec /
                                   static_cast<double>(r.result->arrived));
    }
    std::printf("  %zu sample replays, %zu timed replays\n", samples.size(),
                usPerRequest.size());

    metrics.set("latency_avg_s", figure(LatAvg), "s");
    metrics.set("latency_p99_s", figure(LatP99), "s");
    metrics.set("churn_window_completions", windowDone / samples.size(),
                "count");
    metrics.set("cost_per_mtok_usd",
                tokensOut > 0.0 ? 1e6 * cost / tokensOut : 0.0, "USD/Mtok");
    metrics.set("sim_us_per_request",
                median(usPerRequest) * kReferenceJobSeconds / median(refSec),
                "us");
    metrics.set("ttft_p50_ms", 1e3 * ttft.percentile(50.0), "ms");
    metrics.set("ttft_p99_ms", 1e3 * ttft.percentile(99.0), "ms");
    metrics.set("itl_p50_ms", 1e3 * gaps.percentile(50.0), "ms");
    metrics.set("itl_p99_ms", 1e3 * gaps.percentile(99.0), "ms");
    metrics.set("itl_p999_ms", 1e3 * gaps.percentile(99.9), "ms");
    metrics.set("slo_attainment", figure(Slo), "frac");
}

/** Traced run: alternating plain/traced replays, then layer replays. */
void
measureLayers(const RunArgs &args, const Scenario &s,
              const std::vector<Sample> &samples, Clock::time_point start,
              Ledger &ledger, Metrics &metrics)
{
    std::vector<double> plainUs, tracedUs, callbackP50;
    LogHistogram queueWait;
    double outsideSec = 0.0, callbackMax = 0.0;
    std::uint64_t events = 0;
    long arrived = 0, replays = 0, prefixHits = 0;
    BoundaryProbe bp;
    double savedPrefill = 0.0, cow = 0.0, evictions = 0.0, migrations = 0.0,
           makespan = 0.0, contended = 0.0, reconfigs = 0.0;
    long peakConc = 0, peakPhys = 0, peakLogical = 0;
    std::vector<serving::ConfigChange> visited;
    for (std::size_t i = 0;
         tracedUs.size() < 2 || secondsSince(start) < args.seconds; ++i) {
        const auto &sample = samples[i % samples.size()];
        {
            sim::Simulation simulation;
            const auto r =
                replay(s, sample, simulation, simulation, nullptr, nullptr);
            checkReplay(sample, r, ledger);
            if (r.result && r.result->arrived > 0)
                plainUs.push_back(1e6 * r.cpuSec / r.result->arrived);
        }
        sim::Simulation simulation;
        TracingExecutor tracer(simulation, 0.0);
        TokenProbe probe(s.experiment.warmupCutoff);
        probe.reset(sample.workload);
        const auto r = replay(s, sample, simulation, tracer, &probe, &bp);
        checkReplay(sample, r, ledger);
        if (!r.result)
            continue;
        const auto &res = *r.result;
        ++replays;
        tracedUs.push_back(1e6 * r.cpuSec / std::max(1L, res.arrived));
        outsideSec += r.wallSec - tracer.callbackSecondsTotal();
        events += r.events;
        arrived += res.arrived;
        const auto &cb = tracer.callbackSeconds();
        callbackP50.push_back(percentile({cb.begin(), cb.end()}, 50.0));
        if (!cb.empty())
            callbackMax = std::max(callbackMax,
                                   static_cast<double>(
                                       *std::max_element(cb.begin(), cb.end())));
        queueWait.merge(probe.ttft);
        prefixHits += res.prefixHits;
        savedPrefill += res.savedPrefillSeconds;
        cow += static_cast<double>(res.cowCopies);
        evictions += static_cast<double>(res.evictions);
        migrations += res.migrationsCompleted;
        makespan += res.migrationMakespanTotal;
        contended += static_cast<double>(res.contendedMigrations);
        reconfigs += static_cast<double>(res.configHistory.size()) - 1.0;
        peakConc = std::max<long>(peakConc, res.peakConcurrentRequests);
        peakPhys = std::max(peakPhys, res.peakKvPhysicalBlocks);
        peakLogical = std::max(peakLogical, res.peakKvHeldBlocks);
        if (visited.empty())
            visited = res.configHistory;
    }
    const double n = static_cast<double>(std::max(1L, replays));
    const double plain = median(plainUs);
    std::printf("  %zu plain / %zu traced replays\n", plainUs.size(),
                tracedUs.size());

    metrics.set("trace.overhead_pct",
                plain > 0.0 ? 100.0 * (median(tracedUs) - plain) / plain : 0.0,
                "%");
    metrics.set("simcore.ns_per_event",
                events > 0 ? 1e9 * outsideSec / static_cast<double>(events) : 0.0,
                "ns");
    metrics.set("simcore.events_per_request",
                arrived > 0 ? static_cast<double>(events) / arrived : 0.0,
                "count");
    metrics.set("simcore.callback_us_p50", 1e6 * median(callbackP50), "us");
    metrics.set("simcore.callback_ms_max", 1e3 * callbackMax, "ms");
    metrics.set("engine.boundaries", static_cast<double>(bp.boundaries) / n,
                "count");
    metrics.set("engine.batch_mean",
                bp.boundaries > 0 ? bp.batchSum / bp.boundaries : 0.0,
                "requests");
    metrics.set("engine.peak_concurrency", static_cast<double>(peakConc),
                "requests");
    metrics.set("engine.prefix_hit_frac",
                arrived > 0 ? static_cast<double>(prefixHits) / arrived : 0.0,
                "frac");
    metrics.set("engine.saved_prefill_s", savedPrefill / n, "s");
    metrics.set("engine.cow_copies", cow / n, "count");
    metrics.set("engine.evictions", evictions / n, "count");
    metrics.set("engine.kv_physical_peak_blocks", static_cast<double>(peakPhys),
                "blocks");
    metrics.set("engine.kv_logical_peak_blocks",
                static_cast<double>(peakLogical), "blocks");
    metrics.set("request_manager.queue_wait_p99_s",
                queueWait.percentile(99.0), "s");
    metrics.set("data_plane.migrations", migrations / n, "count");
    metrics.set("data_plane.makespan_total_s", makespan / n, "s");
    metrics.set("data_plane.contended", contended / n, "count");
    metrics.set("spotserve.reconfigs", reconfigs / n, "count");

    replayKvBlockStore(samples.front().workload, metrics);
    replayAdmission(samples.front().workload, metrics);
    replayPlanning(s.spec, s.params, s.seq, visited, s.rate, metrics);
    planningRows(metrics);
}

} // namespace

cluster::AvailabilityTrace
waveChurnTrace(int instances, double first_notice, double period, int count,
               double rejoin_after, double duration)
{
    std::vector<cluster::TraceEvent> events{
        {0.0, cluster::TraceEventKind::Join, cluster::InstanceType::Spot,
         instances}};
    for (double t = first_notice; t < duration; t += period) {
        events.push_back({t, cluster::TraceEventKind::PreemptNotice,
                          cluster::InstanceType::Spot, count});
        if (t + rejoin_after < duration)
            events.push_back({t + rejoin_after, cluster::TraceEventKind::Join,
                              cluster::InstanceType::Spot, count});
    }
    return cluster::AvailabilityTrace("wave" + std::to_string(instances),
                                      duration, std::move(events));
}

long
churnWindowCompletions(const std::vector<serving::ConfigChange> &history,
                       const std::vector<double> &finish_times)
{
    long n = 0;
    for (double t : finish_times) {
        for (const auto &c : history) {
            if (t >= c.time - 5.0 && t < c.time + 90.0) {
                ++n;
                break;
            }
        }
    }
    return n;
}

void
runSimulatedWorkload(const RunArgs &args, Ledger &ledger, Metrics &metrics)
{
    const auto start = Clock::now();
    const Scenario scenario = makeScenario(args);

    // Set-up: draw the run's inputs from its seed, several times over;
    // the median, scaled to reference machine speed like the CPU cost, is
    // setup_s, and the last draw is what the run replays.
    std::vector<double> setup;
    std::vector<Sample> samples;
    for (int k = 0; k < 5; ++k) {
        const double ref = referenceJobSeconds();
        const auto t0 = Clock::now();
        samples = buildSamples(scenario, args.seed);
        setup.push_back(secondsSince(t0) * kReferenceJobSeconds / ref);
    }
    long requests = 0;
    for (const auto &s : samples)
        requests += static_cast<long>(s.workload.size());
    std::printf("  %s: %s, %d samples over %zu trace(s), %ld requests\n",
                args.workload.c_str(), scenario.spec.name().c_str(),
                scenario.samples, scenario.traces.size(), requests);

    if (args.trace) {
        measureLayers(args, scenario, samples, start, ledger, metrics);
        if (args.params.count("ingress_window_s") != 0)
            measureIngressLayer(args, ledger, metrics);
        return;
    }
    measureEndToEnd(args, scenario, samples, start, ledger, metrics);
    metrics.set("setup_s", median(setup), "s");
    metrics.set("served_frac",
                ledger.attempted > 0
                    ? 1.0 - static_cast<double>(ledger.failed) / ledger.attempted
                    : 0.0,
                "frac");
    metrics.set("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
