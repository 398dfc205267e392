/**
 * @file
 * End-to-end stateful-recovery properties (§4): a surgically placed
 * preemption must not cost interrupted requests their committed tokens,
 * and the recovered requests must finish faster than a recompute-based
 * system would allow; replicas resuming at the same instant must each
 * load their own recovered batch.
 */

#include <gtest/gtest.h>

#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "serving/presets.h"

namespace spotserve {
namespace {

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

/** One preemption notice at t=300 into an otherwise steady fleet. */
AvailabilityTrace
onePreemption()
{
    return AvailabilityTrace(
        "one-preempt", 1200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 8},
         TraceEvent{300.0, TraceEventKind::PreemptNotice,
                    InstanceType::Spot, 1}});
}

serving::ExperimentResult
runOne(const std::string &system, std::uint64_t seed = 21)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = onePreemption();
    sim::Rng rng(seed);
    const auto workload =
        wl::stationaryGamma(0.35, 2.0, trace.duration(), kSeq, rng);
    const auto factory =
        presets::factoryByName(system, spec, kParams, kSeq, 0.35);
    return serving::runExperiment(spec, kParams, trace, workload, factory);
}

TEST(StatefulRecoveryTest, NoRecomputationAcrossOnePreemption)
{
    const auto r = runOne("SpotServe");
    EXPECT_EQ(r.unfinished, 0);
    // Token-level commits survive the migration: nothing recomputes.
    for (const auto &c : r.perRequest)
        EXPECT_EQ(c.restarts, 0) << "request " << c.id;
}

TEST(StatefulRecoveryTest, OutputConservation)
{
    // "SpotServe ... produces identical results as serving the LLM using
    // on-demand instances": every request yields its full output exactly
    // once, preemptions or not.
    for (const char *system :
         {"SpotServe", "Reparallelization", "Rerouting"}) {
        const auto r = runOne(system);
        EXPECT_EQ(serving::auditDrainedRun(r), "") << system;
        EXPECT_DOUBLE_EQ(r.tokensGenerated,
                         static_cast<double>(r.completed) * kSeq.outputLen)
            << system;
    }
}

TEST(StatefulRecoveryTest, RecoveredTailBeatsRecomputingBaseline)
{
    // Around the preemption window, the reactive full-restart baseline
    // must show a visibly worse tail than stateful recovery.
    const auto spot = runOne("SpotServe");
    const auto repar = runOne("Reparallelization");
    auto window_max = [](const serving::ExperimentResult &r) {
        double mx = 0.0;
        for (const auto &c : r.perRequest) {
            if (c.arrival >= 200.0 && c.arrival <= 500.0)
                mx = std::max(mx, c.latency);
        }
        return mx;
    };
    EXPECT_LT(window_max(spot), window_max(repar));
}

TEST(StatefulRecoveryTest, MigrationStatsExposed)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = onePreemption();
    sim::Rng rng(21);
    const auto workload =
        wl::stationaryGamma(0.35, 2.0, trace.duration(), kSeq, rng);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.designArrivalRate = 0.35;
    core::SpotServeSystem system(sim, instances, requests, spec, kParams,
                                 kSeq, options);
    instances.setListener(&system);
    instances.loadTrace(trace);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(trace.duration() + 600.0);

    EXPECT_GE(system.migrationsCompleted(), 2); // initial + preemption
    // The reconfiguration reused live context (re-sharding M=8 -> M=4
    // keeps ~1/8 of each new shard in place; the rest moves over NCCL).
    EXPECT_GT(system.totalBytesReused(), 0.0);
    EXPECT_GT(system.totalBytesMigrated(), 0.0);
    EXPECT_GT(system.totalMigrationStall(), 0.0);
}

/**
 * Fleet-scale wave churn: 64 instances; from t = 180 s four get a
 * preemption notice every 120 s and four replacements join 60 s after
 * each notice.
 */
AvailabilityTrace
waveChurn()
{
    const double duration = 1800.0;
    std::vector<TraceEvent> events{
        {0.0, TraceEventKind::Join, InstanceType::Spot, 64}};
    for (double t = 180.0; t < duration; t += 120.0) {
        events.push_back({t, TraceEventKind::PreemptNotice,
                          InstanceType::Spot, 4});
        if (t + 60.0 < duration)
            events.push_back(
                {t + 60.0, TraceEventKind::Join, InstanceType::Spot, 4});
    }
    return AvailabilityTrace("wave64", duration, std::move(events));
}

TEST(StatefulRecoveryTest, SimultaneousResumesEachLoadTheirOwnBatch)
{
    // On this seed two replicas come online at the same progressive-
    // resume instant.  The first one's dispatch must not deal queued work
    // to the second, whose own resume event then loads its inherited
    // batch — that used to throw "InferencePipeline::startBatch: not
    // idle".
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = waveChurn();
    sim::Rng rng(2);
    const auto workload =
        wl::stationaryGamma(4.0, 2.0, trace.duration(), kSeq, rng);
    core::SpotServeOptions options;
    options.designArrivalRate = 4.0;
    serving::ExperimentResult r;
    ASSERT_NO_THROW(r = serving::runExperiment(
                        spec, kParams, trace, workload,
                        presets::spotServeFactory(spec, kParams, kSeq,
                                                  options)));
    EXPECT_EQ(serving::auditDrainedRun(r), "");
}

} // namespace
} // namespace spotserve
