/**
 * @file
 * Robustness sweeps: every ablation-switch combination must survive the
 * hostile trace; the latency model must keep its monotonicity properties
 * across every model and parallelism.
 */

#include <gtest/gtest.h>

#include "closed_forms.h"
#include "cluster/trace_library.h"
#include "costmodel/latency_model.h"
#include "serving/presets.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

/**
 * All 16 combinations of the four Figure 9 switches.  Every combination
 * is a supported operating mode and must complete the full hostile-trace
 * workload without deadlocks or lost requests.
 */
class AblationComboSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AblationComboSweep, CompletesHostileTrace)
{
    const int mask = GetParam();
    core::SpotServeOptions options;
    options.enableController = mask & 1;
    options.enableDeviceMapper = mask & 2;
    options.enableMigrationPlanner = mask & 4;
    options.enableArranger = mask & 8;
    options.designArrivalRate = 0.35;

    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = cluster::traceBS();
    sim::Rng rng(7);
    const auto workload =
        wl::stationaryGamma(0.35, 6.0, trace.duration(), kSeq, rng);
    const auto factory =
        presets::spotServeFactory(spec, kParams, kSeq, options);
    const auto r =
        serving::runExperiment(spec, kParams, trace, workload, factory);
    EXPECT_EQ(serving::auditDrainedRun(r), "") << "mask=" << mask;
    EXPECT_EQ(r.rejected, 0) << "mask=" << mask;
}

INSTANTIATE_TEST_SUITE_P(AllSwitches, AblationComboSweep,
                         ::testing::Range(0, 16));

/** Latency-model monotonicity across every evaluated model. */
class ModelSweep : public ::testing::TestWithParam<int>
{
  protected:
    model::ModelSpec
    spec() const
    {
        return presets::evaluatedModels()[GetParam()];
    }
};

TEST_P(ModelSweep, DecodeMonotoneInContextAndBatch)
{
    cost::LatencyModel lat(spec(), kParams);
    for (int tp : {1, 2, 4, 8}) {
        par::ParallelConfig c{1, 2, tp, 1};
        double prev = 0.0;
        for (int ctx : {1, 256, 512, 1024}) {
            const double t = lat.decodeIterTime(c, ctx);
            EXPECT_GT(t, prev) << "tp=" << tp << " ctx=" << ctx;
            prev = t;
        }
        prev = 0.0;
        for (int b : {1, 2, 4, 8}) {
            par::ParallelConfig cb{1, 2, tp, b};
            const double t = lat.decodeIterTime(cb, 512);
            EXPECT_GT(t, prev) << "tp=" << tp << " b=" << b;
            prev = t;
        }
    }
}

TEST_P(ModelSweep, PipelineDepthAddsOnlyCommunication)
{
    // Splitting into more stages keeps the weight traffic constant; the
    // per-iteration delta is bounded by the extra hand-offs.
    cost::LatencyModel lat(spec(), kParams);
    const double p1 = lat.decodeIterTime(par::ParallelConfig{1, 1, 4, 1},
                                         512);
    const double p4 = lat.decodeIterTime(par::ParallelConfig{1, 4, 4, 1},
                                         512);
    EXPECT_GT(p4, p1);
    EXPECT_LT(p4 - p1, 0.05 * p1 + 0.01);
}

TEST_P(ModelSweep, ThroughputMonotoneInBatch)
{
    cost::LatencyModel lat(spec(), kParams);
    cost::ThroughputModel thr(lat);
    cost::MemoryModel mem(spec(), kParams);
    double prev = 0.0;
    for (int b : {1, 2, 4, 8}) {
        par::ParallelConfig c{1, 2, 8, b};
        if (!mem.fits(c, kSeq))
            continue;
        const double phi = thr.throughput(c, kSeq);
        EXPECT_GT(phi, prev) << "b=" << b;
        prev = phi;
    }
}

TEST_P(ModelSweep, ColdLoadScalesInverselyWithParallelism)
{
    cost::LatencyModel lat(spec(), kParams);
    const double narrow =
        coldLoadTime(lat, par::ParallelConfig{1, 2, 4, 1});
    const double wide = coldLoadTime(lat, par::ParallelConfig{1, 2, 8, 1});
    EXPECT_GT(narrow, wide);
}

INSTANTIATE_TEST_SUITE_P(Models, ModelSweep, ::testing::Range(0, 3));

/** Every system finishes every Figure 5 trace for the small model. */
class TraceSystemSweep
    : public ::testing::TestWithParam<std::tuple<int, const char *>>
{
};

TEST_P(TraceSystemSweep, CompletesEverything)
{
    const auto [trace_idx, system] = GetParam();
    const auto trace = cluster::figure5Traces()[trace_idx];
    const auto spec = model::ModelSpec::opt6_7b();
    const auto r = presets::runStable(spec, trace, system);
    EXPECT_EQ(serving::auditDrainedRun(r), "")
        << system << " on " << trace.name();
    EXPECT_GT(r.costUsd, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TraceSystemSweep,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values("SpotServe", "Reparallelization",
                                         "Rerouting")));

} // namespace
} // namespace spotserve
