/**
 * @file
 * Tests for the parallelization controller (Algorithm 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "core/controller.h"
#include "serving/request_manager.h"
#include "simcore/simulation.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

ParallelizationController
gptController()
{
    return ParallelizationController(model::ModelSpec::gpt20b(), kParams,
                                     kSeq);
}

TEST(ControllerTest, NoInstancesNoConfig)
{
    auto ctrl = gptController();
    EXPECT_FALSE(ctrl.chooseConfig(0, 0.35).has_value());
    // GPT-20B needs 12 GPUs = 3 instances.
    EXPECT_FALSE(ctrl.chooseConfig(2, 0.35).has_value());
    EXPECT_TRUE(ctrl.chooseConfig(3, 0.35).has_value());
}

TEST(ControllerTest, MeetsDemandWhenPossible)
{
    auto ctrl = gptController();
    const auto d = ctrl.chooseConfig(8, 0.35);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->meetsDemand);
    EXPECT_GE(d->throughput, 0.35);
    EXPECT_LE(d->instancesNeeded, 8);
}

TEST(ControllerTest, PicksPaperConfigAtHighAvailability)
{
    // §6.2: with >= 8 instances, GPT-20B's minimum-latency configuration
    // is (D=2, P=2, M=8) at B=8.
    auto ctrl = gptController();
    const auto d = ctrl.chooseConfig(10, 0.35);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->config.pp, 2);
    EXPECT_EQ(d->config.tp, 8);
    EXPECT_GE(d->config.dp, 2);
}

TEST(ControllerTest, FallsBackToSmallerParallelismWhenScarce)
{
    // With 6 instances (24 GPUs), (2,2,8) does not fit; the paper's
    // fallback shape is (2,3,4) = 24 GPUs.
    auto ctrl = gptController();
    const auto d = ctrl.chooseConfig(6, 0.35);
    ASSERT_TRUE(d.has_value());
    EXPECT_LE(d->instancesNeeded, 6);
    EXPECT_TRUE(d->meetsDemand);
}

TEST(ControllerTest, MaximizesThroughputWhenOverloaded)
{
    auto ctrl = gptController();
    // Demand far above anything 3 instances can do: line 5 applies.
    const auto d = ctrl.chooseConfig(3, 50.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->meetsDemand);
    // The decision must be the throughput-maximal feasible config.
    const auto all = ctrl.space().enumerate(3);
    double best_phi = 0.0;
    for (const auto &c : all) {
        best_phi =
            std::max(best_phi, ctrl.throughputModel().throughput(c, kSeq));
    }
    EXPECT_NEAR(d->throughput, best_phi, 1e-9);
}

TEST(ControllerTest, ZeroRatePrefersFewInstances)
{
    auto ctrl = gptController();
    const auto d = ctrl.chooseConfig(12, 0.0);
    ASSERT_TRUE(d.has_value());
    // With no demand, the latency-minimal band is taken by the cheapest
    // member: no data parallelism needed.
    EXPECT_EQ(d->config.dp, 1);
    EXPECT_EQ(d->config.batch, 1);
}

TEST(ControllerTest, MoreDemandMoreReplicas)
{
    auto ctrl = gptController();
    const auto low = ctrl.chooseConfig(12, 0.1);
    const auto high = ctrl.chooseConfig(12, 0.8);
    ASSERT_TRUE(low.has_value());
    ASSERT_TRUE(high.has_value());
    EXPECT_GE(high->config.concurrentRequests(),
              low->config.concurrentRequests());
    EXPECT_GE(high->throughput, 0.8);
}

TEST(ControllerTest, DecisionIsDeterministic)
{
    auto ctrl = gptController();
    for (int n : {3, 5, 8, 12}) {
        const auto a = ctrl.chooseConfig(n, 0.35);
        const auto b = ctrl.chooseConfig(n, 0.35);
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ(a->config, b->config);
    }
}

TEST(ControllerTest, MonotoneInInstances)
{
    // More instances never hurt the achievable estimated latency.
    auto ctrl = gptController();
    double prev = std::numeric_limits<double>::infinity();
    for (int n : {3, 4, 6, 8, 10, 12}) {
        const auto d = ctrl.chooseConfig(n, 0.35);
        ASSERT_TRUE(d.has_value());
        EXPECT_LE(d->estimatedLatency, prev * 1.0001) << "n=" << n;
        prev = d->estimatedLatency;
    }
}

TEST(WorthReconfiguringTest, GatesMarginalChanges)
{
    const auto ctrl = gptController();
    const auto &thr = ctrl.throughputModel();

    par::ParallelConfig current{2, 2, 8, 8};
    ControllerDecision d;
    d.config = current;
    // Identical config: never worth it.
    EXPECT_FALSE(ctrl.worthReconfiguring(current, d, 0.35, 0.35, 0));

    // A change that does NOT substantially improve latency: gated.
    d.config = par::ParallelConfig{2, 3, 4, 8};
    d.throughput = thr.throughput(d.config, kSeq);
    d.estimatedLatency = thr.requestLatency(d.config, kSeq, 0.35, 6.0);
    ASSERT_GT(d.estimatedLatency,
              0.8 * thr.requestLatency(current, kSeq, 0.35, 6.0));
    EXPECT_FALSE(ctrl.worthReconfiguring(current, d, 0.35, 0.35, 0));

    // Sustained demand above capacity: must act.
    const double phi = thr.throughput(current, kSeq);
    EXPECT_TRUE(
        ctrl.worthReconfiguring(current, d, phi * 2.0, phi * 2.0, 0));

    // Backlog alone only matters with a real capacity bump.
    EXPECT_FALSE(ctrl.worthReconfiguring(current, d, 0.35, 0.35, 500));
    ControllerDecision big = d;
    big.config = par::ParallelConfig{4, 2, 8, 8};
    big.throughput = 2.0 * phi;
    big.estimatedLatency = d.estimatedLatency;
    EXPECT_TRUE(ctrl.worthReconfiguring(current, big, 0.35, 0.35, 500));
}

/** The workload monitor's hysteresis over one controller. */
class ReconfigPolicyTest : public ::testing::Test
{
  protected:
    const par::ParallelConfig current{2, 2, 8, 8};

    /** A suggestion passing the gate on latency alone (no overload). */
    ControllerDecision better(const par::ParallelConfig &config) const
    {
        ControllerDecision d;
        d.config = config;
        d.throughput = ctrl.throughputModel().throughput(config, kSeq);
        d.estimatedLatency = 0.5 * ctrl.throughputModel().requestLatency(
                                       current, kSeq, 0.35, 6.0);
        d.meetsDemand = true;
        return d;
    }

    sim::Simulation sim;
    serving::RequestManager requests{sim};
    ParallelizationController ctrl = gptController();
    ReconfigPolicy policy{ctrl, requests, 0.35};
};

TEST_F(ReconfigPolicyTest, PlanningRateIsTheFlooredLongEstimate)
{
    // No arrivals yet: the declared design rate.
    EXPECT_DOUBLE_EQ(policy.planningRate(), 0.35);
    // 2 req/s over the last 120 s lifts it to the estimate.
    for (int i = 0; i < 240; ++i) {
        sim.schedule(i * 0.5, [this, i] {
            wl::Request r;
            r.id = i;
            r.arrival = i * 0.5;
            requests.submit(r);
        });
    }
    sim.run(120.0);
    EXPECT_NEAR(policy.planningRate(), 2.0, 1e-9);
}

TEST_F(ReconfigPolicyTest, OverloadActsOnTheFirstCheck)
{
    const double phi = ctrl.throughputModel().throughput(current, kSeq);
    ReconfigPolicy overloaded(ctrl, requests, 2.0 * phi);
    ControllerDecision big = better(par::ParallelConfig{4, 2, 8, 8});
    EXPECT_EQ(overloaded.periodic(current, big, 2.0 * phi),
              std::optional<std::string>("overload detected"));
}

TEST_F(ReconfigPolicyTest, WorkloadChangeNeedsTwoIdenticalChecks)
{
    const auto a = better(par::ParallelConfig{2, 3, 4, 8});
    EXPECT_TRUE(policy.worthChanging(current, a, 0.35));
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, a, 0.35),
              std::optional<std::string>("workload change"));
    // Acting resets the count: the next identical check starts over.
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
}

TEST_F(ReconfigPolicyTest, DifferentSuggestionRestartsTheCount)
{
    const auto a = better(par::ParallelConfig{2, 3, 4, 8});
    const auto b = better(par::ParallelConfig{1, 2, 8, 8});
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, b, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, a, 0.35),
              std::optional<std::string>("workload change"));
}

TEST_F(ReconfigPolicyTest, CurrentConfigOrNoDecisionResets)
{
    const auto a = better(par::ParallelConfig{2, 3, 4, 8});
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, better(current), 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, std::nullopt, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, a, 0.35), std::nullopt);
    EXPECT_EQ(policy.periodic(current, a, 0.35),
              std::optional<std::string>("workload change"));
}

/**
 * Reference (pre-memoisation, pre-pruning) chooseConfig: the literal
 * any-meets / SLO / band / max-phi scans over the UNPRUNED candidate
 * space, re-evaluating throughput() and requestLatency() at every use
 * exactly like the old implementation did.  The memoised production path
 * — cross-invocation caches plus dominance pruning — must make
 * byte-identical decisions.  The only shared quantisation is the alpha
 * bucket, which the production path applies before any evaluation.
 */
std::optional<ControllerDecision>
referenceChoose(const cost::ConfigSpace &space,
                const cost::ThroughputModel &thr,
                const ControllerOptions &options, int instances, double rate)
{
    rate = ParallelizationController::bucketAlpha(rate);
    const auto candidates = space.enumerateAll(instances);
    if (candidates.empty())
        return std::nullopt;
    auto prefer = [&space](const par::ParallelConfig &a,
                           const par::ParallelConfig &b) {
        const int ia = space.instancesNeeded(a);
        const int ib = space.instancesNeeded(b);
        if (ia != ib)
            return ia < ib;
        if (a.totalGpus() != b.totalGpus())
            return a.totalGpus() < b.totalGpus();
        if (a.pp != b.pp)
            return a.pp < b.pp;
        if (a.batch != b.batch)
            return a.batch < b.batch;
        return a.tp < b.tp;
    };
    bool any_meets = false;
    double best_latency = std::numeric_limits<double>::infinity();
    for (const auto &c : candidates) {
        const double phi = thr.throughput(c, kSeq);
        if (phi >= rate) {
            any_meets = true;
            best_latency = std::min(
                best_latency,
                thr.requestLatency(c, kSeq, rate, options.arrivalCv));
        }
    }
    ControllerDecision best;
    bool have = false;
    if (any_meets && options.sloLatency > 0.0) {
        for (const auto &c : candidates) {
            const double phi = thr.throughput(c, kSeq);
            if (phi < rate)
                continue;
            const double l =
                thr.requestLatency(c, kSeq, rate, options.arrivalCv);
            if (l > options.sloLatency)
                continue;
            if (!have || prefer(c, best.config)) {
                best = ControllerDecision{c, l, phi, true,
                                          space.instancesNeeded(c)};
                have = true;
            }
        }
        if (have)
            return best;
    }
    if (any_meets) {
        const double band =
            best_latency * ParallelizationController::kSimilarLatencyFactor;
        for (const auto &c : candidates) {
            const double phi = thr.throughput(c, kSeq);
            if (phi < rate)
                continue;
            const double l =
                thr.requestLatency(c, kSeq, rate, options.arrivalCv);
            if (l > band)
                continue;
            if (!have || prefer(c, best.config)) {
                best = ControllerDecision{c, l, phi, true,
                                          space.instancesNeeded(c)};
                have = true;
            }
        }
    } else {
        double best_phi = -1.0;
        for (const auto &c : candidates) {
            const double phi = thr.throughput(c, kSeq);
            const bool better =
                phi > best_phi * (1.0 + 1e-9) ||
                (std::abs(phi - best_phi) <= best_phi * 1e-9 && have &&
                 prefer(c, best.config));
            if (!have || better) {
                best = ControllerDecision{
                    c, std::numeric_limits<double>::infinity(), phi, false,
                    space.instancesNeeded(c)};
                best_phi = std::max(best_phi, phi);
                have = true;
            }
        }
    }
    if (!have)
        return std::nullopt;
    return best;
}

TEST(ControllerTest, MemoisedSweepMatchesReferenceByteForByte)
{
    // Regression for the memoised + dominance-pruned candidate
    // evaluation: across models, fleet sizes, arrival rates and both
    // objectives (latency and SLO), the decision must be byte-identical
    // to the reference scans over the unpruned space.  Each (n, rate)
    // pair is queried twice so both the cold and the warm (fully cached)
    // sweep are pinned.
    for (const auto &spec :
         {model::ModelSpec::opt6_7b(), model::ModelSpec::gpt20b()}) {
        for (double slo : {0.0, 20.0}) {
            ControllerOptions options;
            options.sloLatency = slo;
            ParallelizationController ctrl(spec, kParams, kSeq, {}, options);
            // referenceChoose sweeps its unpruned enumerateAll().
            cost::ConfigSpace reference_space(spec, kParams, kSeq);
            for (int n = 0; n <= 8; ++n) {
                for (double rate :
                     {0.0, 0.05, 0.2, 0.35, 0.7, 1.5, 3.0, 10.0}) {
                    auto got = ctrl.chooseConfig(n, rate);
                    const auto warm = ctrl.chooseConfig(n, rate);
                    ASSERT_EQ(got.has_value(), warm.has_value());
                    if (got) {
                        EXPECT_EQ(got->config, warm->config);
                        EXPECT_EQ(got->estimatedLatency,
                                  warm->estimatedLatency);
                        EXPECT_GE(got->instancesNeeded, 0);
                        EXPECT_LE(ctrl.lastSweepStats().coldEvals, 0u)
                            << "warm sweep re-evaluated candidates";
                    }
                    const auto want =
                        referenceChoose(reference_space,
                                        ctrl.throughputModel(), options, n,
                                        rate);
                    ASSERT_EQ(got.has_value(), want.has_value())
                        << spec.name() << " n=" << n << " rate=" << rate
                        << " slo=" << slo;
                    if (!got)
                        continue;
                    EXPECT_EQ(got->config, want->config)
                        << spec.name() << " n=" << n << " rate=" << rate
                        << " slo=" << slo;
                    EXPECT_EQ(got->estimatedLatency, want->estimatedLatency);
                    EXPECT_EQ(got->throughput, want->throughput);
                    EXPECT_EQ(got->meetsDemand, want->meetsDemand);
                    EXPECT_EQ(got->instancesNeeded, want->instancesNeeded);
                }
            }
        }
    }
}

TEST(ControllerTest, MemoisedSweepIsTwiceAsFastAtFleetScale)
{
    // The memoised sweep pays off at 128 instances: cold must take at
    // least twice as long as warm.  Both sides are best-of-k, so a load
    // spike on a shared machine inflates neither: cold is the fastest of
    // k fresh controllers' first sweep, warm the fastest per-sweep mean
    // of k batches of repeat sweeps on one controller.  The
    // deterministic form of the same claim: the warm sweep evaluates no
    // candidate and returns the cold decision.
    const int n = 128;
    const double rate = 0.35;
    const int k = 5;
    using Clock = std::chrono::steady_clock;
    auto seconds_since = [](Clock::time_point start) {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    double cold = std::numeric_limits<double>::infinity();
    for (int i = 0; i < k; ++i) {
        auto ctrl = gptController();
        const auto t0 = Clock::now();
        const auto d = ctrl.chooseConfig(n, rate);
        cold = std::min(cold, seconds_since(t0));
        ASSERT_TRUE(d.has_value());
        EXPECT_GT(ctrl.lastSweepStats().coldEvals, 0u);
    }

    auto ctrl = gptController();
    const auto first = ctrl.chooseConfig(n, rate);
    ASSERT_TRUE(first.has_value());
    const int sweeps_per_batch = 10;
    std::optional<ControllerDecision> last;
    std::size_t warm_cold_evals = 0;
    double warm = std::numeric_limits<double>::infinity();
    for (int i = 0; i < k; ++i) {
        const auto t0 = Clock::now();
        for (int j = 0; j < sweeps_per_batch; ++j) {
            last = ctrl.chooseConfig(n, rate);
            warm_cold_evals += ctrl.lastSweepStats().coldEvals;
        }
        warm = std::min(warm, seconds_since(t0) / sweeps_per_batch);
    }

    EXPECT_EQ(warm_cold_evals, 0u) << "warm sweeps re-evaluated candidates";
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->config, first->config);
    EXPECT_EQ(last->estimatedLatency, first->estimatedLatency);

    EXPECT_GE(cold, 2.0 * warm)
        << "memoised sweep " << warm * 1e3 << " ms vs cold " << cold * 1e3
        << " ms at " << n << " instances";
}

TEST(ControllerTest, FeasibleSetHonoursMemOptPlannerFlag)
{
    cost::ConfigSpaceOptions naive;
    naive.memOptPlanner = false;
    ParallelizationController without(model::ModelSpec::gpt20b(), kParams,
                                      kSeq, naive);
    // Without the memory-optimised planner, GPT-20B needs 16 GPUs = 4
    // instances (§6.2).
    EXPECT_FALSE(without.chooseConfig(3, 0.35).has_value());
    EXPECT_TRUE(without.chooseConfig(4, 0.35).has_value());
}

} // namespace
} // namespace spotserve::core
