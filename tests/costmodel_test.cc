/**
 * @file
 * Tests for the analytical cost model: Table 1 calibration, memory
 * feasibility (min-GPU counts), throughput, migration cost, and the
 * configuration space.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "closed_forms.h"
#include "costmodel/config_space.h"
#include "costmodel/latency_model.h"
#include "costmodel/memory_model.h"
#include "costmodel/migration_cost.h"
#include "costmodel/throughput_model.h"
#include "engine/active_request.h"
#include "model/model_spec.h"

namespace spotserve::cost {
namespace {

using model::ModelSpec;
using par::ParallelConfig;

const CostParams kParams = CostParams::awsG4dn();
const SeqSpec kSeq{};

/**
 * Table 1 calibration: l_exe(B=1) with S_in=512, S_out=128 at the paper's
 * minimal parallelism must land within 10% of the measured values.
 */
struct Table1Row
{
    const char *name;
    int pp;
    int tp;
    double lexe;
    int minGpus;
};

class Table1Calibration : public ::testing::TestWithParam<Table1Row>
{
  protected:
    static ModelSpec
    specFor(const std::string &name)
    {
        if (name == "OPT-6.7B")
            return ModelSpec::opt6_7b();
        if (name == "GPT-20B")
            return ModelSpec::gpt20b();
        return ModelSpec::llama30b();
    }
};

TEST_P(Table1Calibration, ExecLatencyWithinTenPercent)
{
    const auto row = GetParam();
    const auto spec = specFor(row.name);
    LatencyModel lat(spec, kParams);
    ParallelConfig c{1, row.pp, row.tp, 1};
    const double estimated = lat.execLatency(c, kSeq);
    EXPECT_NEAR(estimated, row.lexe, 0.10 * row.lexe)
        << row.name << " " << c.str();
}

TEST_P(Table1Calibration, MinGpusMatch)
{
    const auto row = GetParam();
    const auto spec = specFor(row.name);
    MemoryModel mem(spec, kParams);
    EXPECT_EQ(mem.minGpus(/*mem_opt_planner=*/true), row.minGpus)
        << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Table1Calibration,
    ::testing::Values(Table1Row{"OPT-6.7B", 1, 4, 5.447, 4},
                      Table1Row{"GPT-20B", 3, 4, 14.373, 12},
                      Table1Row{"LLaMA-30B", 2, 8, 17.540, 16}));

TEST(MemoryModelTest, NaivePlannerRaisesGptMinTo16)
{
    // §6.2 ablation: the memory-optimised migration planner reduces the
    // minimum GPUs for GPT-20B from 16 to 12.
    MemoryModel mem(ModelSpec::gpt20b(), kParams);
    EXPECT_EQ(mem.minGpus(true), 12);
    EXPECT_EQ(mem.minGpus(false), 16);
}

TEST(MemoryModelTest, SteadyBytesDecomposition)
{
    MemoryModel mem(ModelSpec::gpt20b(), kParams);
    ParallelConfig c{1, 3, 4, 8};
    EXPECT_DOUBLE_EQ(mem.steadyBytes(c, kSeq),
                     mem.weightShardBytes(c) + mem.kvCacheBytes(c, kSeq) +
                         kParams.workspaceBytes);
    // GPT-20B's 44 layers at P = 3 put ceil(44/3) = 15 layers on the
    // bottleneck stage: the binding GPU holds 15 layers' weights sharded
    // M = 4 ways, NOT the W/(P*M) = W/12 average (which under-counts it).
    EXPECT_NEAR(mem.weightShardBytes(c),
                ModelSpec::gpt20b().layerWeightBytes() * 15 / 4, 1.0);
    EXPECT_GT(mem.weightShardBytes(c),
              ModelSpec::gpt20b().totalWeightBytes() / 12);
}

TEST(MemoryModelTest, BottleneckStageSizingWhenLayersDontDivide)
{
    // For every config with L % P != 0 the per-GPU accounting must size
    // the largest stage (ceil(L/P) layers); with L % P == 0 it must
    // reduce exactly to the uniform W/(P*M) split.  The satellite
    // acceptance check: the bottleneck stage's modeled bytes fit the GPU
    // line for every config the budget calls feasible.
    for (const auto &spec :
         {ModelSpec::opt6_7b(), ModelSpec::gpt20b(), ModelSpec::llama30b()}) {
        MemoryModel mem(spec, kParams);
        for (int pp : {1, 2, 3, 4, 6, 8}) {
            if (spec.numLayers() < pp)
                continue;
            for (int tp : {1, 2, 4, 8}) {
                const ParallelConfig c{1, pp, tp, 8};
                const int bottleneck = (spec.numLayers() + pp - 1) / pp;
                EXPECT_NEAR(mem.weightShardBytes(c),
                            spec.layerWeightBytes() * bottleneck / tp, 1.0)
                    << spec.name() << " " << c.str();
                if (spec.numLayers() % pp == 0) {
                    EXPECT_NEAR(mem.weightShardBytes(c),
                                spec.totalWeightBytes() / (pp * tp), 1.0)
                        << spec.name() << " " << c.str();
                } else {
                    EXPECT_GT(mem.weightShardBytes(c),
                              spec.totalWeightBytes() / (pp * tp))
                        << spec.name() << " " << c.str();
                }
                // KV per token scales with the same bottleneck layers.
                EXPECT_NEAR(mem.kvCacheBytes(c, kSeq),
                            c.batch * spec.kvBytesPerTokenPerLayer() *
                                bottleneck *
                                (kSeq.inputLen + kSeq.outputLen) / tp,
                            1.0)
                    << spec.name() << " " << c.str();
                // Acceptance: wherever the budget is positive, the
                // bottleneck stage's modeled bytes at that budget fit
                // the per-GPU memory line.
                const long budget = mem.kvBudgetTokens(c);
                if (budget > 0) {
                    const double kv_bytes =
                        static_cast<double>(budget) *
                        spec.kvBytesPerTokenPerLayer() * bottleneck / tp;
                    EXPECT_LE(mem.weightShardBytes(c) + kv_bytes +
                                  kParams.workspaceBytes +
                                  mem.migrationReserveBytes(c, true),
                              kParams.gpu.memBytes * (1.0 + 1e-9))
                        << spec.name() << " " << c.str();
                }
            }
        }
    }
}

TEST(MemoryModelTest, KvBudgetBlocksFloorsToWholeBlocks)
{
    MemoryModel mem(ModelSpec::opt6_7b(), kParams);
    const ParallelConfig c{1, 2, 4, 8};
    const long blk = engine::kKvBlockTokens;
    for (const bool mem_opt : {true, false}) {
        const long tokens = mem.kvBudgetTokens(c, mem_opt);
        ASSERT_GT(tokens, 0);
        ASSERT_NE(tokens % blk, 0) << "pick a budget with a partial block";
        const long blocks = mem.kvBudgetBlocks(c, mem_opt);
        // Floor, never round up: whole blocks only...
        EXPECT_EQ(blocks, tokens / blk) << "mem_opt " << mem_opt;
        // ...so the block budget never promises more tokens than exist,
        // and drops only the final partial block.
        EXPECT_LE(blocks * blk, tokens) << "mem_opt " << mem_opt;
        EXPECT_GT((blocks + 1) * blk, tokens) << "mem_opt " << mem_opt;
    }
}

TEST(MemoryModelTest, KvScalesWithBatch)
{
    MemoryModel mem(ModelSpec::opt6_7b(), kParams);
    ParallelConfig b1{1, 1, 4, 1};
    ParallelConfig b8{1, 1, 4, 8};
    EXPECT_NEAR(mem.kvCacheBytes(b8, kSeq), 8 * mem.kvCacheBytes(b1, kSeq),
                1.0);
}

TEST(MemoryModelTest, MigrationReserve)
{
    MemoryModel mem(ModelSpec::gpt20b(), kParams);
    ParallelConfig c{1, 3, 4, 1};
    EXPECT_DOUBLE_EQ(mem.migrationReserveBytes(c, true),
                     kParams.migrationBufferBytes);
    EXPECT_DOUBLE_EQ(mem.migrationReserveBytes(c, false),
                     mem.weightShardBytes(c));
}

TEST(LatencyModelTest, DecodeMonotoneInContext)
{
    LatencyModel lat(ModelSpec::gpt20b(), kParams);
    ParallelConfig c{1, 2, 8, 4};
    double prev = 0.0;
    for (int ctx : {1, 128, 512, 640, 2048}) {
        const double t = lat.decodeIterTime(c, ctx);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(LatencyModelTest, DecodeSlowerWithBiggerBatch)
{
    LatencyModel lat(ModelSpec::gpt20b(), kParams);
    for (int b = 2; b <= 8; b *= 2) {
        ParallelConfig small{1, 2, 8, b / 2};
        ParallelConfig big{1, 2, 8, b};
        EXPECT_GT(lat.decodeIterTime(big, 512),
                  lat.decodeIterTime(small, 512));
    }
}

TEST(LatencyModelTest, MoreShardsFasterPerIteration)
{
    // More tensor shards split the weight traffic (despite the
    // over-sharding penalty, the net effect on T4s is positive).
    LatencyModel lat(ModelSpec::gpt20b(), kParams);
    EXPECT_GT(lat.decodeIterTime(ParallelConfig{1, 2, 2, 1}, 512),
              lat.decodeIterTime(ParallelConfig{1, 2, 4, 1}, 512));
    EXPECT_GT(lat.decodeIterTime(ParallelConfig{1, 2, 4, 1}, 512),
              lat.decodeIterTime(ParallelConfig{1, 2, 8, 1}, 512));
}

TEST(LatencyModelTest, ShardingEfficiencyDecreases)
{
    LatencyModel lat(ModelSpec::opt6_7b(), kParams);
    EXPECT_GT(lat.memEfficiency(1), lat.memEfficiency(2));
    EXPECT_GT(lat.memEfficiency(2), lat.memEfficiency(4));
    EXPECT_GT(lat.memEfficiency(4), lat.memEfficiency(8));
    EXPECT_THROW(lat.memEfficiency(0), std::invalid_argument);
}

TEST(LatencyModelTest, AllReduceProperties)
{
    LatencyModel lat(ModelSpec::opt6_7b(), kParams);
    EXPECT_DOUBLE_EQ(lat.allReduceTime(1, 1e6), 0.0);
    // Crossing instances costs more than staying inside one.
    EXPECT_GT(lat.allReduceTime(8, 8192), lat.allReduceTime(4, 8192));
    // More bytes cost more.
    EXPECT_GT(lat.allReduceTime(4, 1e8), lat.allReduceTime(4, 1e3));
}

TEST(LatencyModelTest, ExecLatencyDecomposes)
{
    LatencyModel lat(ModelSpec::opt6_7b(), kParams);
    ParallelConfig c{1, 1, 4, 1};
    const double total = lat.execLatency(c, kSeq);
    const double manual = lat.prefillTime(c, kSeq.inputLen) +
                          lat.decodeSpanTime(c, kSeq.inputLen + 1,
                                             kSeq.outputLen);
    EXPECT_NEAR(total, manual, 1e-9);
}

TEST(LatencyModelTest, DecodeSpanMatchesIterationSum)
{
    LatencyModel lat(ModelSpec::opt6_7b(), kParams);
    ParallelConfig c{1, 1, 4, 2};
    double manual = 0.0;
    for (int k = 0; k < 16; ++k)
        manual += lat.decodeIterTime(c, 513 + k);
    EXPECT_NEAR(lat.decodeSpanTime(c, 513, 16), manual, 1e-9);
    EXPECT_DOUBLE_EQ(lat.decodeSpanTime(c, 513, 0), 0.0);
}

TEST(LatencyModelTest, DecodeStepIsTheReferenceSumBitForBit)
{
    // The engine prices a decode-only step from a DecodeStep cached per
    // batch shape, so its sum must stay the exact double of the
    // term-by-term formula, added left to right.  A regrouped sum moves
    // some prices in the last bits, which adding a step to the simulated
    // clock usually rounds away, so only an exact check guards the order.
    for (const ModelSpec &spec :
         {ModelSpec::opt6_7b(), ModelSpec::gpt20b(), ModelSpec::llama30b()}) {
        LatencyModel lat(spec, kParams);
        const int layers = spec.numLayers();
        for (int tp : {1, 2, 4, 8}) {
            for (int pp = 1; pp <= 4; ++pp) {
                for (int batch = 1; batch <= 32; ++batch) {
                    const ParallelConfig c{1, pp, tp, batch};
                    const LatencyModel::DecodeStep step = lat.decodeStep(c);
                    const double eff_bw =
                        kParams.gpu.memBandwidth * lat.memEfficiency(tp) /
                        (1.0 + kParams.batchMemPenalty * (batch - 1));
                    const double weight_read =
                        spec.totalWeightBytes() / (tp * eff_bw);
                    const double act_bytes =
                        static_cast<double>(batch) * spec.hiddenDim() * 2.0;
                    const double comm =
                        2.0 * layers * lat.allReduceTime(tp, act_bytes);
                    const double pipe = (pp - 1) * lat.p2pTime(c, act_bytes);
                    const double kernels = layers * kParams.kernelOverhead;
                    for (int ctx : {1, 16, 17, 512, 2047, 4096}) {
                        const double reference =
                            weight_read + lat.kvReadTime(c, batch, ctx) +
                            comm + pipe + kernels;
                        EXPECT_EQ(lat.decodeIterTime(c, ctx), reference)
                            << spec.name() << " tp " << tp << " pp " << pp
                            << " batch " << batch << " ctx " << ctx;
                        EXPECT_EQ(step.at(ctx), reference)
                            << spec.name() << " tp " << tp << " pp " << pp
                            << " batch " << batch << " ctx " << ctx;
                    }
                }
            }
        }
    }
    LatencyModel lat(ModelSpec::opt6_7b(), kParams);
    EXPECT_THROW(lat.decodeIterTime(ParallelConfig{1, 1, 4, 2}, 0),
                 std::invalid_argument);
    EXPECT_THROW(lat.decodeIterTime(ParallelConfig{1, 1, 4, 2}, -3),
                 std::invalid_argument);
}

TEST(LatencyModelTest, ColdLoadDominatedByDisk)
{
    LatencyModel lat(ModelSpec::gpt20b(), kParams);
    ParallelConfig c{2, 2, 8, 8};
    const double per_gpu =
        ModelSpec::gpt20b().totalWeightBytes() / c.gpusPerPipeline();
    const double expected = kParams.engineRestartTime +
                            per_gpu * kParams.gpusPerInstance /
                                kParams.diskBandwidth;
    EXPECT_NEAR(coldLoadTime(lat, c), expected, 1e-6);
}

TEST(ThroughputModelTest, ScalesWithReplicas)
{
    LatencyModel lat(ModelSpec::gpt20b(), kParams);
    ThroughputModel thr(lat);
    ParallelConfig one{1, 2, 8, 8};
    ParallelConfig two{2, 2, 8, 8};
    EXPECT_NEAR(thr.throughput(two, kSeq), 2.0 * thr.throughput(one, kSeq),
                1e-9);
}

TEST(ThroughputModelTest, SinglePipelineCannotSustainPaperRates)
{
    // The crossover the paper leans on: one pipeline of GPT-20B at B=8 is
    // overwhelmed by 0.35 req/s with CV-6 burstiness (l_sch explodes),
    // and one LLaMA-30B pipeline sits near its limit at 0.2 req/s.
    LatencyModel gpt(ModelSpec::gpt20b(), kParams);
    ThroughputModel thr(gpt);
    ParallelConfig one{1, 2, 8, 8};
    const double phi = thr.throughput(one, kSeq);
    EXPECT_GT(phi, 0.2);  // close to the arrival rate ...
    EXPECT_LT(phi, 0.35); // ... but not enough: requests stack (§6.2)
    EXPECT_GT(thr.schedulingDelay(one, kSeq, 0.35, 6.0), 30.0);
}

TEST(ThroughputModelTest, OverloadGivesInfiniteDelay)
{
    LatencyModel lat(ModelSpec::gpt20b(), kParams);
    ThroughputModel thr(lat);
    ParallelConfig c{1, 2, 8, 1};
    EXPECT_TRUE(std::isinf(thr.schedulingDelay(c, kSeq, 10.0, 6.0)));
    EXPECT_DOUBLE_EQ(thr.schedulingDelay(c, kSeq, 0.0, 6.0), 0.0);
}

TEST(MigrationCostTest, BottleneckIsBusiestPort)
{
    MigrationCostModel m(kParams);
    // Two disjoint pairs move in parallel; one pair moves twice as much.
    std::vector<Transfer> ts = {{0, 1, 10e9}, {2, 3, 20e9}};
    const double expected =
        kParams.migrationSetupTime + 20e9 / kParams.interBandwidth;
    EXPECT_NEAR(transferTime(m, ts), expected, 1e-9);
}

TEST(MigrationCostTest, IngressAggregatesAcrossSenders)
{
    MigrationCostModel m(kParams);
    std::vector<Transfer> ts = {{0, 2, 10e9}, {1, 2, 10e9}};
    const double expected =
        kParams.migrationSetupTime + 20e9 / kParams.interBandwidth;
    EXPECT_NEAR(transferTime(m, ts), expected, 1e-9);
}

TEST(MigrationCostTest, IntraInstanceUsesPcie)
{
    MigrationCostModel m(kParams);
    std::vector<Transfer> ts = {{0, 0, 16e9}};
    EXPECT_NEAR(transferTime(m, ts),
                kParams.migrationSetupTime + 16e9 / kParams.intraBandwidth,
                1e-9);
}

TEST(MigrationCostTest, EmptyIsFree)
{
    MigrationCostModel m(kParams);
    EXPECT_DOUBLE_EQ(transferTime(m, {}), 0.0);
}

TEST(MigrationCostTest, SerializedCursorChargesSetupOnceAndOverlapsDisks)
{
    MigrationCostModel m(kParams);
    const double setup = kParams.migrationSetupTime;
    const double disk = kParams.diskBandwidth;
    EXPECT_DOUBLE_EQ(m.serializedDuration({}), setup);

    // Wire-bound: three steps back to back after one setup; the small
    // cold loads queue on their own disks from the setup on.
    std::vector<TransferStep> steps(3);
    steps[0].transfers = {{0, 1, 20e9}};
    steps[1].transfers = {{1, 2, 10e9}, {3, 4, 5e9}};
    steps[1].coldLoads = {{5, 0.1e9}};
    steps[2].transfers = {{2, 2, 8e9}};
    steps[2].coldLoads = {{5, 0.1e9}, {6, 0.2e9}};
    const double wire = setup + m.wireTime(steps[0].transfers) +
                        m.wireTime(steps[1].transfers) +
                        m.wireTime(steps[2].transfers);
    ASSERT_GT(wire, setup + 0.2e9 / disk);
    EXPECT_DOUBLE_EQ(m.serializedDuration(steps), wire);

    // Disk-bound: one instance's cold loads queue behind each other and
    // overlap the wire.
    steps[2].coldLoads = {{5, 300e9}};
    EXPECT_DOUBLE_EQ(m.serializedDuration(steps),
                     setup + 0.1e9 / disk + 300e9 / disk);
}

TEST(ConfigSpaceTest, EnumerationRespectsBudget)
{
    ConfigSpace space(ModelSpec::gpt20b(), kParams, kSeq);
    for (int n : {1, 2, 3, 6, 12}) {
        for (const auto &c : space.enumerate(n)) {
            EXPECT_LE(space.instancesNeeded(c), n) << c.str();
            EXPECT_TRUE(space.feasible(c)) << c.str();
        }
        for (const auto &c : space.enumerateAll(n)) {
            EXPECT_LE(space.instancesNeeded(c), n) << c.str();
            EXPECT_TRUE(space.feasible(c)) << c.str();
        }
    }
}

TEST(ConfigSpaceTest, SmallerBudgetEnumeratesTheLargerOneFiltered)
{
    // enumerate(m) for a smaller budget m is exactly enumerate(n)
    // filtered to instancesNeeded <= m: dominance pruning only compares a
    // config with strictly cheaper ones, so what it drops does not depend
    // on the budget.  Callers that pass an upper bound (Algorithm 1
    // lines 2-3) therefore see every config a larger fleet could host,
    // no more and no less.
    ConfigSpace space(ModelSpec::opt6_7b(), kParams, kSeq);
    const auto all = space.enumerate(12);
    ASSERT_FALSE(all.empty());
    for (int m : {1, 2, 3, 6, 12}) {
        std::vector<ParallelConfig> filtered;
        for (const auto &c : all) {
            if (space.instancesNeeded(c) <= m)
                filtered.push_back(c);
        }
        const auto direct = space.enumerate(m);
        ASSERT_EQ(direct.size(), filtered.size()) << "m=" << m;
        for (std::size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(direct[i], filtered[i]) << "m=" << m << " i=" << i;
    }
}

TEST(ConfigSpaceTest, GptNeedsThreeInstances)
{
    ConfigSpace space(ModelSpec::gpt20b(), kParams, kSeq);
    EXPECT_TRUE(space.enumerate(2).empty());
    EXPECT_FALSE(space.enumerate(3).empty());
}

TEST(ConfigSpaceTest, InstancesNeededPacking)
{
    ConfigSpace space(ModelSpec::gpt20b(), kParams, kSeq);
    // (D=2, P=2, M=8): each stage group takes 2 whole instances.
    EXPECT_EQ(space.instancesNeeded(ParallelConfig{2, 2, 8, 8}), 8);
    // (D=1, P=3, M=4): 12 GPUs tile 3 instances.
    EXPECT_EQ(space.instancesNeeded(ParallelConfig{1, 3, 4, 8}), 3);
    // (D=3, P=1, M=1): 3 GPUs share one instance.
    EXPECT_EQ(space.instancesNeeded(ParallelConfig{3, 1, 1, 1}), 1);
}

TEST(ConfigSpaceTest, PaperConfigsAreFeasible)
{
    ConfigSpace gpt(ModelSpec::gpt20b(), kParams, kSeq);
    EXPECT_TRUE(gpt.feasible(ParallelConfig{2, 2, 8, 8}));
    EXPECT_TRUE(gpt.feasible(ParallelConfig{3, 3, 4, 8}));
    EXPECT_TRUE(gpt.feasible(ParallelConfig{2, 3, 4, 8}));
    ConfigSpace llama(ModelSpec::llama30b(), kParams, kSeq);
    EXPECT_TRUE(llama.feasible(ParallelConfig{1, 2, 8, 8}));
    EXPECT_FALSE(llama.feasible(ParallelConfig{1, 1, 4, 1})); // OOM
}

TEST(ConfigSpaceTest, NaivePlannerShrinksSpace)
{
    ConfigSpaceOptions naive;
    naive.memOptPlanner = false;
    ConfigSpace with(ModelSpec::gpt20b(), kParams, kSeq);
    ConfigSpace without(ModelSpec::gpt20b(), kParams, kSeq, naive);
    EXPECT_GT(with.enumerateAll(12).size(), without.enumerateAll(12).size());
    EXPECT_FALSE(without.feasible(ParallelConfig{1, 3, 4, 1}));
    EXPECT_TRUE(with.feasible(ParallelConfig{1, 3, 4, 1}));
}

TEST(ConfigSpaceTest, RejectsUnpackableTensorGroups)
{
    // On 6-GPU instances, M=4 is a §6.1 choice that does not divide an
    // instance and M=8 is not a multiple of one: only the packing rule
    // rejects them.  M=2 packs, and M=4 packs on 4-GPU instances.
    CostParams six = kParams;
    six.gpusPerInstance = 6;
    ConfigSpace space(ModelSpec::opt6_7b(), six, kSeq);
    EXPECT_FALSE(space.feasible(ParallelConfig{1, 2, 4, 1}));
    EXPECT_FALSE(space.feasible(ParallelConfig{1, 1, 8, 1}));
    EXPECT_TRUE(space.feasible(ParallelConfig{1, 2, 2, 1}));
    ConfigSpace four(ModelSpec::opt6_7b(), kParams, kSeq);
    EXPECT_TRUE(four.feasible(ParallelConfig{1, 2, 4, 1}));
}

} // namespace
} // namespace spotserve::cost
