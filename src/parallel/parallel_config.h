/**
 * @file
 * Parallel configurations and logical device-mesh positions.
 *
 * A parallel configuration C = (D, P, M, B) gives the data-parallel degree
 * (number of independent inference pipelines), the pipeline-model-parallel
 * degree (stages), the tensor-model-parallel degree (shards per stage) and
 * the maximum mini-batch size (§3.2).  Every GPU participating in a
 * deployment is bound to a pipeline-stage-shard Position (d, p, m).
 */

#ifndef SPOTSERVE_PARALLEL_PARALLEL_CONFIG_H
#define SPOTSERVE_PARALLEL_PARALLEL_CONFIG_H

#include <cstddef>
#include <string>
#include <utility>

namespace spotserve {
namespace par {

/**
 * Parallel configuration tuple C = (D, P, M, B).
 *
 * D = data parallelism (pipelines), P = pipeline stages, M = tensor shards,
 * B = maximum mini-batch size per pipeline.
 */
struct ParallelConfig
{
    int dp = 1;    ///< D: number of independent inference pipelines.
    int pp = 1;    ///< P: pipeline-model-parallel stages.
    int tp = 1;    ///< M: tensor-model-parallel shards per stage.
    int batch = 1; ///< B: maximum mini-batch size per pipeline.

    /** GPUs used by one pipeline (P * M). */
    int gpusPerPipeline() const { return pp * tp; }

    /** GPUs used by the whole deployment (D * P * M). */
    int totalGpus() const { return dp * pp * tp; }

    /** Concurrent requests the deployment can decode (D * B). */
    int concurrentRequests() const { return dp * batch; }

    /** All degrees and the batch size positive. */
    bool valid() const { return dp >= 1 && pp >= 1 && tp >= 1 && batch >= 1; }

    /** "(D=2, P=3, M=4, B=8)" */
    std::string str() const;
    /** "(2,3,4)" — the (D,P,M) form used in Figure 8 annotations. */
    std::string shortStr() const;

    bool operator==(const ParallelConfig &o) const = default;
};

/**
 * Logical coordinate of one GPU inside a configuration: the m-th tensor
 * shard of the p-th stage of the d-th pipeline (all 0-based internally;
 * the paper numbers them from 1).
 */
struct Position
{
    int d = 0;
    int p = 0;
    int m = 0;

    bool operator==(const Position &o) const = default;

    std::string str() const;
};

/**
 * Index arithmetic and layer/shard geometry for one configuration applied
 * to one model with @p num_layers transformer layers.
 */
class Topology
{
  public:
    Topology(const ParallelConfig &config, int num_layers);

    const ParallelConfig &config() const { return config_; }
    int numLayers() const { return numLayers_; }

    /** Number of positions (== config().totalGpus()). */
    int size() const { return config_.totalGpus(); }

    /** Enumerate positions in (d, p, m) lexicographic order. */
    Position position(int flat_index) const;

    /** Inverse of position(). */
    int flatIndex(const Position &pos) const;

    /**
     * Layer interval [first, last) owned by stage @p p.  Layers are split
     * as evenly as possible; earlier stages take the remainder, matching
     * how front-heavy migration (§3.4) counts layers.
     */
    std::pair<int, int> stageLayers(int p) const;

    /** Stage that owns layer @p layer. */
    int stageOfLayer(int layer) const;

    /**
     * Tensor-shard interval of positions' weights as a fraction of each
     * layer, [lo, hi) with 0 <= lo < hi <= 1 for shard @p m.
     */
    std::pair<double, double> shardInterval(int m) const;

  private:
    ParallelConfig config_;
    int numLayers_;
};

/**
 * Fraction of one layer's weights shared between shard m of M and shard m2
 * of M2 (interval intersection length).  Used for reuse-weight edges in the
 * device mapper's bipartite graph (§3.3).
 */
double shardOverlapFraction(int m, int M, int m2, int M2);

} // namespace par
} // namespace spotserve

#endif // SPOTSERVE_PARALLEL_PARALLEL_CONFIG_H
