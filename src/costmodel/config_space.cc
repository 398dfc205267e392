#include "costmodel/config_space.h"

#include <algorithm>
#include <span>

namespace spotserve {
namespace cost {
namespace {

/** §6.1's batch sizes and tensor degrees, and practical stage counts. */
constexpr int kBatchChoices[] = {1, 2, 4, 8};
constexpr int kTpChoices[] = {1, 2, 4, 8};
constexpr int kPpChoices[] = {1, 2, 3, 4, 6, 8};

bool
isChoice(std::span<const int> choices, int value)
{
    return std::ranges::find(choices, value) != choices.end();
}

} // namespace

ConfigSpace::ConfigSpace(const model::ModelSpec &spec,
                         const CostParams &params, const SeqSpec &seq,
                         ConfigSpaceOptions options)
    : spec_(spec), params_(params), seq_(seq), options_(options),
      memory_(spec, params), latency_(spec, params)
{
}

int
ConfigSpace::instancesNeeded(const par::ParallelConfig &config) const
{
    const int gpi = params_.gpusPerInstance;
    if (config.tp > gpi) {
        // Each stage's tensor group occupies tp/gpi whole instances.
        const int per_stage = config.tp / gpi;
        return config.dp * config.pp * per_stage;
    }
    // Groups of tp GPUs (tp divides gpi) tile instances exactly; groups
    // from different stages/pipelines may share an instance.
    const int total_gpus = config.totalGpus();
    return (total_gpus + gpi - 1) / gpi;
}

bool
ConfigSpace::shapeFits(int pp, int tp, int batch) const
{
    const auto key = std::make_tuple(pp, tp, batch);
    const auto it = shapeFits_.find(key);
    if (it != shapeFits_.end())
        return it->second;
    // Per-GPU weights, KV and the migration reserve are all D-independent,
    // so one memory-model probe covers every replica count of the shape.
    const bool fits = memory_.fits(par::ParallelConfig{1, pp, tp, batch},
                                   seq_, options_.memOptPlanner);
    shapeFits_.emplace(key, fits);
    return fits;
}

bool
ConfigSpace::feasible(const par::ParallelConfig &config) const
{
    if (!config.valid())
        return false;
    if (config.pp > spec_.numLayers())
        return false;
    if (!isChoice(kPpChoices, config.pp) || !isChoice(kTpChoices, config.tp))
        return false;
    const int gpi = params_.gpusPerInstance;
    // Tensor groups must pack onto whole instances.
    if (config.tp <= gpi ? gpi % config.tp != 0 : config.tp % gpi != 0)
        return false;
    if (!isChoice(kBatchChoices, config.batch))
        return false;
    return shapeFits(config.pp, config.tp, config.batch);
}

std::vector<par::ParallelConfig>
ConfigSpace::enumerateAll(int num_instances) const
{
    std::vector<par::ParallelConfig> out;
    if (num_instances <= 0)
        return out;
    const int max_gpus = num_instances * params_.gpusPerInstance;
    for (int tp : kTpChoices) {
        for (int pp : kPpChoices) {
            if (pp * tp > max_gpus)
                continue;
            const int max_dp = max_gpus / (pp * tp);
            for (int dp = 1; dp <= max_dp; ++dp) {
                for (int b : kBatchChoices) {
                    par::ParallelConfig c{dp, pp, tp, b};
                    if (!feasible(c))
                        continue;
                    if (instancesNeeded(c) > num_instances)
                        continue;
                    out.push_back(c);
                }
            }
        }
    }
    return out;
}

std::vector<par::ParallelConfig>
ConfigSpace::prune(std::vector<par::ParallelConfig> candidates) const
{
    struct Scored
    {
        double phi;
        double exec;
        int instances;
        std::size_t index;
    };
    std::vector<Scored> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const auto &c = candidates[i];
        const double exec = latency_.execLatency(c, seq_);
        scored.push_back(
            Scored{c.dp * c.batch / exec, exec, instancesNeeded(c), i});
    }
    // Group by instance count ascending; a config can only be dominated
    // by one that is strictly cheaper, so test each group against the
    // Pareto frontier of all cheaper groups before merging it in.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored &a, const Scored &b) {
                         return a.instances < b.instances;
                     });
    std::vector<bool> keep(candidates.size(), true);
    // Frontier of (phi, exec) pairs from strictly cheaper configs, kept
    // Pareto-minimal: sorted by phi descending with exec increasing.
    std::vector<std::pair<double, double>> frontier;
    auto dominated = [&frontier](double phi, double exec) {
        // Any frontier point with phi' >= phi and exec' <= exec?  Points
        // are sorted by phi descending and, being Pareto-minimal, exec
        // ascending — so the candidates are a prefix and the best exec in
        // it belongs to its last member.
        auto it = std::partition_point(
            frontier.begin(), frontier.end(),
            [phi](const std::pair<double, double> &p) {
                return p.first >= phi;
            });
        return it != frontier.begin() && std::prev(it)->second <= exec;
    };
    auto insert_frontier = [&frontier](double phi, double exec) {
        auto it = std::partition_point(
            frontier.begin(), frontier.end(),
            [phi](const std::pair<double, double> &p) {
                return p.first > phi;
            });
        if (it != frontier.begin() && std::prev(it)->second <= exec)
            return; // already covered by a stronger point
        it = frontier.insert(it, {phi, exec});
        // Drop points this one now covers (lower phi, higher-or-equal exec).
        auto tail = std::next(it);
        while (tail != frontier.end() && tail->second >= exec)
            tail = frontier.erase(tail);
    };
    std::size_t group_begin = 0;
    while (group_begin < scored.size()) {
        std::size_t group_end = group_begin;
        while (group_end < scored.size() &&
               scored[group_end].instances == scored[group_begin].instances)
            ++group_end;
        for (std::size_t k = group_begin; k < group_end; ++k) {
            if (dominated(scored[k].phi, scored[k].exec))
                keep[scored[k].index] = false;
        }
        for (std::size_t k = group_begin; k < group_end; ++k) {
            if (keep[scored[k].index])
                insert_frontier(scored[k].phi, scored[k].exec);
        }
        group_begin = group_end;
    }
    std::vector<par::ParallelConfig> out;
    out.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (keep[i])
            out.push_back(candidates[i]);
    }
    return out;
}

std::vector<par::ParallelConfig>
ConfigSpace::enumerate(int num_instances) const
{
    const auto it = enumCache_.find(num_instances);
    if (it != enumCache_.end())
        return it->second;
    auto out = prune(enumerateAll(num_instances));
    enumCache_.emplace(num_instances, out);
    return out;
}

} // namespace cost
} // namespace spotserve
