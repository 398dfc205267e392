#include "core/device_mapper.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>

#include "matching/hungarian.h"

namespace spotserve {
namespace core {

namespace {

/** Positions grouped into instance-sized slots of consecutive indices. */
struct Slot
{
    std::vector<par::Position> positions;
};

std::vector<Slot>
buildSlots(const par::Topology &topo, int gpus_per_instance)
{
    std::vector<Slot> slots;
    Slot current;
    for (int i = 0; i < topo.size(); ++i) {
        current.positions.push_back(topo.position(i));
        if (static_cast<int>(current.positions.size()) == gpus_per_instance) {
            slots.push_back(std::move(current));
            current = Slot{};
        }
    }
    if (!current.positions.empty())
        slots.push_back(std::move(current));
    return slots;
}

} // namespace

DeviceMapper::DeviceMapper(const model::ModelSpec &spec,
                           const cost::CostParams &params,
                           DeviceMapperOptions options)
    : spec_(spec), params_(params), options_(options)
{
}

std::vector<int>
DeviceMapper::planInheritance(
    int new_dp, const std::vector<double> &old_pipeline_tokens,
    const std::vector<std::pair<int, int>> &pinned) const
{
    std::vector<int> inherited(new_dp, -1);
    std::vector<bool> pinned_new(new_dp, false);
    std::vector<bool> old_taken(old_pipeline_tokens.size(), false);
    for (const auto &[d, od] : pinned) {
        if (d < 0 || d >= new_dp)
            continue;
        pinned_new[d] = true;
        if (od >= 0 &&
            od < static_cast<int>(old_pipeline_tokens.size())) {
            old_taken[od] = true;
            if (old_pipeline_tokens[od] > 0.0)
                inherited[d] = od;
        }
    }
    // Rank the remaining old replicas by committed progress, descending;
    // keep the most progressed ones when the replica count shrinks
    // (§3.3: "keeps the batches of requests with more decoding
    // progresses").
    std::vector<int> order;
    order.reserve(old_pipeline_tokens.size());
    for (std::size_t od = 0; od < old_pipeline_tokens.size(); ++od) {
        if (!old_taken[od] && old_pipeline_tokens[od] > 0.0)
            order.push_back(static_cast<int>(od));
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return old_pipeline_tokens[a] > old_pipeline_tokens[b];
    });
    std::size_t k = 0;
    for (int d = 0; d < new_dp && k < order.size(); ++d) {
        if (!pinned_new[d])
            inherited[d] = order[k++];
    }
    return inherited;
}

double
DeviceMapper::edgeWeight(const engine::HeldContext *held,
                         const par::Topology &target_topo,
                         const par::Position &pos,
                         const std::vector<int> &inherited) const
{
    if (!held || !held->ctx->hasModelContext)
        return 0.0;
    double w = engine::modelOverlapBytes(spec_, *held, target_topo, pos);
    if (held->ctx->cacheTokens > 0.0 &&
        inherited[pos.d] == held->ctx->position.d) {
        w += engine::cacheOverlapBytes(spec_, *held, target_topo, pos);
    }
    return w;
}

MappingResult
DeviceMapper::map(const engine::ContextSnapshot &snapshot,
                  const par::ParallelConfig &target,
                  const std::vector<const cluster::Instance *> &instance_list,
                  const std::vector<double> &old_pipeline_tokens,
                  const std::vector<ReplicaPin> &pins) const
{
    const int gpi = params_.gpusPerInstance;
    if (static_cast<int>(instance_list.size()) * gpi < target.totalGpus())
        throw std::invalid_argument("DeviceMapper::map: not enough GPUs");

    MappingResult result{par::DeviceMesh(target, spec_.numLayers()),
                         {}, 0.0, 0.0, 0.0};
    const par::Topology &topo = result.mesh.topology();
    for (int d = 0; d < target.dp; ++d) {
        for (int p = 0; p < target.pp; ++p) {
            for (int m = 0; m < target.tp; ++m) {
                result.neededModelBytes += engine::neededModelBytes(
                    spec_, topo, par::Position{d, p, m});
            }
        }
    }

    // ------------------------------------------------------------------
    // Pinned replicas: bind them verbatim, pin their inheritance to their
    // own batch, and carve their GPUs/instances/slots out of the matching
    // problem below.
    // ------------------------------------------------------------------
    const int per_replica = target.pp * target.tp;
    const bool all_pinned = static_cast<int>(pins.size()) == target.dp;
    if (!pins.empty() && !all_pinned && per_replica % gpi != 0) {
        throw std::invalid_argument(
            "DeviceMapper::map: pinned replicas must tile instances");
    }
    std::vector<bool> pinned_new(target.dp, false);
    std::vector<std::pair<int, int>> pinned_pairs;
    pinned_pairs.reserve(pins.size());
    for (const auto &pin : pins) {
        if (pin.newReplica < 0 || pin.newReplica >= target.dp ||
            static_cast<int>(pin.gpus.size()) != per_replica ||
            pinned_new[pin.newReplica]) {
            throw std::invalid_argument(
                "DeviceMapper::map: malformed replica pin");
        }
        pinned_new[pin.newReplica] = true;
        pinned_pairs.emplace_back(pin.newReplica, pin.oldReplica);
        // DeviceMesh::assign rejects a GPU pinned twice.
        for (int p = 0, k = 0; p < target.pp; ++p) {
            for (int m = 0; m < target.tp; ++m, ++k) {
                result.mesh.assign(par::Position{pin.newReplica, p, m},
                                   pin.gpus[k]);
            }
        }
    }
    // Pinned replicas keep their own batch in place; the remaining new
    // replicas rank the remaining old replicas by progress.
    result.inheritedOldPipeline =
        planInheritance(target.dp, old_pipeline_tokens, pinned_pairs);

    const engine::ContextIndex index(snapshot, spec_.numLayers());
    if (!all_pinned)
        matchUnpinned(index, instance_list, pinned_new, result);

    // Reuse of the final placement: every mapped GPU keeps the overlap of
    // its held model context, and its cache when its new replica inherits
    // the batch that cache belongs to.
    for (const engine::HeldContext &held : index.entries()) {
        if (!result.mesh.contains(held.ctx->gpu))
            continue;
        const par::Position pos = result.mesh.positionOf(held.ctx->gpu);
        result.reusedModelBytes +=
            engine::modelOverlapBytes(spec_, held, topo, pos);
        if (result.inheritedOldPipeline[pos.d] == held.ctx->position.d) {
            result.reusedCacheBytes +=
                engine::cacheOverlapBytes(spec_, held, topo, pos);
        }
    }
    return result;
}

void
DeviceMapper::matchUnpinned(
    const engine::ContextIndex &index,
    const std::vector<const cluster::Instance *> &instance_list,
    const std::vector<bool> &pinned_new, MappingResult &result) const
{
    const int gpi = params_.gpusPerInstance;
    const par::Topology &topo = result.mesh.topology();

    // Matching problem over the instances and slots no pin touches.
    std::vector<const cluster::Instance *> free_instances;
    for (const auto *inst : instance_list) {
        bool owns_pinned = false;
        for (par::GpuId g : inst->gpuIds()) {
            if (result.mesh.contains(g))
                owns_pinned = true;
        }
        if (!owns_pinned)
            free_instances.push_back(inst);
    }
    std::vector<Slot> slots;
    for (auto &slot : buildSlots(topo, gpi)) {
        bool pinned = false;
        for (const auto &pos : slot.positions) {
            if (pinned_new[pos.d])
                pinned = true;
        }
        if (!pinned)
            slots.push_back(std::move(slot));
    }
    const std::size_t num_instances = free_instances.size();
    const std::size_t num_slots = slots.size();

    if (!options_.useKuhnMunkres) {
        // Ablated mapper: instances in id order, GPUs in id order.
        std::size_t s = 0;
        for (std::size_t i = 0; i < num_instances && s < num_slots; ++i, ++s) {
            const auto gpus = free_instances[i]->gpuIds();
            for (std::size_t k = 0; k < slots[s].positions.size(); ++k)
                result.mesh.assign(slots[s].positions[k], gpus[k]);
        }
        return;
    }

    // Step 1 (intra-instance): score every (instance, slot) pair by its
    // best internal GPU-to-position matching, remembering the assignment.
    // The solve reads nothing but the weight matrix, and at fleet scale
    // few matrices are distinct (fresh instances and stages an instance
    // never held score all zeros), so pairs whose matrices agree in shape
    // and in every weight's bits share one solve.  The memo lives for this
    // call only: the snapshot and the inheritance behind the weights
    // change between calls.
    std::map<std::vector<std::uint64_t>, match::Assignment> solved;
    std::vector<std::vector<const match::Assignment *>> intra(
        num_instances,
        std::vector<const match::Assignment *>(num_slots, nullptr));
    match::Matrix slot_weight(num_instances,
                              std::vector<double>(num_slots, 0.0));

    std::vector<const engine::HeldContext *> held;
    std::vector<std::uint64_t> key; // rows, cols, then the weights' bits
    for (std::size_t i = 0; i < num_instances; ++i) {
        held.clear();
        for (par::GpuId g : free_instances[i]->gpuIds())
            held.push_back(index.find(g));
        for (std::size_t s = 0; s < num_slots; ++s) {
            const auto &positions = slots[s].positions;
            key.assign({held.size(), positions.size()});
            for (const engine::HeldContext *h : held) {
                for (const par::Position &pos : positions) {
                    key.push_back(std::bit_cast<std::uint64_t>(edgeWeight(
                        h, topo, pos, result.inheritedOldPipeline)));
                }
            }
            auto it = solved.find(key);
            if (it == solved.end()) {
                match::Matrix w(held.size(),
                                std::vector<double>(positions.size()));
                for (std::size_t u = 0, k = 2; u < held.size(); ++u) {
                    for (std::size_t v = 0; v < positions.size(); ++v, ++k)
                        w[u][v] = std::bit_cast<double>(key[k]);
                }
                it = solved.emplace(key, match::maxWeightAssignment(w)).first;
            }
            intra[i][s] = &it->second;
            slot_weight[i][s] = it->second.totalWeight;
        }
    }

    // Step 2 (inter-instance): match instances to slots.
    const auto inter = match::maxWeightAssignment(slot_weight);
    const auto slot_to_instance = inter.colToRow(num_slots);

    for (std::size_t s = 0; s < num_slots; ++s) {
        const int i = slot_to_instance[s];
        if (i < 0)
            throw std::logic_error("DeviceMapper::map: unmatched slot");
        const auto gpus = free_instances[i]->gpuIds();
        const auto &positions = slots[s].positions;
        const auto &assignment = intra[i][s]->rowToCol;

        // Bind matched GPUs; positions a partial slot leaves unmatched get
        // the remaining GPUs in order.
        std::vector<bool> pos_taken(positions.size(), false);
        std::vector<bool> gpu_used(gpus.size(), false);
        for (std::size_t u = 0; u < assignment.size(); ++u) {
            const int v = assignment[u];
            if (v < 0)
                continue;
            result.mesh.assign(positions[v], gpus[u]);
            pos_taken[v] = true;
            gpu_used[u] = true;
        }
        std::size_t next_gpu = 0;
        for (std::size_t v = 0; v < positions.size(); ++v) {
            if (pos_taken[v])
                continue;
            while (next_gpu < gpus.size() && gpu_used[next_gpu])
                ++next_gpu;
            if (next_gpu >= gpus.size())
                throw std::logic_error("DeviceMapper::map: slot overflow");
            result.mesh.assign(positions[v], gpus[next_gpu]);
            gpu_used[next_gpu] = true;
        }
    }
}

} // namespace core
} // namespace spotserve
