#include "costmodel/migration_cost.h"

#include <algorithm>
#include <map>

namespace spotserve {
namespace cost {

MigrationCostModel::MigrationCostModel(const CostParams &params)
    : params_(params)
{
}

double
MigrationCostModel::wireTime(const std::vector<Transfer> &transfers) const
{
    if (transfers.empty())
        return 0.0;

    std::unordered_map<int, double> egress;
    std::unordered_map<int, double> ingress;
    std::unordered_map<int, double> local;
    for (const auto &t : transfers) {
        if (t.bytes <= 0.0)
            continue;
        if (t.srcInstance == t.dstInstance) {
            local[t.srcInstance] += t.bytes;
        } else {
            egress[t.srcInstance] += t.bytes;
            ingress[t.dstInstance] += t.bytes;
        }
    }

    double nic_bottleneck = 0.0;
    // SPOTSERVE_LINT_ALLOW(unordered-iteration): max is commutative — order cannot change the bottleneck
    for (const auto &[inst, bytes] : egress)
        nic_bottleneck = std::max(nic_bottleneck, bytes);
    // SPOTSERVE_LINT_ALLOW(unordered-iteration): same order-independent max-reduce
    for (const auto &[inst, bytes] : ingress)
        nic_bottleneck = std::max(nic_bottleneck, bytes);

    double pcie_bottleneck = 0.0;
    // SPOTSERVE_LINT_ALLOW(unordered-iteration): same order-independent max-reduce
    for (const auto &[inst, bytes] : local)
        pcie_bottleneck = std::max(pcie_bottleneck, bytes);

    return std::max(nic_bottleneck / params_.interBandwidth,
                    pcie_bottleneck / params_.intraBandwidth);
}

double
MigrationCostModel::serializedDuration(
    const std::vector<TransferStep> &steps) const
{
    const double setup = params_.migrationSetupTime;
    double wire_cursor = setup;
    std::map<int, double> disk_cursor; // per-instance disk completion
    double out = setup;
    for (const TransferStep &step : steps) {
        wire_cursor += wireTime(step.transfers);
        double step_end = wire_cursor;
        for (const auto &[inst, bytes] : step.coldLoads) {
            double &cursor = disk_cursor[inst];
            cursor = std::max(cursor, setup) + bytes / params_.diskBandwidth;
            step_end = std::max(step_end, cursor);
        }
        out = std::max(out, step_end);
    }
    return out;
}

} // namespace cost
} // namespace spotserve
