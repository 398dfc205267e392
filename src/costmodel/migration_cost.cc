#include "costmodel/migration_cost.h"

#include <algorithm>

namespace spotserve {
namespace cost {

MigrationCostModel::MigrationCostModel(const CostParams &params)
    : params_(params)
{
}

double
MigrationCostModel::transferTime(const std::vector<Transfer> &transfers) const
{
    if (transfers.empty())
        return 0.0;
    return params_.migrationSetupTime + wireTime(transfers);
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

} // namespace cost
} // namespace spotserve
