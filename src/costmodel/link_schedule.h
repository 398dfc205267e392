/**
 * @file
 * Link-level transfer scheduling for context migration.
 *
 * The closed-form estimate in MigrationCostModel::wireTime charges a
 * step by its most-loaded instance port and the serialized cursor
 * (MigrationCostModel::serializedDuration) runs whole steps back to
 * back — wrong in both directions: steps moving context
 * between disjoint instance pairs could overlap, and two transfers sharing
 * a port cannot actually run at full bandwidth together.  LinkSchedule
 * decomposes the movement matrix honestly: every per-instance NIC send
 * port, NIC receive port, PCIe bus and disk channel is a first-class
 * unit-capacity link with its own bandwidth, and the schedule is a list of
 * contention-free link slices — at any instant each link carries at most
 * one transfer at the link's full rate.
 *
 * The scheduler is an event-driven preemptive list schedule: at every
 * completion (or initial link-release) event the running set is rebuilt by
 * scanning the unfinished transfers in (step, kind, index) priority order
 * and granting a transfer all of its links when they are free.  A
 * lower-priority transfer never delays a higher-priority one (it is
 * preempted at the next event when the earlier step's transfer can run),
 * which yields the key guarantee tests and bench_ablation_migration check:
 * the schedule is never slower than the serialized cursor (a reference
 * bound nothing on the serving path computes: every step's closed-form
 * wire time back to back, disk loads overlapped), and on single-pair/single-link
 * topologies the makespan equals the closed-form port-bottleneck estimate.
 *
 * There is one mode: steps always interleave.  A build works on flat
 * arrays — a dense per-link index over (type, instance), the pending
 * items in priority order, and the external release horizons sorted once
 * and read through a monotone cursor — so an event costs a scan of the
 * unfinished items and nothing else.
 */

#ifndef SPOTSERVE_COSTMODEL_LINK_SCHEDULE_H
#define SPOTSERVE_COSTMODEL_LINK_SCHEDULE_H

#include <map>
#include <vector>

#include "costmodel/migration_cost.h"

namespace spotserve {
namespace cost {

/** The four per-instance link classes of the transfer data plane. */
enum class LinkType
{
    NicSend, ///< inter-instance egress (interBandwidth)
    NicRecv, ///< inter-instance ingress (interBandwidth)
    Pcie,    ///< intra-instance moves (intraBandwidth)
    Disk     ///< cold loads from disk/S3 (diskBandwidth)
};

/** One unit-capacity link: a port of one instance. */
struct LinkId
{
    LinkType type = LinkType::NicSend;
    int instance = 0;

    bool operator<(const LinkId &o) const
    {
        if (type != o.type)
            return static_cast<int>(type) < static_cast<int>(o.type);
        return instance < o.instance;
    }
    bool operator==(const LinkId &o) const
    {
        return type == o.type && instance == o.instance;
    }
};

/**
 * One contention-free occupancy interval: during [start, finish) the
 * slice's transfer owns every one of its links exclusively and moves
 * @c bytes at the links' full rate.  A preempted transfer appears as
 * several slices.
 */
struct LinkSlice
{
    int step = 0;     ///< index into the input step list
    int transfer = 0; ///< index into that step's transfers, or -1
    bool coldLoad = false; ///< true: disk slice (transfer indexes coldLoads)
    double start = 0.0;
    double finish = 0.0;
    double bytes = 0.0;
    LinkId links[2];
    int numLinks = 0;
};

/** A built schedule. */
struct LinkScheduleResult
{
    std::vector<LinkSlice> slices;

    /** First wire/disk activity of each step (eligibility time if idle). */
    std::vector<double> stepStart;
    /** When each step's context (wire + its cold loads) has landed. */
    std::vector<double> stepFinish;

    /** Latest finish over all steps (origin + setup when no work). */
    double makespan = 0.0;

    /** Per-link busy horizon after this schedule (absolute times). */
    std::map<LinkId, double> linkBusyUntil;
};

/** Where a schedule starts. */
struct LinkScheduleOptions
{
    /** Schedule origin (absolute time the migration is submitted at). */
    double startTime = 0.0;

    /** Fixed setup charged once: no link works before startTime + setup. */
    double setupTime = 0.0;
};

/** Builds contention-free link schedules for ordered transfer steps. */
class LinkSchedule
{
  public:
    explicit LinkSchedule(const CostParams &params);

    /**
     * Schedule @p steps over the link set, starting from the per-link
     * busy horizons in @p initial_busy (absolute times; links absent from
     * the map are free).  Pass the busy map of a previous result to make
     * successive migrations contend for shared links.  Every horizon in
     * @p initial_busy is an event, even on a link no transfer uses.
     *
     * @throws std::logic_error if a transfer could never be granted its
     *         links (an infinite horizon on one of them).
     */
    LinkScheduleResult
    build(const std::vector<TransferStep> &steps,
          const LinkScheduleOptions &options = {},
          const std::map<LinkId, double> &initial_busy = {}) const;

    const CostParams &params() const { return params_; }

  private:
    CostParams params_;
};

} // namespace cost
} // namespace spotserve

#endif // SPOTSERVE_COSTMODEL_LINK_SCHEDULE_H
