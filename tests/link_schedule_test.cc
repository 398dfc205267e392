/**
 * @file
 * Invariants of the link-level transfer scheduler and the data plane
 * that executes its schedules: no link carries two slices at once, byte
 * accounting is exact, single-pair topologies reproduce the closed-form
 * estimate to the bit, the schedule is never slower than the
 * serialized cursor, the flat-array build matches a straightforward
 * reference implementation exactly, and the TransferDataPlane makes
 * successive migrations honestly contend for shared links while
 * committing each quote without scheduling it twice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "closed_forms.h"
#include "core/transfer_data_plane.h"
#include "costmodel/link_schedule.h"
#include "costmodel/migration_cost.h"
#include "simcore/simulation.h"

namespace spotserve {
namespace {

using cost::LinkId;
using cost::LinkSchedule;
using cost::LinkScheduleOptions;
using cost::LinkScheduleResult;
using cost::LinkSlice;
using cost::LinkType;
using cost::Transfer;
using cost::TransferStep;

TransferStep wireStep(int layer, std::vector<Transfer> transfers)
{
    TransferStep step;
    step.layer = layer;
    step.transfers = std::move(transfers);
    return step;
}

/**
 * The straightforward scheduler the flat-array build replaced: a std::map
 * of link horizons, a linear search of the links held at each event, and
 * a scan of every external horizon per event.  Kept as the differential
 * oracle; it differs from its original only in marking a step's start
 * unset explicitly (the original used the origin as the marker, so a step
 * whose first slice started exactly at the origin reported a later
 * item's start).
 */
LinkScheduleResult
referenceBuild(const cost::CostParams &params,
               const std::vector<TransferStep> &steps,
               const LinkScheduleOptions &options,
               const std::map<LinkId, double> &initial_busy)
{
    struct Item
    {
        int step = 0;
        int index = 0;
        bool coldLoad = false;
        double remaining = 0.0;
        double rate = 1.0;
        LinkId links[2];
        int numLinks = 0;
        double firstStart = -1.0;
        double finish = 0.0;
        bool done = false;
        int openSlice = -1;
    };
    constexpr double kEps = 1e-12;

    LinkScheduleResult out;
    const double t0 = options.startTime + options.setupTime;

    std::vector<Item> items;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        for (std::size_t i = 0; i < steps[s].transfers.size(); ++i) {
            const Transfer &t = steps[s].transfers[i];
            if (t.bytes <= 0.0)
                continue;
            Item item;
            item.step = static_cast<int>(s);
            item.index = static_cast<int>(i);
            item.remaining = t.bytes;
            if (t.srcInstance == t.dstInstance) {
                item.rate = params.intraBandwidth;
                item.links[0] = LinkId{LinkType::Pcie, t.srcInstance};
                item.numLinks = 1;
            } else {
                item.rate = params.interBandwidth;
                item.links[0] = LinkId{LinkType::NicSend, t.srcInstance};
                item.links[1] = LinkId{LinkType::NicRecv, t.dstInstance};
                item.numLinks = 2;
            }
            items.push_back(item);
        }
        for (std::size_t i = 0; i < steps[s].coldLoads.size(); ++i) {
            const auto &[inst, bytes] = steps[s].coldLoads[i];
            if (bytes <= 0.0)
                continue;
            Item item;
            item.step = static_cast<int>(s);
            item.index = static_cast<int>(i);
            item.coldLoad = true;
            item.remaining = bytes;
            item.rate = params.diskBandwidth;
            item.links[0] = LinkId{LinkType::Disk, inst};
            item.numLinks = 1;
            items.push_back(item);
        }
    }

    std::map<LinkId, double> busy = initial_busy;
    auto linkFreeAt = [&](const LinkId &l) {
        auto it = busy.find(l);
        return it == busy.end() ? -std::numeric_limits<double>::infinity()
                                : it->second;
    };

    std::size_t doneCount = 0;
    double t = t0;
    while (doneCount < items.size()) {
        std::vector<LinkId> held;
        std::vector<Item *> running;
        for (Item &it : items) {
            if (it.done)
                continue;
            bool free = true;
            for (int k = 0; k < it.numLinks; ++k) {
                if (linkFreeAt(it.links[k]) > t + kEps ||
                    std::find(held.begin(), held.end(), it.links[k]) !=
                        held.end()) {
                    free = false;
                    break;
                }
            }
            if (!free) {
                it.openSlice = -1;
                continue;
            }
            for (int k = 0; k < it.numLinks; ++k)
                held.push_back(it.links[k]);
            running.push_back(&it);
        }

        if (running.empty()) {
            double next = std::numeric_limits<double>::infinity();
            for (const auto &[link, until] : busy) {
                if (until > t + kEps)
                    next = std::min(next, until);
            }
            if (!std::isfinite(next))
                break;
            t = next;
            continue;
        }

        double tNext = std::numeric_limits<double>::infinity();
        for (const Item *it : running)
            tNext = std::min(tNext, t + it->remaining / it->rate);
        for (const auto &[link, until] : busy) {
            if (until > t + kEps)
                tNext = std::min(tNext, until);
        }

        for (Item *it : running) {
            if (it->firstStart < 0.0)
                it->firstStart = t;
            if (it->openSlice >= 0 &&
                out.slices[static_cast<std::size_t>(it->openSlice)].finish >=
                    t - kEps) {
                LinkSlice &sl =
                    out.slices[static_cast<std::size_t>(it->openSlice)];
                sl.finish = tNext;
                sl.bytes += (tNext - t) * it->rate;
            } else {
                LinkSlice sl;
                sl.step = it->step;
                sl.transfer = it->index;
                sl.coldLoad = it->coldLoad;
                sl.start = t;
                sl.finish = tNext;
                sl.bytes = (tNext - t) * it->rate;
                sl.numLinks = it->numLinks;
                for (int k = 0; k < it->numLinks; ++k)
                    sl.links[k] = it->links[k];
                it->openSlice = static_cast<int>(out.slices.size());
                out.slices.push_back(sl);
            }
            const double span = it->remaining / it->rate;
            if (t + span <= tNext + kEps * (1.0 + span)) {
                it->remaining = 0.0;
                it->done = true;
                it->finish = tNext;
                it->openSlice = -1;
                ++doneCount;
            } else {
                it->remaining -= (tNext - t) * it->rate;
            }
        }
        t = tNext;
    }

    out.stepStart.assign(steps.size(), t0);
    out.stepFinish.assign(steps.size(), t0);
    std::vector<bool> started(steps.size(), false);
    for (const Item &it : items) {
        const auto s = static_cast<std::size_t>(it.step);
        if (it.firstStart >= 0.0) {
            out.stepStart[s] = started[s]
                                   ? std::min(out.stepStart[s],
                                              it.firstStart)
                                   : it.firstStart;
            started[s] = true;
        }
        out.stepFinish[s] = std::max(out.stepFinish[s], it.finish);
    }
    for (std::size_t s = 0; s < steps.size(); ++s) {
        out.stepStart[s] = std::min(std::max(out.stepStart[s], t0),
                                    std::max(out.stepFinish[s], t0));
        out.stepFinish[s] = std::max(out.stepFinish[s], out.stepStart[s]);
    }

    out.makespan = t0;
    for (double f : out.stepFinish)
        out.makespan = std::max(out.makespan, f);

    out.linkBusyUntil = initial_busy;
    for (const LinkSlice &sl : out.slices) {
        for (int k = 0; k < sl.numLinks; ++k) {
            double &until = out.linkBusyUntil[sl.links[k]];
            until = std::max(until, sl.finish);
        }
    }
    return out;
}

class LinkScheduleFixture : public ::testing::Test
{
  protected:
    LinkScheduleFixture()
        : params(cost::CostParams::awsG4dn()), scheduler(params),
          costModel(params)
    {
    }

    /** Every link must be occupied by at most one slice at any instant. */
    static void expectNoOversubscription(const LinkScheduleResult &result)
    {
        std::map<LinkId, std::vector<std::pair<double, double>>> occupancy;
        for (const LinkSlice &s : result.slices) {
            ASSERT_GE(s.numLinks, 1);
            ASSERT_LE(s.numLinks, 2);
            EXPECT_GT(s.finish, s.start - 1e-12);
            for (int l = 0; l < s.numLinks; ++l)
                occupancy[s.links[l]].emplace_back(s.start, s.finish);
        }
        for (auto &entry : occupancy) {
            auto &spans = entry.second;
            std::sort(spans.begin(), spans.end());
            for (std::size_t i = 1; i < spans.size(); ++i)
                EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9)
                    << "link oversubscribed";
        }
    }

    /** Slices of each transfer must sum to exactly its bytes. */
    static void expectExactBytes(const std::vector<TransferStep> &steps,
                                 const LinkScheduleResult &result)
    {
        std::map<std::pair<int, int>, double> wire_bytes, cold_bytes;
        for (const LinkSlice &s : result.slices) {
            if (s.coldLoad)
                cold_bytes[{s.step, s.transfer}] += s.bytes;
            else
                wire_bytes[{s.step, s.transfer}] += s.bytes;
        }
        for (std::size_t k = 0; k < steps.size(); ++k) {
            const int sk = static_cast<int>(k);
            for (std::size_t t = 0; t < steps[k].transfers.size(); ++t)
                EXPECT_NEAR(
                    (wire_bytes[{sk, static_cast<int>(t)}]),
                    steps[k].transfers[t].bytes, 1.0);
            for (std::size_t t = 0; t < steps[k].coldLoads.size(); ++t)
                EXPECT_NEAR(
                    (cold_bytes[{sk, static_cast<int>(t)}]),
                    steps[k].coldLoads[t].second, 1.0);
        }
    }

    /**
     * A contended many-replica churn: four pipelines exchange context
     * over partially shared instances, two newcomers cold-load.
     */
    std::vector<TransferStep> churnSteps() const
    {
        const double gb = 1e9;
        std::vector<TransferStep> steps;
        TransferStep cache;
        cache.layer = -1;
        cache.transfers = {{0, 4, 2.0 * gb},
                           {1, 5, 2.0 * gb},
                           {2, 6, 1.0 * gb},
                           {0, 5, 0.5 * gb}};
        steps.push_back(cache);
        steps.push_back(wireStep(0, {{0, 4, 1.5 * gb}, {2, 7, 1.0 * gb}}));
        steps.push_back(wireStep(1, {{1, 4, 1.5 * gb}, {3, 3, 2.0 * gb}}));
        TransferStep mixed = wireStep(2, {{0, 6, 0.75 * gb}});
        mixed.coldLoads = {{7, 3.0 * gb}, {6, 1.0 * gb}};
        steps.push_back(mixed);
        return steps;
    }

    cost::CostParams params;
    LinkSchedule scheduler;
    cost::MigrationCostModel costModel;
};

TEST_F(LinkScheduleFixture, SinglePairMakespanMatchesClosedForm)
{
    // One step, one inter-instance transfer: there is nothing to
    // interleave, so the scheduled makespan must equal the closed-form
    // port-bottleneck estimate exactly.
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 3.2e9}})};
    LinkScheduleOptions options;
    options.setupTime = params.migrationSetupTime;
    const double closed_form = transferTime(costModel, steps[0].transfers);
    const auto result = scheduler.build(steps, options);
    EXPECT_DOUBLE_EQ(result.makespan, closed_form);
    ASSERT_EQ(result.stepStart.size(), 1u);
    EXPECT_DOUBLE_EQ(result.stepStart[0], params.migrationSetupTime);
    EXPECT_DOUBLE_EQ(result.stepFinish[0], closed_form);
    expectNoOversubscription(result);
    expectExactBytes(steps, result);
}

TEST_F(LinkScheduleFixture, IntraInstanceMovesRideThePcieLink)
{
    const std::vector<TransferStep> steps = {
        wireStep(0, {{3, 3, 4.0e9}})};
    const auto result = scheduler.build(steps, {});
    EXPECT_DOUBLE_EQ(result.makespan, 4.0e9 / params.intraBandwidth);
    ASSERT_EQ(result.slices.size(), 1u);
    EXPECT_EQ(result.slices[0].numLinks, 1);
    EXPECT_EQ(result.slices[0].links[0],
              (LinkId{LinkType::Pcie, 3}));
}

TEST_F(LinkScheduleFixture, DisjointPairsOverlap)
{
    // Two steps moving context between disjoint instance pairs: the
    // serialized cursor adds their wire times; the link schedule lets
    // the slower pair hide the faster one entirely.
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}}), wireStep(1, {{2, 3, 1.0e9}})};
    const double w0 = costModel.wireTime(steps[0].transfers);
    const double w1 = costModel.wireTime(steps[1].transfers);
    LinkScheduleOptions options;
    options.setupTime = params.migrationSetupTime;
    const auto result = scheduler.build(steps, options);
    EXPECT_NEAR(result.makespan,
                params.migrationSetupTime + std::max(w0, w1), 1e-9);
    EXPECT_LT(result.makespan, params.migrationSetupTime + w0 + w1 - 1e-6);
    expectNoOversubscription(result);
    expectExactBytes(steps, result);
}

TEST_F(LinkScheduleFixture, ChurnScheduleKeepsEveryInvariant)
{
    const auto steps = churnSteps();
    LinkScheduleOptions options;
    options.setupTime = params.migrationSetupTime;
    const auto result = scheduler.build(steps, options);
    expectNoOversubscription(result);
    expectExactBytes(steps, result);
    ASSERT_EQ(result.stepStart.size(), steps.size());
    ASSERT_EQ(result.stepFinish.size(), steps.size());
    double latest = 0.0;
    for (std::size_t k = 0; k < steps.size(); ++k) {
        // No link works before the setup interval has elapsed.
        EXPECT_GE(result.stepStart[k], params.migrationSetupTime - 1e-9);
        EXPECT_GE(result.stepFinish[k], result.stepStart[k] - 1e-9);
        latest = std::max(latest, result.stepFinish[k]);
    }
    EXPECT_NEAR(result.makespan, latest, 1e-9);
    // Every slice runs at its link class's full bandwidth.
    for (const LinkSlice &s : result.slices) {
        if (s.finish - s.start < 1e-12)
            continue;
        double rate = params.interBandwidth;
        if (s.coldLoad)
            rate = params.diskBandwidth;
        else if (s.numLinks == 1 && s.links[0].type == LinkType::Pcie)
            rate = params.intraBandwidth;
        EXPECT_NEAR(s.bytes / (s.finish - s.start), rate, rate * 1e-6);
    }
}

TEST_F(LinkScheduleFixture, NeverSlowerThanTheSerializedCursor)
{
    // The preemptive priority schedule guarantees step k is never
    // delayed by step k' > k, so it can only beat the serialized cursor
    // (MigrationCostModel::serializedDuration: every step's closed-form
    // wire time back to back, disk loads overlapped).  Sweep a family of
    // fleet sizes and sharing patterns through both.  (That a plan()'s
    // own timing is exactly this build of its steps is checked in
    // core_planner_test.)
    const double gb = 1e9;
    for (int fleet = 2; fleet <= 12; fleet += 2) {
        std::vector<TransferStep> steps;
        for (int layer = 0; layer < 8; ++layer) {
            const int src = layer % fleet;
            const int dst = (layer + 1 + layer / fleet) % fleet;
            TransferStep step =
                wireStep(layer, {{src, dst, (1.0 + 0.25 * layer) * gb}});
            if (layer % 3 == 0)
                step.transfers.push_back(
                    {(src + 2) % fleet, (dst + 2) % fleet, 0.5 * gb});
            if (layer == 5)
                step.coldLoads = {{dst, 2.0 * gb}};
            steps.push_back(step);
        }
        LinkScheduleOptions options;
        options.setupTime = params.migrationSetupTime;
        const auto result = scheduler.build(steps, options);
        EXPECT_LE(result.makespan, costModel.serializedDuration(steps) + 1e-9)
            << "fleet=" << fleet;
        expectNoOversubscription(result);
        expectExactBytes(steps, result);
    }
}

TEST_F(LinkScheduleFixture, BusyLinksDelayOnlyTheTransfersTouchingThem)
{
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 1.0e9}}), wireStep(1, {{2, 3, 1.0e9}})};
    std::map<LinkId, double> busy;
    busy[{LinkType::NicSend, 0}] = 5.0; // instance 0 egress draining
    const auto result = scheduler.build(steps, {}, busy);
    const double w = 1.0e9 / params.interBandwidth;
    // The 0->1 transfer waits for its egress port; 2->3 is unaffected.
    EXPECT_NEAR(result.stepStart[0], 5.0, 1e-9);
    EXPECT_NEAR(result.stepFinish[0], 5.0 + w, 1e-9);
    EXPECT_NEAR(result.stepFinish[1], w, 1e-9);
    // The busy horizon carries forward for the next submission.
    EXPECT_NEAR(result.linkBusyUntil.at({LinkType::NicSend, 0}), 5.0 + w,
                1e-9);
}

TEST_F(LinkScheduleFixture, ColdLoadsOverlapWireWork)
{
    // Disk links are their own links: a later step's cold load starts at
    // setup time while an earlier step's wire transfer is still running,
    // exactly as the serialized cursor overlaps disk loads.
    TransferStep wire = wireStep(0, {{0, 1, 4.0e9}});
    TransferStep cold = wireStep(1, {});
    cold.coldLoads = {{2, 1.0e9}};
    LinkScheduleOptions options;
    options.setupTime = params.migrationSetupTime;
    const auto result = scheduler.build({wire, cold}, options);
    EXPECT_NEAR(result.stepStart[1], params.migrationSetupTime, 1e-9);
    EXPECT_NEAR(result.stepFinish[1],
                params.migrationSetupTime + 1.0e9 / params.diskBandwidth,
                1e-9);
}

TEST_F(LinkScheduleFixture, StepStartIsItsEarliestSlice)
{
    // Two transfers of one step share NicSend 0: the first starts at the
    // origin, the second only once the first finished.  The step starts
    // with its first slice — the origin — not with the later one.
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}, {0, 2, 2.0e9}})};
    LinkScheduleOptions options;
    options.setupTime = 1.0;
    const auto result = scheduler.build(steps, options);
    ASSERT_EQ(result.slices.size(), 2u);
    EXPECT_DOUBLE_EQ(result.slices[1].start,
                     1.0 + 2.0e9 / params.interBandwidth);
    EXPECT_DOUBLE_EQ(result.stepStart[0], 1.0);
    EXPECT_DOUBLE_EQ(result.stepFinish[0],
                     1.0 + 4.0e9 / params.interBandwidth);
}

TEST_F(LinkScheduleFixture, LinkThatNeverFreesIsALogicError)
{
    std::map<LinkId, double> busy;
    busy[{LinkType::NicSend, 0}] = std::numeric_limits<double>::infinity();
    const std::vector<TransferStep> steps = {wireStep(0, {{0, 1, 1.0e9}})};
    EXPECT_THROW(scheduler.build(steps, {}, busy), std::logic_error);
}

TEST_F(LinkScheduleFixture, MatchesTheReferenceScheduleExactly)
{
    // Differential check against the straightforward implementation on
    // seeded random step sets: shared and disjoint ports, PCIe moves,
    // cold loads, zero-byte entries, and external horizons both on the
    // links the items use and on links none of them touches.  Byte
    // sizes are multiples of 0.25 GB so ties (simultaneous completions
    // and releases) happen often.
    std::mt19937 rng(20240417);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int compared = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const int base = pick(0, 40);
        const int fleet = pick(1, 8);
        auto instance = [&] { return base + pick(0, fleet - 1); };
        std::vector<TransferStep> steps(static_cast<std::size_t>(pick(1, 8)));
        for (std::size_t s = 0; s < steps.size(); ++s) {
            steps[s].layer = static_cast<int>(s) - 1;
            for (int k = pick(0, 4); k > 0; --k) {
                const double bytes = 0.25e9 * pick(-1, 12);
                steps[s].transfers.push_back({instance(), instance(), bytes});
            }
            for (int k = pick(0, 2); k > 0; --k)
                steps[s].coldLoads.emplace_back(instance(),
                                                0.25e9 * pick(0, 8));
        }
        LinkScheduleOptions options;
        options.startTime = pick(0, 1) ? 0.0 : 0.125 * pick(0, 800);
        options.setupTime = 0.25 * pick(0, 4);
        std::map<LinkId, double> busy;
        for (int k = pick(0, 6); k > 0; --k) {
            const LinkId link{static_cast<LinkType>(pick(0, 3)),
                              base + pick(-2, fleet + 2)};
            busy[link] = options.startTime + 0.125 * pick(-8, 48);
        }

        const auto got = scheduler.build(steps, options, busy);
        const auto want = referenceBuild(params, steps, options, busy);
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        ASSERT_EQ(got.slices.size(), want.slices.size());
        for (std::size_t i = 0; i < got.slices.size(); ++i) {
            const LinkSlice &a = got.slices[i];
            const LinkSlice &b = want.slices[i];
            EXPECT_EQ(a.step, b.step);
            EXPECT_EQ(a.transfer, b.transfer);
            EXPECT_EQ(a.coldLoad, b.coldLoad);
            EXPECT_EQ(a.start, b.start);
            EXPECT_EQ(a.finish, b.finish);
            EXPECT_EQ(a.bytes, b.bytes);
            ASSERT_EQ(a.numLinks, b.numLinks);
            for (int k = 0; k < a.numLinks; ++k)
                EXPECT_EQ(a.links[k], b.links[k]);
        }
        EXPECT_EQ(got.stepStart, want.stepStart);
        EXPECT_EQ(got.stepFinish, want.stepFinish);
        EXPECT_EQ(got.makespan, want.makespan);
        EXPECT_EQ(got.linkBusyUntil, want.linkBusyUntil);
        ++compared;
    }
    EXPECT_EQ(compared, 300);
}

// ---------------------------------------------------------------------
// TransferDataPlane: the executor-facing wrapper.
// ---------------------------------------------------------------------

class DataPlaneFixture : public ::testing::Test
{
  protected:
    DataPlaneFixture()
        : params(cost::CostParams::awsG4dn()), plane(sim, params),
          costModel(params)
    {
    }

    sim::Simulation sim;
    cost::CostParams params;
    core::TransferDataPlane plane;
    cost::MigrationCostModel costModel;
};

TEST_F(DataPlaneFixture, PreviewQuotesExactlyWhatSubmitCommits)
{
    std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}, {1, 2, 1.0e9}})};
    const auto quote = plane.preview(steps, params.migrationSetupTime);
    const auto committed = plane.submit(quote, {});
    ASSERT_EQ(quote.result.stepFinish.size(), committed.stepFinish.size());
    for (std::size_t k = 0; k < quote.result.stepFinish.size(); ++k) {
        EXPECT_DOUBLE_EQ(quote.result.stepStart[k], committed.stepStart[k]);
        EXPECT_DOUBLE_EQ(quote.result.stepFinish[k],
                         committed.stepFinish[k]);
    }
    EXPECT_DOUBLE_EQ(quote.result.makespan, committed.makespan);
    EXPECT_FALSE(quote.result.contended);
    // A preview never reserves: only the submit moved the horizons.
    EXPECT_GT(plane.busyUntil(cost::LinkType::NicSend, 0), sim.now());
    EXPECT_EQ(plane.submissions(), 1);
}

TEST_F(DataPlaneFixture, SecondMigrationContendsForSharedLinks)
{
    std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}})};
    const auto first =
        plane.submit(plane.preview(steps, params.migrationSetupTime), {});
    // Same pair again, immediately: must queue behind the first wire
    // transfer rather than pretend the link is free.
    const auto second =
        plane.submit(plane.preview(steps, params.migrationSetupTime), {});
    EXPECT_TRUE(second.contended);
    const double w = costModel.wireTime(steps[0].transfers);
    EXPECT_NEAR(second.makespan, first.makespan + w, 1e-9);
    EXPECT_EQ(plane.contendedSubmissions(), 1);

    // A pair on untouched instances is quoted as if the plane were idle.
    std::vector<TransferStep> disjoint = {
        wireStep(0, {{4, 5, 2.0e9}})};
    const auto third = plane.preview(disjoint, params.migrationSetupTime);
    EXPECT_FALSE(third.result.contended);
    EXPECT_NEAR(third.result.makespan, first.makespan, 1e-9);
}

TEST_F(DataPlaneFixture, ColdLoadMatchesClosedFormAndFiresCompletion)
{
    const double bytes = 3.0e9;
    const double expected = bytes / params.diskBandwidth;
    const double makespan = plane.submitColdLoad({{0, bytes}, {1, bytes}});
    // Distinct disks load in parallel: the batch is one disk's time.
    EXPECT_NEAR(makespan, expected, 1e-9);
    EXPECT_EQ(plane.inFlightCount(), 1);
    sim.run();
    EXPECT_EQ(plane.inFlightCount(), 0);
    EXPECT_NEAR(sim.now(), expected, 1e-9);

    // Back-to-back on the same disk honestly doubles.
    const double again = plane.submitColdLoad({{0, bytes}});
    EXPECT_NEAR(again, expected, 1e-9);
    const double queued = plane.submitColdLoad({{0, bytes}});
    EXPECT_NEAR(queued, 2.0 * expected, 1e-9);
    // Each cold-load batch is one schedule: quoted and committed once.
    EXPECT_EQ(plane.schedulesBuilt(), 3);
}

// Quote staleness: a quote is committed as built only while the busy
// horizons and the clock it was built against still hold.

TEST_F(DataPlaneFixture, QuoteCommittedAtTheSameInstantBuildsOnce)
{
    const std::vector<TransferStep> steps = {wireStep(0, {{0, 1, 2.0e9}})};
    auto quote = plane.preview(steps, params.migrationSetupTime);
    EXPECT_EQ(plane.schedulesBuilt(), 1);
    const auto committed = plane.submit(std::move(quote), {});
    EXPECT_EQ(plane.schedulesBuilt(), 1);
    EXPECT_EQ(plane.submissions(), 1);
    EXPECT_DOUBLE_EQ(committed.makespan,
                     transferTime(costModel, steps[0].transfers));
}

TEST_F(DataPlaneFixture, InterveningSubmitForcesARebuild)
{
    const std::vector<TransferStep> steps = {wireStep(0, {{0, 1, 2.0e9}})};
    auto stale = plane.preview(steps, params.migrationSetupTime);
    EXPECT_FALSE(stale.result.contended);
    const double quoted = stale.result.makespan;
    // Another migration takes the same ports before the quote commits.
    plane.submit(plane.preview(steps, params.migrationSetupTime), {});
    EXPECT_EQ(plane.schedulesBuilt(), 2);
    const auto committed = plane.submit(std::move(stale), {});
    EXPECT_EQ(plane.schedulesBuilt(), 3);
    // The rebuild queues behind the intervening plan, as a fresh quote
    // would have.
    const double w = costModel.wireTime(steps[0].transfers);
    EXPECT_TRUE(committed.contended);
    EXPECT_NEAR(committed.makespan, quoted + w, 1e-9);
}

TEST_F(DataPlaneFixture, LinkStallForcesARebuild)
{
    const std::vector<TransferStep> steps = {wireStep(0, {{0, 1, 2.0e9}})};
    auto stale = plane.preview(steps, params.migrationSetupTime);
    plane.stallInstanceLinks(1, 3.0); // receiver dark until t = 3
    const auto committed = plane.submit(std::move(stale), {});
    EXPECT_EQ(plane.schedulesBuilt(), 2);
    const double w = costModel.wireTime(steps[0].transfers);
    EXPECT_TRUE(committed.contended);
    EXPECT_NEAR(committed.stepStart[0], 3.0, 1e-9);
    EXPECT_NEAR(committed.makespan, 3.0 + w, 1e-9);
}

TEST_F(DataPlaneFixture, AdvancingClockForcesARebuild)
{
    const std::vector<TransferStep> steps = {wireStep(0, {{0, 1, 2.0e9}})};
    plane.submit(plane.preview(steps, params.migrationSetupTime), {});
    auto stale = plane.preview(steps, params.migrationSetupTime);
    const double quoted = stale.result.makespan;
    EXPECT_EQ(plane.schedulesBuilt(), 2);
    sim.schedule(0.25, [] {});
    sim.run(0.25);
    ASSERT_DOUBLE_EQ(sim.now(), 0.25);
    const auto committed = plane.submit(std::move(stale), {});
    EXPECT_EQ(plane.schedulesBuilt(), 3);
    // Offsets are from the commit instant: the queued transfer lands a
    // quarter second sooner than the stale quote said.
    EXPECT_NEAR(committed.makespan, quoted - 0.25, 1e-9);
}

} // namespace
} // namespace spotserve
