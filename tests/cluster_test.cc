/**
 * @file
 * Tests for instance lifecycle, trace replay, billing, and the trace
 * library.
 */

#include <gtest/gtest.h>

#include "simcore/simulation.h"
#include "cluster/instance_manager.h"
#include "cluster/trace_library.h"

namespace spotserve::cluster {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

TEST(InstanceTest, LifecycleTransitions)
{
    Instance inst(0, InstanceType::Spot, 4, 0.0);
    EXPECT_EQ(inst.state(), InstanceState::Provisioning);
    EXPECT_FALSE(inst.usable());
    inst.markRunning(10.0);
    EXPECT_TRUE(inst.usable());
    inst.markGrace(50.0, 80.0);
    EXPECT_TRUE(inst.usable());
    EXPECT_DOUBLE_EQ(inst.noticeTime(), 50.0);
    EXPECT_DOUBLE_EQ(inst.preemptTime(), 80.0);
    inst.markPreempted(80.0);
    EXPECT_FALSE(inst.usable());
    EXPECT_DOUBLE_EQ(inst.endTime(), 80.0);
}

TEST(InstanceTest, IllegalTransitionsThrow)
{
    Instance inst(0, InstanceType::Spot, 4, 0.0);
    EXPECT_THROW(inst.markGrace(1.0, 2.0), std::logic_error);
    inst.markRunning(0.0);
    EXPECT_THROW(inst.markRunning(1.0), std::logic_error);
    inst.markReleased(5.0);
    EXPECT_THROW(inst.markPreempted(6.0), std::logic_error);
}

TEST(InstanceTest, GpuIdsAreGlobal)
{
    Instance inst(3, InstanceType::OnDemand, 4, 0.0);
    EXPECT_EQ(inst.gpuIds(), (std::vector<par::GpuId>{12, 13, 14, 15}));
    EXPECT_EQ(Instance::instanceOfGpu(13, 4), 3);
    EXPECT_EQ(Instance::instanceOfGpu(0, 4), 0);
    EXPECT_THROW(Instance::instanceOfGpu(-1, 4), std::invalid_argument);
}

TEST(AvailabilityTraceTest, ValidatesEvents)
{
    EXPECT_THROW(AvailabilityTrace("x", 0.0, {}), std::invalid_argument);
    EXPECT_THROW(
        AvailabilityTrace(
            "x", 10.0,
            {TraceEvent{20.0, TraceEventKind::Join, InstanceType::Spot, 1}}),
        std::invalid_argument);
    EXPECT_THROW(
        AvailabilityTrace("x", 10.0,
                          {TraceEvent{1.0, TraceEventKind::PreemptNotice,
                                      InstanceType::OnDemand, 1}}),
        std::invalid_argument);
}

TEST(AvailabilityTraceTest, SeriesTracksEvents)
{
    AvailabilityTrace trace(
        "t", 100.0,
        {
            TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 4},
            TraceEvent{10.0, TraceEventKind::PreemptNotice,
                       InstanceType::Spot, 1},
            TraceEvent{50.0, TraceEventKind::Join, InstanceType::OnDemand, 2},
            TraceEvent{80.0, TraceEventKind::Release, InstanceType::OnDemand,
                       1},
        });
    const auto series = trace.series(10.0, 30.0);
    // t=0: 4 spot.  Preempt notice at 10 takes effect at 40.
    EXPECT_EQ(series[0].spot, 4);
    EXPECT_EQ(series[3].spot, 4);  // t=30, still in grace
    EXPECT_EQ(series[4].spot, 3);  // t=40, preempted
    EXPECT_EQ(series[5].onDemand, 2);
    EXPECT_EQ(series[8].onDemand, 1); // t=80, one released
    EXPECT_EQ(series.back().total(), 4);
    EXPECT_EQ(trace.initialCount(), 4);
    EXPECT_EQ(trace.totalPreemptions(), 1);
}

class ManagerListener : public ClusterListener
{
  public:
    std::vector<InstanceId> ready, preempted, released;
    std::vector<std::pair<InstanceId, sim::SimTime>> notices;

    void
    onInstanceReady(const Instance &i) override
    {
        ready.push_back(i.id());
    }
    void
    onPreemptionNotice(const Instance &i, sim::SimTime at) override
    {
        notices.push_back({i.id(), at});
    }
    void
    onInstancePreempted(const Instance &i) override
    {
        preempted.push_back(i.id());
    }
    void
    onInstanceReleased(const Instance &i) override
    {
        released.push_back(i.id());
    }
};

TEST(InstanceManagerTest, TraceReplayLifecycle)
{
    sim::Simulation sim;
    InstanceManager mgr(sim, kParams);
    ManagerListener listener;
    mgr.setListener(&listener);
    AvailabilityTrace trace(
        "t", 300.0,
        {
            TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 3},
            TraceEvent{100.0, TraceEventKind::PreemptNotice,
                       InstanceType::Spot, 1},
        });
    mgr.loadTrace(trace);
    sim.run(50.0);
    EXPECT_EQ(listener.ready.size(), 3u);
    EXPECT_EQ(mgr.usableCount(), 3);
    EXPECT_EQ(mgr.planningCount(), 3);

    sim.run(110.0);
    ASSERT_EQ(listener.notices.size(), 1u);
    // Grace period: preemption lands 30 s after the notice.
    EXPECT_DOUBLE_EQ(listener.notices[0].second,
                     100.0 + kParams.gracePeriod);
    EXPECT_EQ(mgr.usableCount(), 3);     // still usable during grace
    EXPECT_EQ(mgr.planningCount(), 2);   // but excluded from planning

    sim.run(200.0);
    EXPECT_EQ(listener.preempted.size(), 1u);
    EXPECT_EQ(mgr.usableCount(), 2);
}

TEST(InstanceManagerTest, EveryGraceExitReachesTheListenerOnce)
{
    // A listener that erases its notice on release or preemption holds no
    // stale notice: each way out of a grace period reaches it exactly
    // once, and the scheduled preemption of an instance that already left
    // does nothing.
    sim::Simulation sim;
    InstanceManager mgr(sim, kParams);
    ManagerListener listener;
    mgr.setListener(&listener);
    mgr.loadTrace(AvailabilityTrace(
        "t", 300.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 3},
         TraceEvent{100.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    2}}));
    sim.run(110.0);
    ASSERT_EQ(listener.notices.size(), 2u);
    const InstanceId released = listener.notices[0].first;
    const InstanceId killed = listener.notices[1].first;
    ASSERT_LT(sim.now(), listener.notices[1].second);

    mgr.releaseInstance(released);
    EXPECT_TRUE(mgr.hardPreemptInstance(killed));
    EXPECT_EQ(listener.released, std::vector<InstanceId>{released});
    EXPECT_EQ(listener.preempted, std::vector<InstanceId>{killed});

    sim.run(200.0); // past both noticed times
    EXPECT_EQ(listener.released, std::vector<InstanceId>{released});
    EXPECT_EQ(listener.preempted, std::vector<InstanceId>{killed});
    EXPECT_EQ(mgr.get(released)->state(), InstanceState::Released);
    EXPECT_EQ(mgr.get(killed)->state(), InstanceState::Preempted);
    EXPECT_EQ(mgr.usableCount(), 1);
}

TEST(InstanceManagerTest, DynamicAllocationHasLeadTime)
{
    sim::Simulation sim;
    InstanceManager mgr(sim, kParams);
    ManagerListener listener;
    mgr.setListener(&listener);
    const auto ids = mgr.requestInstances(2, InstanceType::OnDemand);
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_EQ(mgr.planningCount(), 2); // provisioning counts for planning
    EXPECT_EQ(mgr.usableCount(), 0);
    sim.run(kParams.acquisitionLeadTime + 1.0);
    EXPECT_EQ(listener.ready.size(), 2u);
    EXPECT_EQ(mgr.usableCount(), 2);
}

TEST(InstanceManagerTest, ReleaseOnDemandFirst)
{
    sim::Simulation sim;
    InstanceManager mgr(sim, kParams);
    mgr.requestInstances(2, InstanceType::Spot);
    mgr.requestInstances(1, InstanceType::OnDemand);
    sim.run(kParams.acquisitionLeadTime + 1.0);
    EXPECT_EQ(mgr.releaseInstances(2, /*ondemand_first=*/true), 2);
    int od_alive = 0;
    for (const auto *inst : mgr.usableInstances()) {
        if (inst->type() == InstanceType::OnDemand)
            ++od_alive;
    }
    EXPECT_EQ(od_alive, 0);
    EXPECT_EQ(mgr.usableCount(), 1);
}

TEST(InstanceManagerTest, BillingBySeconds)
{
    sim::Simulation sim;
    InstanceManager mgr(sim, kParams);
    AvailabilityTrace trace(
        "t", 7200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 1},
         TraceEvent{0.0, TraceEventKind::Join, InstanceType::OnDemand, 1}});
    mgr.loadTrace(trace);
    sim.run(3600.0);
    EXPECT_NEAR(mgr.accruedCost(3600.0),
                kParams.spotPricePerHour + kParams.ondemandPricePerHour,
                1e-9);
    EXPECT_NEAR(mgr.spotInstanceHours(3600.0), 1.0, 1e-9);
    EXPECT_NEAR(mgr.ondemandInstanceHours(3600.0), 1.0, 1e-9);
}

TEST(InstanceManagerTest, PreemptedInstanceStopsBilling)
{
    sim::Simulation sim;
    InstanceManager mgr(sim, kParams);
    AvailabilityTrace trace(
        "t", 7200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 1},
         TraceEvent{1770.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    1}});
    mgr.loadTrace(trace);
    sim.run(7200.0);
    // Billed from 0 to 1800 (notice + 30 s grace) at $1.9/h.
    EXPECT_NEAR(mgr.accruedCost(7200.0), 0.5 * kParams.spotPricePerHour,
                1e-6);
}

TEST(TraceLibraryTest, Figure5TracesShape)
{
    const auto traces = figure5Traces();
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0].name(), "AS");
    EXPECT_EQ(traces[1].name(), "BS");
    EXPECT_EQ(traces[2].name(), "AS+O");
    EXPECT_EQ(traces[3].name(), "BS+O");
    for (const auto &t : traces) {
        EXPECT_DOUBLE_EQ(t.duration(), 1200.0);
        EXPECT_EQ(t.initialCount(), 12);
        // Availability stays within the paper's 0..12 plot range.
        for (const auto &s : t.series(30.0, kParams.gracePeriod)) {
            EXPECT_GE(s.total(), 0);
            EXPECT_LE(s.total(), 13);
        }
    }
    // B_S is the hostile trace.
    EXPECT_GT(traces[1].totalPreemptions(), traces[0].totalPreemptions());
}

TEST(TraceLibraryTest, BsHasOverlappingGracePeriods)
{
    // §4.2 interruption fault-tolerance is exercised by consecutive,
    // compact interruptions whose grace periods overlap.
    const auto bs = traceBS();
    bool overlapping = false;
    const auto &events = bs.events();
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i].kind == TraceEventKind::PreemptNotice &&
            events[i - 1].kind == TraceEventKind::PreemptNotice &&
            events[i].time - events[i - 1].time < kParams.gracePeriod &&
            events[i].time != events[i - 1].time) {
            overlapping = true;
        }
    }
    EXPECT_TRUE(overlapping);
}

TEST(TraceLibraryTest, MixOnDemandTopsUpToTarget)
{
    const auto mixed = mixOnDemand(traceBS(), 10, 120.0);
    EXPECT_EQ(mixed.name(), "BS+O");
    // After every acquisition lead time has elapsed, the total fleet must
    // be back at (or above) the target whenever spot dips below it.
    const auto series = mixed.series(30.0, kParams.gracePeriod);
    bool used_od = false;
    for (const auto &s : series)
        used_od |= s.onDemand > 0;
    EXPECT_TRUE(used_od);
    // The spot portion is untouched by mixing.
    const auto spot_only = traceBS().series(30.0, kParams.gracePeriod);
    for (std::size_t i = 0; i < series.size(); ++i)
        EXPECT_EQ(series[i].spot, spot_only[i].spot);
}

TEST(TraceLibraryTest, Fig8TracesFollowNarrative)
{
    const auto a = traceFig8A();
    EXPECT_EQ(a.initialCount(), 10);
    EXPECT_DOUBLE_EQ(a.duration(), 1080.0);
    const auto series = a.series(30.0, kParams.gracePeriod);
    // After the t=450 acquisitions the fleet peaks at 12.
    int peak = 0;
    for (const auto &s : series)
        peak = std::max(peak, s.total());
    EXPECT_EQ(peak, 12);
    // After the release wave it returns to 8.
    EXPECT_EQ(series.back().total(), 8);
    const auto b = traceFig8B();
    EXPECT_EQ(b.initialCount(), 10);
    EXPECT_GT(b.totalPreemptions(), a.totalPreemptions());
}

} // namespace
} // namespace spotserve::cluster
