#include "core/transfer_data_plane.h"

#include <algorithm>
#include <cmath>

namespace spotserve {
namespace core {

namespace {
constexpr double kEps = 1e-9;
} // namespace

TransferDataPlane::TransferDataPlane(sim::Executor &executor,
                                     const cost::CostParams &params)
    : executor_(executor), scheduler_(params)
{
}

bool
TransferDataPlane::touchesBusyLink(
    const std::vector<cost::TransferStep> &steps) const
{
    const double now = executor_.now();
    auto busy = [&](const cost::LinkId &l) {
        auto it = busyUntil_.find(l);
        return it != busyUntil_.end() && it->second > now + 1e-12;
    };
    for (const auto &s : steps) {
        for (const auto &t : s.transfers) {
            if (t.bytes <= 0.0)
                continue;
            if (t.srcInstance == t.dstInstance) {
                if (busy({cost::LinkType::Pcie, t.srcInstance}))
                    return true;
            } else if (busy({cost::LinkType::NicSend, t.srcInstance}) ||
                       busy({cost::LinkType::NicRecv, t.dstInstance})) {
                return true;
            }
        }
        for (const auto &[inst, bytes] : s.coldLoads) {
            if (bytes > 0.0 && busy({cost::LinkType::Disk, inst}))
                return true;
        }
    }
    return false;
}

bool
TransferDataPlane::stepTouches(const cost::TransferStep &step, int instance)
{
    for (const auto &t : step.transfers) {
        if (t.bytes > 0.0 &&
            (t.srcInstance == instance || t.dstInstance == instance)) {
            return true;
        }
    }
    for (const auto &[inst, bytes] : step.coldLoads) {
        if (bytes > 0.0 && inst == instance)
            return true;
    }
    return false;
}

bool
TransferDataPlane::planRemainderTouches(const InFlight &plan,
                                        int instance) const
{
    const double now = executor_.now();
    for (std::size_t s = 0; s < plan.steps.size(); ++s) {
        const double finish =
            s < plan.stepFinishAbs.size() ? plan.stepFinishAbs[s]
                                          : plan.finishAbs;
        if (finish > now + kEps && stepTouches(plan.steps[s], instance))
            return true;
    }
    return false;
}

TransferDataPlane::Quote
TransferDataPlane::preview(std::vector<cost::TransferStep> steps,
                           double setup_time) const
{
    Quote quote;
    quote.now = executor_.now();
    quote.epoch = busyEpoch_;
    quote.setupTime = setup_time;
    cost::LinkScheduleOptions opts;
    opts.startTime = quote.now;
    opts.setupTime = setup_time;
    quote.schedule = scheduler_.build(steps, opts, busyUntil_);
    ++schedulesBuilt_;

    Result &out = quote.result;
    out.stepStart.reserve(quote.schedule.stepStart.size());
    out.stepFinish.reserve(quote.schedule.stepFinish.size());
    for (double s : quote.schedule.stepStart)
        out.stepStart.push_back(s - quote.now);
    for (double f : quote.schedule.stepFinish)
        out.stepFinish.push_back(f - quote.now);
    out.makespan = quote.schedule.makespan - quote.now;
    out.contended = touchesBusyLink(steps);
    quote.steps = std::move(steps);
    return quote;
}

TransferDataPlane::Result
TransferDataPlane::submit(Quote quote, SubmitOptions options)
{
    const double now = executor_.now();
    // A quote is the schedule of the link state it was built against;
    // once the clock or the horizons moved, schedule its steps afresh.
    // Under sim::Simulation a preview and its submit share one event, so
    // this never fires there; but WallClockExecutor::now() advances
    // between SpotServeSystem::startMigration's preview and its submit,
    // so wall-clock runs take this path on every migration.
    if (quote.epoch != busyEpoch_ || quote.now != now)
        quote = preview(std::move(quote.steps), quote.setupTime);
    const cost::LinkScheduleResult &sched = quote.schedule;
    Result out = std::move(quote.result);

    InFlight plan;
    plan.id = nextPlanId_++;
    plan.stepFinishAbs = sched.stepFinish;
    plan.finishAbs = now + std::max(out.makespan, 0.0);
    plan.onFail = std::move(options.onFail);
    // Remember which links this plan extends (and from where), so an
    // abort can hand back the unused reservation tail.
    for (const auto &slice : sched.slices) {
        for (int k = 0; k < slice.numLinks; ++k) {
            const cost::LinkId l = slice.links[k];
            auto &horizon = plan.planBusy[l];
            horizon = std::max(horizon, slice.finish);
            if (!plan.busyBefore.count(l)) {
                auto it = busyUntil_.find(l);
                plan.busyBefore[l] =
                    it == busyUntil_.end() ? 0.0 : it->second;
            }
        }
    }

    // Commit: the schedule's link occupancy becomes the new busy state.
    busyUntil_ = std::move(quote.schedule.linkBusyUntil);
    prune();
    ++busyEpoch_;

    ++submissions_;
    if (out.contended)
        ++contendedSubmissions_;
    plan.steps = std::move(quote.steps);

    if (options.deadline > 0.0) {
        plan.deadlineAbs = now + options.deadline;
        executor_.schedule(plan.deadlineAbs, [this, id = plan.id] {
            auto it = inFlight_.find(id);
            if (it != inFlight_.end() &&
                it->second.finishAbs > it->second.deadlineAbs + kEps) {
                failPlan(id, -1, /*timed_out=*/true);
            }
        });
    }
    auto [it, inserted] = inFlight_.emplace(plan.id, std::move(plan));
    (void)inserted;
    scheduleCompletion(it->second);
    return out;
}

double
TransferDataPlane::submitColdLoad(
    const std::vector<std::pair<int, double>> &loads)
{
    std::vector<cost::TransferStep> steps(1);
    steps[0].coldLoads = loads;
    return submit(preview(std::move(steps), /*setup_time=*/0.0), {})
        .makespan;
}

void
TransferDataPlane::scheduleCompletion(InFlight &plan)
{
    const double delay = std::max(plan.finishAbs - executor_.now(), 0.0);
    executor_.scheduleAfter(delay, [this, id = plan.id, rev = plan.rev] {
        completePlan(id, rev);
    });
}

void
TransferDataPlane::completePlan(PlanId id, long rev)
{
    auto it = inFlight_.find(id);
    if (it == inFlight_.end() || it->second.rev != rev)
        return; // Failed, or rescheduled behind a link fault.
    inFlight_.erase(it);
}

void
TransferDataPlane::failPlan(PlanId id, int failed_instance, bool timed_out)
{
    auto it = inFlight_.find(id);
    if (it == inFlight_.end())
        return;
    InFlight &plan = it->second;
    const double now = executor_.now();

    PlanFailure failure;
    failure.planId = id;
    failure.failedInstance = failed_instance;
    failure.timedOut = timed_out;
    if (timed_out)
        ++planTimeouts_;
    else
        ++plansCancelled_;

    releasePlanLinks(plan);
    auto on_fail = std::move(plan.onFail);
    inFlight_.erase(it);
    if (on_fail) {
        // Deliver in a fresh event: the failure often arrives from inside
        // a cluster-listener callback, and recovery wants a clean stack.
        executor_.schedule(now, [cb = std::move(on_fail),
                                 f = std::move(failure)] { cb(f); });
    }
}

void
TransferDataPlane::releasePlanLinks(const InFlight &plan)
{
    const double now = executor_.now();
    ++busyEpoch_;
    for (const auto &[l, horizon] : plan.planBusy) {
        auto it = busyUntil_.find(l);
        if (it == busyUntil_.end())
            continue;
        // Only hand back the tail if no later plan extended this link.
        if (std::abs(it->second - horizon) < kEps) {
            auto before = plan.busyBefore.find(l);
            const double restored =
                before == plan.busyBefore.end() ? 0.0 : before->second;
            if (restored <= now)
                busyUntil_.erase(it);
            else
                it->second = restored;
        }
    }
}

int
TransferDataPlane::failInstance(int instance)
{
    std::vector<PlanId> doomed;
    for (const auto &[id, plan] : inFlight_) {
        if (planRemainderTouches(plan, instance))
            doomed.push_back(id);
    }
    for (PlanId id : doomed)
        failPlan(id, instance, /*timed_out=*/false);
    return static_cast<int>(doomed.size());
}

void
TransferDataPlane::delayPlan(InFlight &plan, double delay)
{
    const double now = executor_.now();
    ++busyEpoch_;
    for (double &finish : plan.stepFinishAbs) {
        if (finish > now + kEps)
            finish += delay;
    }
    plan.finishAbs += delay;
    for (auto &[l, horizon] : plan.planBusy) {
        if (horizon > now + kEps) {
            horizon += delay;
            auto it = busyUntil_.find(l);
            if (it != busyUntil_.end())
                it->second = std::max(it->second, horizon);
            else
                busyUntil_[l] = horizon;
        }
    }
    ++plan.rev;
    scheduleCompletion(plan);
}

void
TransferDataPlane::stallInstanceLinks(int instance, double duration)
{
    if (duration <= 0.0)
        return;
    const double now = executor_.now();
    ++busyEpoch_;
    // The blackout also blocks plans submitted while it lasts.
    for (cost::LinkType type :
         {cost::LinkType::NicSend, cost::LinkType::NicRecv,
          cost::LinkType::Pcie, cost::LinkType::Disk}) {
        auto &horizon = busyUntil_[cost::LinkId{type, instance}];
        horizon = std::max(horizon, now + duration);
    }
    std::vector<PlanId> affected;
    for (const auto &[id, plan] : inFlight_) {
        if (planRemainderTouches(plan, instance))
            affected.push_back(id);
    }
    std::vector<PlanId> expired;
    for (PlanId id : affected) {
        auto it = inFlight_.find(id);
        if (it == inFlight_.end())
            continue;
        delayPlan(it->second, duration);
        if (it->second.deadlineAbs > 0.0 &&
            it->second.finishAbs > it->second.deadlineAbs + kEps) {
            expired.push_back(id);
        }
    }
    for (PlanId id : expired)
        failPlan(id, -1, /*timed_out=*/true);
}

void
TransferDataPlane::degradeInstanceLinks(int instance, double factor)
{
    if (factor <= 0.0) {
        // Zero bandwidth with no end is a death sentence for the plans.
        failInstance(instance);
        return;
    }
    if (factor >= 1.0)
        return;
    const double now = executor_.now();
    std::vector<PlanId> affected;
    for (const auto &[id, plan] : inFlight_) {
        if (planRemainderTouches(plan, instance))
            affected.push_back(id);
    }
    std::vector<PlanId> expired;
    for (PlanId id : affected) {
        auto it = inFlight_.find(id);
        if (it == inFlight_.end())
            continue;
        InFlight &plan = it->second;
        const double remaining = std::max(plan.finishAbs - now, 0.0);
        const double delay = remaining * (1.0 / factor - 1.0);
        if (delay <= 0.0)
            continue;
        delayPlan(plan, delay);
        if (plan.deadlineAbs > 0.0 &&
            plan.finishAbs > plan.deadlineAbs + kEps) {
            expired.push_back(id);
        }
    }
    for (PlanId id : expired)
        failPlan(id, -1, /*timed_out=*/true);
}

double
TransferDataPlane::busyUntil(cost::LinkType type, int instance) const
{
    auto it = busyUntil_.find(cost::LinkId{type, instance});
    const double now = executor_.now();
    return it == busyUntil_.end() ? now : std::max(it->second, now);
}

std::vector<int>
TransferDataPlane::inFlightInstances(bool sources_only) const
{
    const double now = executor_.now();
    std::vector<int> out;
    for (const auto &[id, plan] : inFlight_) {
        (void)id;
        for (std::size_t s = 0; s < plan.steps.size(); ++s) {
            const double finish =
                s < plan.stepFinishAbs.size() ? plan.stepFinishAbs[s]
                                              : plan.finishAbs;
            if (finish <= now + kEps)
                continue;
            for (const auto &t : plan.steps[s].transfers) {
                if (t.bytes <= 0.0)
                    continue;
                out.push_back(t.srcInstance);
                if (!sources_only)
                    out.push_back(t.dstInstance);
            }
            if (!sources_only) {
                for (const auto &[inst, bytes] : plan.steps[s].coldLoads) {
                    if (bytes > 0.0)
                        out.push_back(inst);
                }
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
TransferDataPlane::prune()
{
    const double now = executor_.now();
    for (auto it = busyUntil_.begin(); it != busyUntil_.end();) {
        if (it->second <= now)
            it = busyUntil_.erase(it);
        else
            ++it;
    }
}

} // namespace core
} // namespace spotserve

