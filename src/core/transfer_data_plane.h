/**
 * @file
 * The migration transfer data plane.
 *
 * Executes link schedules (cost::LinkSchedule) as events on the
 * sim::Executor seam and keeps the fleet's per-link busy horizons across
 * submissions, so concurrent migrations — several replicas reconfiguring
 * in one churn window, or a baseline's cold weight loads — genuinely
 * contend for shared NIC/PCIe/disk links: a second migration touching an
 * instance whose ports are still draining is scheduled behind (or
 * interleaved around) the first, in both the deterministic simulator and
 * the wall-clock executor.
 *
 * Protocol: quote, then commit.  preview() schedules the steps against
 * the current link state without reserving anything and returns a Quote:
 * the offsets, the built schedule, the steps themselves, the instant and
 * the epoch of the busy horizons it was built against (the §4.2
 * grace-deadline decision and the arranger want quotes for plans they
 * may discard).  submit(quote) reserves the links the schedule occupies
 * and schedules a completion event at the makespan.  Every write to the
 * busy horizons bumps the epoch; a quote whose epoch and instant still
 * match is committed as built, and a stale one is re-scheduled from its
 * steps against the current state.  Either way a preview followed by a
 * submit in the same executor event commits the identical timeline, and
 * in that case the schedule is built once.  There is one scheduling
 * mode: steps interleave (see cost::LinkSchedule).
 *
 * Every submission is tracked in flight until its completion event fires,
 * so faults can reach it: failInstance() aborts any plan whose remaining
 * steps touch a dead instance, per-plan deadlines turn straggling
 * transfers into explicit failures, and stallInstanceLinks() /
 * degradeInstanceLinks() model link blackouts and realized bandwidth
 * below the schedule's quote.  A failed plan hands back its unused link
 * reservations and its onFail learns why it died (PlanFailure).
 */

#ifndef SPOTSERVE_CORE_TRANSFER_DATA_PLANE_H
#define SPOTSERVE_CORE_TRANSFER_DATA_PLANE_H

#include <functional>
#include <map>
#include <vector>

#include "costmodel/link_schedule.h"
#include "simcore/executor.h"

namespace spotserve {
namespace core {

class TransferDataPlane
{
  public:
    TransferDataPlane(sim::Executor &executor,
                      const cost::CostParams &params);

    using PlanId = long;

    /** A quoted or committed schedule, as offsets from now. */
    struct Result
    {
        std::vector<double> stepStart;
        std::vector<double> stepFinish;
        /** Offset from now at which the last step's context has landed. */
        double makespan = 0.0;
        /** True when an already-busy link delayed part of the schedule. */
        bool contended = false;
    };

    /** Why an in-flight plan died. */
    struct PlanFailure
    {
        PlanId planId = -1;
        /** Dead instance that doomed the plan (-1 on a pure timeout). */
        int failedInstance = -1;
        bool timedOut = false;
    };

    /** Per-submission failure callback and policy. */
    struct SubmitOptions
    {
        std::function<void(const PlanFailure &)> onFail;
        /**
         * Seconds after submission at which a still-unfinished plan is
         * failed (timedOut).  0 disables.  A quote-honoring plan never
         * times out when the deadline exceeds the makespan; link faults
         * that stretch the plan past the deadline trip it.
         */
        double deadline = 0.0;
    };

    /**
     * A schedule quoted against the link state of one instant.  The
     * fields past @c result are what submit() needs to commit it as is,
     * or to re-schedule it when the state moved.
     */
    struct Quote
    {
        Result result;
        cost::LinkScheduleResult schedule;
        std::vector<cost::TransferStep> steps;
        double setupTime = 0.0;
        /** Executor time the quote was built at. */
        double now = 0.0;
        /** Busy-horizon epoch the quote was built against. */
        long epoch = 0;
    };

    /**
     * Quote @p steps against the current link state without reserving
     * links.  @p setup_time is charged once at the front.
     */
    Quote preview(std::vector<cost::TransferStep> steps,
                  double setup_time) const;

    /**
     * Commit @p quote: reserve every link slice its schedule occupies and
     * track the plan in flight until its makespan.  A quote built at
     * another instant, or followed by a write to the busy horizons, is
     * re-scheduled from its steps first.
     */
    Result submit(Quote quote, SubmitOptions options);

    /**
     * Convenience for the restart-style baselines: per-instance cold
     * weight loads on the disk links, no setup.  Returns the makespan
     * offset (equals bytes/diskBandwidth per instance when uncontended,
     * i.e. exactly the closed-form cold-load time).
     */
    double submitColdLoad(const std::vector<std::pair<int, double>> &loads);

    /**
     * An instance died: abort every in-flight plan whose *remaining*
     * steps touch it (as transfer endpoint or cold-load target), release
     * the links those plans still held, and fire each plan's onFail.
     * Plans whose remaining steps do not involve the instance are
     * untouched.  Returns plans aborted.
     */
    int failInstance(int instance);

    /**
     * Link blackout: the instance's links carry no traffic for
     * @p duration seconds.  Remaining work of every in-flight plan
     * touching the instance slips by @p duration, and new submissions see
     * the links busy until the blackout lifts.
     */
    void stallInstanceLinks(int instance, double duration);

    /**
     * Straggler: the instance's links deliver @p factor (0 < factor <= 1)
     * of their quoted bandwidth from now on, stretching the remaining
     * time of every in-flight plan touching the instance by 1/factor.
     */
    void degradeInstanceLinks(int instance, double factor);

    /** Absolute time the given link is busy until (now if free). */
    double busyUntil(cost::LinkType type, int instance) const;

    /** Plans currently in flight. */
    int inFlightCount() const { return static_cast<int>(inFlight_.size()); }

    /**
     * Instances appearing in any remaining step of any in-flight plan
     * (sorted, unique).  @p sources_only restricts to transfer sources —
     * the mid-migration kill a fault plan aims for.
     */
    std::vector<int> inFlightInstances(bool sources_only = false) const;

    /** Submissions executed (migrations + cold-load batches). @{ */
    long submissions() const { return submissions_; }
    /** Link schedules built: one per preview, plus one per stale submit. */
    long schedulesBuilt() const { return schedulesBuilt_; }
    /** Submissions that found at least one of their links busy. */
    long contendedSubmissions() const { return contendedSubmissions_; }
    /** Plans aborted by instance death. */
    long plansCancelled() const { return plansCancelled_; }
    /** Plans failed by their deadline. */
    long planTimeouts() const { return planTimeouts_; }
    /** @} */

  private:
    struct InFlight
    {
        PlanId id = -1;
        std::vector<cost::TransferStep> steps;
        std::vector<double> stepFinishAbs;
        double finishAbs = 0.0;
        double deadlineAbs = 0.0; ///< 0: none.
        std::function<void(const PlanFailure &)> onFail;
        /** This plan's final horizon per link it occupies. */
        std::map<cost::LinkId, double> planBusy;
        /** The horizon each of those links had before this plan. */
        std::map<cost::LinkId, double> busyBefore;
        /** Bumped whenever the completion event is rescheduled. */
        long rev = 0;
    };

    bool touchesBusyLink(const std::vector<cost::TransferStep> &steps) const;
    static bool stepTouches(const cost::TransferStep &step, int instance);
    bool planRemainderTouches(const InFlight &plan, int instance) const;
    void scheduleCompletion(InFlight &plan);
    void completePlan(PlanId id, long rev);
    void failPlan(PlanId id, int failed_instance, bool timed_out);
    void releasePlanLinks(const InFlight &plan);
    void delayPlan(InFlight &plan, double delay);
    /** Drop horizons that have already passed (keeps the map bounded). */
    void prune();

    sim::Executor &executor_;
    cost::LinkSchedule scheduler_;
    std::map<cost::LinkId, double> busyUntil_;
    /** Bumped on every write to busyUntil_; stamps and checks quotes. */
    long busyEpoch_ = 0;
    std::map<PlanId, InFlight> inFlight_;
    PlanId nextPlanId_ = 0;
    long submissions_ = 0;
    mutable long schedulesBuilt_ = 0;
    long contendedSubmissions_ = 0;
    long plansCancelled_ = 0;
    long planTimeouts_ = 0;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_TRANSFER_DATA_PLANE_H
