/**
 * @file
 * A sim::Executor decorator that times every callback it fires.
 *
 * Components are handed the decorator instead of the real substrate; each
 * scheduled callback is wrapped so the wrapper records how long the
 * callback ran and, on the wall clock, how late it started.  Event order
 * and times are exactly the inner executor's, so a traced replay follows
 * the same timeline as an untraced one.  Used only by traced runs.
 *
 * On the wall clock an exception escaping a callback would end the process
 * from the driver thread, so there the wrapper catches it instead: the
 * first message is kept and failed() turns true.  In the simulator it
 * propagates to whoever called run().
 */

#ifndef SPOTSERVE_PERFBENCH_TRACING_EXECUTOR_H
#define SPOTSERVE_PERFBENCH_TRACING_EXECUTOR_H

#include <atomic>
#include <string>
#include <vector>

#include "bench_common.h"
#include "simcore/executor.h"

namespace perfbench {

class TracingExecutor : public spotserve::sim::Executor
{
  public:
    /**
     * @param time_scale virtual seconds per real second when @p inner is a
     *        WallClockExecutor (lateness is reported in real time); 0 for
     *        the simulator, where callbacks are never late.
     */
    TracingExecutor(spotserve::sim::Executor &inner, double time_scale);

    spotserve::sim::SimTime now() const override { return inner_.now(); }
    spotserve::sim::EventId schedule(spotserve::sim::SimTime when,
                                     spotserve::sim::EventCallback fn) override;
    spotserve::sim::EventId
    scheduleAfter(spotserve::sim::SimTime delay,
                  spotserve::sim::EventCallback fn) override;
    bool cancel(spotserve::sim::EventId id) override
    {
        return inner_.cancel(id);
    }
    std::uint64_t run(spotserve::sim::SimTime until) override
    {
        return inner_.run(until);
    }
    bool step() override { return inner_.step(); }
    bool idle() const override { return inner_.idle(); }
    std::uint64_t eventsFired() const override { return inner_.eventsFired(); }

    /**
     * Per-callback samples, appended on the thread that fires callbacks.
     * Read them only once the inner executor has stopped firing.
     * @{ */
    const std::vector<float> &callbackSeconds() const { return callbackSec_; }
    const std::vector<float> &lateSeconds() const { return lateSec_; }
    double callbackSecondsTotal() const { return callbackTotal_; }
    /** @} */

    /** Wall clock only: a callback threw (safe to poll from any thread). */
    bool failed() const { return failed_.load(); }
    /** The first caught message; read once the driver has stopped. */
    const std::string &error() const { return error_; }

  private:
    spotserve::sim::EventCallback wrap(spotserve::sim::SimTime when,
                                       spotserve::sim::EventCallback fn);

    spotserve::sim::Executor &inner_;
    double timeScale_;
    std::vector<float> callbackSec_;
    std::vector<float> lateSec_;
    double callbackTotal_ = 0.0;
    std::atomic<bool> failed_{false};
    std::string error_; ///< written once, before failed_ reads true
};

} // namespace perfbench

#endif // SPOTSERVE_PERFBENCH_TRACING_EXECUTOR_H
