#include "tracing_executor.h"

#include <exception>
#include <utility>

namespace perfbench {

using spotserve::sim::EventCallback;
using spotserve::sim::EventId;
using spotserve::sim::SimTime;

TracingExecutor::TracingExecutor(spotserve::sim::Executor &inner,
                                 double time_scale)
    : inner_(inner), timeScale_(time_scale)
{
    callbackSec_.reserve(1 << 20);
}

EventId
TracingExecutor::schedule(SimTime when, EventCallback fn)
{
    return inner_.schedule(when, wrap(when, std::move(fn)));
}

EventId
TracingExecutor::scheduleAfter(SimTime delay, EventCallback fn)
{
    return inner_.scheduleAfter(delay, wrap(inner_.now() + delay, std::move(fn)));
}

EventCallback
TracingExecutor::wrap(SimTime when, EventCallback fn)
{
    return [this, when, fn = std::move(fn)] {
        if (timeScale_ > 0.0) {
            const double late = (inner_.now() - when) / timeScale_;
            lateSec_.push_back(static_cast<float>(late > 0.0 ? late : 0.0));
        }
        const auto t0 = Clock::now();
        try {
            fn();
        } catch (const std::exception &e) {
            if (timeScale_ <= 0.0)
                throw; // the simulator: the replay's caller handles it
            if (!failed_.load()) {
                error_ = e.what();
                failed_.store(true);
            }
        }
        const double took = secondsSince(t0);
        callbackSec_.push_back(static_cast<float>(took));
        callbackTotal_ += took;
    };
}

} // namespace perfbench
