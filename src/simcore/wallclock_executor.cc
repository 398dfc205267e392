#include "simcore/wallclock_executor.h"

#include <stdexcept>
#include <utility>

namespace spotserve {
namespace sim {

WallClockExecutor::WallClockExecutor(Options options)
    : options_(options), start_(Clock::now())
{
    if (!(options_.timeScale > 0.0))
        throw std::invalid_argument(
            "WallClockExecutor: timeScale must be > 0");
}

WallClockExecutor::WallClockExecutor() : WallClockExecutor(Options{}) {}

WallClockExecutor::~WallClockExecutor()
{
    // Destructors are noexcept: a join failure here must not escape
    // (bugprone-exception-escape); at this point the executor is dead
    // either way.
    try {
        stop();
    } catch (...) {
    }
}

SimTime
WallClockExecutor::now() const
{
    const std::chrono::duration<double> real = Clock::now() - start_;
    return real.count() * options_.timeScale;
}

WallClockExecutor::Clock::time_point
WallClockExecutor::realDeadline(SimTime when) const
{
    const std::chrono::duration<double> real(when / options_.timeScale);
    return start_ +
           std::chrono::duration_cast<Clock::duration>(real);
}

EventId
WallClockExecutor::schedule(SimTime when, EventCallback fn)
{
    // Past times are legal here (the wall clock cannot rewind, so the
    // event simply fires as soon as the driver runs — in schedule order
    // among equally-overdue events).  Only reject nonsense.
    if (!(when == when))
        throw std::invalid_argument("WallClockExecutor::schedule: NaN time");
    MutexLock lk(mutex_);
    const EventId id = queue_.schedule(when, std::move(fn));
    cv_.notify_all();
    return id;
}

EventId
WallClockExecutor::scheduleAfter(SimTime delay, EventCallback fn)
{
    if (delay < 0.0)
        throw std::invalid_argument(
            "WallClockExecutor::scheduleAfter: negative delay");
    return schedule(now() + delay, std::move(fn));
}

bool
WallClockExecutor::cancel(EventId id)
{
    MutexLock lk(mutex_);
    const bool cancelled = queue_.cancel(id);
    if (cancelled)
        cv_.notify_all();
    return cancelled;
}

bool
WallClockExecutor::idle() const
{
    MutexLock lk(mutex_);
    return queue_.empty();
}

std::uint64_t
WallClockExecutor::drive(SimTime until, bool return_when_idle)
{
    MutexLock lk(mutex_);
    std::uint64_t fired = 0;
    for (;;) {
        if (stopRequested_)
            break;
        if (queue_.empty()) {
            if (return_when_idle)
                break;
            // Server mode: park until work is injected or stop is asked.
            // Explicit re-check loop (not the predicate overload): the
            // predicate would be a separate lambda the thread safety
            // analysis cannot see the held lock inside.
            while (!stopRequested_ && queue_.empty())
                cv_.wait(mutex_);
            continue;
        }
        const SimTime next = queue_.nextTime();
        if (next > until) {
            if (return_when_idle)
                break;
            cv_.wait(mutex_); // an earlier injection or stop re-checks
            continue;
        }
        const Clock::time_point deadline = realDeadline(next);
        if (Clock::now() < deadline) {
            // Sleep toward the deadline; an earlier injection, a cancel
            // of the head event, or stop wakes us and the loop
            // re-evaluates from scratch.
            cv_.wait_until(mutex_, deadline);
            continue;
        }
        auto ev = queue_.pop();
        lk.unlock();
        ev.fire();
        ++eventsFired_;
        ++fired;
        lk.lock();
    }
    return fired;
}

std::uint64_t
WallClockExecutor::run(SimTime until)
{
    return drive(until, /*return_when_idle=*/true);
}

bool
WallClockExecutor::step()
{
    MutexLock lk(mutex_);
    for (;;) {
        if (stopRequested_ || queue_.empty())
            return false;
        const Clock::time_point deadline = realDeadline(queue_.nextTime());
        if (Clock::now() < deadline) {
            cv_.wait_until(mutex_, deadline);
            continue;
        }
        auto ev = queue_.pop();
        lk.unlock();
        ev.fire();
        ++eventsFired_;
        return true;
    }
}

void
WallClockExecutor::start()
{
    MutexLock lk(mutex_);
    if (driverStarted_)
        throw std::logic_error("WallClockExecutor::start: already started");
    if (stopRequested_)
        throw std::logic_error("WallClockExecutor::start: already stopped");
    driverStarted_ = true;
    driver_ = std::thread(
        [this] { drive(kTimeInfinity, /*return_when_idle=*/false); });
}

void
WallClockExecutor::requestStop()
{
    MutexLock lk(mutex_);
    stopRequested_ = true;
    cv_.notify_all();
}

void
WallClockExecutor::stop()
{
    requestStop();
    if (driver_.joinable())
        driver_.join();
}

bool
WallClockExecutor::running() const
{
    MutexLock lk(mutex_);
    return driverStarted_ && !stopRequested_;
}

} // namespace sim
} // namespace spotserve
