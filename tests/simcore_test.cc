/**
 * @file
 * Unit and property tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"
#include "simcore/stats.h"

namespace spotserve::sim {
namespace {

/** Sample mean and coefficient of variation (population stddev / mean). */
struct MeanCv
{
    double mean = 0.0;
    double cv = 0.0;
};

MeanCv
meanAndCv(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    const double mean = sum / static_cast<double>(xs.size());
    double squares = 0.0;
    for (double x : xs)
        squares += (x - mean) * (x - mean);
    return {mean, std::sqrt(squares / static_cast<double>(xs.size())) / mean};
}

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5.0, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().fn();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent)
{
    EventQueue q;
    EventId id = q.schedule(1.0, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(kInvalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

// Regression: cancelling an id that already fired used to insert a
// permanent tombstone and decrement the live count, so a later event
// could make the queue report empty() while still holding live work.
TEST(EventQueueTest, CancelAfterFireIsTrueNoOp)
{
    EventQueue q;
    EventId fired = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    q.pop().fn(); // fires `fired`
    EXPECT_FALSE(q.cancel(fired));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
    EXPECT_EQ(q.cancelledBacklog(), 0u); // no tombstone planted
    q.pop();
    EXPECT_TRUE(q.empty());
}

// Regression: repeated cancel-after-fire must not underflow the live
// count — a fresh event scheduled afterwards has to stay visible.
TEST(EventQueueTest, CancelAfterFireDoesNotCorruptLiveCount)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(q.schedule(1.0 + i, [] {}));
    while (!q.empty())
        q.pop();
    for (EventId id : ids)
        EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 0u);

    bool fired = false;
    q.schedule(50.0, [&] { fired = true; });
    EXPECT_EQ(q.size(), 1u);
    q.pop().fn();
    EXPECT_TRUE(fired);
}

// Heap nodes of genuine cancellations are purged as they surface, so the
// backlog stays bounded on a long-running (wall-clock) process.  The
// heap top is kept live: cancelling the earliest event (t = 0) purges
// its node at once, the other 49 wait until they surface.
TEST(EventQueueTest, CancelledTombstonesArePurged)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        EXPECT_TRUE(q.cancel(ids[i]));
    EXPECT_EQ(q.cancelledBacklog(), 49u);
    EXPECT_DOUBLE_EQ(q.nextTime(), 1.0);
    while (!q.empty())
        q.pop();
    EXPECT_EQ(q.cancelledBacklog(), 0u);
}

// Regression: ids are (slot, generation) handles and slots are recycled.
// Cancelling an id whose event already fired must not hit the newer
// event that now occupies the same slot.
TEST(EventQueueTest, CancelOfFiredIdLeavesSlotReuserAlone)
{
    EventQueue q;
    const EventId old_id = q.schedule(1.0, [] {});
    EXPECT_EQ(q.pop().id, old_id);
    bool fired = false;
    const EventId new_id = q.schedule(2.0, [&] { fired = true; });
    EXPECT_NE(new_id, old_id);
    EXPECT_FALSE(q.cancel(old_id));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
    q.pop().fn();
    EXPECT_TRUE(fired);

    // The same holds for a cancelled (not fired) id.
    const EventId cancelled = q.schedule(3.0, [] {});
    EXPECT_TRUE(q.cancel(cancelled));
    const EventId reuser = q.schedule(4.0, [] {});
    EXPECT_FALSE(q.cancel(cancelled));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(reuser));
    EXPECT_TRUE(q.empty());
}

/** Callback that counts how often it is copied (moves are free). */
struct CopyCounter
{
    int *copies;
    int *calls;
    CopyCounter(int *copies_, int *calls_) : copies(copies_), calls(calls_)
    {
    }
    CopyCounter(const CopyCounter &o) : copies(o.copies), calls(o.calls)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&) noexcept = default;
    CopyCounter &operator=(const CopyCounter &) = delete;
    CopyCounter &operator=(CopyCounter &&) = delete;
    void operator()() const { ++*calls; }
};

// Scheduling, popping and running hand the callback along by move only:
// a copy would duplicate every capture on the hot path.
TEST(EventQueueTest, CallbacksAreNeverCopied)
{
    int copies = 0;
    int calls = 0;
    EventQueue q;
    for (int i = 0; i < 64; ++i)
        q.schedule(static_cast<SimTime>(64 - i), CopyCounter(&copies, &calls));
    while (!q.empty())
        q.pop().fn();
    EXPECT_EQ(calls, 64);

    Simulation sim;
    for (int i = 0; i < 64; ++i)
        sim.schedule(static_cast<SimTime>(i % 7),
                     CopyCounter(&copies, &calls));
    sim.scheduleAfter(0.5, CopyCounter(&copies, &calls));
    EXPECT_TRUE(sim.step());
    sim.run();
    EXPECT_EQ(calls, 64 + 65);
    EXPECT_EQ(copies, 0);
}

// Heavy schedule/cancel/pop churn against a reference model: size() and
// empty() stay exact throughout, pops come out in (time, schedule order),
// and once the queue drains no cancelled node is left behind.
TEST(EventQueueTest, ChurnKeepsCountsExactAndBacklogDrains)
{
    EventQueue q;
    Rng rng(42);
    struct Pending
    {
        EventId id;
        SimTime time;
        int order;
    };
    std::vector<Pending> live;
    std::vector<EventId> stale;
    int order = 0;
    SimTime now = 0.0;
    auto earliest = [&] {
        return std::min_element(live.begin(), live.end(),
                                [](const Pending &a, const Pending &b) {
                                    if (a.time != b.time)
                                        return a.time < b.time;
                                    return a.order < b.order;
                                });
    };
    for (int round = 0; round < 20000; ++round) {
        const double u = rng.uniform();
        if (u < 0.5 || live.empty()) {
            // Coarse times so same-instant ties are common.
            const SimTime t = now + std::floor(rng.uniform(0.0, 20.0));
            const int k = order++;
            live.push_back({q.schedule(t, [] {}), t, k});
        } else if (u < 0.8) {
            const auto pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            EXPECT_TRUE(q.cancel(live[pick].id));
            stale.push_back(live[pick].id);
            live.erase(live.begin() + static_cast<long>(pick));
        } else if (u < 0.9 && !stale.empty()) {
            EXPECT_FALSE(q.cancel(stale[stale.size() / 2]));
        } else {
            const auto want = earliest();
            EXPECT_DOUBLE_EQ(q.nextTime(), want->time);
            const auto ev = q.pop();
            EXPECT_EQ(ev.id, want->id);
            now = ev.time;
            stale.push_back(ev.id);
            live.erase(want);
        }
        ASSERT_EQ(q.size(), live.size());
        ASSERT_EQ(q.empty(), live.empty());
    }
    ASSERT_FALSE(live.empty());
    // Cancel the rest latest-first, so their nodes pile up behind a live
    // head until the final cancel drains them all.
    std::sort(live.begin(), live.end(),
              [](const Pending &a, const Pending &b) {
                  return a.time > b.time ||
                         (a.time == b.time && a.order > b.order);
              });
    for (const Pending &p : live)
        EXPECT_TRUE(q.cancel(p.id));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.cancelledBacklog(), 0u);
    EXPECT_DOUBLE_EQ(q.nextTime(), kTimeInfinity);
    for (EventId id : stale)
        EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, SizeTracksLiveEvents)
{
    EventQueue q;
    EventId a = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.pop();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled)
{
    EventQueue q;
    EventId a = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    q.cancel(a);
    EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
}

/**
 * One side of the series differential.  Events are labelled; firing one
 * appends its label.  The reference side (@p expand) turns every series
 * into plain schedule() calls made in index order, the order a series
 * must fire in.  A series member whose label is a multiple of 3 schedules
 * a nested series (negative labels, ties among themselves and with the
 * current instant) and one plain event from inside its callback.
 */
struct SeriesSide
{
    SeriesSide(bool expand_, const std::vector<char> *is_series_)
        : expand(expand_), isSeries(is_series_)
    {
    }

    void
    plain(SimTime t, int label)
    {
        if (label >= static_cast<int>(ids.size()))
            ids.resize(static_cast<std::size_t>(label) + 1, kInvalidEventId);
        ids[static_cast<std::size_t>(label)] =
            q.schedule(t, [this, label] { onFire(label); });
    }

    /** Member i is labelled label(i). */
    void
    series(const std::vector<SimTime> &times, std::function<int(int)> label)
    {
        if (!expand) {
            q.scheduleSeries(times, [this, label](std::size_t i) {
                onFire(label(static_cast<int>(i)));
            });
            return;
        }
        for (std::size_t i = 0; i < times.size(); ++i) {
            const int l = label(static_cast<int>(i));
            q.schedule(times[i], [this, l] { onFire(l); });
        }
    }

    bool
    cancel(int label)
    {
        return q.cancel(ids[static_cast<std::size_t>(label)]);
    }

    /** Pop and fire one event; its series members carry no id. */
    void
    popAndFire()
    {
        auto ev = q.pop();
        EXPECT_GE(ev.time, now);
        now = ev.time;
        times.push_back(ev.time);
        ev.fire();
        if (ev.id == kInvalidEventId)
            ++seriesFired;
    }

    void
    onFire(int label)
    {
        fired.push_back(label);
        if (label < 0 || !(*isSeries)[static_cast<std::size_t>(label)] ||
            label % 3 != 0)
            return;
        const SimTime t = now;
        series({t + 1.0, t, t + 1.0, t},
               [label](int i) { return -(label * 8 + i + 1); });
        q.schedule(t, [this, label] { fired.push_back(-(label * 8 + 7)); });
    }

    bool expand;
    const std::vector<char> *isSeries;
    EventQueue q;
    std::vector<int> fired;
    std::vector<SimTime> times;
    std::vector<EventId> ids; ///< by plain event label
    SimTime now = 0.0;
    std::size_t seriesFired = 0;
};

// Random mixes of schedule, scheduleSeries (unsorted times, ties inside a
// series and with plain events scheduled before and after it, series
// scheduled from inside a series callback) and cancel fire in exactly the
// order of a queue fed only the equivalent schedule() calls, with equal
// size(), empty(), nextTime() and cancelledBacklog() after every step.
TEST(EventQueueTest, SeriesFiresLikeScheduleCallsInIndexOrder)
{
    std::vector<char> is_series;
    SeriesSide test(false, &is_series), ref(true, &is_series);
    SeriesSide *sides[] = {&test, &ref};
    auto same_counts = [&] {
        ASSERT_EQ(test.q.size(), ref.q.size());
        ASSERT_EQ(test.q.empty(), ref.q.empty());
        ASSERT_EQ(test.q.nextTime(), ref.q.nextTime());
        ASSERT_EQ(test.q.cancelledBacklog(), ref.q.cancelledBacklog());
    };
    Rng rng(33);
    std::vector<int> plain_labels;
    for (int round = 0; round < 6000; ++round) {
        const double u = rng.uniform();
        // Coarse times, so ties inside a series and with plain events
        // are common.
        auto draw = [&] {
            return test.now + std::floor(rng.uniform(0.0, 8.0));
        };
        if (u < 0.3) {
            const SimTime t = draw();
            const int label = static_cast<int>(is_series.size());
            is_series.push_back(0);
            plain_labels.push_back(label);
            for (SeriesSide *s : sides)
                s->plain(t, label);
        } else if (u < 0.45) {
            std::vector<SimTime> times(
                static_cast<std::size_t>(rng.uniformInt(0, 12)));
            for (SimTime &t : times)
                t = draw();
            const int first = static_cast<int>(is_series.size());
            is_series.resize(is_series.size() + times.size(), 1);
            for (SeriesSide *s : sides)
                s->series(times, [first](int i) { return first + i; });
        } else if (u < 0.6 && !plain_labels.empty()) {
            // Live, fired or already cancelled: both sides must agree.
            const int label = plain_labels[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      plain_labels.size()) - 1))];
            EXPECT_EQ(test.cancel(label), ref.cancel(label));
        } else if (!ref.q.empty()) {
            for (SeriesSide *s : sides)
                s->popAndFire();
        }
        same_counts();
        if (HasFatalFailure())
            return;
    }
    while (!ref.q.empty()) {
        ASSERT_FALSE(test.q.empty());
        for (SeriesSide *s : sides)
            s->popAndFire();
        same_counts();
    }
    EXPECT_TRUE(test.q.empty());
    EXPECT_EQ(test.q.cancelledBacklog(), 0u);
    EXPECT_EQ(test.fired, ref.fired);
    EXPECT_EQ(test.times, ref.times);
    EXPECT_GT(test.seriesFired, 1000u);
    EXPECT_EQ(ref.seriesFired, 0u);
    EXPECT_GT(std::count_if(test.fired.begin(), test.fired.end(),
                            [](int l) { return l < 0; }),
              100);
}

// A member that schedules more series keeps running: its series outlives
// its table entry, which the last member frees and a new series reuses,
// and the table grows (moves) under the running callback.
TEST(EventQueueTest, SeriesMemberOutlivesItsTableEntry)
{
    EventQueue q;
    std::vector<int> seen;
    q.scheduleSeries({5.0, 5.0}, [&](std::size_t i) {
        for (int k = 0; k < 40; ++k)
            q.scheduleSeries({6.0}, [](std::size_t) {});
        seen.push_back(static_cast<int>(i));
    });
    q.pop().fire();
    q.pop().fire();
    EXPECT_EQ(seen, (std::vector<int>{0, 1}));
    EXPECT_EQ(q.size(), 80u);
    while (!q.empty())
        q.pop().fire();
    EXPECT_EQ(seen, (std::vector<int>{0, 1}));
    EXPECT_EQ(q.cancelledBacklog(), 0u);
}

TEST(SimulationTest, ClockAdvancesWithEvents)
{
    Simulation sim;
    double seen = -1.0;
    sim.schedule(4.5, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 4.5);
    EXPECT_DOUBLE_EQ(sim.now(), 4.5);
}

TEST(SimulationTest, RunUntilStopsAtHorizon)
{
    Simulation sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(10.0, [&] { ++fired; });
    EXPECT_EQ(sim.run(5.0), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents)
{
    Simulation sim;
    int chain = 0;
    std::function<void()> tick = [&] {
        if (++chain < 5)
            sim.scheduleAfter(1.0, tick);
    };
    sim.scheduleAfter(1.0, tick);
    sim.run();
    EXPECT_EQ(chain, 5);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulationTest, SchedulingInPastThrows)
{
    Simulation sim;
    sim.schedule(5.0, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule(1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.scheduleAfter(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulationTest, CancelledEventDoesNotFire)
{
    Simulation sim;
    bool fired = false;
    EventId id = sim.schedule(1.0, [&] { fired = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.eventsFired(), 0u);
}

TEST(SimulationTest, StepFiresExactlyOne)
{
    Simulation sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

/** An executor that forwards to a Simulation and keeps the default
 *  scheduleSeries (one schedule() per member), as decorators do. */
class ForwardingExecutor : public Executor
{
  public:
    explicit ForwardingExecutor(Simulation &inner) : inner_(inner) {}
    SimTime now() const override { return inner_.now(); }
    EventId schedule(SimTime when, EventCallback fn) override
    {
        return inner_.schedule(when, std::move(fn));
    }
    EventId scheduleAfter(SimTime delay, EventCallback fn) override
    {
        return inner_.scheduleAfter(delay, std::move(fn));
    }
    bool cancel(EventId id) override { return inner_.cancel(id); }
    std::uint64_t run(SimTime until) override { return inner_.run(until); }
    bool step() override { return inner_.step(); }
    bool idle() const override { return inner_.idle(); }
    std::uint64_t eventsFired() const override { return inner_.eventsFired(); }

  private:
    Simulation &inner_;
};

// The simulator's series and the default loop over schedule() fire the
// same members at the same times and count the same events, including a
// series scheduled from inside a series callback.
TEST(SimulationTest, SeriesMatchesTheDefaultScheduleLoop)
{
    auto drive = [](Executor &exec) {
        std::vector<std::pair<SimTime, int>> log;
        exec.schedule(3.0, [&] { log.emplace_back(exec.now(), -1); });
        exec.scheduleSeries({3.0, 1.0, 3.0, 0.0}, [&](std::size_t i) {
            log.emplace_back(exec.now(), static_cast<int>(i));
            if (i == 1) {
                exec.scheduleSeries({2.0, 1.0}, [&](std::size_t j) {
                    log.emplace_back(exec.now(), 10 + static_cast<int>(j));
                });
            }
        });
        exec.schedule(3.0, [&] { log.emplace_back(exec.now(), -2); });
        exec.run(kTimeInfinity);
        return log;
    };
    Simulation sim, inner;
    ForwardingExecutor forwarding(inner);
    const auto got = drive(sim);
    EXPECT_EQ(got, drive(forwarding));
    const std::vector<std::pair<SimTime, int>> want = {
        {0.0, 3}, {1.0, 1}, {1.0, 11}, {2.0, 10},
        {3.0, -1}, {3.0, 0}, {3.0, 2}, {3.0, -2}};
    EXPECT_EQ(got, want);
    EXPECT_EQ(sim.eventsFired(), 8u);
    EXPECT_EQ(inner.eventsFired(), 8u);
    EXPECT_TRUE(sim.idle());
}

TEST(SimulationTest, SeriesInThePastThrowsAndSchedulesNothing)
{
    Simulation sim;
    sim.schedule(5.0, [] {});
    sim.run();
    int fired = 0;
    EXPECT_THROW(sim.scheduleSeries({6.0, 4.0},
                                    [&](std::size_t) { ++fired; }),
                 std::invalid_argument);
    EXPECT_TRUE(sim.idle());
    sim.scheduleSeries({}, [&](std::size_t) { ++fired; });
    EXPECT_TRUE(sim.idle());
    sim.scheduleSeries({5.0, 6.0}, [&](std::size_t) { ++fired; });
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.eventsFired(), 3u);
}

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_NE(a.uniform(), c.uniform());
}

TEST(RngTest, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(RngTest, UniformIntInclusive)
{
    Rng rng(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesRate)
{
    Rng rng(3);
    std::vector<double> draws;
    for (int i = 0; i < 50000; ++i)
        draws.push_back(rng.exponential(2.0));
    EXPECT_NEAR(meanAndCv(draws).mean, 0.5, 0.02);
}

/** Gamma intervals must hit the requested mean and CV (paper: CV = 6). */
class GammaCvTest : public ::testing::TestWithParam<double>
{
};

TEST_P(GammaCvTest, MeanAndCvMatch)
{
    const double cv = GetParam();
    Rng rng(7);
    std::vector<double> draws;
    for (int i = 0; i < 200000; ++i)
        draws.push_back(rng.gammaInterval(2.0, cv));
    const auto stat = meanAndCv(draws);
    EXPECT_NEAR(stat.mean, 2.0, 0.15 * cv);
    EXPECT_NEAR(stat.cv, cv, 0.15 * cv);
}

INSTANTIATE_TEST_SUITE_P(CvSweep, GammaCvTest,
                         ::testing::Values(0.5, 1.0, 2.0, 6.0));

TEST(RngTest, GammaRejectsBadArgs)
{
    Rng rng(1);
    EXPECT_THROW(rng.gammaInterval(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(rng.gammaInterval(1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(LatencyRecorderTest, EmptyIsZero)
{
    LatencyRecorder r;
    EXPECT_EQ(r.count(), 0u);
    EXPECT_DOUBLE_EQ(r.mean(), 0.0);
    EXPECT_DOUBLE_EQ(r.percentile(99), 0.0);
    EXPECT_DOUBLE_EQ(r.max(), 0.0);
}

TEST(LatencyRecorderTest, BasicMoments)
{
    LatencyRecorder r;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        r.add(v);
    EXPECT_DOUBLE_EQ(r.mean(), 2.5);
    EXPECT_DOUBLE_EQ(r.max(), 4.0);
    EXPECT_DOUBLE_EQ(r.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(r.percentile(100), 4.0);
    EXPECT_DOUBLE_EQ(r.percentile(50), 2.5);
}

TEST(LatencyRecorderTest, PercentileInterpolates)
{
    LatencyRecorder r;
    r.add(0.0);
    r.add(10.0);
    EXPECT_DOUBLE_EQ(r.percentile(25), 2.5);
    EXPECT_DOUBLE_EQ(r.percentile(99), 9.9);
}

TEST(LatencyRecorderTest, PercentileMonotone)
{
    LatencyRecorder r;
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        r.add(rng.uniform(0.0, 100.0));
    double prev = 0.0;
    for (double p = 0; p <= 100; p += 1.0) {
        const double v = r.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(LatencyRecorderTest, SummaryConsistent)
{
    LatencyRecorder r;
    for (int i = 1; i <= 100; ++i)
        r.add(static_cast<double>(i));
    const auto s = r.summary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.avg, 50.5);
    EXPECT_DOUBLE_EQ(s.p99, r.percentile(99));
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_LE(s.p90, s.p95);
    EXPECT_LE(s.p95, s.p99);
}

TEST(LatencyRecorderTest, InterleavedAddAndQuery)
{
    LatencyRecorder r;
    r.add(5.0);
    EXPECT_DOUBLE_EQ(r.percentile(50), 5.0);
    r.add(1.0);
    EXPECT_DOUBLE_EQ(r.percentile(0), 1.0);
}

} // namespace
} // namespace spotserve::sim
