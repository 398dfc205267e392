#include "costmodel/link_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spotserve {
namespace cost {

namespace {

constexpr double kEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kLinkTypes = 4;

/** One schedulable work item: a wire transfer or a cold disk load. */
struct Item
{
    int step = 0;
    int index = 0; ///< transfer index, or cold-load index
    bool coldLoad = false;
    double remaining = 0.0;
    double rate = 1.0;
    LinkId links[2];
    int numLinks = 0;

    /** First instant the item ran (+inf until it does). */
    double firstStart = kInf;
    double finish = 0.0;
    /** Its latest slice, and the event it last ran at. */
    int openSlice = -1;
    int lastEvent = std::numeric_limits<int>::min();
};

} // namespace

LinkSchedule::LinkSchedule(const CostParams &params) : params_(params) {}

LinkScheduleResult
LinkSchedule::build(const std::vector<TransferStep> &steps,
                    const LinkScheduleOptions &options,
                    const std::map<LinkId, double> &initial_busy) const
{
    LinkScheduleResult out;
    const double t0 = options.startTime + options.setupTime;

    // ------------------------------------------------------------------
    // Flatten the steps into prioritised items.  Priority is (step, wire
    // before disk, input order) — deterministic, and it is what makes an
    // earlier step's transfers immune to later steps at every grant.
    // ------------------------------------------------------------------
    std::vector<Item> items;
    int min_inst = std::numeric_limits<int>::max();
    int max_inst = std::numeric_limits<int>::min();
    auto note = [&](int inst) {
        min_inst = std::min(min_inst, inst);
        max_inst = std::max(max_inst, inst);
    };
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
                item.rate = params_.intraBandwidth;
                item.links[0] = LinkId{LinkType::Pcie, t.srcInstance};
                item.numLinks = 1;
            } else {
                item.rate = params_.interBandwidth;
                item.links[0] = LinkId{LinkType::NicSend, t.srcInstance};
                item.links[1] = LinkId{LinkType::NicRecv, t.dstInstance};
                item.numLinks = 2;
            }
            note(t.srcInstance);
            note(t.dstInstance);
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
            item.rate = params_.diskBandwidth;
            item.links[0] = LinkId{LinkType::Disk, inst};
            item.numLinks = 1;
            note(inst);
            items.push_back(item);
        }
    }

    // ------------------------------------------------------------------
    // Dense per-link state over (type, instance - min_inst): the event
    // that last took each link, and the latest finish of any item riding
    // it (-inf: no item rides it).
    // ------------------------------------------------------------------
    const int span = items.empty() ? 0 : max_inst - min_inst + 1;
    auto slotOf = [&](const LinkId &l) {
        return static_cast<int>(l.type) * span + (l.instance - min_inst);
    };
    const std::size_t num_slots = static_cast<std::size_t>(kLinkTypes) *
                                  static_cast<std::size_t>(span);
    std::vector<int> taken(num_slots, -1);
    std::vector<double> last_finish(num_slots, -kInf);

    // Every external horizon is an event candidate — a link no item
    // uses included — read in time order through a monotone cursor.  At
    // each event the holds not yet lifted take their links (slot -1: a
    // link outside the dense range, which no item uses) before any item.
    std::vector<std::pair<double, int>> holds; // (until, slot)
    holds.reserve(initial_busy.size());
    for (const auto &[link, until] : initial_busy) {
        const bool in_range =
            link.instance >= min_inst && link.instance <= max_inst;
        holds.emplace_back(until, in_range ? slotOf(link) : -1);
    }
    std::sort(holds.begin(), holds.end());
    std::size_t first_hold = 0;

    // ------------------------------------------------------------------
    // Event-driven preemptive list schedule.  At every event the running
    // set is rebuilt by scanning the unfinished items in priority order;
    // the same scan compacts out the items the previous event finished,
    // so the order never changes.  An item keeps extending its open slice
    // for as long as it runs at consecutive events.
    // ------------------------------------------------------------------
    struct Pending
    {
        int item;
        int a, b; ///< the item's link slots (b == a for one link)
        bool done;
    };
    std::vector<Pending> pending;
    pending.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Item &it = items[i];
        const int a = slotOf(it.links[0]);
        const int b = it.numLinks == 2 ? slotOf(it.links[1]) : a;
        pending.push_back({static_cast<int>(i), a, b, false});
    }
    /** Positions in pending of the items running at this event. */
    std::vector<std::size_t> running(items.size());
    out.slices.reserve(items.size());

    double t = t0;
    for (int event = 0;; ++event) {
        const double horizon = t + kEps;
        while (first_hold < holds.size() && holds[first_hold].first <= horizon)
            ++first_hold;
        for (std::size_t h = first_hold; h < holds.size(); ++h) {
            if (holds[h].second >= 0)
                taken[static_cast<std::size_t>(holds[h].second)] = event;
        }

        // Branch-free grant and compaction: whether an item is blocked is
        // data-dependent and unpredictable, and this scan is the build's
        // inner loop.
        std::size_t kept = 0;
        std::size_t num_running = 0;
        for (const Pending p : pending) {
            int &a = taken[static_cast<std::size_t>(p.a)];
            int &b = taken[static_cast<std::size_t>(p.b)];
            const bool granted = !p.done & (a != event) & (b != event);
            a = granted ? event : a;
            b = granted ? event : b;
            pending[kept] = p;
            running[num_running] = kept;
            num_running += granted;
            kept += !p.done;
        }
        pending.resize(kept);
        if (pending.empty())
            break;

        const double release =
            first_hold < holds.size() ? holds[first_hold].first : kInf;

        if (num_running == 0) {
            // Everything pending is blocked on externally-busy links:
            // hop to the next external release.  A blocked item's link
            // holds a horizon past t, so one exists unless that horizon
            // is infinite.
            if (!std::isfinite(release)) {
                throw std::logic_error(
                    "LinkSchedule::build: a transfer's link never frees");
            }
            t = release;
            continue;
        }

        // Next event: earliest completion among running items or the
        // earliest external link release (which may unblock a
        // higher-priority item and preempt a running one).
        const auto run_end =
            running.begin() + static_cast<std::ptrdiff_t>(num_running);
        double tNext = kInf;
        for (auto r = running.begin(); r != run_end; ++r) {
            const Item &it =
                items[static_cast<std::size_t>(pending[*r].item)];
            tNext = std::min(tNext, t + it.remaining / it.rate);
        }
        tNext = std::min(tNext, release);

        // Advance every running item to tNext, extending open slices.
        for (auto r = running.begin(); r != run_end; ++r) {
            Pending &p = pending[*r];
            Item &it = items[static_cast<std::size_t>(p.item)];
            it.firstStart = std::min(it.firstStart, t);
            if (it.lastEvent == event - 1) {
                LinkSlice &sl =
                    out.slices[static_cast<std::size_t>(it.openSlice)];
                sl.finish = tNext;
                sl.bytes += (tNext - t) * it.rate;
            } else {
                LinkSlice sl;
                sl.step = it.step;
                sl.transfer = it.index;
                sl.coldLoad = it.coldLoad;
                sl.start = t;
                sl.finish = tNext;
                sl.bytes = (tNext - t) * it.rate;
                sl.numLinks = it.numLinks;
                for (int k = 0; k < it.numLinks; ++k)
                    sl.links[k] = it.links[k];
                it.openSlice = static_cast<int>(out.slices.size());
                out.slices.push_back(sl);
            }
            it.lastEvent = event;
            const double span_s = it.remaining / it.rate;
            if (t + span_s <= tNext + kEps * (1.0 + span_s)) {
                // Completed at (numerically) this event.
                it.remaining = 0.0;
                it.finish = tNext;
                p.done = true;
                for (int k = 0; k < it.numLinks; ++k) {
                    double &last = last_finish[static_cast<std::size_t>(
                        slotOf(it.links[k]))];
                    last = std::max(last, tNext);
                }
            } else {
                it.remaining -= (tNext - t) * it.rate;
            }
        }
        t = tNext;
    }

    // ------------------------------------------------------------------
    // Per-step start/finish and the busy horizons left behind.
    // ------------------------------------------------------------------
    out.stepStart.assign(steps.size(), kInf); // +inf: no item ran yet
    out.stepFinish.assign(steps.size(), t0);
    for (const Item &it : items) {
        const auto s = static_cast<std::size_t>(it.step);
        out.stepStart[s] = std::min(out.stepStart[s], it.firstStart);
        out.stepFinish[s] = std::max(out.stepFinish[s], it.finish);
    }
    // An idle step's start must not precede setup nor exceed its finish
    // (an unset start clamps to the idle step's finish, the origin).
    for (std::size_t s = 0; s < steps.size(); ++s) {
        out.stepStart[s] = std::min(std::max(out.stepStart[s], t0),
                                    std::max(out.stepFinish[s], t0));
        out.stepFinish[s] = std::max(out.stepFinish[s], out.stepStart[s]);
    }

    out.makespan = t0;
    for (double f : out.stepFinish)
        out.makespan = std::max(out.makespan, f);

    // An item's last slice ends at its finish, so each touched link's new
    // horizon is the latest finish among the items riding it.
    out.linkBusyUntil = initial_busy;
    for (int type = 0; type < kLinkTypes; ++type) {
        for (int k = 0; k < span; ++k) {
            const double last =
                last_finish[static_cast<std::size_t>(type * span + k)];
            if (last == -kInf)
                continue;
            const LinkId l{static_cast<LinkType>(type), min_inst + k};
            double &until =
                out.linkBusyUntil.try_emplace(l, 0.0).first->second;
            until = std::max(until, last);
        }
    }
    return out;
}

} // namespace cost
} // namespace spotserve
