#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "serving/request_manager.h"

namespace spotserve {
namespace core {

ParallelizationController::ParallelizationController(
    const model::ModelSpec &spec, const cost::CostParams &params,
    const cost::SeqSpec &seq, cost::ConfigSpaceOptions space_options,
    ControllerOptions options)
    : seq_(seq), options_(options), latency_(spec, params),
      throughput_(latency_), space_(spec, params, seq, space_options)
{
}

double
ParallelizationController::bucketAlpha(double arrival_rate)
{
    if (arrival_rate <= 0.0)
        return 0.0;
    return std::nearbyint(arrival_rate * 4096.0) / 4096.0;
}

std::optional<ControllerDecision>
ParallelizationController::chooseConfig(int available_instances,
                                        double arrival_rate) const
{
    lastSweep_ = SweepStats{};
    const auto candidates = space_.enumerate(available_instances);
    if (candidates.empty())
        return std::nullopt;
    lastSweep_.candidates = candidates.size();
    if (latencyCache_.size() > kLatencyCacheCap)
        latencyCache_.clear();

    // All comparisons below use the bucketed rate so cached latencies are
    // re-usable across the near-identical alpha_t estimates consecutive
    // sweeps observe.
    arrival_rate = bucketAlpha(arrival_rate);
    const long long alpha_key =
        static_cast<long long>(std::nearbyint(arrival_rate * 4096.0));

    // Evaluate every candidate exactly once through the cross-invocation
    // caches (the cost model dominates the sweep) and select from the
    // memoised vector.
    struct Evaluated
    {
        par::ParallelConfig config;
        double phi = 0.0;
        /** Request latency; only computed when phi sustains alpha_t. */
        double latency = std::numeric_limits<double>::infinity();
        int instances = 0;
    };
    std::vector<Evaluated> evals;
    evals.reserve(candidates.size());
    bool any_meets = false;
    double best_latency = std::numeric_limits<double>::infinity();
    for (const auto &c : candidates) {
        const ConfigKey ckey{c.dp, c.pp, c.tp, c.batch};
        Evaluated e;
        e.config = c;
        bool cold = false;
        auto sit = staticCache_.find(ckey);
        if (sit == staticCache_.end()) {
            StaticEval se;
            se.phi = throughput_.throughput(c, seq_);
            se.instances = space_.instancesNeeded(c);
            sit = staticCache_.emplace(ckey, se).first;
            cold = true;
        }
        e.phi = sit->second.phi;
        e.instances = sit->second.instances;
        if (e.phi >= arrival_rate) {
            any_meets = true;
            const LatencyKey lkey{c.dp, c.pp, c.tp, c.batch, alpha_key};
            auto lit = latencyCache_.find(lkey);
            if (lit == latencyCache_.end()) {
                lit = latencyCache_
                          .emplace(lkey, throughput_.requestLatency(
                                             c, seq_, arrival_rate,
                                             options_.arrivalCv))
                          .first;
                cold = true;
            }
            e.latency = lit->second;
            best_latency = std::min(best_latency, e.latency);
        }
        if (cold)
            ++lastSweep_.coldEvals;
        evals.push_back(e);
    }

    // Deterministic preference among near-equal choices: cheaper first,
    // then fewer GPUs, then the shallower pipeline, then smaller batch.
    auto prefer = [](const Evaluated &a, const Evaluated &b) {
        if (a.instances != b.instances)
            return a.instances < b.instances;
        if (a.config.totalGpus() != b.config.totalGpus())
            return a.config.totalGpus() < b.config.totalGpus();
        if (a.config.pp != b.config.pp)
            return a.config.pp < b.config.pp;
        if (a.config.batch != b.config.batch)
            return a.config.batch < b.config.batch;
        return a.config.tp < b.config.tp;
    };
    const Evaluated *best = nullptr;
    auto decisionOf = [](const Evaluated &e, bool meets) {
        ControllerDecision d;
        d.config = e.config;
        d.estimatedLatency = e.latency;
        d.throughput = e.phi;
        d.meetsDemand = meets;
        d.instancesNeeded = e.instances;
        return d;
    };

    if (any_meets && options_.sloLatency > 0.0) {
        // SLO objective: cheapest configuration meeting the latency SLO.
        for (const auto &e : evals) {
            if (e.phi < arrival_rate || e.latency > options_.sloLatency)
                continue;
            if (!best || prefer(e, *best))
                best = &e;
        }
        if (best)
            return decisionOf(*best, true);
        // No configuration meets the SLO: fall through to latency
        // minimisation so the violation is at least minimised.
    }
    if (any_meets) {
        // Line 3: among configs sustaining alpha_t, take the latency
        // minimum; within the tolerance band prefer lower monetary cost.
        const double band = best_latency * kSimilarLatencyFactor;
        for (const auto &e : evals) {
            if (e.phi < arrival_rate || e.latency > band)
                continue;
            if (!best || prefer(e, *best))
                best = &e;
        }
        if (!best)
            return std::nullopt;
        return decisionOf(*best, true);
    }
    // Line 5: nothing keeps up; maximize phi(C).
    double best_phi = -1.0;
    for (const auto &e : evals) {
        const bool better =
            e.phi > best_phi * (1.0 + 1e-9) ||
            (std::abs(e.phi - best_phi) <= best_phi * 1e-9 && best &&
             prefer(e, *best));
        if (!best || better) {
            best = &e;
            best_phi = std::max(best_phi, e.phi);
        }
    }
    if (!best)
        return std::nullopt;
    return decisionOf(*best, false);
}

bool
ParallelizationController::worthReconfiguring(
    const par::ParallelConfig &current, const ControllerDecision &decision,
    double alpha_plan, double sustained_rate, std::size_t queue_length) const
{
    if (decision.config == current)
        return false;
    const double current_phi = throughput_.throughput(current, seq_);
    if (current_phi < sustained_rate)
        return true; // demand exceeds capacity: must upgrade
    const bool backlog =
        queue_length >
        3 * static_cast<std::size_t>(current.concurrentRequests());
    if (backlog && decision.throughput > 1.2 * current_phi)
        return true; // a real capacity bump would drain the backlog
    if (options_.sloLatency > 0.0 && decision.meetsDemand &&
        decision.instancesNeeded + 1 < space_.instancesNeeded(current) &&
        decision.estimatedLatency <= options_.sloLatency) {
        // SLO objective: shedding instances is the point.  Require at
        // least two instances of savings so borderline alternatives do
        // not flap the deployment back and forth.
        return true;
    }
    const double current_lat = throughput_.requestLatency(
        current, seq_, alpha_plan, options_.arrivalCv);
    return decision.estimatedLatency <= 0.8 * current_lat;
}

ReconfigPolicy::ReconfigPolicy(const ParallelizationController &controller,
                               const serving::RequestManager &requests,
                               double design_arrival_rate)
    : controller_(controller), requests_(requests),
      designArrivalRate_(design_arrival_rate)
{
}

double
ReconfigPolicy::planningRate() const
{
    return std::max(requests_.estimatedArrivalRate(120.0),
                    designArrivalRate_);
}

double
ReconfigPolicy::sustainedRate() const
{
    return std::max(requests_.estimatedArrivalRate(60.0),
                    designArrivalRate_);
}

bool
ReconfigPolicy::worthChanging(const par::ParallelConfig &current,
                              const ControllerDecision &decision,
                              double alpha) const
{
    return controller_.worthReconfiguring(current, decision, alpha,
                                          sustainedRate(),
                                          requests_.pendingCount());
}

std::optional<std::string>
ReconfigPolicy::periodic(const par::ParallelConfig &current,
                         const std::optional<ControllerDecision> &decision,
                         double alpha)
{
    std::optional<std::string> reason;
    if (decision && decision->config != current) {
        const double sustained = sustainedRate();
        if (controller_.worthReconfiguring(current, *decision, alpha,
                                           sustained,
                                           requests_.pendingCount())) {
            streak_ = lastSuggestion_ == decision->config ? streak_ + 1 : 1;
            lastSuggestion_ = decision->config;
            // Overload = sustained demand (60 s window) above capacity.
            if (controller_.throughputModel().throughput(
                    current, controller_.seq()) < sustained)
                reason = "overload detected";
            else if (streak_ < 2)
                return std::nullopt;
            else
                reason = "workload change";
        }
    }
    lastSuggestion_.reset();
    streak_ = 0;
    return reason;
}

} // namespace core
} // namespace spotserve
