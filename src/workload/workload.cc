#include "workload/workload.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace spotserve {
namespace wl {

namespace {

Request
makeRequest(RequestId id, sim::SimTime t, const cost::SeqSpec &seq)
{
    Request r;
    r.id = id;
    r.arrival = t;
    r.inputLen = seq.inputLen;
    r.outputLen = seq.outputLen;
    return r;
}

} // namespace

Workload
stationaryGamma(double rate, double cv, sim::SimTime duration,
                const cost::SeqSpec &seq, sim::Rng &rng)
{
    if (rate <= 0.0)
        throw std::invalid_argument("stationaryGamma: rate must be positive");
    Workload out;
    sim::SimTime t = 0.0;
    RequestId id = 0;
    while (true) {
        t += rng.gammaInterval(1.0 / rate, cv);
        if (t >= duration)
            break;
        out.push_back(makeRequest(id++, t, seq));
    }
    return out;
}

Workload
stationaryPoisson(double rate, sim::SimTime duration,
                  const cost::SeqSpec &seq, sim::Rng &rng)
{
    return stationaryGamma(rate, 1.0, duration, seq, rng);
}

Workload
fluctuating(const std::function<double(sim::SimTime)> &rate_at, double cv,
            sim::SimTime duration, const cost::SeqSpec &seq, sim::Rng &rng)
{
    Workload out;
    sim::SimTime t = 0.0;
    RequestId id = 0;
    while (true) {
        const double rate = rate_at(t);
        if (rate <= 0.0)
            throw std::invalid_argument("fluctuating: rate must be positive");
        t += rng.gammaInterval(1.0 / rate, cv);
        if (t >= duration)
            break;
        out.push_back(makeRequest(id++, t, seq));
    }
    return out;
}

void
capOutputs(Workload &workload, int output_cap, int min_actual,
           int max_actual, sim::Rng &rng)
{
    if (output_cap < 1)
        throw std::invalid_argument("capOutputs: cap must be >= 1");
    if (min_actual < 1 || max_actual < min_actual || max_actual > output_cap)
        throw std::invalid_argument(
            "capOutputs: need 1 <= min_actual <= max_actual <= cap");
    for (auto &r : workload) {
        r.outputCap = output_cap;
        r.outputLen = static_cast<int>(rng.uniformInt(min_actual, max_actual));
    }
}

void
withSharedPrefixes(Workload &workload,
                   const std::vector<PrefixClass> &classes, sim::Rng &rng,
                   double no_prefix_weight, bool prepend)
{
    if (classes.empty())
        throw std::invalid_argument(
            "withSharedPrefixes: need at least one class");
    double total = no_prefix_weight;
    for (const auto &c : classes) {
        if (c.tokens < 1)
            throw std::invalid_argument(
                "withSharedPrefixes: class tokens must be >= 1");
        if (c.weight < 0.0)
            throw std::invalid_argument(
                "withSharedPrefixes: class weight must be >= 0");
        total += c.weight;
    }
    if (no_prefix_weight < 0.0 || total <= 0.0)
        throw std::invalid_argument("withSharedPrefixes: bad weights");
    for (auto &r : workload) {
        double u = rng.uniform() * total - no_prefix_weight;
        if (u < 0.0) {
            r.prefixId = -1;
            r.prefixLen = 0;
            continue;
        }
        int cls = static_cast<int>(classes.size()) - 1;
        for (int i = 0; i < static_cast<int>(classes.size()); ++i) {
            u -= classes[i].weight;
            if (u < 0.0) {
                cls = i;
                break;
            }
        }
        r.prefixId = cls;
        if (prepend) {
            r.inputLen += classes[cls].tokens;
            r.prefixLen = classes[cls].tokens;
        } else {
            r.prefixLen = std::min(classes[cls].tokens, r.inputLen);
        }
    }
}

void
withFewShotPrefixes(Workload &workload, int num_classes, int class_tokens,
                    sim::Rng &rng)
{
    if (num_classes < 1)
        throw std::invalid_argument(
            "withFewShotPrefixes: need at least one class");
    std::vector<PrefixClass> classes(
        static_cast<std::size_t>(num_classes),
        PrefixClass{class_tokens, 1.0});
    withSharedPrefixes(workload, classes, rng);
}

double
defaultRateForModel(const std::string &model_name)
{
    if (model_name == "OPT-6.7B")
        return 1.5;
    if (model_name == "GPT-20B")
        return 0.35;
    if (model_name == "LLaMA-30B")
        return 0.2;
    throw std::invalid_argument("defaultRateForModel: unknown model " +
                                model_name);
}

} // namespace wl
} // namespace spotserve
