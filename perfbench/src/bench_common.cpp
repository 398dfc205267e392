#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double
RunArgs::param(const std::string &key) const
{
    const auto it = params.find(key);
    if (it == params.end())
        throw std::invalid_argument("workload '" + workload +
                                    "' needs parameter '" + key + "'");
    return it->second;
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    values_[name] = {value, unit};
}

void
Ledger::check(bool ok, const std::string &what)
{
    if (!ok) {
        violations.push_back(what);
        std::printf("  CHECK FAILED: %s\n", what.c_str());
    }
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

namespace {

constexpr double kHistMin = 1e-9;
constexpr double kHistMax = 1e6;
const double kHistStep = std::log(1.01);

std::size_t
histBin(double value)
{
    const double v = std::clamp(value, kHistMin, kHistMax);
    return static_cast<std::size_t>(std::log(v / kHistMin) / kHistStep);
}

} // namespace

LogHistogram::LogHistogram() : bins_(histBin(kHistMax) + 1, 0) {}

void
LogHistogram::add(double value)
{
    ++bins_[histBin(value)];
    ++count_;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (std::size_t b = 0; b < bins_.size(); ++b)
        bins_[b] += other.bins_[b];
    count_ += other.count_;
}

double
LogHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
        if (bins_[b] == 0 || seen + static_cast<double>(bins_[b]) < target) {
            seen += static_cast<double>(bins_[b]);
            continue;
        }
        const double frac = (target - seen) / static_cast<double>(bins_[b]);
        return kHistMin * std::exp((static_cast<double>(b) + frac) * kHistStep);
    }
    return kHistMax;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

double
processCpuSeconds()
{
    return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over (seed, stream): independent, reproducible streams.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

void
emitResult(const Ledger &ledger, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                ledger.correct() ? "true" : "false",
                std::max(1L, ledger.attempted), ledger.failed);
    bool first = true;
    for (const auto &[name, entry] : metrics.all()) {
        const double v = std::isfinite(entry.first) ? entry.first : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), v, entry.second.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
