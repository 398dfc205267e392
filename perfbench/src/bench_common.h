/**
 * @file
 * Shared plumbing for the SpotServe benchmark driver: run arguments,
 * metric collection, order statistics, and the per-run correctness ledger.
 *
 * A run prints human-readable lines while it works and, as its last line,
 * one JSON object {"correct", "attempted", "failed", "metrics"}.
 */

#ifndef SPOTSERVE_PERFBENCH_BENCH_COMMON_H
#define SPOTSERVE_PERFBENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** What one invocation was asked to do. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Workload parameters from perfbench/workloads.json (--param k=v). */
    std::map<std::string, double> params;

    /** A required parameter; throws std::invalid_argument when absent. */
    double param(const std::string &key) const;
};

/** Named metrics with units, emitted in insertion-independent order. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    const std::map<std::string, std::pair<double, std::string>> &all() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/**
 * The correctness ledger of one run: requests attempted and failed, and
 * every violated check with its message.  A run is correct when no check
 * was violated; failed requests alone (e.g. a rejected request) count in
 * `failed` and in served_frac.
 */
struct Ledger
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> violations;

    void check(bool ok, const std::string &what);
    bool correct() const { return violations.empty(); }
};

/** p-th percentile (p in [0, 100]) with linear interpolation; 0 if empty. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/**
 * Log-binned histogram of positive values (1% relative bin width over
 * [1e-9, 1e6]) for pooling millions of samples in constant memory.
 */
class LogHistogram
{
  public:
    LogHistogram();
    void add(double value);
    void merge(const LogHistogram &other);
    /** p-th percentile (p in [0, 100]), interpolated within the bin. */
    double percentile(double p) const;

  private:
    std::vector<long> bins_;
    long count_ = 0;
};

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** CPU seconds consumed by the whole process / by the calling thread. */
double processCpuSeconds();
double threadCpuSeconds();

/** Deterministic 64-bit seed for sub-stream @p stream of run seed @p seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/** Print the final JSON line. */
void emitResult(const Ledger &ledger, const Metrics &metrics);

} // namespace perfbench

#endif // SPOTSERVE_PERFBENCH_BENCH_COMMON_H
