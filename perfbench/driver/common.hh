/**
 * @file
 * Shared pieces of the end-to-end benchmark driver: the clock,
 * quantiles, digests, file helpers, run settings, metrics, and what
 * one pass of a workload reports.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Type-7 quantile of an unsorted sample (copied); 0 when empty. */
double quantile(std::vector<double> values, double p);

/** Median of an unsorted sample; 0 when empty. */
double median(std::vector<double> values);

/** FNV-1a (64-bit) over @p text, optionally continuing @p hash. */
uint64_t fnv1a(const std::string &text,
               uint64_t hash = 14695981039346656037ull);

/** Whole file as a string. @throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/** Write @p text to @p path (no fsync). @throws on I/O failure. */
void writeFile(const std::string &path, const std::string &text);

/** Peak resident set size of this process, MiB (VmHWM). */
double peakRssMb();

/** Run-wide settings every workload receives. */
struct Settings
{
    /** Driver seed; workloads derive every generated input from it. */
    uint64_t seed = 1;
    /** Tiny inputs for self-tests (metric names, oracles). */
    bool quick = false;
    /** Checkout root (holds src/ and tests/baselines/). */
    std::string root = ".";
    /** Scratch directory for this workload's files. */
    std::string workDir;
};

/** One metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one pass produced, op by op, in a fixed order. */
struct PassOutcome
{
    /** Wall time of each op, seconds. */
    std::vector<double> opSeconds;
    /**
     * Digest of each op's output. The first untraced pass is the
     * reference; every later pass and the traced pass must match it.
     */
    std::vector<uint64_t> opDigest;
    /** The workload's own oracle verdict per op. */
    std::vector<bool> opOk;
    /** Units of work completed (cells, samples, scenarios). */
    double workUnits = 0.0;
    /** Wall time of the pass's own work, oracle checks excluded. */
    double wallSeconds = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
