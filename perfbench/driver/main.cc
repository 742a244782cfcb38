/**
 * @file
 * perfbench_driver: the end-to-end benchmark of the sharp libraries.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--quick] [--root DIR] [--work DIR] [--commit ID]
 *   perfbench_driver --self-test [--root DIR] [--work DIR]
 *
 * Untraced (--trace 0): set the workload up five times (median is
 * setup_s), then run whole passes for about --seconds (at least two),
 * and print the end-to-end metrics over every op of every pass. Traced (--trace 1): run
 * untraced passes for half the time, then the same number of passes
 * with every layer instrumented, check the traced outputs are
 * byte-identical, and print the per-layer metrics plus the tracing
 * overhead. Either way the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}; the line before it is
 * the run's provenance.
 *
 * --self-test runs every workload at tiny size and confirms each
 * oracle passes honest outputs and rejects a tampered expectation.
 */

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "json/value.hh"
#include "json/writer.hh"
#include "simd/dispatch.hh"
#include "trace.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace json = sharp::json;

std::vector<std::string>
workloadNames()
{
    return {"calibrate_sweep", "run_campaign", "compare_gate"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Settings &settings)
{
    if (name == "calibrate_sweep")
        return makeCalibrateSweep(settings);
    if (name == "run_campaign")
        return makeRunCampaign(settings);
    if (name == "compare_gate")
        return makeCompareGate(settings);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace
{

/** Set-ups per untraced run; setup_s is their median. */
constexpr size_t kSetupRepeats = 5;

/**
 * Passes per untraced run, at least: the second repeats the first, so
 * every run checks its outputs are reproducible.
 */
constexpr size_t kMinPasses = 2;

/** One pass's latency quantiles and throughput, for the provenance. */
struct PassStats
{
    double p50 = 0.0;
    double p99 = 0.0;
    double throughput = 0.0;
};

/** Ops, outcomes and time accumulated over a run's passes. */
struct Totals
{
    std::vector<double> opSeconds;
    std::vector<PassStats> passes;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double wallSeconds = 0.0;
    double workUnits = 0.0;
};

/**
 * Fold one pass into @p totals. An op fails when the workload's oracle
 * rejects it or, given a @p reference pass, when its output digest
 * differs (or the passes differ in length).
 */
void
absorb(const PassOutcome &out, const PassOutcome *reference, Totals &totals)
{
    bool sameShape =
        !reference || reference->opDigest.size() == out.opDigest.size();
    for (size_t i = 0; i < out.opOk.size(); ++i) {
        bool ok = out.opOk[i] && sameShape &&
                  (!reference || reference->opDigest[i] == out.opDigest[i]);
        ++totals.attempted;
        totals.failed += ok ? 0 : 1;
    }
    totals.passes.push_back({quantile(out.opSeconds, 0.50),
                             quantile(out.opSeconds, 0.99),
                             out.workUnits / out.wallSeconds});
    totals.opSeconds.insert(totals.opSeconds.end(), out.opSeconds.begin(),
                            out.opSeconds.end());
    totals.wallSeconds += out.wallSeconds;
    totals.workUnits += out.workUnits;
}

/**
 * Run passes until @p done says stop; the first pass is the reference
 * every later one is checked against.
 */
template <typename Done>
Totals
runPasses(Workload &workload, Trace *trace, PassOutcome &reference,
          bool haveReference, Done &&done)
{
    Totals totals;
    auto start = Clock::now();
    while (true) {
        PassOutcome out = workload.pass(trace);
        bool first = !haveReference && totals.passes.empty();
        absorb(out, first ? nullptr : &reference, totals);
        if (first)
            reference = std::move(out);
        if (done(totals, secondsSince(start)))
            return totals;
    }
}

/** The 1, 5 and 15 minute load averages, as /proc/loadavg has them. */
std::string
loadAverage()
{
    std::istringstream fields(readFile("/proc/loadavg"));
    std::string one, five, fifteen;
    fields >> one >> five >> fifteen;
    return one + " " + five + " " + fifteen;
}

/** CPUs this process may run on, as `nproc` reports them. */
long
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return sysconf(_SC_NPROCESSORS_ONLN);
    return CPU_COUNT(&set);
}

/** Print the result line: the benchmark's output contract. */
void
printResult(const Totals &totals, const std::vector<Metric> &metrics)
{
    json::Value table = json::Value::makeObject();
    for (const Metric &metric : metrics) {
        if (!std::isfinite(metric.value))
            throw std::runtime_error("metric " + metric.name +
                                     " is not finite");
        json::Value entry = json::Value::makeObject();
        entry.set("value", metric.value);
        entry.set("unit", metric.unit);
        table.set(metric.name, std::move(entry));
    }
    json::Value result = json::Value::makeObject();
    result.set("correct", totals.failed == 0);
    result.set("attempted", static_cast<size_t>(totals.attempted));
    result.set("failed", static_cast<size_t>(totals.failed));
    result.set("metrics", std::move(table));
    std::cout << json::write(result) << std::endl;
}

/**
 * A per-process scratch directory under the work root, removed when
 * the run ends so concurrent runs never share files.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
        : path(parent + "." + std::to_string(getpid()))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;
};

struct Args
{
    std::string workload;
    Settings settings;
    double seconds = 10.0;
    bool trace = false;
    bool selfTest = false;
    std::string commit = "unknown";
    std::string work = ".bench_build/perfbench/work";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.settings.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--trace")
            args.trace = std::stoi(value()) != 0;
        else if (flag == "--quick")
            args.settings.quick = true;
        else if (flag == "--self-test")
            args.selfTest = true;
        else if (flag == "--root")
            args.settings.root = value();
        else if (flag == "--work")
            args.work = value();
        else if (flag == "--commit")
            args.commit = value();
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (!args.selfTest && args.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

/** One benchmark run; returns the process exit code. */
int
benchmark(const Args &args)
{
    std::string loadStart = loadAverage();
    Settings settings = args.settings;
    ScratchDir scratch(args.work + "/" + args.workload);
    settings.workDir = scratch.path;
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, settings);

    json::Value facts = json::Value::makeObject();
    Totals totals;
    std::vector<Metric> metrics;
    PassOutcome reference;
    if (!args.trace) {
        std::vector<double> setups;
        size_t repeats = settings.quick ? 1 : kSetupRepeats;
        for (size_t i = 0; i < repeats; ++i) {
            auto start = Clock::now();
            workload->setup(nullptr);
            setups.push_back(secondsSince(start));
        }
        totals = runPasses(
            *workload, nullptr, reference, false,
            [&](const Totals &t, double elapsed) {
                size_t done = t.passes.size();
                double perPass = elapsed / static_cast<double>(done);
                // Start another pass only if at least half of it fits.
                return done >= kMinPasses &&
                       (settings.quick ||
                        elapsed + perPass / 2.0 > args.seconds);
            });
        const std::vector<double> &ops = totals.opSeconds;
        double attempted = static_cast<double>(totals.attempted);
        metrics = {
            {"latency_p50_ms", quantile(ops, 0.50) * 1e3, "ms"},
            {"latency_p99_ms", quantile(ops, 0.99) * 1e3, "ms"},
            {"throughput_per_s", totals.workUnits / totals.wallSeconds,
             "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"success_rate",
             (attempted - static_cast<double>(totals.failed)) / attempted,
             "ratio"},
        };
        facts.set("setup_runs", setups.size());
        // Every pass's figures, so a disturbed pass can be seen.
        json::Value perPass = json::Value::makeArray();
        for (const PassStats &p : totals.passes) {
            json::Value row = json::Value::makeArray();
            row.append(p.p50 * 1e3);
            row.append(p.p99 * 1e3);
            row.append(p.throughput);
            perPass.append(std::move(row));
        }
        facts.set("pass_p50_p99_ms_throughput", std::move(perPass));
    } else {
        workload->setup(nullptr);
        Totals untraced = runPasses(
            *workload, nullptr, reference, false,
            [&](const Totals &, double elapsed) {
                return settings.quick || elapsed >= args.seconds / 2.0;
            });
        Trace trace;
        workload->setup(&trace);
        {
            InstrumentedRuleFactory instrumented(trace);
            totals = runPasses(*workload, &trace, reference, true,
                               [&](const Totals &t, double) {
                                   return t.passes.size() >=
                                          untraced.passes.size();
                               });
        }
        double overhead = totals.wallSeconds / untraced.wallSeconds;
        metrics = trace.metrics(overhead);
        // The untraced passes count too: their digests are the
        // reference the traced outputs must match.
        totals.attempted += untraced.attempted;
        totals.failed += untraced.failed;
        facts.set("untraced_wall_s", untraced.wallSeconds);
        facts.set("traced_wall_s", totals.wallSeconds);
    }

    facts.set("workload", args.workload);
    facts.set("seed", std::to_string(settings.seed));
    facts.set("trace", args.trace);
    facts.set("quick", settings.quick);
    facts.set("passes", totals.passes.size());
    facts.set("ops", totals.opSeconds.size());
    facts.set("commit", args.commit);
    facts.set("build_type", PERFBENCH_BUILD_TYPE);
    facts.set("simd_backend", sharp::simd::activeBackendName());
    facts.set("nproc", affinityCpus());
    facts.set("loadavg_start", loadStart);
    facts.set("loadavg_end", loadAverage());
    json::Value provenance = json::Value::makeObject();
    provenance.set("provenance", std::move(facts));
    std::cout << json::write(provenance) << "\n";
    printResult(totals, metrics);
    return 0;
}

/** Tiny-size oracle checks for every workload; returns the exit code. */
int
selfTest(const Args &args)
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
        failures += ok ? 0 : 1;
    };
    for (const std::string &name : workloadNames()) {
        Settings settings = args.settings;
        settings.quick = true;
        ScratchDir scratch(args.work + "/selftest-" + name);
        settings.workDir = scratch.path;
        std::unique_ptr<Workload> workload =
            makeWorkload(name, settings);
        workload->setup(nullptr);

        Totals honest;
        PassOutcome reference = workload->pass(nullptr);
        absorb(reference, nullptr, honest);
        PassOutcome again = workload->pass(nullptr);
        absorb(again, &reference, honest);
        expect(honest.failed == 0 && honest.attempted > 0,
               name + ": oracle passes honest outputs");

        PassOutcome tampered = reference;
        tampered.opDigest.back() ^= 1;
        Totals digest;
        absorb(again, &tampered, digest);
        expect(digest.failed == 1,
               name + ": a changed output digest is rejected");

        Trace trace;
        workload->setup(&trace);
        Totals traced;
        {
            InstrumentedRuleFactory instrumented(trace);
            absorb(workload->pass(&trace), &reference, traced);
        }
        expect(traced.failed == 0,
               name + ": traced outputs match untraced outputs");

        workload->tamperExpectation();
        Totals expectation;
        absorb(workload->pass(nullptr), nullptr, expectation);
        expect(expectation.failed > 0,
               name + ": a tampered expectation is rejected");
    }
    std::cout << (failures ? "self-test FAILED\n" : "self-test passed\n");
    return failures ? 1 : 0;
}

} // anonymous namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        perfbench::Args args = perfbench::parseArgs(argc, argv);
        return args.selfTest ? perfbench::selfTest(args)
                             : perfbench::benchmark(args);
    } catch (const std::exception &problem) {
        std::cerr << "perfbench_driver: " << problem.what() << "\n";
        return 1;
    }
}
