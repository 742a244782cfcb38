/**
 * @file
 * compare_gate: distribution-based regression gating over 500
 * scenarios sampled from simulated-testbed runs, sized like
 * meta-stopped runs (30 to 120 samples each).
 *
 * Set-up is the write side: generate every scenario's baseline and
 * candidate run CSVs, capture the baseline bundle, save it and load it
 * back. Op = gate one scenario the way `sharp compare RUN --against B`
 * does: ingest its candidate CSV, then compareBundles against that
 * scenario's baseline. A seeded fifth of the candidates carry an
 * injected 1.5x slowdown; the rest replay the baseline run's samples
 * in another arrival order.
 *
 * Oracle: every unchanged scenario passes and exactly the slowed ones
 * are flagged; (via the runner's digests) each scenario's report JSON
 * repeats exactly across passes and in the traced pass.
 */

#include <filesystem>

#include "compare/bundle.hh"
#include "compare/compare.hh"
#include "json/writer.hh"
#include "launcher/sim_backend.hh"
#include "record/run_log.hh"
#include "rng/xoshiro.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "stats/similarity.hh"
#include "stats/speedup.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace compare = sharp::compare;
namespace record = sharp::record;
namespace sim = sharp::sim;

namespace
{

/** Injected regression: slowed candidates run this much longer. */
constexpr double kSlowdown = 1.5;
/** One candidate in this many is slowed. */
constexpr size_t kSlowedEvery = 5;
/** Smallest and largest scenario sample sizes. */
constexpr size_t kMinSamples = 30;
constexpr size_t kMaxSamples = 120;
/** The seed compareScenario derives its per-scenario stream from. */
constexpr uint64_t kCompareHashBasis = 1469598103934665603ull;

/** Write one tidy run CSV of @p values for scenario @p name. */
void
writeRun(const std::string &path, const std::string &name,
         const std::string &machine, const std::vector<double> &values)
{
    record::RunLog log(name, "execution_time");
    for (size_t i = 0; i < values.size(); ++i) {
        record::RunRecord rec;
        rec.run = i;
        rec.workload = name;
        rec.backend = "sim";
        rec.machine = machine;
        rec.metrics["execution_time"] = values[i];
        log.add(std::move(rec));
    }
    log.toCsv().save(path);
}

class CompareGate final : public Workload
{
  public:
    explicit CompareGate(const Settings &settings)
        : settings(settings), count(settings.quick ? 12 : 500)
    {}

    void
    setup(Trace *trace) override
    {
        scenarios.clear();
        std::vector<std::string> baselineRuns;
        std::vector<sim::BenchmarkSpec> benches = sim::rodiniaCpuBenchmarks();
        const auto &machines = sim::machineRegistry();
        sharp::rng::Xoshiro256 gen(settings.seed);

        // Sizes are an evenly spaced ladder dealt out in seeded order,
        // so every seed gates the same total amount of data.
        std::vector<size_t> sizes(count);
        for (size_t i = 0; i < count; ++i)
            sizes[i] = kMinSamples + i * (kMaxSamples - kMinSamples) /
                                         std::max<size_t>(count - 1, 1);
        for (size_t i = count; i > 1; --i)
            std::swap(sizes[i - 1], sizes[gen.nextBelow(i)]);

        for (size_t i = 0; i < count; ++i) {
            const sim::BenchmarkSpec &bench =
                benches[gen.nextBelow(benches.size())];
            const sim::MachineSpec &machine =
                machines[gen.nextBelow(machines.size())];
            Scenario s;
            s.name = bench.name + "@" + machine.id + "#" + std::to_string(i);
            s.slowed = i % kSlowedEvery == 0;
            sharp::launcher::SimBackend backend(bench, machine, 0, gen());
            std::vector<double> values;
            for (size_t k = 0; k < sizes[i]; ++k)
                values.push_back(backend.run().metric("execution_time"));

            std::string stem = settings.workDir + "/scenario_" +
                               std::to_string(i);
            writeRun(stem + ".base.csv", s.name, machine.id, values);
            baselineRuns.push_back(stem + ".base.csv");
            std::vector<double> candidate(values.rbegin(), values.rend());
            if (s.slowed)
                for (double &v : candidate)
                    v *= kSlowdown;
            s.candidatePath = stem + ".cand.csv";
            writeRun(s.candidatePath, s.name, machine.id, candidate);
            scenarios.push_back(std::move(s));
        }

        compare::BaselineBundle captured;
        {
            Span span(trace, "compare.baseline_capture");
            captured = compare::captureBaseline(baselineRuns);
        }
        std::string path;
        {
            Span span(trace, "compare.bundle_save");
            path = compare::saveBundle(captured,
                                       settings.workDir + "/baseline.json");
        }
        if (trace)
            trace->count("compare.bundle_bytes",
                         std::filesystem::file_size(path));
        compare::BaselineBundle loaded;
        {
            Span span(trace, "compare.bundle_load");
            loaded = compare::loadBundle(path);
        }
        capture.metric = loaded.metric;
        capture.groupBy = loaded.groupBy;
        // One single-scenario baseline per op, as a per-scenario gate
        // sees it.
        for (Scenario &s : scenarios) {
            const compare::ScenarioSamples *samples = loaded.find(s.name);
            if (!samples)
                throw std::runtime_error("bundle lost scenario " + s.name);
            s.baseline.metric = loaded.metric;
            s.baseline.groupBy = loaded.groupBy;
            s.baseline.scenarios = {*samples};
        }
    }

    PassOutcome
    pass(Trace *trace) override
    {
        PassOutcome out;
        for (const Scenario &s : scenarios) {
            auto start = Clock::now();
            compare::BaselineBundle candidate;
            {
                Span span(trace, "compare.candidate_ingest");
                candidate = compare::captureBaseline({s.candidatePath},
                                                     capture);
            }
            compare::CompareReport report;
            {
                Span span(trace, "compare.gate");
                report = compare::compareBundles(s.baseline, candidate,
                                                 tolerances);
            }
            if (trace)
                replay(s, candidate, report, *trace);
            double secs = secondsSince(start);
            out.wallSeconds += secs;
            out.opSeconds.push_back(secs);
            out.opDigest.push_back(
                fnv1a(sharp::json::write(report.toJson())));
            // Flagged means the gate failed (exit 1) for this scenario.
            out.opOk.push_back(report.pass() == !s.slowed);
        }
        out.workUnits = static_cast<double>(scenarios.size());
        return out;
    }

    void
    tamperExpectation() override
    {
        // Expect the first unchanged scenario to be flagged.
        for (Scenario &s : scenarios) {
            if (!s.slowed) {
                s.slowed = true;
                return;
            }
        }
    }

  private:
    struct Scenario
    {
        std::string name;
        std::string candidatePath;
        bool slowed = false;
        compare::BaselineBundle baseline;
    };

    Settings settings;
    size_t count;
    std::vector<Scenario> scenarios;
    compare::CaptureOptions capture;
    compare::CompareTolerances tolerances;

    /**
     * Traced passes only: rerun the comparator's two statistics on
     * the same inputs with the same per-scenario stream, to attribute
     * the gate's time to stats. The replay must reproduce the report.
     */
    void
    replay(const Scenario &s, const compare::BaselineBundle &candidate,
           const compare::CompareReport &report, Trace &trace)
    {
        const std::vector<double> &base = s.baseline.scenarios[0].sorted;
        const std::vector<double> &cand = candidate.scenarios.at(0).sorted;
        sharp::stats::SpeedupEstimate speedup;
        {
            Span span(&trace, "stats.speedup_ci");
            sharp::rng::Xoshiro256 gen(tolerances.seed ^
                                       fnv1a(s.name, kCompareHashBasis));
            speedup = sharp::stats::speedupOfMedians(
                base, cand, tolerances.level, tolerances.resamples, gen);
        }
        trace.count("stats.bootstrap_sorted_elems",
                    tolerances.resamples * (base.size() + cand.size()));
        double ks = 0.0;
        {
            Span span(&trace, "stats.ks");
            ks = sharp::stats::ksDistanceSorted(base, cand);
        }
        const compare::ScenarioComparison &seen = report.scenarios.at(0);
        if (speedup.ci.lower != seen.speedup.ci.lower ||
            speedup.ci.upper != seen.speedup.ci.upper ||
            ks != seen.ksDistance)
            throw std::runtime_error("stats replay diverged from the "
                                     "comparator on " + s.name);
    }
};

} // anonymous namespace

std::unique_ptr<Workload>
makeCompareGate(const Settings &settings)
{
    return std::make_unique<CompareGate>(settings);
}

} // namespace perfbench
