/**
 * @file
 * calibrate_sweep: the full §IV-c stopping-rule calibration sweep
 * through calibrate::runCalibration, serial. Op = one cell; its
 * latency is the cell's own CalibrationCell::wallSeconds.
 *
 * Oracle: every sweep passes calibrate::compareToBaseline against the
 * checked-in tests/baselines/calibration.json, and (via the runner's
 * digests) produces a CSV byte-identical to the first sweep.
 *
 * The sample streams are pinned by that baseline (its base seed), so
 * the driver seed only permutes the order in which rules and
 * distributions are swept.
 */

#include <algorithm>
#include <iostream>

#include "calibrate/baseline.hh"
#include "calibrate/calibration.hh"
#include "json/parser.hh"
#include "rng/xoshiro.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace calibrate = sharp::calibrate;
namespace json = sharp::json;

namespace
{

std::vector<std::string>
stringList(const json::Value &array)
{
    std::vector<std::string> out;
    for (const json::Value &item : array.asArray())
        out.push_back(item.asString());
    return out;
}

/** The baseline reduced to the rules and distributions of a subset. */
json::Value
subsetBaseline(const json::Value &baseline,
               const std::vector<std::string> &rules,
               const std::vector<std::string> &distributions)
{
    json::Value table = json::Value::makeObject();
    for (const std::string &rule : rules) {
        json::Value entries = json::Value::makeObject();
        for (const std::string &dist : distributions)
            entries.set(dist, baseline.at("rules").at(rule).at(dist));
        table.set(rule, std::move(entries));
    }
    json::Value doc = json::Value::makeObject();
    doc.set("schema", baseline.at("schema"));
    doc.set("rules", std::move(table));
    return doc;
}

template <typename T>
void
shuffle(std::vector<T> &items, sharp::rng::Xoshiro256 &gen)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[gen.nextBelow(i)]);
}

class CalibrateSweep final : public Workload
{
  public:
    explicit CalibrateSweep(const Settings &settings) : settings(settings) {}

    void
    setup(Trace *) override
    {
        json::Value doc = json::parseFile(
            settings.root + "/tests/baselines/calibration.json");
        const json::Value &echo = doc.at("config");
        config = calibrate::CalibrationConfig();
        config.baseSeed = echo.getUint64("base_seed", 1);
        config.seedsPerCell =
            static_cast<size_t>(echo.getLong("seeds_per_cell", 9));
        config.maxSamples =
            static_cast<size_t>(echo.getLong("max_samples", 800));
        config.truthSamples =
            static_cast<size_t>(echo.getLong("truth_samples", 8192));
        config.rules = stringList(echo.at("rules"));
        config.distributions = stringList(echo.at("distributions"));
        config.jobs = 1;
        if (settings.quick) {
            config.rules = {"ci", "fixed", "meta", "modality"};
            config.distributions = {"bimodal", "normal"};
            doc = subsetBaseline(doc, config.rules, config.distributions);
        }
        baseline = std::move(doc);

        sharp::rng::Xoshiro256 gen(settings.seed);
        shuffle(config.rules, gen);
        shuffle(config.distributions, gen);

        // Untimed warm-up: one short seed of every cell, on another
        // base seed, so code, allocator and page cache are warm.
        calibrate::CalibrationConfig warm = config;
        warm.baseSeed = config.baseSeed + 1;
        warm.seedsPerCell = 1;
        warm.maxSamples = std::min<size_t>(config.maxSamples, 200);
        calibrate::runCalibration(warm);
    }

    PassOutcome
    pass(Trace *trace) override
    {
        PassOutcome out;
        auto start = Clock::now();
        calibrate::CalibrationResult result;
        {
            Span span(trace, "calibrate.sweep");
            result = calibrate::runCalibration(config);
        }
        out.wallSeconds = secondsSince(start);

        calibrate::GateReport gate =
            calibrate::compareToBaseline(baseline, result.summaryJson());
        if (!gate.pass)
            std::cerr << "calibrate_sweep: " << gate.render();
        sharp::record::CsvTable csv = result.toCsv();
        for (size_t i = 0; i < result.cells.size(); ++i) {
            out.opSeconds.push_back(result.cells[i].wallSeconds);
            uint64_t digest = fnv1a("");
            for (const std::string &field : csv.row(i))
                digest = fnv1a(field + ",", digest);
            out.opDigest.push_back(digest);
            out.opOk.push_back(gate.pass);
        }
        out.workUnits = static_cast<double>(result.cells.size());
        return out;
    }

    void
    tamperExpectation() override
    {
        // A baseline claiming the fixed rule stops after one sample on
        // every distribution: the sweep now looks like a regression.
        json::Value rules = baseline.at("rules");
        json::Value fixed = rules.at("fixed");
        for (const auto &[dist, entry] : baseline.at("rules").at("fixed")
                                             .members()) {
            json::Value cell = entry;
            cell.set("median_samples", 1);
            fixed.set(dist, std::move(cell));
        }
        rules.set("fixed", std::move(fixed));
        baseline.set("rules", std::move(rules));
    }

  private:
    Settings settings;
    calibrate::CalibrationConfig config;
    json::Value baseline;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeCalibrateSweep(const Settings &settings)
{
    return std::make_unique<CalibrateSweep>(settings);
}

} // namespace perfbench
