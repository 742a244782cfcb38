/**
 * @file
 * run_campaign: a fixed grid of launcher::Launcher campaigns on the
 * simulated testbed (Rodinia models x machines), each watched by the
 * ks, median-ci or tail-quantile rule with a threshold so tight that
 * the campaign always runs to its sample cap, then written out as its
 * tidy CSV (plus metadata) and a markdown distribution report — what
 * `sharp run --out` does. Op = one round, timed between
 * LaunchOptions::roundObserver callbacks; throughput counts samples.
 *
 * Oracle: each campaign runs to exactly its cap without failures, and
 * (via the runner's digests) its samples-to-stop, stop reason and CSV
 * digest repeat exactly across passes and in the traced pass.
 */

#include "launcher/launcher.hh"
#include "launcher/sim_backend.hh"
#include "report/report.hh"
#include "rng/xoshiro.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace core = sharp::core;
namespace launcher = sharp::launcher;
namespace sim = sharp::sim;

namespace
{

/** One grid point: model, machine, rule and its stream seed. */
struct Campaign
{
    std::string bench;
    std::string machine;
    std::string rule;
    uint64_t seed = 0;
};

/**
 * The grid: one campaign per rule, each on its own Rodinia model and
 * machine. The tail-quantile rule's binomial coverage scans make its
 * campaign the slowest by far (about 0.5 ms per evaluation at 10^4
 * samples); ks and median-ci read the incremental StatsCache.
 */
const Campaign kGrid[] = {
    {"hotspot", "machine1", "ks", 0},
    {"srad", "machine2", "median-ci", 0},
    {"lud", "machine3", "tail-quantile", 0},
};

/**
 * A threshold far below what 10^4 samples of any simulated model can
 * reach, so every campaign runs to its cap: the work per campaign is
 * fixed and the rule is evaluated after every round.
 */
const core::StoppingRuleFactory::Params kTight = {{"threshold", 1e-4}};

class RunCampaign final : public Workload
{
  public:
    explicit RunCampaign(const Settings &settings)
        : settings(settings), cap(settings.quick ? 400 : 10000),
          expectedSamples(cap)
    {}

    void
    setup(Trace *) override
    {
        grid.clear();
        sharp::rng::SplitMix64 seeds(settings.seed);
        for (const Campaign &point : kGrid) {
            grid.push_back(point);
            grid.back().seed = seeds.next();
        }
        // Untimed warm-up: a short campaign per grid point, own seeds.
        for (const Campaign &point : grid) {
            Campaign warm = point;
            warm.seed = ~warm.seed;
            std::vector<double> ignored;
            run(warm, settings.quick ? 100 : 2000, nullptr, ignored);
        }
    }

    PassOutcome
    pass(Trace *trace) override
    {
        PassOutcome out;
        for (size_t i = 0; i < grid.size(); ++i) {
            std::vector<double> rounds;
            auto start = Clock::now();
            launcher::LaunchReport report = run(grid[i], cap, trace, rounds);
            std::string base =
                settings.workDir + "/campaign_" + std::to_string(i);
            {
                Span span(trace, "record.csv_write");
                report.log.save(base);
            }
            {
                Span span(trace, "report.render");
                auto analysis = sharp::report::DistributionReport::analyze(
                    grid[i].bench + "@" + grid[i].machine,
                    report.series.values());
                writeFile(base + ".report.md", analysis.renderMarkdown());
            }
            out.wallSeconds += secondsSince(start);

            bool ok = report.series.size() == expectedSamples &&
                      !report.ruleFired && !report.aborted &&
                      report.failures == 0;
            uint64_t digest = fnv1a(readFile(base + ".csv"));
            digest = fnv1a(std::to_string(report.series.size()) + "|" +
                               report.finalDecision.reason,
                           digest);
            for (double secs : rounds) {
                out.opSeconds.push_back(secs);
                out.opDigest.push_back(digest);
                out.opOk.push_back(ok);
            }
            out.workUnits += static_cast<double>(report.series.size());
        }
        return out;
    }

    void
    tamperExpectation() override
    {
        // Expect one sample more than any campaign may take.
        ++expectedSamples;
    }

  private:
    Settings settings;
    /** Sample cap every campaign is launched with. */
    size_t cap;
    /** Samples the oracle expects each campaign to stop at. */
    size_t expectedSamples;
    std::vector<Campaign> grid;

    /** Launch one campaign; round latencies land in @p rounds. */
    launcher::LaunchReport
    run(const Campaign &c, size_t samples, Trace *trace,
        std::vector<double> &rounds)
    {
        std::shared_ptr<launcher::Backend> backend =
            std::make_shared<launcher::SimBackend>(
                sim::rodiniaByName(c.bench), sim::machineById(c.machine), 0,
                c.seed);
        if (trace)
            backend = std::make_shared<TimedBackend>(backend, *trace);
        launcher::LaunchOptions options;
        options.maxSamples = samples;
        options.jobs = 1;
        auto last = Clock::now();
        options.roundObserver = [&](size_t) {
            auto now = Clock::now();
            rounds.push_back(
                std::chrono::duration<double>(now - last).count());
            last = now;
        };
        launcher::Launcher campaign(
            backend, core::StoppingRuleFactory::instance().make(c.rule,
                                                                kTight),
            options);
        Span span(trace, "launcher.launch");
        last = Clock::now();
        return campaign.launch();
    }
};

} // anonymous namespace

std::unique_ptr<Workload>
makeRunCampaign(const Settings &settings)
{
    return std::make_unique<RunCampaign>(settings);
}

} // namespace perfbench
