#include "trace.hh"

#include <stdexcept>

#include "core/stats_cache.hh"
#include "core/stopping/meta_rule.hh"

namespace perfbench
{

namespace core = sharp::core;

void
Trace::add(const std::string &name, double secs)
{
    LayerTotal &total = layers[name];
    total.seconds += secs;
    ++total.calls;
}

double
Trace::seconds(const std::string &name) const
{
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.seconds;
}

uint64_t
Trace::calls(const std::string &name) const
{
    auto it = layers.find(name);
    return it == layers.end() ? 0 : it->second.calls;
}

uint64_t
Trace::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

std::vector<Metric>
Trace::metrics(double overhead) const
{
    auto count = [](const char *name, double value) {
        return Metric{name, value, "count"};
    };
    auto secs = [](const char *name, double value) {
        return Metric{name, value, "s"};
    };
    // A residual is only meaningful when its enclosing layer ran.
    auto residual = [this](const char *outer, double inner) {
        double total = seconds(outer);
        return total > 0.0 ? total - inner : 0.0;
    };
    double evalSecs = seconds("stopping.modality") +
                      seconds("stopping.ci_family") +
                      seconds("stopping.meta") + seconds("stopping.other");
    double evals = static_cast<double>(evalSeconds.size());
    double speedupSecs = seconds("stats.speedup_ci");
    double ksSecs = seconds("stats.ks");

    return {
        count("stopping.evals", evals),
        secs("stopping.eval_s", evalSecs),
        {"stopping.eval_p50_us", quantile(evalSeconds, 0.50) * 1e6, "us"},
        {"stopping.eval_p99_us", quantile(evalSeconds, 0.99) * 1e6, "us"},
        secs("stopping.modality.eval_s", seconds("stopping.modality")),
        count("stopping.modality.evals",
              static_cast<double>(calls("stopping.modality"))),
        secs("stopping.ci_family.eval_s", seconds("stopping.ci_family")),
        secs("stopping.meta.eval_s", seconds("stopping.meta")),
        secs("stopping.other.eval_s", seconds("stopping.other")),
        count("core.stats_cache.comparisons",
              static_cast<double>(counter("core.stats_cache.comparisons"))),
        count("core.stats_cache.pmf_evals",
              static_cast<double>(counter("core.stats_cache.pmf_evals"))),
        secs("calibrate.outside_rules_s",
             residual("calibrate.sweep", evalSecs)),
        count("sim.backend.runs",
              static_cast<double>(counter("sim.backend.runs"))),
        secs("sim.backend.busy_s", seconds("sim.backend")),
        secs("launcher.round_other_s",
             residual("launcher.launch",
                      seconds("sim.backend") + evalSecs)),
        secs("record.csv_write_s", seconds("record.csv_write")),
        secs("report.render_s", seconds("report.render")),
        secs("compare.baseline_capture_s",
             seconds("compare.baseline_capture")),
        secs("compare.bundle_save_s", seconds("compare.bundle_save")),
        secs("compare.bundle_load_s", seconds("compare.bundle_load")),
        {"compare.bundle_bytes",
         static_cast<double>(counter("compare.bundle_bytes")), "bytes"},
        secs("compare.candidate_ingest_s",
             seconds("compare.candidate_ingest")),
        secs("compare.gate_s", seconds("compare.gate")),
        secs("compare.gate_other_s",
             residual("compare.gate", speedupSecs + ksSecs)),
        secs("stats.speedup_ci_s", speedupSecs),
        count("stats.bootstrap_sorted_elems",
              static_cast<double>(counter("stats.bootstrap_sorted_elems"))),
        secs("stats.ks_s", ksSecs),
        {"trace.overhead_ratio", overhead, "ratio"},
    };
}

namespace
{

/**
 * The layer a rule's evaluations are charged to: the KDE-based
 * modality rule, the Student-t interval family, the meta rule (whose
 * time includes its classifier and delegate), and everything else.
 */
const char *
ruleLayer(const std::string &name)
{
    if (name == "modality")
        return "stopping.modality";
    if (name == "ci" || name == "normal-ci" || name == "geomean-ci" ||
        name == "autocorr-ess")
        return "stopping.ci_family";
    if (name == "meta")
        return "stopping.meta";
    return "stopping.other";
}

/** Shared timing and counter bookkeeping of the rule wrappers. */
class RuleProbe
{
  public:
    RuleProbe(Trace &trace, const std::string &rule)
        : trace(trace), total(trace.layer(ruleLayer(rule)))
    {}

    ~RuleProbe()
    {
        trace.count("core.stats_cache.comparisons", last.comparisons);
        trace.count("core.stats_cache.pmf_evals", last.pmfEvals);
    }

    RuleProbe(const RuleProbe &) = delete;
    RuleProbe &operator=(const RuleProbe &) = delete;

    template <typename Evaluate>
    core::StopDecision
    time(const core::SampleSeries &series, Evaluate &&evaluate)
    {
        auto start = Clock::now();
        core::StopDecision decision = evaluate();
        double secs = secondsSince(start);
        total.seconds += secs;
        ++total.calls;
        trace.evalSeconds.push_back(secs);
        // Cumulative per series; the last snapshot is the series'
        // total, added once when the rule (one per run) is destroyed.
        last = series.stats().counters();
        return decision;
    }

  private:
    Trace &trace;
    LayerTotal &total;
    core::StatsEngineCounters last;
};

/** Times any rule by forwarding to the rule the original maker built. */
class TracedRule final : public core::StoppingRule
{
  public:
    TracedRule(std::unique_ptr<core::StoppingRule> inner, Trace &trace)
        : inner(std::move(inner)), probe(trace, this->inner->name())
    {}

    std::string name() const override { return inner->name(); }
    std::string describe() const override { return inner->describe(); }
    size_t minSamples() const override { return inner->minSamples(); }
    void reset() override { inner->reset(); }

    core::StopDecision
    evaluate(const core::SampleSeries &series) override
    {
        return probe.time(series,
                          [&] { return inner->evaluate(series); });
    }

  private:
    std::unique_ptr<core::StoppingRule> inner;
    RuleProbe probe;
};

/**
 * The meta rule is traced by subclassing instead: the calibration
 * harness reads the delegate through dynamic_cast<MetaRule>, so a
 * forwarding wrapper would change its output.
 */
class TracedMetaRule final : public core::MetaRule
{
  public:
    explicit TracedMetaRule(Trace &trace) : probe(trace, "meta") {}

    core::StopDecision
    evaluate(const core::SampleSeries &series) override
    {
        return probe.time(series,
                          [&] { return MetaRule::evaluate(series); });
    }

  private:
    RuleProbe probe;
};

} // anonymous namespace

InstrumentedRuleFactory::InstrumentedRuleFactory(Trace &trace)
    : saved(core::StoppingRuleFactory::instance())
{
    core::StoppingRuleFactory &factory = core::StoppingRuleFactory::instance();
    for (const std::string &name : saved.names()) {
        if (name == "meta") {
            factory.registerRule(
                name, [&trace](const core::StoppingRuleFactory::Params &p)
                          -> std::unique_ptr<core::StoppingRule> {
                    if (!p.empty())
                        throw std::invalid_argument(
                            "traced meta rule takes default parameters "
                            "only");
                    return std::make_unique<TracedMetaRule>(trace);
                });
            continue;
        }
        factory.registerRule(
            name, [this, name, &trace](
                      const core::StoppingRuleFactory::Params &p)
                      -> std::unique_ptr<core::StoppingRule> {
                return std::make_unique<TracedRule>(saved.make(name, p),
                                                    trace);
            });
    }
}

InstrumentedRuleFactory::~InstrumentedRuleFactory()
{
    core::StoppingRuleFactory::instance() = saved;
}

TimedBackend::TimedBackend(std::shared_ptr<sharp::launcher::Backend> inner,
                           Trace &trace)
    : inner(std::move(inner)), trace(trace), busy(trace.layer("sim.backend"))
{}

sharp::launcher::RunResult
TimedBackend::run()
{
    auto start = Clock::now();
    sharp::launcher::RunResult result = inner->run();
    busy.seconds += secondsSince(start);
    ++busy.calls;
    trace.count("sim.backend.runs", 1);
    return result;
}

std::vector<sharp::launcher::RunResult>
TimedBackend::runBatch(size_t n)
{
    auto start = Clock::now();
    std::vector<sharp::launcher::RunResult> results = inner->runBatch(n);
    busy.seconds += secondsSince(start);
    ++busy.calls;
    trace.count("sim.backend.runs", n);
    return results;
}

} // namespace perfbench
