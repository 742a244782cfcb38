/**
 * @file
 * The traced pass: per-layer time and counts, recorded only around
 * public calls into the sharp libraries.
 *
 * Nothing inside the libraries is instrumented. Stopping rules are
 * wrapped by re-registering every maker in the process-wide
 * core::StoppingRuleFactory (which is what calibrate::runCalibration
 * calls per cell), backends by a launcher::Backend decorator, and the
 * remaining layers by timing the public calls directly. Totals stay in
 * memory and are printed when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "core/stopping/stopping_rule.hh"
#include "launcher/backend.hh"

namespace perfbench
{

/** Accumulated busy time and call count of one layer. */
struct LayerTotal
{
    double seconds = 0.0;
    uint64_t calls = 0;
};

/** In-memory per-layer totals of one traced run. */
class Trace
{
  public:
    /** The total for @p layer, created on first use; stable address. */
    LayerTotal &layer(const std::string &name) { return layers[name]; }

    /** Add one timed call of @p seconds to @p layer. */
    void add(const std::string &name, double seconds);

    /** Add @p n to the exact counter @p name. */
    void count(const std::string &name, uint64_t n) { counters[name] += n; }

    double seconds(const std::string &name) const;
    uint64_t calls(const std::string &name) const;
    uint64_t counter(const std::string &name) const;

    /** Duration of every stopping-rule evaluation, seconds. */
    std::vector<double> evalSeconds;

    /**
     * Every per-layer metric the benchmark declares, in a fixed order.
     * A layer the workload never enters reads 0. @p overhead is traced
     * wall time over untraced wall time for the same passes.
     */
    std::vector<Metric> metrics(double overhead) const;

  private:
    std::map<std::string, LayerTotal> layers;
    std::map<std::string, uint64_t> counters;
};

/** Times the enclosing scope into a layer; a no-op without a trace. */
class Span
{
  public:
    Span(Trace *trace, const char *layer)
        : trace(trace), layer(layer), start(Clock::now())
    {}
    ~Span()
    {
        if (trace)
            trace->add(layer, secondsSince(start));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Trace *trace;
    const char *layer;
    Clock::time_point start;
};

/**
 * While alive, every rule the process-wide factory makes is wrapped so
 * its evaluations are timed into the trace (grouped by rule family)
 * and the StatsCache work counters of the series it last saw are
 * added when the rule is destroyed. The destructor restores the
 * original makers.
 */
class InstrumentedRuleFactory
{
  public:
    explicit InstrumentedRuleFactory(Trace &trace);
    ~InstrumentedRuleFactory();
    InstrumentedRuleFactory(const InstrumentedRuleFactory &) = delete;
    InstrumentedRuleFactory &
    operator=(const InstrumentedRuleFactory &) = delete;

  private:
    sharp::core::StoppingRuleFactory saved;
};

/** Times every backend call into the "sim.backend" layer. */
class TimedBackend final : public sharp::launcher::Backend
{
  public:
    TimedBackend(std::shared_ptr<sharp::launcher::Backend> inner,
                 Trace &trace);

    std::string name() const override { return inner->name(); }
    std::string workloadName() const override
    {
        return inner->workloadName();
    }
    sharp::launcher::RunResult run() override;
    std::vector<sharp::launcher::RunResult> runBatch(size_t n) override;
    void setDay(int day) override { inner->setDay(day); }
    bool deterministic() const override { return inner->deterministic(); }

  private:
    std::shared_ptr<sharp::launcher::Backend> inner;
    Trace &trace;
    LayerTotal &busy;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
