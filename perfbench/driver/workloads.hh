/**
 * @file
 * The three benchmark workloads. Each is a closed loop on one thread
 * (jobs = 1, no sockets, no fork, no fsync in the timed path); see
 * perfbench/README.md for why each exists and what it loads.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

class Trace;

/**
 * A benchmark workload: a closed loop on one thread. It is set up
 * (inputs generated, baselines captured, warm-up done), then runs whole
 * passes; each pass is a fixed list of operations ("ops") whose
 * latencies are recorded one by one and whose outputs are digested, so
 * the runner can check that every pass, the traced one included, made
 * byte-identical outputs.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * (Re)build every input and the state passes read. May be called
     * several times; each call starts from scratch. @p trace is null
     * for untraced runs.
     */
    virtual void setup(Trace *trace) = 0;

    /** Run one pass over the op list. */
    virtual PassOutcome pass(Trace *trace) = 0;

    /**
     * Corrupt one expectation the workload's own oracle checks against
     * (a baseline cell, a campaign's cap, a scenario's verdict), so the
     * self-test can confirm the next pass is rejected.
     */
    virtual void tamperExpectation() = 0;
};

std::unique_ptr<Workload> makeCalibrateSweep(const Settings &settings);
std::unique_ptr<Workload> makeRunCampaign(const Settings &settings);
std::unique_ptr<Workload> makeCompareGate(const Settings &settings);

/** Workload names, in the order BENCHMARK.json lists them. */
std::vector<std::string> workloadNames();

/** Build the named workload. @throws std::invalid_argument if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Settings &settings);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
