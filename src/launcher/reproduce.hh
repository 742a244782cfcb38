/**
 * @file
 * Experiment reproduction from recorded metadata.
 *
 * "This metadata file is both human-readable and machine-readable:
 * SHARP itself can parse it to recreate the same parameters for a
 * reproduction run." (§IV-d)
 *
 * A ReproSpec captures everything needed to re-run an experiment:
 * backend kind, workload, machines, day, seed, concurrency, and the
 * full stopping/sampling configuration. annotate() embeds it in a
 * RunLog's metadata; reproduce() parses a metadata document back into
 * a live Launcher and runs it. With the simulated testbed the
 * reproduction is bit-exact: same seed, same samples.
 */

#ifndef SHARP_LAUNCHER_REPRODUCE_HH
#define SHARP_LAUNCHER_REPRODUCE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "json/value.hh"
#include "launcher/backend.hh"
#include "launcher/fault_backend.hh"
#include "launcher/launcher.hh"
#include "launcher/retry.hh"
#include "record/metadata.hh"
#include "record/run_log.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace launcher
{

/** Everything needed to recreate an experiment. */
struct ReproSpec
{
    /** Backend kind: "sim", "sim-phased", "faas", "local", "scenario". */
    std::string backendKind = "sim";
    /** Workload (Rodinia benchmark) name; unused for sim-phased. */
    std::string workload;
    /**
     * Scenario file for the "scenario" backend (a `sharp-scenario-v1`
     * document naming a nonstationary family or a recorded trace).
     * Resolved relative to the working directory at launch; loaders
     * that know the spec file's location join it on beforehand.
     */
    std::string scenario;
    /** Command line for the "local" backend. */
    std::vector<std::string> argv;
    /** Per-run timeout for the "local" backend (0 = none). */
    double timeoutSeconds = 60.0;
    /** Machine ids; one for sim backends, the workers for faas. */
    std::vector<std::string> machines;
    /** Environment day. */
    int day = 0;
    /** Stream seed. */
    uint64_t seed = 1;
    /** Parallel requests per round. */
    size_t concurrency = 1;
    /**
     * Worker threads the execution layer may use (suite entries,
     * batch servicing). Never changes measured values — recorded so a
     * reproduction replays with the same parallelism.
     */
    size_t jobs = 1;
    /** Stopping rule + sampling bounds. */
    core::ExperimentConfig experiment;
    /** Failure cap: abort after exactly this many final failures. */
    size_t maxFailures = 10;
    /** Failure-rate cap; 1.0 disables the rate policy. */
    double maxFailureRate = 1.0;
    /** Retry policy for failed invocations. */
    RetryPolicy retry;
    /** Fault-injection schedule wrapped around the backend. */
    FaultSpec fault;
    /** True when the fault-injection wrapper is active. */
    bool faultEnabled = false;
    /** Launch options equivalent to this spec. */
    LaunchOptions launchOptions() const;

    /**
     * Parse from a JSON document, e.g.
     * {
     *   "backend": "sim", "workload": "hotspot",
     *   "machines": ["machine1"], "day": 0, "seed": 42,
     *   "concurrency": 1,
     *   "experiment": {"rule": "ks", "params": {"threshold": 0.1},
     *                  "max": 1000}
     * }
     * @param artifact the file @p doc came from, named in diagnostics.
     * @throws std::invalid_argument on malformed documents (a
     *         check::CheckFailure with located diagnostics).
     */
    static ReproSpec fromJson(const json::Value &doc,
                              const std::string &artifact = "");

    /** Serialize to JSON (round-trips through fromJson). */
    json::Value toJson() const;
};

/**
 * Full static analysis of a run-spec document: every structural
 * problem ReproSpec::fromJson would reject, plus the registry lints
 * loading alone only hits at backend construction — unknown backend
 * kinds, workloads absent from the Rodinia registry, machines absent
 * from the machine registry, a local backend without argv, and a
 * fault schedule inflating a metric the backend never emits. Never
 * throws; findings are appended to @p out.
 */
void checkRunSpec(const json::Value &doc, check::CheckResult &out);

/** Record @p spec in @p log's metadata ("Reproduction" section). */
void annotate(record::RunLog &log, const ReproSpec &spec);

/**
 * Parse a spec back out of a metadata document.
 * @throws std::invalid_argument when the document lacks a
 *         Reproduction section or holds malformed entries.
 */
ReproSpec reproSpecFromMetadata(const record::MetadataDocument &doc);

/**
 * Build the backend a spec describes.
 * @throws std::invalid_argument for unknown kinds/workloads/machines.
 */
std::shared_ptr<Backend> makeBackend(const ReproSpec &spec);

/** Build a ready-to-run launcher from a spec. */
Launcher makeLauncher(const ReproSpec &spec);

/**
 * One-call reproduction: parse the metadata, rebuild the experiment,
 * run it, and return the fresh report.
 */
LaunchReport reproduce(const record::MetadataDocument &doc);

} // namespace launcher
} // namespace sharp

#endif // SHARP_LAUNCHER_REPRODUCE_HH
