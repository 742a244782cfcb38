/**
 * @file
 * Tests for the static analyzer: the Diagnostic/CheckResult API, the
 * per-artifact checkers, artifact sniffing, the seeded defect
 * fixtures (one per defect class, pinned down to severity, source
 * location, and exit code), and the `sharp check` CLI command.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/analyzer.hh"
#include "check/campaign.hh"
#include "check/diagnostic.hh"
#include "cli/cli.hh"
#include "core/config.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/reproduce.hh"
#include "record/journal.hh"
#include "workflow/workflow_parser.hh"

namespace
{

using namespace sharp;
using check::ArtifactKind;
using check::CheckResult;
using check::Severity;

std::string
fixture(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) + "/tests/fixtures/check/" +
           name;
}

std::string
example(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) + "/examples/" + name;
}

/** First diagnostic carrying @p rule; nullptr when absent. */
const check::Diagnostic *
findRule(const CheckResult &result, const std::string &rule)
{
    for (const auto &diagnostic : result.diagnostics()) {
        if (diagnostic.rule == rule)
            return &diagnostic;
    }
    return nullptr;
}

TEST(Diagnostic, RenderIncludesLocationSeverityRuleAndHint)
{
    check::Diagnostic diagnostic;
    diagnostic.severity = Severity::Warning;
    diagnostic.artifact = "spec.json";
    diagnostic.line = 3;
    diagnostic.column = 7;
    diagnostic.rule = "unknown-field";
    diagnostic.message = "unknown field 'slowfactor'";
    diagnostic.hint = "did you mean 'slow_factor'?";
    EXPECT_EQ(diagnostic.render(),
              "spec.json:3:7: warning: unknown field 'slowfactor' "
              "[unknown-field] (hint: did you mean 'slow_factor'?)");
}

TEST(Diagnostic, RenderOmitsUnknownLocation)
{
    check::Diagnostic diagnostic;
    diagnostic.artifact = "j.jsonl";
    diagnostic.rule = "missing-spec";
    diagnostic.message = "no spec line";
    EXPECT_EQ(diagnostic.render(),
              "j.jsonl: error: no spec line [missing-spec]");
}

TEST(CheckResult, ExitCodeContract)
{
    CheckResult clean;
    EXPECT_EQ(clean.exitCode(), 0);
    EXPECT_TRUE(clean.clean());

    CheckResult warned;
    warned.warning(std::string("w"), "just a warning");
    EXPECT_EQ(warned.exitCode(), 1);
    EXPECT_TRUE(warned.ok());
    EXPECT_FALSE(warned.clean());

    CheckResult failed;
    failed.warning(std::string("w"), "warning");
    failed.error(std::string("e"), "error");
    EXPECT_EQ(failed.exitCode(), 2);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.errorCount(), 1u);
    EXPECT_EQ(failed.warningCount(), 1u);
}

TEST(CheckResult, ArtifactPathIsStampedOntoDiagnostics)
{
    CheckResult result;
    result.setArtifact("a.json");
    result.error(std::string("r"), "m");
    EXPECT_EQ(result.diagnostics()[0].artifact, "a.json");
}

TEST(CheckResult, ValueOverloadsCarryParsedLocations)
{
    auto doc = json::parse("{\n  \"crash\": 2.0\n}");
    CheckResult result;
    launcher::checkFaultSpec(doc, result);
    const check::Diagnostic *range = findRule(result, "out-of-range");
    ASSERT_NE(range, nullptr);
    EXPECT_EQ(range->line, 2u);
    EXPECT_GT(range->column, 1u);
}

TEST(SuggestName, SuggestsCloseNamesOnly)
{
    EXPECT_EQ(check::suggestName("hotspit", {"hotspot", "bfs"}),
              "did you mean 'hotspot'?");
    EXPECT_EQ(check::suggestName("zzz", {"hotspot", "bfs"}), "");
}

TEST(CheckFailure, LoadersThrowWithFullDiagnostics)
{
    auto doc = json::parse(
        R"({"backend": "sim", "experiment": {"rule": "kss"},
            "max_failures": -1})");
    try {
        launcher::ReproSpec::fromJson(doc);
        FAIL() << "expected CheckFailure";
    } catch (const check::CheckFailure &failure) {
        EXPECT_GE(failure.result().errorCount(), 2u);
        EXPECT_NE(findRule(failure.result(), "unknown-rule"), nullptr);
    }
}

TEST(CheckFailure, IsAnInvalidArgument)
{
    auto doc = json::parse(R"({"rule": 7})");
    EXPECT_THROW(core::ExperimentConfig::fromJson(doc),
                 std::invalid_argument);
}

TEST(CheckRunSpec, RegistryLintsAreCheckOnly)
{
    // Unknown backend kinds must still round-trip through the loader
    // (reproduce rejects them later, at backend construction) but the
    // analyzer flags them immediately.
    auto doc = json::parse(R"({"backend": "quantum"})");
    EXPECT_NO_THROW(launcher::ReproSpec::fromJson(doc));
    CheckResult result;
    launcher::checkRunSpec(doc, result);
    EXPECT_NE(findRule(result, "unknown-backend"), nullptr);
}

TEST(CheckRunSpec, FlagsFaultMetricTheBackendNeverEmits)
{
    auto doc = json::parse(
        R"({"backend": "sim", "workload": "hotspot",
            "fault": {"slow": 0.5, "slow_factor": 2.0,
                      "slow_metric": "response_time"}})");
    CheckResult result;
    launcher::checkRunSpec(doc, result);
    const check::Diagnostic *dangling =
        findRule(result, "dangling-metric");
    ASSERT_NE(dangling, nullptr);
    EXPECT_EQ(dangling->severity, Severity::Warning);
}

TEST(CheckWorkflow, ReportsEveryProblemInOnePass)
{
    auto doc = json::parse(R"({
        "functions": [{"name": "f", "operation": "true"},
                      {"name": "unused", "operation": "true"}],
        "states": [
          {"name": "a", "type": "operation",
           "actions": [{"functionRef": "g"}],
           "transition": "ghost"}
        ]})");
    CheckResult result;
    workflow::checkWorkflow(doc, result);
    EXPECT_NE(findRule(result, "dangling-function"), nullptr);
    EXPECT_NE(findRule(result, "dangling-transition"), nullptr);
    EXPECT_NE(findRule(result, "unused-function"), nullptr);
}

TEST(CheckWorkflow, ReportsCyclesWithTheFullPath)
{
    auto doc = json::parse(R"({
        "functions": [{"name": "f", "operation": "true"}],
        "states": [
          {"name": "a", "type": "operation",
           "actions": [{"functionRef": "f"}], "transition": "b"},
          {"name": "b", "type": "operation",
           "actions": [{"functionRef": "f"}], "transition": "a"}
        ]})");
    CheckResult result;
    workflow::checkWorkflow(doc, result);
    const check::Diagnostic *cycle = findRule(result, "workflow-cycle");
    ASSERT_NE(cycle, nullptr);
    EXPECT_NE(cycle->message.find("a.0.f -> b.0.f -> a.0.f"),
              std::string::npos);
}

TEST(CheckJournal, FlagsRoundsThatDisagreeWithTheSpec)
{
    std::string text =
        R"({"type":"spec","spec":{"backend":"sim","workload":"bfs"}})"
        "\n"
        R"({"type":"round","run":0,"records":[{"workload":"nw",)"
        R"("failure":"none"}]})"
        "\n";
    CheckResult result;
    record::checkJournalText(text, result);
    const check::Diagnostic *mismatch =
        findRule(result, "journal-spec-mismatch");
    ASSERT_NE(mismatch, nullptr);
    EXPECT_EQ(mismatch->severity, Severity::Error);
    EXPECT_EQ(mismatch->line, 2u);
}

TEST(CheckJournal, ScenarioAndPhasedRecordsMatchTheirSpec)
{
    // A trace replay keeps the recorded backend under spec backend
    // "scenario", and the phased backend runs leukocyte whatever
    // workload the spec names: neither contradicts its spec.
    for (const char *spec :
         {R"({"backend":"scenario","workload":"bfs","scenario":"t.json"})",
          R"({"backend":"sim-phased","workload":"bfs"})"}) {
        std::string text =
            R"({"type":"spec","spec":)" + std::string(spec) + "}\n" +
            R"({"type":"round","run":0,"records":[{"workload":)"
            R"("leukocyte","backend":"sim-phased","failure":"none"}]})" +
            "\n";
        CheckResult result;
        record::checkJournalText(text, result);
        EXPECT_TRUE(result.clean()) << spec << "\n" << result.renderText();
    }
}

TEST(CheckRunSpec, DayMustFitAnInt)
{
    CheckResult result;
    launcher::checkRunSpec(
        json::parse("{\"backend\": \"sim\", \"workload\": \"bfs\",\n"
                    " \"day\": 4294967297}"),
        result);
    ASSERT_EQ(result.errorCount(), 1u) << result.renderText();
    EXPECT_EQ(result.diagnostics().front().rule, "out-of-range");
    EXPECT_EQ(result.diagnostics().front().line, 2u);
    EXPECT_EQ(result.diagnostics().front().column, 9u);
}

TEST(CheckJournal, FlagsRoundAfterDoneAndOverrun)
{
    std::string text =
        R"({"type":"spec","spec":{"backend":"sim","workload":"bfs",)"
        R"("experiment":{"max":1}}})"
        "\n"
        R"({"type":"round","run":0,"records":[]})"
        "\n"
        R"({"type":"done"})"
        "\n"
        R"({"type":"round","run":1,"records":[]})"
        "\n";
    CheckResult result;
    record::checkJournalText(text, result);
    const check::Diagnostic *order = findRule(result, "journal-order");
    ASSERT_NE(order, nullptr);
    EXPECT_EQ(order->severity, Severity::Error);
    EXPECT_EQ(order->line, 4u);
    EXPECT_NE(findRule(result, "journal-overrun"), nullptr);
}

TEST(SniffArtifact, ClassifiesByExtensionAndContent)
{
    auto run_spec = json::parse(R"({"backend": "sim"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &run_spec),
              ArtifactKind::RunSpec);
    auto fault = json::parse(R"({"crash": 0.1})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &fault),
              ArtifactKind::FaultSpec);
    auto wf = json::parse(R"({"states": []})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &wf),
              ArtifactKind::Workflow);
    EXPECT_EQ(check::sniffArtifact("x.jsonl", "", nullptr),
              ArtifactKind::Journal);
    EXPECT_EQ(check::sniffArtifact("x.md", "", nullptr),
              ArtifactKind::Metadata);
    auto mystery = json::parse(R"({"who": "knows"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &mystery),
              ArtifactKind::Unknown);
}

TEST(SniffArtifact, SchemaTagValueTellsBundlesAndReportsApart)
{
    auto bundle =
        json::parse(R"({"schema": "sharp-baseline-bundle-v1"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &bundle),
              ArtifactKind::BaselineBundle);
    auto report =
        json::parse(R"({"schema": "sharp-compare-report-v1"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &report),
              ArtifactKind::CompareReport);
    // An unknown schema tag falls back to the calibration baseline,
    // whose checker names the expected tag in its diagnostic.
    auto unknown = json::parse(R"({"schema": "who-knows-v9"})");
    EXPECT_EQ(check::sniffArtifact("x.json", "", &unknown),
              ArtifactKind::Baseline);

    EXPECT_STREQ(check::artifactKindName(ArtifactKind::BaselineBundle),
                 "baseline bundle");
    EXPECT_STREQ(check::artifactKindName(ArtifactKind::CompareReport),
                 "compare report");
}

// ---- Seeded defect fixtures: one per defect class. Each pin covers
// ---- the rule, the severity, the source location, and the exit code.

TEST(Fixtures, MalformedJsonIsALocatedSyntaxError)
{
    CheckResult result;
    check::checkArtifactFile(fixture("malformed.json"), result);
    EXPECT_EQ(result.exitCode(), 2);
    const check::Diagnostic *syntax = findRule(result, "json-syntax");
    ASSERT_NE(syntax, nullptr);
    EXPECT_EQ(syntax->severity, Severity::Error);
    EXPECT_EQ(syntax->line, 4u);
    EXPECT_EQ(syntax->column, 1u);
}

TEST(Fixtures, UnknownFieldIsAWarningWithAHint)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("unknown_field.json"), result);
    EXPECT_EQ(kind, ArtifactKind::FaultSpec);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *unknown =
        findRule(result, "unknown-field");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Warning);
    EXPECT_EQ(unknown->line, 4u);
    EXPECT_EQ(unknown->hint, "did you mean 'slow_factor'?");
}

TEST(Fixtures, ScenarioParamTypoIsAWarningWithAFamilyAwareHint)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("scenario_typo.json"), result);
    EXPECT_EQ(kind, ArtifactKind::Scenario);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *unknown =
        findRule(result, "unknown-field");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Warning);
    EXPECT_EQ(unknown->line, 8u);
    EXPECT_EQ(unknown->column, 14u);
    EXPECT_EQ(unknown->hint, "did you mean 'period'?");
}

TEST(Fixtures, DanglingWorkloadIsALocatedError)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("dangling_workload.json"), result);
    EXPECT_EQ(kind, ArtifactKind::RunSpec);
    EXPECT_EQ(result.exitCode(), 2);
    const check::Diagnostic *dangling =
        findRule(result, "dangling-workload");
    ASSERT_NE(dangling, nullptr);
    EXPECT_EQ(dangling->severity, Severity::Error);
    EXPECT_EQ(dangling->line, 3u);
    EXPECT_EQ(dangling->hint, "did you mean 'hotspot'?");
}

TEST(Fixtures, TruncatedJournalIsAWarningOnTheTornLine)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("truncated.jsonl"), result);
    EXPECT_EQ(kind, ArtifactKind::Journal);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *torn =
        findRule(result, "truncated-journal");
    ASSERT_NE(torn, nullptr);
    EXPECT_EQ(torn->severity, Severity::Warning);
    EXPECT_EQ(torn->line, 4u);
}

TEST(Fixtures, StaleBaselineCellWarnsAndMissingCellErrors)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("stale_baseline.json"), result);
    EXPECT_EQ(kind, ArtifactKind::Baseline);
    EXPECT_EQ(result.exitCode(), 2);
    const check::Diagnostic *stale =
        findRule(result, "stale-baseline-cell");
    ASSERT_NE(stale, nullptr);
    EXPECT_EQ(stale->severity, Severity::Warning);
    const check::Diagnostic *missing =
        findRule(result, "missing-baseline-cell");
    ASSERT_NE(missing, nullptr);
    EXPECT_EQ(missing->severity, Severity::Error);
    EXPECT_NE(missing->message.find("ks/lognormal"),
              std::string::npos);
}

TEST(CheckMetadata, RetiredStatsCacheEntriesLintClean)
{
    // "stats_cache" (run specs, journal headers) and repro_stats_cache
    // (metadata) recorded the statistics engine's retired off switch.
    // Artifacts from older builds still carry them and must lint clean:
    // no unknown-field, no bad-metadata, exit 0.
    launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "ks";
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    record::MetadataDocument doc = log.toMetadata();
    doc.set("Configuration", "repro_stats_cache", "off");
    CheckResult metadata;
    check::checkArtifactText("run.md", doc.render(), ArtifactKind::Unknown,
                             metadata);
    EXPECT_EQ(metadata.exitCode(), 0) << metadata.diagnostics().size();
    EXPECT_EQ(findRule(metadata, "bad-metadata"), nullptr);

    json::Value run_spec = spec.toJson();
    run_spec.set("stats_cache", false);
    CheckResult spec_result;
    check::checkArtifactText("run.json", json::write(run_spec),
                             ArtifactKind::RunSpec, spec_result);
    EXPECT_EQ(spec_result.exitCode(), 0);
    EXPECT_EQ(findRule(spec_result, "unknown-field"), nullptr);

    std::string journal = R"({"type":"spec","spec":)" +
                          json::write(run_spec) + "}\n" +
                          R"({"type":"round","run":0,"records":[]})" +
                          "\n";
    CheckResult journal_result;
    record::checkJournalText(journal, journal_result);
    EXPECT_EQ(journal_result.exitCode(), 0);
    EXPECT_EQ(findRule(journal_result, "unknown-field"), nullptr);
}

TEST(CheckMetadata, FlagsUnknownSimdBackendWithSuggestion)
{
    launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "ks";
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    record::MetadataDocument doc = log.toMetadata();

    // Whatever the dispatch layer recorded is a known name: quiet.
    CheckResult clean;
    check::checkArtifactText("run.md", doc.render(),
                             ArtifactKind::Unknown, clean);
    EXPECT_EQ(findRule(clean, "unknown-simd-backend"), nullptr);

    // An edited or foreign-build name is an error, with a did-you-mean
    // hint when it is one typo away from a real backend.
    doc.set("Configuration", "repro_simd_backend", "avx512f");
    CheckResult result;
    check::checkArtifactText("run.md", doc.render(),
                             ArtifactKind::Unknown, result);
    const check::Diagnostic *bad =
        findRule(result, "unknown-simd-backend");
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->severity, Severity::Error);
    EXPECT_NE(bad->message.find("'avx512f'"), std::string::npos);
    EXPECT_NE(bad->hint.find("did you mean 'avx512'?"),
              std::string::npos);
    EXPECT_GT(bad->line, 0u);
}

// ---- The CLI command.

struct CliResult
{
    int status;
    std::string out;
    std::string err;
};

CliResult
runCheck(const std::vector<std::string> &argv)
{
    std::ostringstream out, err;
    int status = cli::runCli(argv, out, err);
    return {status, out.str(), err.str()};
}

TEST(CliCheck, CleanExamplesExitZero)
{
    auto result = runCheck({"check", example("run_spec.json"),
                            example("fault_spec.json"),
                            example("workflow.json")});
    EXPECT_EQ(result.status, 0) << result.out;
    EXPECT_NE(result.out.find("run spec: ok"), std::string::npos);
    EXPECT_NE(result.out.find("0 errors, 0 warnings"),
              std::string::npos);
}

TEST(CliCheck, DefectiveFixtureExitsTwoWithLocatedDiagnostic)
{
    auto result =
        runCheck({"check", fixture("dangling_workload.json")});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.out.find("dangling_workload.json:3:"),
              std::string::npos);
    EXPECT_NE(result.out.find("did you mean 'hotspot'?"),
              std::string::npos);
}

TEST(CliCheck, WarningOnlyFixtureExitsOne)
{
    auto result = runCheck({"check", fixture("unknown_field.json")});
    EXPECT_EQ(result.status, 1);
}

TEST(CliCheck, JsonFormatIsMachineReadable)
{
    auto result = runCheck({"check", fixture("unknown_field.json"),
                            "--format", "json"});
    EXPECT_EQ(result.status, 1);
    auto doc = json::parse(result.out);
    EXPECT_EQ(doc.getLong("errors", -1), 0);
    EXPECT_EQ(doc.getLong("warnings", -1), 1);
    EXPECT_EQ(doc.getLong("artifacts", -1), 1);
    const json::Value *diagnostics = doc.find("diagnostics");
    ASSERT_NE(diagnostics, nullptr);
    ASSERT_EQ(diagnostics->size(), 1u);
    EXPECT_EQ(diagnostics->asArray()[0].getString("rule", ""),
              "unknown-field");
    EXPECT_EQ(diagnostics->asArray()[0].getLong("line", 0), 4);
}

TEST(CliCheck, MalformedBaselineBundleExitsTwoWithBothDefects)
{
    auto result = runCheck({"check", fixture("bad_bundle.json")});
    EXPECT_EQ(result.status, 2) << result.out;
    EXPECT_NE(result.out.find("unsorted-samples"), std::string::npos);
    EXPECT_NE(result.out.find("inconsistent-count"),
              std::string::npos);
}

TEST(CliCheck, CompareReportArtifactIsRecognized)
{
    auto result = runCheck(
        {"check", std::string(SHARP_SOURCE_DIR) +
                      "/tests/fixtures/compare/golden_report.json"});
    EXPECT_EQ(result.status, 0) << result.out;
    EXPECT_NE(result.out.find("compare report: ok"),
              std::string::npos);
}

TEST(CliCheck, MissingFileIsAnIoError)
{
    auto result = runCheck({"check", "/no/such/file.json"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.out.find("io-error"), std::string::npos);
}

TEST(CliCheck, RequiresAPath)
{
    auto result = runCheck({"check"});
    EXPECT_EQ(result.status, 2);
}

TEST(CliCheck, RejectsUnknownFormat)
{
    auto result = runCheck(
        {"check", example("run_spec.json"), "--format", "yaml"});
    EXPECT_EQ(result.status, 2);
}

// ---- `sharp serve` artifacts: the campaign queue journal and the
// ---- daemon state file get the same fixture treatment as the rest.

TEST(Fixtures, QueueUnknownEventIsLocatedWithADidYouMeanHint)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("queue_unknown_event.jsonl"), result);
    EXPECT_EQ(kind, ArtifactKind::QueueJournal);
    EXPECT_EQ(result.exitCode(), 2);

    const check::Diagnostic *unknown =
        findRule(result, "unknown-event");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Error);
    EXPECT_EQ(unknown->line, 3u);
    EXPECT_EQ(unknown->column, 1u);
    EXPECT_EQ(unknown->hint, "did you mean 'done'?");

    // Line 6 cancels a campaign that line 5 already completed.
    const check::Diagnostic *order = findRule(result, "queue-order");
    ASSERT_NE(order, nullptr);
    EXPECT_EQ(order->severity, Severity::Error);
    EXPECT_EQ(order->line, 6u);
    EXPECT_NE(order->message.find("after its terminal"),
              std::string::npos);
}

TEST(Fixtures, TornQueueTailIsAWarningWithARepairHint)
{
    CheckResult result;
    ArtifactKind kind =
        check::checkArtifactFile(fixture("queue_torn.jsonl"), result);
    EXPECT_EQ(kind, ArtifactKind::QueueJournal);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *torn =
        findRule(result, "truncated-queue");
    ASSERT_NE(torn, nullptr);
    EXPECT_EQ(torn->severity, Severity::Warning);
    EXPECT_EQ(torn->line, 4u);
    EXPECT_NE(torn->hint.find("restart `sharp serve`"),
              std::string::npos);
}

TEST(Fixtures, DaemonStateTypoIsAWarningWithAHint)
{
    CheckResult result;
    ArtifactKind kind = check::checkArtifactFile(
        fixture("daemon_state_typo.json"), result);
    EXPECT_EQ(kind, ArtifactKind::DaemonState);
    EXPECT_EQ(result.exitCode(), 1);
    const check::Diagnostic *unknown =
        findRule(result, "unknown-field");
    ASSERT_NE(unknown, nullptr);
    EXPECT_EQ(unknown->severity, Severity::Warning);
    EXPECT_EQ(unknown->line, 6u);
    EXPECT_EQ(unknown->hint,
              "did you mean 'round_deadline_seconds'?");
}

TEST(CliCheck, QueueFixturesGoThroughTheCliToo)
{
    auto clean = runCheck({"check", fixture("queue_clean.jsonl")});
    EXPECT_EQ(clean.status, 0) << clean.out;
    EXPECT_NE(clean.out.find("queue journal: ok"),
              std::string::npos);

    auto unknown = runCheck(
        {"check", fixture("queue_unknown_event.jsonl")});
    EXPECT_EQ(unknown.status, 2);
    EXPECT_NE(unknown.out.find("unknown-event"), std::string::npos);

    auto state = runCheck({"check", fixture("daemon_state_typo.json")});
    EXPECT_EQ(state.status, 1);
    EXPECT_NE(state.out.find("unknown-field"), std::string::npos);
}

// ---- Did-you-mean cutoff.

TEST(SuggestName, DistanceTwoIsTheCutoff)
{
    const std::vector<std::string> known = {"warmup"};
    // distance 1 and 2 suggest; distance 3 stays silent.
    EXPECT_EQ(check::suggestName("warmups", known),
              "did you mean 'warmup'?");
    EXPECT_EQ(check::suggestName("warm", known),
              "did you mean 'warmup'?");
    EXPECT_EQ(check::suggestName("war", known), "");
}

TEST(SuggestName, PicksTheClosestCandidate)
{
    EXPECT_EQ(check::suggestName("roundz",
                                 {"rounds", "bounds", "round_max"}),
              "did you mean 'rounds'?");
    EXPECT_EQ(check::suggestName("", {"a"}),
              "did you mean 'a'?");
    EXPECT_EQ(check::suggestName("x", {}), "");
}

// ---- JSON locations on awkward inputs.

TEST(JsonLocation, CrlfLineEndingsKeepColumnsHonest)
{
    // \r\n ends the line; the value on line 2 starts at column 8.
    json::Value doc = json::parse("{\r\n  \"a\": true\r\n}\r\n");
    const json::Value *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->location().line, 2u);
    EXPECT_EQ(a->location().column, 8u);
}

TEST(JsonLocation, UnterminatedFinalLineErrorIsLocated)
{
    // The file ends mid-string with no trailing newline.
    try {
        json::parse("{\n  \"key\": \"never closed");
        FAIL() << "expected ParseError";
    } catch (const json::ParseError &error) {
        EXPECT_EQ(error.line, 2u);
        EXPECT_GE(error.column, 10u);
    }
}

TEST(JsonLocation, CrlfParseErrorPointsAtTheRightColumn)
{
    try {
        json::parse("{\r\n  \"a\": !\r\n}");
        FAIL() << "expected ParseError";
    } catch (const json::ParseError &error) {
        EXPECT_EQ(error.line, 2u);
        EXPECT_EQ(error.column, 8u);
    }
}

// ---- Campaign-level audit (sharp check --campaign).

std::string
campaign(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) +
           "/tests/fixtures/campaign/" + name;
}

check::CheckResult
auditCampaign(const std::string &name)
{
    check::CheckResult result;
    check::checkCampaignDir(campaign(name), result);
    return result;
}

TEST(CheckCampaign, CleanEndToEndStateDirExitsZero)
{
    check::CheckResult result = auditCampaign("clean");
    EXPECT_EQ(result.errorCount(), 0u) << result.renderText();
    EXPECT_EQ(result.warningCount(), 0u) << result.renderText();
    EXPECT_EQ(result.exitCode(), 0);
}

TEST(CheckCampaign, MissingResultIsAnError)
{
    check::CheckResult result = auditCampaign("missing_result");
    const check::Diagnostic *finding =
        findRule(result, "campaign-missing-result");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, JournalWithoutDoneMarkerDiverges)
{
    check::CheckResult result = auditCampaign("journal_divergence");
    const check::Diagnostic *finding =
        findRule(result, "campaign-journal-divergence");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, FailoverCountBeyondDaemonCapIsFlagged)
{
    check::CheckResult result = auditCampaign("failover_overrun");
    const check::Diagnostic *finding =
        findRule(result, "campaign-failover-overrun");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, QueueSpecDisagreeingWithJournalIsFlagged)
{
    check::CheckResult result = auditCampaign("spec_mismatch");
    const check::Diagnostic *finding =
        findRule(result, "campaign-spec-mismatch");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_NE(finding->message.find("seed"), std::string::npos);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, ReportMetadataDisagreeingWithSpecIsFlagged)
{
    check::CheckResult result = auditCampaign("metadata_mismatch");
    const check::Diagnostic *finding =
        findRule(result, "campaign-metadata-mismatch");
    ASSERT_NE(finding, nullptr) << result.renderText();
    EXPECT_EQ(finding->severity, check::Severity::Error);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CheckCampaign, OrphanCampaignDirWarnsAndNotesSkippedFiles)
{
    check::CheckResult result = auditCampaign("orphan_dir");
    const check::Diagnostic *orphan =
        findRule(result, "campaign-orphan-dir");
    ASSERT_NE(orphan, nullptr) << result.renderText();
    EXPECT_EQ(orphan->severity, check::Severity::Warning);
    const check::Diagnostic *skipped =
        findRule(result, "skipped-files");
    ASSERT_NE(skipped, nullptr) << result.renderText();
    EXPECT_EQ(skipped->severity, check::Severity::Note);
    EXPECT_EQ(result.exitCode(), 1);
}

TEST(CheckCampaign, MissingQueueJournalIsFatal)
{
    check::CheckResult result;
    check::checkCampaignDir("/no/such/state/dir", result);
    EXPECT_NE(findRule(result, "campaign-missing-queue"), nullptr);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(CliCheck, CampaignFlagRunsTheAudit)
{
    auto clean = runCheck({"check", "--campaign", campaign("clean")});
    EXPECT_EQ(clean.status, 0) << clean.out;
    EXPECT_NE(clean.out.find("campaign audit"), std::string::npos);

    auto broken =
        runCheck({"check", "--campaign", campaign("spec_mismatch")});
    EXPECT_EQ(broken.status, 2);
    EXPECT_NE(broken.out.find("campaign-spec-mismatch"),
              std::string::npos);

    auto missing = runCheck({"check", "--campaign"});
    EXPECT_EQ(missing.status, 2);
}

TEST(CliCheck, RetiredSimdBackendsInOldArtifactsStayClean)
{
    // Earlier builds dispatched to avx512 and neon tiers and recorded
    // them as provenance. Decisions are bit-identical on every
    // backend, so such artifacts must keep checking clean, alone and
    // inside a campaign state directory.
    namespace fs = std::filesystem;
    for (const std::string backend : {"avx512", "neon"}) {
        fs::path dir = fs::temp_directory_path() /
                       ("sharp_check_retired_" + backend);
        fs::remove_all(dir);
        fs::copy(campaign("clean"), dir, fs::copy_options::recursive);
        fs::path md = dir / "campaigns" / "c000001" / "result.md";
        std::ifstream in(md);
        std::stringstream text;
        text << in.rdbuf();
        in.close();
        std::string body = text.str();
        const std::string key = "- **repro_max_failures**: 10\n";
        size_t at = body.find(key);
        ASSERT_NE(at, std::string::npos);
        body.insert(at + key.size(),
                    "- **repro_simd_backend**: " + backend + "\n");
        std::ofstream(md) << body;

        auto file = runCheck({"check", md.string()});
        EXPECT_EQ(file.status, 0) << backend << "\n" << file.out;
        EXPECT_EQ(file.out.find("unknown-simd-backend"),
                  std::string::npos)
            << file.out;
        auto audit = runCheck({"check", "--campaign", dir.string()});
        EXPECT_EQ(audit.status, 0) << backend << "\n" << audit.out;
        EXPECT_EQ(audit.out.find("unknown-simd-backend"),
                  std::string::npos)
            << audit.out;
        fs::remove_all(dir);
    }
}

TEST(CliCheck, DirectoryExpansionNotesSkippedFiles)
{
    // The orphan fixture's ghost dir holds a .txt; `check DIR` must
    // fold it into one informational note, not an error.
    auto result = runCheck(
        {"check", campaign("orphan_dir") + "/campaigns/ghost"});
    EXPECT_EQ(result.status, 0) << result.out;
    EXPECT_NE(result.out.find("skipped 1 non-artifact file"),
              std::string::npos);
}

} // anonymous namespace
