/**
 * @file
 * Tests for the `sharp` CLI: argument parsing and every command,
 * driven through string streams and temp files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "cli/cli.hh"
#include "launcher/reproduce.hh"
#include "record/metadata.hh"
#include "simd/dispatch.hh"

namespace
{

using namespace sharp::cli;
namespace fs = std::filesystem;

/** Run the CLI and capture output/status. */
struct CliResult
{
    int status;
    std::string out;
    std::string err;
};

CliResult
run(const std::vector<std::string> &argv)
{
    std::ostringstream out, err;
    int status = runCli(argv, out, err);
    return {status, out.str(), err.str()};
}

TEST(ParseArgs, CommandPositionalsAndFlags)
{
    ParsedArgs args = parseArgs({"compare", "a.csv", "b.csv",
                                 "--metric", "execution_time",
                                 "--html", "out.html"});
    EXPECT_EQ(args.command, "compare");
    ASSERT_EQ(args.positional.size(), 2u);
    EXPECT_EQ(args.positional[1], "b.csv");
    EXPECT_EQ(args.get("metric"), "execution_time");
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(ParseArgs, BareFlagsHaveEmptyValues)
{
    ParsedArgs args = parseArgs({"workflow", "spec.json", "--execute"});
    EXPECT_TRUE(args.has("execute"));
    EXPECT_EQ(args.get("execute"), "");
    EXPECT_FALSE(args.has("makefile"));
}

TEST(ParseArgs, FlagFollowedByFlagTakesNoValue)
{
    ParsedArgs args = parseArgs({"run", "--execute", "--max", "10"});
    EXPECT_TRUE(args.has("execute"));
    EXPECT_EQ(args.get("max"), "10");
}

TEST(ParseArgs, RejectsEmptyFlagName)
{
    EXPECT_THROW(parseArgs({"run", "--"}), std::invalid_argument);
}

TEST(Cli, HelpAndUnknownCommand)
{
    CliResult help = run({"help"});
    EXPECT_EQ(help.status, 0);
    EXPECT_NE(help.out.find("usage: sharp"), std::string::npos);

    CliResult unknown = run({"frobnicate"});
    EXPECT_EQ(unknown.status, 2);
    EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);

    CliResult empty = run({});
    EXPECT_EQ(empty.status, 2);
}

TEST(Cli, ListShowsRegistries)
{
    CliResult result = run({"list"});
    EXPECT_EQ(result.status, 0);
    EXPECT_NE(result.out.find("hotspot"), std::string::npos);
    EXPECT_NE(result.out.find("machine3"), std::string::npos);
    EXPECT_NE(result.out.find("ks"), std::string::npos);
    EXPECT_NE(result.out.find("meta"), std::string::npos);
}

TEST(Cli, RunRequiresWorkload)
{
    CliResult result = run({"run"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("--workload"), std::string::npos);
}

TEST(Cli, RunProducesReportAndArtifacts)
{
    fs::path base = fs::temp_directory_path() / "sharp_cli_run";
    fs::path html = fs::temp_directory_path() / "sharp_cli_run.html";
    CliResult result =
        run({"run", "--workload", "bfs", "--machine", "machine1",
             "--rule", "ks", "--threshold", "0.1", "--max", "500",
             "--seed", "9", "--out", base.string(), "--html",
             html.string()});
    EXPECT_EQ(result.status, 0) << result.err;
    EXPECT_NE(result.out.find("collected"), std::string::npos);
    EXPECT_NE(result.out.find("Distribution report"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(base.string() + ".csv"));
    EXPECT_TRUE(fs::exists(base.string() + ".md"));
    EXPECT_TRUE(fs::exists(html));

    // --- The saved metadata feeds `sharp reproduce`. ---
    CliResult repro = run({"reproduce", base.string() + ".md"});
    EXPECT_EQ(repro.status, 0) << repro.err;
    EXPECT_NE(repro.out.find("reproduced"), std::string::npos);

    // --- The saved CSV feeds `sharp report` and `sharp compare`. ---
    CliResult report = run({"report", base.string() + ".csv"});
    EXPECT_EQ(report.status, 0) << report.err;
    EXPECT_NE(report.out.find("Distribution report"),
              std::string::npos);

    CliResult compare = run({"compare", base.string() + ".csv",
                             base.string() + ".csv"});
    EXPECT_EQ(compare.status, 0) << compare.err;
    EXPECT_NE(compare.out.find("NAMD"), std::string::npos);
    // Self-comparison: speedup 1x.
    EXPECT_NE(compare.out.find("1x"), std::string::npos);

    fs::remove(base.string() + ".csv");
    fs::remove(base.string() + ".md");
    fs::remove(html);
}

TEST(Cli, ReproduceWarnsOnSimdBackendMismatch)
{
    // Results are bit-identical across backends by contract, so a
    // replay on different silicon succeeds — but the CLI flags that
    // timings were measured under a different kernel set.
    sharp::launcher::ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "fixed";
    spec.experiment.ruleParams = {{"count", 20}};
    spec.experiment.options.maxSamples = 200;
    sharp::record::RunLog log("hotspot");
    sharp::launcher::annotate(log, spec);
    sharp::record::MetadataDocument doc = log.toMetadata();

    fs::path path =
        fs::temp_directory_path() / "sharp_cli_simd_meta.md";
    doc.save(path.string());
    CliResult same = run({"reproduce", path.string()});
    EXPECT_EQ(same.status, 0) << same.err;
    EXPECT_EQ(same.err.find("SIMD backend"), std::string::npos);

    // Rewrite the provenance as if captured on another backend,
    // including the retired tiers older artifacts may name.
    std::string active(sharp::simd::activeBackendName());
    for (std::string other :
         {std::string(active == "scalar" ? "avx2" : "scalar"),
          std::string("avx512"), std::string("neon")}) {
        doc.set("Configuration", "repro_simd_backend", other);
        doc.save(path.string());
        CliResult warned = run({"reproduce", path.string()});
        EXPECT_EQ(warned.status, 0) << warned.err;
        EXPECT_NE(warned.err.find("SIMD backend '" + other + "'"),
                  std::string::npos);
        EXPECT_NE(warned.err.find(active), std::string::npos);
    }
    fs::remove(path);
}

TEST(Cli, RunRejectsBadNumbers)
{
    CliResult result = run({"run", "--workload", "bfs", "--threshold",
                            "abc"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("must be a number"), std::string::npos);
}

TEST(Cli, RunRejectsUnknownWorkload)
{
    CliResult result = run({"run", "--workload", "linpack"});
    EXPECT_EQ(result.status, 1);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Cli, RunRejectsBadRetryFlags)
{
    CliResult result = run({"run", "--workload", "bfs", "--retries",
                            "many"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("--retries"), std::string::npos);

    CliResult negative = run({"run", "--workload", "bfs",
                              "--retry-backoff", "-1"});
    EXPECT_EQ(negative.status, 2);

    CliResult rate = run({"run", "--workload", "bfs",
                          "--max-failure-rate", "1.5"});
    EXPECT_EQ(rate.status, 2);
}

TEST(Cli, FloatFlagRangesShareTheFlagParser)
{
    // Ranged floating-point and retry flags go through parseFlag, so
    // each bad value exits 2 with the same "cmd: --flag must be ..."
    // message shape as every other numeric flag.
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"run", "--workload", "bfs", "--retries", "-1"},
             "run: --retries must be an integer >= 0"},
            {{"suite", "--retries", "x"},
             "suite: --retries must be an integer >= 0"},
            {{"run", "--workload", "bfs", "--retry-backoff", "-0.5"},
             "run: --retry-backoff must be a number >= 0"},
            {{"run", "--workload", "bfs", "--max-failure-rate", "0"},
             "run: --max-failure-rate must be in (0, 1]"},
            {{"run", "--workload", "bfs", "--max-failure-rate", "1.01"},
             "run: --max-failure-rate must be in (0, 1]"},
            {{"serve", "--socket", "s", "--state-dir", "d",
              "--round-deadline", "0"},
             "serve: --round-deadline must be a number > 0"},
            {{"client", "wait", "c000001", "--socket", "s", "--timeout",
              "-1"},
             "client: --timeout must be a number > 0"},
        };
    for (const auto &[argv, message] : cases) {
        CliResult result = run(argv);
        EXPECT_EQ(result.status, 2) << message;
        EXPECT_EQ(result.err, message + "\n");
    }
}

TEST(Cli, SpecFlagsAreRejectedNextToConfigOrResume)
{
    // A --config or --resume run takes its spec from the artifact, so
    // a spec flag next to it could only be ignored: it is refused.
    for (const char *flag :
         {"--workload", "--scenario", "--machine", "--rule", "--threshold",
          "--level", "--count", "--min", "--quantile", "--prominence",
          "--max", "--day", "--seed", "--concurrency"}) {
        for (const char *source : {"--config", "--resume"}) {
            CliResult result =
                run({"run", source, "/no/such/artifact", flag, "1"});
            EXPECT_EQ(result.status, 2) << source << " " << flag;
            EXPECT_NE(result.err.find(std::string(flag) +
                                      " cannot be combined with " +
                                      source),
                      std::string::npos)
                << result.err;
            EXPECT_NE(result.err.find("set it in the spec"),
                      std::string::npos);
        }
    }
}

TEST(Cli, MalformedSpecsAndJournalsAreArtifactErrors)
{
    fs::path dir = fs::temp_directory_path() / "sharp_cli_malformed";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // A spec that fails validation: exit 2, located in the file.
    fs::path spec = dir / "spec.json";
    std::ofstream(spec) << "{\"backend\": \"sim\", \"workload\": \"bfs\",\n"
                           " \"concurrency\": 0}\n";
    CliResult config = run({"run", "--config", spec.string()});
    EXPECT_EQ(config.status, 2);
    EXPECT_NE(config.err.find(spec.string() + ":2:17: error:"),
              std::string::npos)
        << config.err;

    // A journal with a second spec line must not resume with mixed
    // seeds, and a round without a records array fails located.
    fs::path duplicate = dir / "duplicate.jsonl";
    fs::copy_file(std::string(SHARP_SOURCE_DIR) +
                      "/tests/fixtures/check/journal_duplicate_spec.jsonl",
                  duplicate);
    CliResult resumed = run({"run", "--resume", duplicate.string()});
    EXPECT_EQ(resumed.status, 2);
    EXPECT_NE(resumed.err.find(duplicate.string() + ":4:1: error:"),
              std::string::npos)
        << resumed.err;
    EXPECT_NE(resumed.err.find("[journal-order]"), std::string::npos);
    CliResult captured = run({"baseline", "capture", duplicate.string(),
                              "--out", (dir / "bundle.json").string()});
    EXPECT_EQ(captured.status, 2);

    fs::path records = dir / "records.jsonl";
    {
        std::ifstream in(duplicate);
        std::string header;
        std::getline(in, header);
        std::ofstream(records)
            << header << "\n{\"type\":\"round\",\"run\":0,\"records\":5}\n";
    }
    CliResult typed = run({"run", "--resume", records.string()});
    EXPECT_EQ(typed.status, 2);
    EXPECT_NE(typed.err.find(records.string() + ":2:1: error:"),
              std::string::npos)
        << typed.err;

    // A journaled spec that fails validation is located in the journal.
    fs::path header = dir / "header.jsonl";
    std::ofstream(header)
        << R"({"type":"spec","spec":{"backend":"sim","workload":"bfs",)"
           R"("concurrency":0}})"
        << "\n";
    CliResult bad_header = run({"run", "--resume", header.string()});
    EXPECT_EQ(bad_header.status, 2);
    EXPECT_NE(bad_header.err.find(header.string() + ":1:"),
              std::string::npos)
        << bad_header.err;
    fs::remove_all(dir);
}

TEST(Cli, NumericFlagsRejectMalformedAndNegativeValues)
{
    // Every bad value exits 2 naming the flag before anything runs; none
    // may fall back to a default or wrap around.
    for (std::vector<std::string> argv :
         {std::vector<std::string>{"run", "--workload", "bfs", "--seed",
                                   "banana"},
          {"run", "--workload", "bfs", "--seed", "-4"},
          {"run", "--workload", "bfs", "--seed", "18446744073709551616"},
          {"run", "--workload", "bfs", "--day", "-1"},
          {"run", "--workload", "bfs", "--concurrency", "0"},
          {"run", "--workload", "bfs", "--max", "x"},
          {"suite", "--seed", "banana"},
          {"suite", "--max", "x"},
          {"micro", "alu-ops", "--max", "x"},
          {"compare", "a.csv", "--against", "b.json", "--seed", "-1"},
          {"gate", "a.csv", "b.csv", "--slowdown", "x"}}) {
        CliResult result = run(argv);
        const std::string &flag = argv[argv.size() - 2];
        EXPECT_EQ(result.status, 2) << flag << " " << argv.back();
        EXPECT_NE(result.err.find(flag), std::string::npos) << result.err;
    }
}

TEST(Cli, RunAcceptsFullWidthSeeds)
{
    // JSON specs carry full 64-bit seeds; so must --seed, and the
    // metadata it writes must reproduce.
    fs::path base = fs::temp_directory_path() / "sharp_cli_wide_seed";
    CliResult result =
        run({"run", "--workload", "bfs", "--rule", "fixed", "--count",
             "10", "--seed", "18446744073709551615", "--out",
             base.string()});
    ASSERT_EQ(result.status, 0) << result.err;
    auto doc = sharp::record::MetadataDocument::load(base.string() +
                                                     ".md");
    EXPECT_EQ(doc.get("Configuration", "repro_seed"),
              std::optional<std::string>("18446744073709551615"));
    CliResult repro = run({"reproduce", base.string() + ".md"});
    EXPECT_EQ(repro.status, 0) << repro.err;
    fs::remove(base.string() + ".csv");
    fs::remove(base.string() + ".md");
}

/** The "n" row of a rendered report or comparison table, unpadded. */
std::string
countRow(const std::string &markdown)
{
    size_t at = markdown.find("\n| n ");
    if (at == std::string::npos)
        return "";
    std::string row;
    for (size_t i = at + 1; i < markdown.size() && markdown[i] != '\n'; ++i) {
        if (markdown[i] != ' ')
            row += markdown[i];
    }
    return row;
}

TEST(Cli, MetricLoadersSkipWarmupAndFailedRows)
{
    // A warmup row and a failed row that still carries the metric are
    // not measurements: report, compare and gate see only the five good
    // rows, with or without --workload.
    fs::path dirty = fs::temp_directory_path() / "sharp_cli_dirty.csv";
    fs::path clean = fs::temp_directory_path() / "sharp_cli_clean.csv";
    const std::string header = "workload,warmup,failure,execution_time\n";
    const std::string good = "w,false,none,1.0\nw,false,none,1.1\n"
                             "w,false,none,1.2\nw,false,none,1.3\n"
                             "w,false,none,1.4\n";
    std::ofstream(dirty) << header << "w,true,none,100\n"
                         << "w,false,unparsable-output,50\n" << good;
    std::ofstream(clean) << header << good;

    for (std::vector<std::string> filter :
         {std::vector<std::string>{}, {"--workload", "w"}}) {
        auto with = [&](std::vector<std::string> argv) {
            argv.insert(argv.end(), filter.begin(), filter.end());
            return run(argv);
        };
        CliResult report = with({"report", dirty.string()});
        ASSERT_EQ(report.status, 0) << report.err;
        EXPECT_EQ(countRow(report.out), "|n|5|");

        CliResult compare =
            with({"compare", dirty.string(), clean.string()});
        ASSERT_EQ(compare.status, 0) << compare.err;
        EXPECT_EQ(countRow(compare.out), "|n|5|5|");

        CliResult gate = with({"gate", dirty.string(), clean.string()});
        EXPECT_EQ(gate.status, 0) << gate.out;
        EXPECT_NE(gate.out.find("median change: 0%"), std::string::npos)
            << gate.out;
    }
    fs::remove(dirty);
    fs::remove(clean);
}

TEST(Cli, RetiredStatsCacheSpecFieldRunsChecksAndResumes)
{
    // Specs and journal headers written by older builds may carry the
    // retired "stats_cache": false. The run is unaffected, its metadata
    // records nothing about it, and every artifact lints clean.
    fs::path dir = fs::temp_directory_path() / "sharp_cli_retired";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path config = dir / "spec.json";
    std::ofstream(config) << R"({
        "backend": "sim", "workload": "bfs", "seed": 3,
        "stats_cache": false,
        "experiment": {"rule": "ks", "params": {"threshold": 0.1},
                       "max": 300}
    })";
    fs::path journal = dir / "journal.jsonl";
    fs::path first = dir / "first";
    CliResult ran = run({"run", "--config", config.string(), "--journal",
                         journal.string(), "--out", first.string()});
    ASSERT_EQ(ran.status, 0) << ran.err;
    std::ifstream md_in(first.string() + ".md");
    std::string metadata((std::istreambuf_iterator<char>(md_in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(metadata.find("stats_cache"), std::string::npos);

    for (const std::string &artifact :
         {config.string(), journal.string(), first.string() + ".md"}) {
        CliResult checked = run({"check", artifact});
        EXPECT_EQ(checked.status, 0) << artifact << "\n" << checked.out;
    }

    // Cut the journal back to its spec header plus a few rounds and
    // resume it: the finished campaign matches the uninterrupted one.
    std::vector<std::string> lines;
    {
        std::ifstream in(journal);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 6u);
    {
        std::ofstream out(journal, std::ios::trunc);
        for (size_t i = 0; i < 6; ++i)
            out << lines[i] << "\n";
    }
    fs::path resumed = dir / "resumed";
    CliResult again = run({"run", "--resume", journal.string(), "--out",
                           resumed.string()});
    ASSERT_EQ(again.status, 0) << again.err;
    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(slurp(resumed.string() + ".csv"),
              slurp(first.string() + ".csv"));
    fs::remove_all(dir);
}

// Satellite regression: the failure-policy abort is a distinct exit
// code (3) so scripts can tell "the campaign was hopeless" apart from
// generic errors (1) and usage mistakes (2).
TEST(Cli, FailurePolicyAbortExitsWithCode3)
{
    fs::path fault_file =
        fs::temp_directory_path() / "sharp_cli_fault.json";
    {
        std::ofstream spec(fault_file);
        spec << R"({"crash": 1.0, "seed": 7})";
    }
    CliResult result =
        run({"run", "--workload", "bfs", "--fault",
             fault_file.string(), "--max-failures", "2", "--max",
             "50"});
    EXPECT_EQ(result.status, 3);
    EXPECT_NE(result.err.find("failure policy"), std::string::npos);
    EXPECT_NE(result.err.find("signal-crash"), std::string::npos);
    fs::remove(fault_file);
}

TEST(Cli, RetriedFaultyRunStillSucceeds)
{
    fs::path fault_file =
        fs::temp_directory_path() / "sharp_cli_flaky.json";
    {
        std::ofstream spec(fault_file);
        spec << R"({"flaky_exit": 0.3, "seed": 11})";
    }
    CliResult result =
        run({"run", "--workload", "bfs", "--fault",
             fault_file.string(), "--retries", "3", "--max-failures",
             "100", "--rule", "fixed", "--count", "30"});
    EXPECT_EQ(result.status, 0) << result.err;
    EXPECT_NE(result.out.find("collected 30 samples"),
              std::string::npos);
    fs::remove(fault_file);
}

TEST(Cli, ResumeRejectsMissingJournal)
{
    CliResult result = run({"run", "--resume", "/no/such/journal"});
    EXPECT_EQ(result.status, 1);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(Cli, ResumeOfCompletedJournalIsANoOp)
{
    fs::path dir = fs::temp_directory_path() / "sharp_cli_resume_done";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path journal = dir / "journal.jsonl";
    fs::path out = dir / "result";

    CliResult first =
        run({"run", "--workload", "bfs", "--rule", "fixed", "--count",
             "10", "--journal", journal.string(), "--out",
             out.string()});
    ASSERT_EQ(first.status, 0) << first.err;

    CliResult again = run({"run", "--resume", dir.string()});
    EXPECT_EQ(again.status, 0) << again.err;
    EXPECT_NE(again.out.find("already completed"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Cli, ReportRejectsMissingFile)
{
    CliResult result = run({"report", "/no/such/file.csv"});
    EXPECT_EQ(result.status, 1);
    CliResult noargs = run({"report"});
    EXPECT_EQ(noargs.status, 2);
}

TEST(Cli, WorkflowTranslatesAndExecutes)
{
    fs::path spec = fs::temp_directory_path() / "sharp_cli_wf.json";
    {
        std::ofstream out(spec);
        out << R"({
            "id": "cliwf",
            "functions": [{"name": "f", "operation": "true"}],
            "states": [{"name": "s", "type": "operation",
                        "actions": [{"functionRef": "f"}]}]
        })";
    }
    fs::path makefile = fs::temp_directory_path() / "sharp_cli_wf.mk";

    CliResult translate = run({"workflow", spec.string(), "--makefile",
                               makefile.string()});
    EXPECT_EQ(translate.status, 0) << translate.err;
    EXPECT_TRUE(fs::exists(makefile));

    CliResult execute =
        run({"workflow", spec.string(), "--execute"});
    EXPECT_EQ(execute.status, 0) << execute.err;
    EXPECT_NE(execute.out.find("succeeded"), std::string::npos);

    fs::remove(spec);
    fs::remove(makefile);
}

TEST(Cli, GateEndToEnd)
{
    // Record a baseline and a regressed candidate, then gate them.
    fs::path base = fs::temp_directory_path() / "sharp_cli_gate_base";
    fs::path cand = fs::temp_directory_path() / "sharp_cli_gate_cand";
    ASSERT_EQ(run({"run", "--workload", "lud", "--rule", "fixed",
                   "--count", "80", "--seed", "1", "--out",
                   base.string()})
                  .status,
              0);
    // The "candidate": the same workload on a slower environment —
    // machine2's lower cpuSpeedFactor regresses every run ~2%... use
    // a different machine for a visible change.
    ASSERT_EQ(run({"run", "--workload", "lud", "--machine", "machine2",
                   "--rule", "fixed", "--count", "80", "--seed", "2",
                   "--out", cand.string()})
                  .status,
              0);

    // Self-gate passes.
    CliResult self = run({"gate", base.string() + ".csv",
                          base.string() + ".csv"});
    EXPECT_EQ(self.status, 0) << self.err;
    EXPECT_NE(self.out.find("PASS"), std::string::npos);

    // machine2 is ~2% slower than machine1; with a 1% tolerance the
    // gate must fail.
    CliResult fail = run({"gate", base.string() + ".csv",
                          cand.string() + ".csv", "--slowdown",
                          "0.01"});
    EXPECT_EQ(fail.status, 1) << fail.out;
    EXPECT_NE(fail.out.find("FAIL"), std::string::npos);

    for (const auto &path : {base, cand}) {
        fs::remove(path.string() + ".csv");
        fs::remove(path.string() + ".md");
    }
}

TEST(Cli, SuiteRunsTheRegistry)
{
    CliResult result = run({"suite", "--machine", "machine2", "--max",
                            "300", "--seed", "4"});
    EXPECT_EQ(result.status, 0) << result.err;
    // machine2 runs the 11 CPU benchmarks.
    EXPECT_NE(result.out.find("hotspot"), std::string::npos);
    EXPECT_EQ(result.out.find("bfs-CUDA"), std::string::npos);
    EXPECT_NE(result.out.find("total runs:"), std::string::npos);
    EXPECT_NE(result.out.find("% saved vs fixed-300"),
              std::string::npos);
}

TEST(Cli, SuiteJobsOutputIsIdenticalToSerial)
{
    std::vector<std::string> base = {"suite", "--machine", "machine2",
                                     "--max", "300", "--seed", "4"};
    CliResult serial = run(base);
    std::vector<std::string> parallel_args = base;
    parallel_args.push_back("--jobs");
    parallel_args.push_back("4");
    CliResult parallel = run(parallel_args);
    EXPECT_EQ(parallel.status, 0) << parallel.err;
    // The rendered table (order, values, totals) must not depend on
    // the worker count.
    EXPECT_EQ(parallel.out, serial.out);
}

TEST(Cli, JobsFlagRejectsBadValues)
{
    CliResult result = run({"suite", "--jobs", "0"});
    EXPECT_EQ(result.status, 2);
    EXPECT_NE(result.err.find("--jobs"), std::string::npos);
    CliResult word = run(
        {"run", "--workload", "bfs", "--jobs", "many"});
    EXPECT_EQ(word.status, 2);
}

TEST(Cli, RunFromJsonConfig)
{
    fs::path config = fs::temp_directory_path() / "sharp_cli_cfg.json";
    {
        std::ofstream out(config);
        out << R"({
            "backend": "sim", "workload": "kmeans",
            "machines": ["machine3"], "seed": 5,
            "experiment": {"rule": "fixed",
                           "params": {"count": 40}, "max": 100}
        })";
    }
    CliResult result = run({"run", "--config", config.string()});
    EXPECT_EQ(result.status, 0) << result.err;
    EXPECT_NE(result.out.find("collected 40 samples"),
              std::string::npos);
    EXPECT_NE(result.out.find("kmeans"), std::string::npos);
    fs::remove(config);
}

TEST(Cli, BaselineCompareExitContract)
{
    // End to end through the real CLI: capture a baseline from a sim
    // campaign, self-compare (0), compare a perturbed candidate (1),
    // compare against a malformed bundle (2).
    fs::path dir = fs::temp_directory_path() / "sharp_cli_compare";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto path = [&dir](const std::string &name) {
        return (dir / name).string();
    };

    CliResult campaign = run({"run", "--workload", "bfs", "--rule",
                              "fixed", "--count", "30", "--seed", "7",
                              "--out", path("runs")});
    ASSERT_EQ(campaign.status, 0) << campaign.err;

    CliResult capture = run({"baseline", "capture", path("runs.csv"),
                             "--out", path("base.json")});
    ASSERT_EQ(capture.status, 0) << capture.err;
    EXPECT_NE(capture.out.find("captured 1 scenario"),
              std::string::npos);

    CliResult self = run({"compare", path("runs.csv"), "--against",
                          path("base.json")});
    EXPECT_EQ(self.status, 0) << self.out << self.err;
    EXPECT_NE(self.out.find("PASS"), std::string::npos);

    // Perturb: scale the execution_time column (last field) by 1.5.
    {
        std::ifstream in(path("runs.csv"));
        std::ofstream out(path("slow.csv"));
        std::string line;
        std::getline(in, line);
        out << line << "\n";
        while (std::getline(in, line)) {
            size_t comma = line.rfind(',');
            double value = std::stod(line.substr(comma + 1));
            out << line.substr(0, comma + 1) << value * 1.5 << "\n";
        }
    }
    CliResult slow = run({"compare", path("slow.csv"), "--against",
                          path("base.json"), "--format", "json",
                          "--out", path("report.json")});
    EXPECT_EQ(slow.status, 1) << slow.out << slow.err;
    EXPECT_NE(slow.out.find("\"pass\": false"), std::string::npos);
    EXPECT_NE(slow.out.find("\"exit_code\": 1"), std::string::npos);
    EXPECT_TRUE(fs::exists(path("report.json")));

    // Malformed bundle (unsorted samples, bad count) → artifact error.
    CliResult bad =
        run({"compare", path("runs.csv"), "--against",
             std::string(SHARP_SOURCE_DIR) +
                 "/tests/fixtures/check/bad_bundle.json"});
    EXPECT_EQ(bad.status, 2) << bad.out;
    EXPECT_NE(bad.err.find("compare:"), std::string::npos);

    fs::remove_all(dir);
}

TEST(Cli, BaselineCompareUsageErrors)
{
    CliResult no_out = run({"baseline", "capture", "whatever.csv"});
    EXPECT_EQ(no_out.status, 2);
    EXPECT_NE(no_out.err.find("--out"), std::string::npos);

    CliResult no_inputs = run({"baseline", "capture", "--out", "b"});
    EXPECT_EQ(no_inputs.status, 2);

    CliResult no_subcommand = run({"baseline"});
    EXPECT_EQ(no_subcommand.status, 2);

    CliResult no_candidate = run({"compare", "--against", "b.json"});
    EXPECT_EQ(no_candidate.status, 2);

    CliResult bad_format =
        run({"compare", "a.csv", "--against", "b.json", "--format",
             "yaml"});
    EXPECT_EQ(bad_format.status, 2);
    EXPECT_NE(bad_format.err.find("format"), std::string::npos);
}

TEST(Cli, UsagePinsRegressionGatingContract)
{
    CliResult help = run({"help"});
    EXPECT_NE(help.out.find("baseline capture"), std::string::npos);
    EXPECT_NE(help.out.find("--against"), std::string::npos);
    EXPECT_NE(help.out.find("exit codes: 0 ok, 1 error (compare "
                            "--against: regression to"),
              std::string::npos);
    EXPECT_NE(help.out.find("2 usage or malformed"),
              std::string::npos);
    EXPECT_NE(help.out.find("0 no regression, 1 investigate"),
              std::string::npos);
}

TEST(Cli, WorkflowReportsBadSpec)
{
    fs::path spec = fs::temp_directory_path() / "sharp_cli_bad.json";
    {
        std::ofstream out(spec);
        out << "{not json";
    }
    CliResult result = run({"workflow", spec.string()});
    EXPECT_EQ(result.status, 1);
    EXPECT_NE(result.err.find("error:"), std::string::npos);
    fs::remove(spec);
}

} // anonymous namespace
