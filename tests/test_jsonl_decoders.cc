/**
 * @file
 * The JSONL decoders (record::decodeJournal, serve::decodeQueue): the
 * reader and `sharp check` agree on every input, every journal SHARP
 * writes decodes clean, and every byte prefix of a clean file — a
 * crash at any point of an append — decodes to its complete lines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/analyzer.hh"
#include "check/diagnostic.hh"
#include "cli/cli.hh"
#include "json/writer.hh"
#include "record/journal.hh"
#include "serve/queue.hh"
#include "util/fs.hh"

namespace
{

using namespace sharp;
namespace fs = std::filesystem;

std::string
sourcePath(const std::string &relative)
{
    return std::string(SHARP_SOURCE_DIR) + "/" + relative;
}

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/** One decoder input: a run journal or a queue journal. */
struct Input
{
    std::string name;
    bool queue;
    std::string text;
    /** The first error the decoders must report ("" = none). */
    std::string rule;
    size_t line = 0;
};

const std::string journalSpec =
    R"({"type":"spec","spec":{"backend":"sim","workload":"bfs",)"
    R"("machines":["machine1"],"seed":"3","experiment":{"rule":"fixed",)"
    R"("params":{"count":5},"min":2,"max":100}}})"
    "\n";

std::string
round(size_t run, const std::string &record)
{
    return R"({"type":"round","run":)" + std::to_string(run) +
           R"(,"warmup":false,"records":[)" + record + "]}\n";
}

std::string
record(size_t run, const std::string &extra = "")
{
    return R"({"run":)" + std::to_string(run) +
           R"(,"instance":0,"attempt":0,"workload":"bfs","backend":"sim",)"
           R"("machine":"machine1","day":0,"warmup":false,)"
           R"("failure":"none","metrics":{"execution_time":1.5})" +
           extra + "}";
}

const std::string queueHeader =
    "{\"schema\":\"sharp-queue-v1\"}\n"
    R"({"event":"submit","id":"c000001","tenant":"default","spec":)"
    R"({"backend":"sim","workload":"bfs"}})"
    "\n";

std::vector<Input>
agreementTable()
{
    std::vector<Input> inputs;
    // Every shipped fixture, with the first error it holds.
    auto fixture = [&inputs](const char *name, bool queue,
                             const char *rule, size_t line) {
        inputs.push_back(
            {name, queue,
             util::readFileText(sourcePath("tests/fixtures/check/") + name),
             rule, line});
    };
    fixture("truncated.jsonl", false, "", 0);
    fixture("journal_duplicate_spec.jsonl", false, "journal-order", 4);
    fixture("queue_clean.jsonl", true, "", 0);
    fixture("queue_torn.jsonl", true, "", 0);
    fixture("queue_unknown_event.jsonl", true, "unknown-event", 3);
    fixture("queue_after_terminal.jsonl", true, "queue-order", 5);
    for (const auto &entry : fs::recursive_directory_iterator(
             sourcePath("tests/fixtures/campaign"))) {
        std::string file = entry.path().filename().string();
        if (file == "queue.jsonl" || file == "journal.jsonl")
            inputs.push_back({entry.path().string(), file == "queue.jsonl",
                              util::readFileText(entry.path().string())});
    }

    // Journal defects a replay must not trust.
    inputs.push_back({"duplicate spec", false,
                      journalSpec + round(0, record(0)) + journalSpec,
                      "journal-order", 3});
    inputs.push_back({"round after done", false,
                      journalSpec + round(0, record(0)) +
                          "{\"type\":\"done\"}\n" + round(1, record(1)),
                      "journal-order", 4});
    inputs.push_back(
        {"records not an array", false,
         journalSpec + R"({"type":"round","run":0,"records":5})" "\n",
         "missing-field", 2});
    inputs.push_back(
        {"non-numeric metric", false,
         journalSpec +
             round(0, R"({"run":0,"metrics":{"execution_time":"fast"}})"),
         "wrong-type", 2});
    inputs.push_back({"unknown failure kind", false,
                      journalSpec + round(0, R"({"run":0,"failure":"oops"})"),
                      "unknown-name", 2});
    inputs.push_back({"wrong-typed instance", false,
                      journalSpec + round(0, R"({"run":0,"instance":"x"})"),
                      "wrong-type", 2});
    inputs.push_back({"string warmup", false,
                      journalSpec + round(0, R"({"run":0,"warmup":"true"})"),
                      "wrong-type", 2});
    inputs.push_back({"out-of-range day", false,
                      journalSpec +
                          round(0, R"({"run":0,"day":4294967297})"),
                      "out-of-range", 2});
    inputs.push_back({"malformed middle line", false,
                      journalSpec + "{\"type\":\n" + round(0, record(0)),
                      "journal-syntax", 2});
    // And the clean baseline those defects are cut from.
    inputs.push_back({"clean journal", false,
                      journalSpec + round(0, record(0)) +
                          round(1, record(1)) + "{\"type\":\"done\"}\n"});

    // Queue defects.
    inputs.push_back({"event after terminal", true,
                      queueHeader +
                          R"({"event":"done","id":"c000001"})" "\n"
                          R"({"event":"start","id":"c000001","shard":0})"
                          "\n",
                      "queue-order", 4});
    inputs.push_back({"event before submit", true,
                      "{\"schema\":\"sharp-queue-v1\"}\n"
                      R"({"event":"start","id":"c000009","shard":0})" "\n",
                      "queue-order", 2});
    inputs.push_back({"submit without spec", true,
                      "{\"schema\":\"sharp-queue-v1\"}\n"
                      R"({"event":"submit","id":"c000001"})" "\n",
                      "missing-field", 2});
    return inputs;
}

/** The parts of a diagnostic both paths must agree on. */
std::string
renderWithoutArtifact(const check::CheckResult &result)
{
    std::ostringstream out;
    for (check::Diagnostic diagnostic : result.diagnostics()) {
        diagnostic.artifact.clear();
        out << diagnostic.render() << "\n";
    }
    return out.str();
}

TEST(JsonlDecoders, ReadRefusesExactlyWhatCheckReportsAsAnError)
{
    std::string path = tempPath("sharp_jsonl_agreement.jsonl");
    for (const Input &input : agreementTable()) {
        SCOPED_TRACE(input.name);
        check::CheckResult checked;
        if (input.queue)
            serve::checkQueueText(input.text, checked);
        else
            record::checkJournalText(input.text, checked);

        if (input.rule.empty()) {
            EXPECT_TRUE(checked.ok()) << checked.renderText();
        } else {
            auto first = std::find_if(
                checked.diagnostics().begin(), checked.diagnostics().end(),
                [](const check::Diagnostic &d) {
                    return d.severity == check::Severity::Error;
                });
            ASSERT_NE(first, checked.diagnostics().end());
            EXPECT_EQ(first->rule, input.rule);
            EXPECT_EQ(first->line, input.line);
        }

        writeText(path, input.text);
        try {
            if (input.queue)
                serve::readQueue(path);
            else
                record::readJournal(path);
            EXPECT_TRUE(checked.ok())
                << "read accepted what check rejects:\n"
                << checked.renderText();
        } catch (const check::CheckFailure &failure) {
            EXPECT_FALSE(checked.ok()) << "read refused a clean file";
            EXPECT_EQ(renderWithoutArtifact(failure.result()),
                      renderWithoutArtifact(checked));
            for (const auto &diagnostic : failure.result().diagnostics())
                EXPECT_EQ(diagnostic.artifact, path);
        }
    }
    fs::remove(path);
}

TEST(JsonlDecoders, SharpCheckAddsRegistryLintsWithoutBlockingReads)
{
    // A spec naming a workload the registry lacks: `sharp check` flags
    // it, but the reader still replays the journal and the queue.
    std::string journal =
        R"({"type":"spec","spec":{"backend":"sim","workload":"linpack"}})"
        "\n";
    std::string queue =
        "{\"schema\":\"sharp-queue-v1\"}\n"
        R"({"event":"submit","id":"c000001","spec":{"backend":"sim",)"
        R"("workload":"linpack"}})"
        "\n";
    for (bool is_queue : {false, true}) {
        std::string path = tempPath(is_queue ? "sharp_lint_queue.jsonl"
                                             : "sharp_lint_journal.jsonl");
        writeText(path, is_queue ? queue : journal);
        check::CheckResult result;
        check::checkArtifactFile(path, result);
        ASSERT_EQ(result.errorCount(), 1u) << result.renderText();
        const check::Diagnostic &dangling = result.diagnostics().front();
        EXPECT_EQ(dangling.rule, "dangling-workload");
        EXPECT_EQ(dangling.line, is_queue ? 2u : 1u);
        if (is_queue) {
            EXPECT_EQ(serve::readQueue(path).campaigns.size(), 1u);
        } else {
            EXPECT_EQ(record::readJournal(path).spec.getString(
                          "workload", ""),
                      "linpack");
        }
        fs::remove(path);
    }
}

/** `sharp run ... --journal J`, asserting exit 0; returns J. */
std::string
journalOf(const std::string &name, std::vector<std::string> argv)
{
    std::string journal = tempPath("sharp_writes_" + name + ".jsonl");
    argv.insert(argv.begin(), "run");
    argv.insert(argv.end(), {"--journal", journal});
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli(argv, out, err), 0) << name << ": " << err.str();
    return journal;
}

TEST(JsonlDecoders, WhatSharpWritesSharpReads)
{
    std::string dir = tempPath("sharp_writes_specs");
    fs::create_directories(dir);
    auto spec = [&dir](const std::string &name, const std::string &body) {
        std::string path = dir + "/" + name + ".json";
        writeText(path, body);
        return path;
    };
    const std::string fixed =
        R"("experiment":{"rule":"fixed","params":{"count":5},"max":50})";
    std::string fault = spec("fault", R"({"flaky_exit": 0.3, "seed": 11})");

    std::vector<std::string> journals = {
        journalOf("sim", {"--workload", "bfs", "--rule", "fixed",
                          "--count", "5"}),
        journalOf("phased",
                  {"--config",
                   spec("phased", R"({"backend":"sim-phased",)" + fixed +
                                      "}")}),
        journalOf("phased_workload",
                  {"--config", spec("phased_workload",
                                    R"({"backend":"sim-phased",)"
                                    R"("workload":"bfs",)" +
                                        fixed + "}")}),
        journalOf("faas",
                  {"--config",
                   spec("faas", R"({"backend":"faas","workload":"bfs",)"
                                R"("machines":["machine1","machine2"],)"
                                R"("concurrency":2,)" +
                                    fixed + "}")}),
        journalOf("local",
                  {"--config",
                   spec("local", R"({"backend":"local","workload":"nap",)"
                                 R"("argv":["sh","-c","true"],)" +
                                     fixed + "}")}),
        journalOf("family",
                  {"--scenario", sourcePath("scenarios/load_ramp.json"),
                   "--rule", "fixed", "--count", "5"}),
        journalOf("trace",
                  {"--scenario", sourcePath("scenarios/trace_replay.json"),
                   "--rule", "fixed", "--count", "5"}),
        journalOf("fault", {"--workload", "bfs", "--fault", fault,
                            "--retries", "3", "--max-failures", "100",
                            "--rule", "fixed", "--count", "20"}),
    };
    for (const std::string &journal : journals) {
        SCOPED_TRACE(journal);
        check::CheckResult result;
        check::checkArtifactFile(journal, result);
        EXPECT_EQ(result.errorCount(), 0u) << result.renderText();
        EXPECT_EQ(result.warningCount(), 0u) << result.renderText();
        record::JournalContents contents = record::readJournal(journal);
        EXPECT_TRUE(contents.done);
        EXPECT_GE(contents.records.size(), 5u);
        if (journal == journals.back()) {
            // The fault run journals its failed attempts too.
            EXPECT_TRUE(std::any_of(
                contents.records.begin(), contents.records.end(),
                [](const record::RunRecord &rec) {
                    return !rec.succeeded();
                }));
        }
        fs::remove(journal);
    }
    fs::remove_all(dir);
}

/** Both kinds of decoded contents, reduced to comparable text. */
std::string
summarize(const record::JournalContents &contents)
{
    std::string out = json::write(contents.spec);
    for (const auto &rec : contents.records)
        out += "|" + json::write(record::recordToJson(rec));
    return out + "|" + std::to_string(contents.rounds) +
           (contents.done ? "|done" : "");
}

std::string
summarize(const serve::QueueContents &contents)
{
    std::string out;
    for (const auto &campaign : contents.campaigns)
        out += campaign.id + ":" + serve::campaignStateName(campaign.state) +
               ":" + std::to_string(campaign.failovers) +
               (campaign.started ? ":started" : "") + "|";
    return out + std::to_string(contents.nextIdNumber);
}

/**
 * Every proper byte prefix of @p text (a crash at any point of any
 * append) decodes without an error to exactly its complete lines, and
 * is flagged truncated exactly when the cut falls inside a line.
 */
template <typename Decode>
void
checkEveryPrefix(const std::string &text, Decode decode)
{
    for (size_t cut = 0; cut < text.size(); ++cut) {
        std::string prefix = text.substr(0, cut);
        size_t line_start = prefix.rfind('\n');
        line_start = line_start == std::string::npos ? 0 : line_start + 1;
        size_t line_end = text.find('\n', line_start);
        // Inside a line: part, but not all, of its bytes survived.
        bool inside = cut > line_start && cut < line_end;
        std::string complete = inside ? prefix.substr(0, line_start)
                                      : prefix;

        check::CheckResult findings;
        auto contents = decode(prefix, findings);
        ASSERT_TRUE(findings.ok())
            << "cut " << cut << ":\n" << findings.renderText();
        EXPECT_EQ(contents.truncated, inside) << "cut " << cut;
        EXPECT_EQ(contents.validBytes, complete.size()) << "cut " << cut;
        check::CheckResult unused;
        EXPECT_EQ(summarize(contents), summarize(decode(complete, unused)))
            << "cut " << cut;
    }
}

TEST(JsonlDecoders, EveryBytePrefixDecodesToItsCompleteLines)
{
    std::string journal = util::readFileText(sourcePath(
        "tests/fixtures/campaign/clean/campaigns/c000001/journal.jsonl"));
    checkEveryPrefix(journal, record::decodeJournal);
    // The prefix property is about the final file: the full journal
    // holds every record, so the prefixes covered every round.
    check::CheckResult findings;
    EXPECT_TRUE(record::decodeJournal(journal, findings).done);

    std::string queue = util::readFileText(
        sourcePath("tests/fixtures/check/queue_clean.jsonl"));
    checkEveryPrefix(queue, serve::decodeQueue);
}

} // anonymous namespace
