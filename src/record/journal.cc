#include "record/journal.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace record
{

using check::Severity;

RunJournal::RunJournal(std::string path_in, JournalMode mode)
    : filePath(std::move(path_in))
{
    // Resume-mode opens repair the tail unconditionally, so a torn
    // trailing fragment can never fuse with the first new append,
    // whoever opens the file (CLI resume, daemon failover, restart
    // after a crash). A journal that is malformed beyond a torn tail
    // throws here, before any append could make it worse.
    if (mode == JournalMode::Resume) {
        struct stat st = {};
        if (::stat(filePath.c_str(), &st) == 0 && st.st_size > 0) {
            JournalContents contents = readJournal(filePath);
            if (contents.truncated || !contents.terminated)
                repairJsonlTail(filePath, contents.validBytes,
                                contents.terminated);
        }
    }
    file = std::fopen(filePath.c_str(),
                      mode == JournalMode::Resume ? "ab" : "wb");
    if (!file) {
        throw std::runtime_error("cannot open journal '" + filePath +
                                 "': " + std::strerror(errno));
    }
}

RunJournal::~RunJournal()
{
    if (file)
        std::fclose(file);
}

void
appendJsonlLine(std::FILE *file, const std::string &line,
                const std::string &what)
{
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fputc('\n', file) == EOF || std::fflush(file) != 0) {
        throw std::runtime_error(what + " write failed: " +
                                 std::string(std::strerror(errno)));
    }
    // The fsync is the crash-safety contract: once the append
    // returns, the line survives SIGKILL and power loss.
    if (fsync(fileno(file)) != 0) {
        throw std::runtime_error(what + " fsync failed: " +
                                 std::string(std::strerror(errno)));
    }
}

void
RunJournal::appendLine(const std::string &line)
{
    appendJsonlLine(file, line, "journal");
}

void
RunJournal::writeSpec(const json::Value &spec)
{
    json::Value line = json::Value::makeObject();
    line.set("type", "spec");
    line.set("spec", spec);
    appendLine(json::write(line));
}

void
RunJournal::appendRound(const std::vector<RunRecord> &records)
{
    json::Value line = json::Value::makeObject();
    line.set("type", "round");
    if (!records.empty()) {
        line.set("run", records.front().run);
        line.set("warmup", records.front().warmup);
    }
    json::Value list = json::Value::makeArray();
    for (const auto &record : records)
        list.append(recordToJson(record));
    line.set("records", std::move(list));
    appendLine(json::write(line));
}

void
RunJournal::markDone()
{
    json::Value line = json::Value::makeObject();
    line.set("type", "done");
    appendLine(json::write(line));
}

json::Value
recordToJson(const RunRecord &record)
{
    json::Value doc = json::Value::makeObject();
    doc.set("run", record.run);
    doc.set("instance", record.instance);
    doc.set("attempt", record.attempt);
    doc.set("workload", record.workload);
    doc.set("backend", record.backend);
    doc.set("machine", record.machine);
    doc.set("day", record.day);
    doc.set("warmup", record.warmup);
    doc.set("failure", failureKindName(record.failure));
    json::Value metrics = json::Value::makeObject();
    for (const auto &[name, value] : record.metrics)
        metrics.set(name, value);
    doc.set("metrics", std::move(metrics));
    return doc;
}

namespace
{

/** 2^53: every integer up to here is exact in a JSON number. */
constexpr double maxExactInteger = 9007199254740992.0;

const JsonlFormat journalFormat = {
    "journal", "journal holds no lines",
    "torn trailing line (crash mid-write); the reader discards it",
    "run `sharp run --resume` to repair and continue the campaign"};

constexpr auto isCount = [](const json::Value &value) {
    return value.isIntegerIn(0.0, maxExactInteger);
};
constexpr auto isString = [](const json::Value &value) {
    return value.isString();
};
constexpr auto isBool = [](const json::Value &value) {
    return value.isBool();
};

/**
 * Member @p key of @p doc; nullptr when absent, or when it fails
 * @p valid, which is reported at the member: "'key' must be @p what".
 */
const json::Value *
field(const json::Value &doc, const char *key,
      bool (*valid)(const json::Value &), const char *what,
      check::CheckResult &out)
{
    const json::Value *value = doc.find(key);
    if (!value || valid(*value))
        return value;
    out.error(*value, "wrong-type",
              "'" + std::string(key) + "' must be " + what);
    return nullptr;
}

} // anonymous namespace

RunRecord
recordFromJson(const json::Value &doc, check::CheckResult &out)
{
    RunRecord record;
    if (!doc.isObject()) {
        out.error(doc, "wrong-type", "journal record must be an object");
        return record;
    }
    for (auto [key, target] : {std::pair{"run", &record.run},
                               {"instance", &record.instance},
                               {"attempt", &record.attempt}}) {
        if (auto value = field(doc, key, isCount, "a non-negative integer",
                               out))
            *target = static_cast<size_t>(value->asNumber());
    }
    for (auto [key, target] : {std::pair{"workload", &record.workload},
                               {"backend", &record.backend},
                               {"machine", &record.machine}}) {
        if (auto value = field(doc, key, isString, "a string", out))
            *target = value->asString();
    }
    if (const json::Value *day = doc.find("day")) {
        if (day->isIntegerIn(std::numeric_limits<int>::min(),
                             std::numeric_limits<int>::max()))
            record.day = static_cast<int>(day->asNumber());
        else
            out.error(*day, day->isNumber() ? "out-of-range" : "wrong-type",
                      "'day' must be an integer that fits an int");
    }
    if (auto warmup = field(doc, "warmup", isBool, "a boolean", out))
        record.warmup = warmup->asBool();
    if (auto failure = field(doc, "failure", isString, "a string", out)) {
        try {
            record.failure = failureKindFromName(failure->asString());
        } catch (const std::invalid_argument &) {
            out.error(doc, "unknown-name",
                      "unknown failure kind '" + failure->asString() + "'");
        }
    }
    if (const json::Value *metrics = doc.find("metrics")) {
        if (!metrics->isObject()) {
            out.error(*metrics, "wrong-type", "'metrics' must be an object");
            return record;
        }
        for (const auto &[name, value] : metrics->members()) {
            if (value.isNumber())
                record.metrics[name] = value.asNumber();
            else
                out.error(value, "wrong-type",
                          "metric '" + name + "' must be a number");
        }
    }
    return record;
}

bool
walkJsonl(const std::string &text, const JsonlFormat &format,
          JsonlTail &tail, check::CheckResult &out,
          const std::function<void(uint32_t, const json::Value &)> &visit)
{
    std::string name = format.name;
    // The line holding the last byte that is not a newline is the
    // final line, the only one a crash mid-append can have torn.
    size_t last_byte = text.find_last_not_of('\n');
    if (last_byte == std::string::npos) {
        out.warning("empty-" + name, format.emptyMessage);
        return false;
    }
    auto lines = util::split(text, '\n');
    size_t offset = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        size_t start = offset;
        offset += line.size() + 1; // +1 for the '\n' split consumed
        if (line.empty())
            continue;
        auto number = static_cast<uint32_t>(i + 1);
        json::Location whole_line{number, 1};
        json::Value doc;
        try {
            doc = json::parse(line, number);
        } catch (const std::exception &problem) {
            if (start + line.size() > last_byte) {
                tail.truncated = true;
                out.report(Severity::Warning, whole_line,
                           "truncated-" + name, format.tornMessage,
                           format.tornHint);
            } else {
                out.report(Severity::Error, whole_line, name + "-syntax",
                           "malformed " + name + " line: " +
                               problem.what());
            }
            continue;
        }
        bool has_newline = start + line.size() < text.size();
        tail.validBytes = start + line.size() + (has_newline ? 1 : 0);
        tail.terminated = has_newline;
        if (!doc.isObject()) {
            out.report(Severity::Error, whole_line, name + "-syntax",
                       name + " line must be a JSON object");
            continue;
        }
        visit(number, doc);
    }
    return true;
}

JournalContents
decodeJournal(const std::string &text, check::CheckResult &out)
{
    JournalContents contents;
    // What the spec line says records must carry, for cross-line rules.
    std::string spec_workload;
    std::string spec_backend;
    long spec_min = -1;
    long spec_max = -1;
    long last_run = -1;
    size_t measured_rounds = 0;

    auto visit = [&](uint32_t line, const json::Value &doc) {
        json::Location whole_line{line, 1};
        std::string type = doc.getString("type", "");
        if (type == "spec") {
            if (!contents.spec.isNull()) {
                out.report(Severity::Error, whole_line, "journal-order",
                           "duplicate spec line; a journal describes "
                           "exactly one campaign");
                return;
            }
            if (line != 1) {
                out.report(Severity::Warning, whole_line,
                           "journal-order",
                           "spec line is not the first line");
            }
            const json::Value *spec = doc.find("spec");
            if (!spec || !spec->isObject()) {
                out.report(Severity::Error, whole_line, "missing-field",
                           "spec line lacks a 'spec' object");
                return;
            }
            contents.spec = *spec;
            spec_backend = spec->getString("backend", "");
            // A scenario run's records carry the scenario's own names
            // (a trace replay keeps the recorded backend), and the
            // phased backend always runs its one built-in workload.
            if (spec_backend != "scenario" && spec_backend != "sim-phased")
                spec_workload = spec->getString("workload", "");
            if (spec_backend == "scenario")
                spec_backend.clear();
            const json::Value *experiment = spec->find("experiment");
            if (experiment && experiment->isObject()) {
                spec_min = experiment->getLong("min", -1);
                spec_max = experiment->getLong("max", -1);
            }
        } else if (type == "round") {
            if (contents.done) {
                out.report(Severity::Error, whole_line, "journal-order",
                           "round recorded after the done marker");
            }
            auto warmup = field(doc, "warmup", isBool, "a boolean", out);
            if (auto run =
                    field(doc, "run", isCount, "a non-negative integer",
                          out)) {
                long index = run->asLong();
                if (index <= last_run) {
                    out.report(Severity::Warning, whole_line,
                               "journal-order",
                               "run index " + std::to_string(index) +
                                   " does not advance past the previous "
                                   "round (" +
                                   std::to_string(last_run) + ")");
                }
                last_run = index;
            }
            const json::Value *records = doc.find("records");
            if (!records || !records->isArray()) {
                out.report(Severity::Error, whole_line, "missing-field",
                           "round line lacks a 'records' array");
                return;
            }
            ++contents.rounds;
            if (warmup && warmup->asBool())
                ++contents.warmupRounds;
            else
                ++measured_rounds;
            for (const auto &entry : records->asArray()) {
                RunRecord record = recordFromJson(entry, out);
                if (!spec_workload.empty() &&
                    record.workload != spec_workload) {
                    out.error(entry, "journal-spec-mismatch",
                              "record workload '" + record.workload +
                                  "' disagrees with the journaled spec "
                                  "('" +
                                  spec_workload + "')");
                }
                // Fault injection decorates the backend name
                // ("fault+sim") without changing the spec it runs.
                std::string backend = record.backend;
                if (backend == "fault+" + spec_backend)
                    backend = spec_backend;
                if (!spec_backend.empty() && !backend.empty() &&
                    backend != spec_backend) {
                    out.error(entry, "journal-spec-mismatch",
                              "record backend '" + backend +
                                  "' disagrees with the journaled spec "
                                  "('" +
                                  spec_backend + "')");
                }
                contents.records.push_back(std::move(record));
            }
        } else if (type == "done") {
            if (contents.done) {
                out.report(Severity::Warning, whole_line,
                           "journal-order", "duplicate done marker");
            }
            contents.done = true;
        } else {
            out.report(Severity::Error, whole_line, "journal-type",
                       "unknown journal line type '" + type + "'");
        }
    };
    if (!walkJsonl(text, journalFormat, contents, out, visit))
        return contents;

    if (contents.spec.isNull()) {
        out.warning("missing-spec",
                    "journal has no spec line; `sharp run --resume` "
                    "cannot rebuild the experiment from it");
    }
    if (spec_max > 0 &&
        measured_rounds > static_cast<size_t>(spec_max)) {
        out.warning("journal-overrun",
                    "journal holds " +
                        std::to_string(measured_rounds) +
                        " measured rounds but the spec caps the "
                        "experiment at " +
                        std::to_string(spec_max));
    }
    if (contents.done && spec_min > 0 &&
        measured_rounds < static_cast<size_t>(spec_min)) {
        out.warning("journal-underrun",
                    "journal finished with " +
                        std::to_string(measured_rounds) +
                        " measured rounds, below the spec minimum of " +
                        std::to_string(spec_min));
    }
    return contents;
}

JournalContents
readJournal(const std::string &path)
{
    check::CheckResult findings;
    findings.setArtifact(path);
    JournalContents contents =
        decodeJournal(util::readFileText(path), findings);
    check::throwIfErrors(std::move(findings));
    return contents;
}

void
checkJournalText(const std::string &text, check::CheckResult &out)
{
    decodeJournal(text, out);
}

void
repairJsonlTail(const std::string &path, size_t validBytes,
                bool terminated)
{
    struct stat st = {};
    bool oversized = ::stat(path.c_str(), &st) == 0 &&
                     static_cast<size_t>(st.st_size) > validBytes;
    if (oversized &&
        ::truncate(path.c_str(), static_cast<off_t>(validBytes)) != 0) {
        throw std::runtime_error("cannot trim torn journal '" + path +
                                 "': " + std::strerror(errno));
    }
    if (terminated)
        return;
    // The last valid line lost its newline (crash between the write
    // and the terminator); supply it so appends start a fresh line.
    std::FILE *out = std::fopen(path.c_str(), "ab");
    if (!out) {
        throw std::runtime_error("cannot terminate journal '" + path +
                                 "': " + std::strerror(errno));
    }
    bool wrote = std::fputc('\n', out) != EOF;
    bool closed = std::fclose(out) == 0;
    if (!wrote || !closed) {
        throw std::runtime_error("cannot terminate journal '" + path +
                                 "': " + std::strerror(errno));
    }
}

} // namespace record
} // namespace sharp
