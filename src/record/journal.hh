/**
 * @file
 * The crash-safe run journal.
 *
 * Long unattended campaigns are exactly the regime SHARP targets, and
 * an interrupted campaign must not throw away every completed sample.
 * The journal is an append-only JSON-lines file: the first line holds
 * the full reproduction spec, each following line holds one completed
 * round (warmup rounds included, flagged), and a final marker line
 * records a clean finish. Every round append is flushed and fsync'd
 * before the launcher proceeds, so after SIGKILL the journal holds
 * every round whose append returned — the unit of loss is at most the
 * round in flight.
 *
 * The reader tolerates a torn trailing line (a crash mid-write) by
 * discarding it, which is what makes `sharp run --resume` safe to
 * point at the journal of a killed process. Anything else malformed
 * is a located error: the reader and `sharp check` share one decoder,
 * so a journal replays exactly when it lints without errors.
 */

#ifndef SHARP_RECORD_JOURNAL_HH
#define SHARP_RECORD_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "json/value.hh"
#include "record/run_log.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace record
{

/** How a journal file is opened. */
enum class JournalMode
{
    /**
     * A fresh campaign: truncate any pre-existing file so stale
     * rounds (or a stale 'done' marker) from an earlier campaign at
     * the same path can never mix into this one.
     */
    Fresh,
    /** A resumed campaign: append after the existing rounds. */
    Resume,
};

/**
 * Append-only writer. One journal = one experiment execution (a
 * resumed run re-opens the same file in Resume mode and continues).
 */
class RunJournal
{
  public:
    /**
     * Open @p path (created if missing) — truncating in Fresh mode,
     * appending in Resume mode.
     * @throws std::runtime_error when the file cannot be opened.
     */
    explicit RunJournal(std::string path,
                        JournalMode mode = JournalMode::Fresh);
    ~RunJournal();

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /** Write the spec header line (only for fresh journals). */
    void writeSpec(const json::Value &spec);

    /**
     * Append one completed round and fsync. All records must share
     * the same run index.
     */
    void appendRound(const std::vector<RunRecord> &records);

    /** Append the clean-completion marker and fsync. */
    void markDone();

    /** Path the journal writes to. */
    const std::string &path() const { return filePath; }

  private:
    void appendLine(const std::string &line);

    std::string filePath;
    std::FILE *file = nullptr;
};

/** Where the valid prefix of a JSONL text ends. */
struct JsonlTail
{
    /** True when a torn trailing line was discarded. */
    bool truncated = false;
    /**
     * Byte length of the valid prefix: everything up to and including
     * the last parsed line (and its newline, when present). Appending
     * must happen at this offset — see repairJsonlTail().
     */
    size_t validBytes = 0;
    /** True when the valid prefix ends with a newline. */
    bool terminated = true;
};

/** Everything a journal file holds, parsed back. */
struct JournalContents : JsonlTail
{
    /** The reproduction spec from the header line (null if absent). */
    json::Value spec;
    /** Every journaled record, in execution order. */
    std::vector<RunRecord> records;
    /** Number of complete rounds journaled (incl. warmup rounds). */
    size_t rounds = 0;
    /** Warmup rounds among them. */
    size_t warmupRounds = 0;
    /** True when the clean-completion marker is present. */
    bool done = false;
};

/** How walkJsonl() names one JSONL format's shared findings. */
struct JsonlFormat
{
    /** Rule stem: "empty-<name>", "truncated-<name>", "<name>-syntax". */
    const char *name;
    const char *emptyMessage;
    /** Warning message and fix hint for a torn final line. */
    const char *tornMessage;
    const char *tornHint;
};

/**
 * The one JSONL line walker under every JSONL decoder. Each line is
 * parsed alone, its values stamped with the 1-based file line, and
 * each object line goes to @p visit. A final line that does not parse
 * is a torn tail (a crash mid-append): a warning, flagged in @p tail
 * and left out of its valid prefix. Any other malformed or non-object
 * line is an error.
 * @return false, after an "empty-<name>" warning, when @p text holds
 *         no lines.
 */
bool walkJsonl(const std::string &text, const JsonlFormat &format,
               JsonlTail &tail, check::CheckResult &out,
               const std::function<void(uint32_t line,
                                        const json::Value &doc)> &visit);

/**
 * The run-journal decoder, behind both readJournal() and `sharp
 * check`: builds the contents and reports every structural and
 * cross-line finding, located. Errors are what a replay cannot trust
 * (a duplicate spec line, a round after the done marker, mistyped
 * record fields, records contradicting the spec, ...); warnings are
 * what it can (a torn tail, a late or missing spec line, run indices
 * that do not advance, round counts outside the spec's min/max).
 * Fields a record omits keep their RunRecord defaults. Registry lints
 * of the spec are `sharp check`'s alone, so a journal still replays
 * after a later build drops its workload. Never throws.
 */
JournalContents decodeJournal(const std::string &text,
                              check::CheckResult &out);

/**
 * Read a journal written by RunJournal: decodeJournal() on the file,
 * refused when it reports an error. A torn trailing line (crash
 * mid-write) is discarded and flagged.
 * @throws std::runtime_error when the file cannot be read.
 * @throws check::CheckFailure carrying the located diagnostics.
 */
JournalContents readJournal(const std::string &path);

/**
 * The one JSONL append path: write @p line plus its newline to
 * @p file, flush, and fsync, so the line is durable before the caller
 * acts on it. Every JSONL artifact that journals state (run journals,
 * the daemon's campaign queue) must route appends through this helper
 * — the durability contract lives here, and the `sharp-lint`
 * journal-append-discipline rule bans hand-rolled fwrite/fsync
 * elsewhere. @p what names the artifact in error messages ("journal",
 * "queue journal").
 * @throws std::runtime_error when the write, flush, or fsync fails.
 */
void appendJsonlLine(std::FILE *file, const std::string &line,
                     const std::string &what);

/**
 * Make @p path safe to append to after a crash: truncate it to
 * @p validBytes when it has grown past (a torn trailing fragment),
 * then append the missing final newline when @p terminated is false.
 * Without this the first append would fuse onto the fragment into one
 * malformed line. Every JSONL artifact that appends after a crash
 * repairs on open — RunJournal in Resume mode, QueueJournal always —
 * so CLI `--resume`, daemon failover and restart share one repair.
 * @throws std::runtime_error when the file cannot be modified.
 */
void repairJsonlTail(const std::string &path, size_t validBytes,
                     bool terminated);

/** Serialize one record to its journal JSON object (round-trips). */
json::Value recordToJson(const RunRecord &record);

/**
 * Parse a record serialized by recordToJson(). Absent fields keep
 * their RunRecord defaults; a present field of the wrong type (or an
 * unknown failure kind) is reported to @p out at its location and
 * left at its default.
 */
RunRecord recordFromJson(const json::Value &doc, check::CheckResult &out);

/** `sharp check`'s journal pass: decodeJournal(), findings only. */
void checkJournalText(const std::string &text, check::CheckResult &out);

} // namespace record
} // namespace sharp

#endif // SHARP_RECORD_JOURNAL_HH
