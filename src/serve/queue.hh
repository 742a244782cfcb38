/**
 * @file
 * The persistent campaign queue behind `sharp serve`.
 *
 * Every lifecycle transition the daemon makes — a spec accepted, a
 * shard started, a failover, a terminal outcome — is appended to an
 * fsync'd JSON-lines journal (`queue.jsonl`, schema `sharp-queue-v1`)
 * before the daemon acts on it. Restart is therefore a pure replay:
 * the queue state after SIGKILL is exactly the fold of the journaled
 * events, campaigns that were running resume from their own run
 * journals, and nothing the daemon accepted is ever lost. The torn
 * tail a crash can leave is repaired on open through the same
 * repairJsonlTail() path run journals use, and the same JSONL walker
 * (record::walkJsonl) reads both formats.
 */

#ifndef SHARP_SERVE_QUEUE_HH
#define SHARP_SERVE_QUEUE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "json/value.hh"
#include "record/journal.hh"

namespace sharp
{
namespace check
{
class CheckResult;
} // namespace check

namespace serve
{

/** Lifecycle of one submitted campaign. */
enum class CampaignState
{
    /** Accepted, waiting for a shard (or re-queued after failover). */
    Queued,
    /** A worker shard is executing it right now. */
    Running,
    /** Finished cleanly; results are on disk. */
    Done,
    /** Terminal failure (policy abort, worker error, failover cap). */
    Failed,
    /** Cancelled by a client. */
    Cancelled,
};

/** Protocol name of a campaign state ("queued", "running", ...). */
const char *campaignStateName(CampaignState state);

/** One campaign as replayed from the queue journal. */
struct Campaign
{
    std::string id;
    std::string tenant;
    /** The submitted run spec (verbatim). */
    json::Value spec;
    CampaignState state = CampaignState::Queued;
    /** Failovers so far (failover events replayed). */
    size_t failovers = 0;
    /** Reason attached to a Failed state. */
    std::string reason;
    /** True once a start event was journaled (a run journal may exist). */
    bool started = false;
};

/** Everything a queue journal holds, folded back into queue state. */
struct QueueContents : record::JsonlTail
{
    /** Campaigns in submission order. */
    std::vector<Campaign> campaigns;
    /** 1 + the highest numeric id suffix seen (first free id number). */
    size_t nextIdNumber = 1;
};

/**
 * The queue-journal decoder, behind both readQueue() and `sharp
 * check`: folds the events into campaign state and reports every
 * structural and lifecycle finding, located. Errors are what a replay
 * cannot trust (no schema header, an unknown or id-less event, a
 * submit without a spec, an event before its submit or after its
 * campaign's terminal state, ...); a torn tail is a warning. Campaigns
 * whose last event is non-terminal come back as Queued — "running" is
 * not a fact a dead daemon can assert. Submitted specs are kept
 * verbatim: their registry lints are `sharp check`'s alone. Never
 * throws.
 */
QueueContents decodeQueue(const std::string &text, check::CheckResult &out);

/**
 * Read and fold a queue journal: decodeQueue() on the file, refused
 * when it reports an error. A missing file folds to an empty queue.
 * @throws std::runtime_error when the file cannot be read.
 * @throws check::CheckFailure carrying the located diagnostics.
 */
QueueContents readQueue(const std::string &path);

/**
 * Append-only writer for the queue journal. Opening repairs a torn
 * tail first (crash mid-append), then appends; a fresh file gets the
 * schema header line. Every append is flushed and fsync'd before
 * returning — the daemon never acts on an event that could be lost.
 */
class QueueJournal
{
  public:
    /** @throws std::runtime_error when the file cannot be opened. */
    explicit QueueJournal(std::string path);
    ~QueueJournal();

    QueueJournal(const QueueJournal &) = delete;
    QueueJournal &operator=(const QueueJournal &) = delete;

    /** A spec was accepted for @p tenant under @p id. */
    void submit(const std::string &id, const std::string &tenant,
                const json::Value &spec);
    /** A worker shard began (or resumed) executing @p id. */
    void start(const std::string &id, size_t shard);
    /** @p id's shard died or lapsed its deadline; it will re-queue. */
    void failover(const std::string &id, const std::string &reason);
    /** @p id finished cleanly. */
    void done(const std::string &id);
    /** @p id failed terminally. */
    void failed(const std::string &id, const std::string &reason);
    /** @p id was cancelled. */
    void cancel(const std::string &id);
    /** The daemon drained cleanly (informational marker). */
    void drain();

    /** Path the journal writes to. */
    const std::string &path() const { return filePath; }

  private:
    void append(const json::Value &event);

    std::string filePath;
    std::FILE *file = nullptr;
};

/** `sharp check`'s queue pass: decodeQueue(), findings only. */
void checkQueueText(const std::string &text, check::CheckResult &out);

/**
 * True when @p text's first line carries the `sharp-queue-v1` schema
 * tag (artifact sniffing for `sharp check`).
 */
bool looksLikeQueueJournal(const std::string &text);

} // namespace serve
} // namespace sharp

#endif // SHARP_SERVE_QUEUE_HH
