#include "serve/queue.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "record/journal.hh"
#include "util/fs.hh"
#include "util/string_utils.hh"

namespace sharp
{
namespace serve
{

namespace
{

constexpr const char *queueSchema = "sharp-queue-v1";

const record::JsonlFormat queueFormat = {
    "queue", "queue journal holds no lines",
    "torn trailing line (crash mid-append); the daemon repairs it on "
    "restart",
    "restart `sharp serve` on the same state directory to repair and "
    "resume"};

const std::vector<std::string> eventNames = {
    "submit", "start", "failover", "done",
    "failed", "cancel", "drain"};

bool
isTerminal(CampaignState state)
{
    return state == CampaignState::Done ||
           state == CampaignState::Failed ||
           state == CampaignState::Cancelled;
}

} // anonymous namespace

const char *
campaignStateName(CampaignState state)
{
    switch (state) {
    case CampaignState::Queued:
        return "queued";
    case CampaignState::Running:
        return "running";
    case CampaignState::Done:
        return "done";
    case CampaignState::Failed:
        return "failed";
    case CampaignState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

QueueContents
decodeQueue(const std::string &text, check::CheckResult &out)
{
    using check::Severity;

    QueueContents contents;
    auto find = [&contents](const std::string &id) -> Campaign * {
        for (auto &campaign : contents.campaigns) {
            if (campaign.id == id)
                return &campaign;
        }
        return nullptr;
    };
    // An optional string member; any other type is an error.
    auto text_field = [&out](const json::Value &doc, const char *key,
                             const char *fallback) {
        const json::Value *value = doc.find(key);
        if (value && !value->isString())
            out.error(*value, "wrong-type",
                      "'" + std::string(key) + "' must be a string");
        return value && value->isString() ? value->asString()
                                          : std::string(fallback);
    };

    bool saw_schema = false;
    auto visit = [&](uint32_t line, const json::Value &doc) {
        json::Location whole_line{line, 1};
        if (!saw_schema) {
            saw_schema = true;
            if (doc.getString("schema", "") != queueSchema) {
                out.report(Severity::Error, whole_line, "queue-schema",
                           "first line must carry the '" +
                               std::string(queueSchema) +
                               "' schema header");
            }
            return;
        }
        std::string event = doc.getString("event", "");
        if (event.empty()) {
            out.report(Severity::Error, whole_line, "missing-field",
                       "queue event lacks an 'event' name");
            return;
        }
        if (std::find(eventNames.begin(), eventNames.end(), event) ==
            eventNames.end()) {
            out.report(Severity::Error, whole_line, "unknown-event",
                       "unknown queue event '" + event + "'",
                       check::suggestName(event, eventNames));
            return;
        }
        if (event == "drain")
            return; // informational; per-campaign state is authoritative
        std::string id = doc.getString("id", "");
        if (id.empty()) {
            out.report(Severity::Error, whole_line, "missing-field",
                       "'" + event + "' event lacks an 'id'");
            return;
        }
        Campaign *campaign = find(id);
        if (event == "submit") {
            if (campaign) {
                out.report(Severity::Error, whole_line, "queue-order",
                           "duplicate submit for campaign '" + id + "'");
                return;
            }
            Campaign submitted;
            submitted.id = id;
            submitted.tenant = text_field(doc, "tenant", "default");
            const json::Value *spec = doc.find("spec");
            if (spec && spec->isObject())
                submitted.spec = *spec;
            else
                out.report(Severity::Error, whole_line, "missing-field",
                           "submit event lacks a 'spec' object");
            contents.campaigns.push_back(std::move(submitted));
            // Ids are allocated as "c<number>"; replay the counter so
            // a restarted daemon never reuses an id.
            if (id.size() > 1 && id[0] == 'c') {
                if (auto number = util::parseLong(id.substr(1))) {
                    if (*number >= 0 &&
                        static_cast<size_t>(*number) >=
                            contents.nextIdNumber)
                        contents.nextIdNumber =
                            static_cast<size_t>(*number) + 1;
                }
            }
            return;
        }
        if (!campaign) {
            out.report(Severity::Error, whole_line, "queue-order",
                       "'" + event + "' event for campaign '" + id +
                           "' before its submit");
            return;
        }
        if (isTerminal(campaign->state)) {
            out.report(Severity::Error, whole_line, "queue-order",
                       "'" + event + "' event for campaign '" + id +
                           "' after its terminal '" +
                           campaignStateName(campaign->state) +
                           "' state");
            return;
        }
        if (event == "start") {
            campaign->started = true;
            // Replay cannot assert "running": the shard died with the
            // daemon. The campaign re-queues and resumes its journal.
            campaign->state = CampaignState::Queued;
        } else if (event == "failover") {
            ++campaign->failovers;
            campaign->state = CampaignState::Queued;
        } else if (event == "done") {
            campaign->state = CampaignState::Done;
        } else if (event == "failed") {
            campaign->state = CampaignState::Failed;
            campaign->reason = text_field(doc, "reason", "");
        } else if (event == "cancel") {
            campaign->state = CampaignState::Cancelled;
        }
    };
    record::walkJsonl(text, queueFormat, contents, out, visit);
    return contents;
}

QueueContents
readQueue(const std::string &path)
{
    if (!util::fileExists(path))
        return QueueContents{};
    check::CheckResult findings;
    findings.setArtifact(path);
    QueueContents contents =
        decodeQueue(util::readFileText(path), findings);
    check::throwIfErrors(std::move(findings));
    return contents;
}

QueueJournal::QueueJournal(std::string path) : filePath(std::move(path))
{
    bool fresh = !util::fileExists(filePath);
    if (!fresh) {
        // Same torn-tail discipline as run journals: never append
        // after a fragment a crash left behind.
        QueueContents contents = readQueue(filePath);
        if (contents.truncated || !contents.terminated)
            record::repairJsonlTail(filePath, contents.validBytes,
                                    contents.terminated);
        fresh = contents.validBytes == 0;
    }
    file = std::fopen(filePath.c_str(), "ab");
    if (!file) {
        throw std::runtime_error("cannot open queue journal '" +
                                 filePath + "': " +
                                 std::strerror(errno));
    }
    if (fresh) {
        json::Value header = json::Value::makeObject();
        header.set("schema", queueSchema);
        append(header);
    }
}

QueueJournal::~QueueJournal()
{
    if (file)
        std::fclose(file);
}

void
QueueJournal::append(const json::Value &event)
{
    // The daemon acts on an event only after it is durable; replay
    // after SIGKILL must see everything clients were told about.
    record::appendJsonlLine(file, json::write(event), "queue journal");
}

void
QueueJournal::submit(const std::string &id, const std::string &tenant,
                     const json::Value &spec)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "submit");
    event.set("id", id);
    event.set("tenant", tenant);
    event.set("spec", spec);
    append(event);
}

void
QueueJournal::start(const std::string &id, size_t shard)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "start");
    event.set("id", id);
    event.set("shard", shard);
    append(event);
}

void
QueueJournal::failover(const std::string &id, const std::string &reason)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "failover");
    event.set("id", id);
    event.set("reason", reason);
    append(event);
}

void
QueueJournal::done(const std::string &id)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "done");
    event.set("id", id);
    append(event);
}

void
QueueJournal::failed(const std::string &id, const std::string &reason)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "failed");
    event.set("id", id);
    event.set("reason", reason);
    append(event);
}

void
QueueJournal::cancel(const std::string &id)
{
    json::Value event = json::Value::makeObject();
    event.set("event", "cancel");
    event.set("id", id);
    append(event);
}

void
QueueJournal::drain()
{
    json::Value event = json::Value::makeObject();
    event.set("event", "drain");
    append(event);
}

bool
looksLikeQueueJournal(const std::string &text)
{
    size_t end = text.find('\n');
    std::string first =
        end == std::string::npos ? text : text.substr(0, end);
    if (first.find(queueSchema) == std::string::npos)
        return false;
    try {
        json::Value doc = json::parse(first);
        return doc.isObject() &&
               doc.getString("schema", "") == queueSchema;
    } catch (const std::exception &) {
        return false;
    }
}

void
checkQueueText(const std::string &text, check::CheckResult &out)
{
    decodeQueue(text, out);
}

} // namespace serve
} // namespace sharp
