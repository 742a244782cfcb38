#include "serve/daemon.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "launcher/resume.hh"
#include "record/journal.hh"
#include "record/sysinfo.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "sim/machine.hh"
#include "util/fs.hh"
#include "util/heartbeat.hh"
#include "util/socket.hh"
#include "util/time_utils.hh"

namespace sharp
{
namespace serve
{

namespace
{

/** Set by SIGTERM/SIGINT; the supervisor loop begins a drain. */
volatile std::sig_atomic_t g_drainSignal = 0;

void
drainSignalHandler(int)
{
    g_drainSignal = 1;
}

/** Worker-side interrupt flag (SIGTERM parks at a round boundary). */
std::atomic<bool> g_workerInterrupted{false};

void
workerSignalHandler(int)
{
    // Lock-free atomic stores are signal-safe ([support.signal]p3);
    // the POSIX allowlist the check consults predates std::atomic.
    g_workerInterrupted.store(true); // NOLINT(bugprone-signal-handler)
}

std::string
campaignDir(const std::string &stateDir, const std::string &id)
{
    return stateDir + "/campaigns/" + id;
}

/**
 * The worker body, run in a forked child. Executes (or resumes) one
 * campaign in @p dir, heartbeating once per completed round.
 * Exit codes mirror `sharp run`: 0 done (results written), 3 aborted
 * by the failure policy, 130 interrupted at a round boundary
 * (resumable), 1 internal error.
 */
int
runWorkerProcess(const std::string &dir, const json::Value &specDoc,
                 size_t incarnation, int heartbeatFd)
{
    try {
        std::string journalPath = dir + "/journal.jsonl";
        std::string base = dir + "/result";

        // Failover or restart: the campaign's own journal is the
        // authority. Reopening it in Resume mode repairs a torn tail,
        // so a SIGKILLed predecessor can never poison this incarnation.
        launcher::ResumedCampaign resumed;
        bool resuming = util::fileExists(journalPath);
        if (resuming)
            resumed = launcher::loadResumedCampaign(journalPath);

        launcher::ReproSpec spec = launcher::ReproSpec::fromJson(
            resuming ? resumed.spec : specDoc);
        // The annotated identity of the campaign never changes across
        // failovers; only the live fault schedule sees the epoch.
        launcher::ReproSpec recordSpec = spec;
        spec.fault.incarnation = incarnation;

        launcher::LaunchOptions options = spec.launchOptions();
        std::unique_ptr<record::RunJournal> journal;
        if (resuming && resumed.done) {
            if (util::fileExists(base + ".csv"))
                return 0;
            // Journal complete but the worker died before writing
            // results: replay only, with the journal detached so the
            // done marker is not duplicated.
            options.resume = &resumed.state;
        } else if (resuming) {
            journal = std::make_unique<record::RunJournal>(
                journalPath, record::JournalMode::Resume);
            options.journal = journal.get();
            options.resume = &resumed.state;
        } else {
            journal = std::make_unique<record::RunJournal>(
                journalPath, record::JournalMode::Fresh);
            journal->writeSpec(recordSpec.toJson());
            options.journal = journal.get();
        }
        options.interruptFlag = &g_workerInterrupted;
        options.roundObserver = [heartbeatFd](size_t) {
            util::sendHeartbeat(heartbeatFd);
        };
        util::sendHeartbeat(heartbeatFd);

        launcher::Launcher launcher(launcher::makeBackend(spec),
                                    spec.experiment.makeRule(),
                                    options);
        launcher::LaunchReport result = launcher.launch();
        launcher::annotate(result.log, recordSpec);
        if (spec.backendKind == "sim" ||
            spec.backendKind == "sim-phased" ||
            spec.backendKind == "faas") {
            result.log.setSystemInfo(record::describeSimulatedMachine(
                sim::machineById(spec.machines.front())));
        }

        if (result.aborted)
            return 3;
        if (result.interrupted)
            return 130;
        // Results are written only on clean completion, so the
        // existence of result.csv is itself the done signal.
        result.log.save(base);
        return 0;
    } catch (const std::exception &problem) {
        std::fprintf(stderr, "sharp-worker: %s\n", problem.what());
        return 1;
    }
}

/** One runtime campaign: replayed/journaled state plus live fields. */
struct Entry
{
    Campaign c;
    /** Shard slot currently executing it (-1 when not running). */
    int shard = -1;
    /** A client cancelled it while running; SIGTERM is in flight. */
    bool cancelRequested = false;
};

/** One worker shard slot. */
struct Slot
{
    pid_t pid = -1;
    size_t entry = SIZE_MAX;
    int heartbeatFd = -1;
    uint64_t lastBeatNs = 0;
    /** The watchdog already SIGKILLed it (classifies the reap). */
    bool killedByWatchdog = false;

    bool busy() const { return pid > 0; }
};

/** The whole daemon: queue, shards, clients, and the poll loop. */
class Supervisor
{
  public:
    Supervisor(const ServeOptions &options_in, std::ostream &out_in,
               std::ostream &err_in)
        : options(options_in), out(out_in), err(err_in),
          queuePath(options_in.stateDir + "/queue.jsonl")
    {}

    int run();

  private:
    void replayQueue();
    void writeState(bool drained);
    void schedule();
    void spawn(size_t slotIndex, size_t entryIndex);
    void acceptClients();
    void serviceClients(const std::vector<pollfd> &polled);
    void readHeartbeats();
    void reapWorkers();
    void watchdog();
    void beginDrain(const std::string &why);
    void failover(Entry &entry, const std::string &reason);

    json::Value handleRequest(const std::string &line);
    json::Value handleSubmit(const Request &request);
    json::Value campaignJson(const Entry &entry) const;
    Entry *findEntry(const std::string &id);

    std::string nextId();

    const ServeOptions &options;
    std::ostream &out;
    std::ostream &err;
    std::string queuePath;

    std::unique_ptr<QueueJournal> queue;
    std::vector<Entry> entries;
    std::vector<Slot> slots;
    size_t nextIdNumber = 1;

    int listenFd = -1;
    /** Connected clients: fd -> partial-line carry buffer. */
    std::map<int, std::string> clients;

    bool draining = false;
};

void
Supervisor::replayQueue()
{
    QueueContents replayed = readQueue(queuePath);
    nextIdNumber = replayed.nextIdNumber;
    for (auto &campaign : replayed.campaigns) {
        Entry entry;
        entry.c = std::move(campaign);
        entries.push_back(std::move(entry));
    }
    size_t resumable = 0;
    for (const auto &entry : entries) {
        if (entry.c.state == CampaignState::Queued)
            ++resumable;
    }
    if (!entries.empty()) {
        out << "replayed " << entries.size() << " campaign(s), "
            << resumable << " to run\n";
    }
}

void
Supervisor::writeState(bool drained)
{
    DaemonState state;
    state.socket = options.socketPath;
    state.shards = options.shards;
    state.maxQueuedPerTenant = options.maxQueuedPerTenant;
    state.roundDeadlineSeconds = options.roundDeadlineSeconds;
    state.maxFailovers = options.maxFailovers;
    state.pid = static_cast<long>(::getpid());
    state.drained = drained;
    state.save(options.stateDir + "/daemon.json");
}

std::string
Supervisor::nextId()
{
    char id[16];
    std::snprintf(id, sizeof(id), "c%06zu", nextIdNumber++);
    return id;
}

Entry *
Supervisor::findEntry(const std::string &id)
{
    for (auto &entry : entries) {
        if (entry.c.id == id)
            return &entry;
    }
    return nullptr;
}

void
Supervisor::spawn(size_t slotIndex, size_t entryIndex)
{
    Entry &entry = entries[entryIndex];
    util::HeartbeatChannel heartbeat = util::HeartbeatChannel::create();
    // Journal the start before forking: restart must know a run
    // journal may exist for this campaign.
    queue->start(entry.c.id, slotIndex);

    // A forked child runs the supervisor's handlers until it installs
    // the worker's, and a drain's SIGTERM landing there would be lost
    // (the worker would run on instead of parking). Fork with the stop
    // signals blocked; the child unblocks them after its handlers.
    sigset_t stop_signals, previous;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGINT);
    ::sigprocmask(SIG_BLOCK, &stop_signals, &previous);
    pid_t pid = ::fork();
    if (pid != 0)
        ::sigprocmask(SIG_SETMASK, &previous, nullptr);
    if (pid < 0) {
        err << "fork failed for " << entry.c.id << ": "
            << std::strerror(errno) << "\n";
        heartbeat.closeRead();
        heartbeat.closeWrite();
        return; // entry stays queued; retried next tick
    }
    if (pid == 0) {
        // Worker child. Die with the supervisor: a daemon killed
        // outright must not leave an orphan racing the restarted
        // daemon's replacement worker for the same journal.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() == 1)
            std::_Exit(1);
        struct sigaction action = {};
        action.sa_handler = workerSignalHandler;
        sigaction(SIGTERM, &action, nullptr);
        sigaction(SIGINT, &action, nullptr);
        std::signal(SIGPIPE, SIG_IGN);
        ::sigprocmask(SIG_SETMASK, &previous, nullptr);
        heartbeat.closeRead();
        util::closeQuietly(listenFd);
        for (const auto &[fd, buffer] : clients)
            util::closeQuietly(fd);
        for (const auto &slot : slots)
            util::closeQuietly(slot.heartbeatFd);
        int code = runWorkerProcess(
            campaignDir(options.stateDir, entry.c.id), entry.c.spec,
            entry.c.failovers, heartbeat.writeFd);
        std::_Exit(code);
    }
    heartbeat.closeWrite();
    Slot &slot = slots[slotIndex];
    slot.pid = pid;
    slot.entry = entryIndex;
    slot.heartbeatFd = heartbeat.readFd;
    slot.lastBeatNs = util::monotonicNanos();
    slot.killedByWatchdog = false;
    entry.shard = static_cast<int>(slotIndex);
    entry.c.state = CampaignState::Running;
    entry.c.started = true;
    out << entry.c.id << " started on shard " << slotIndex << " (pid "
        << pid << ", incarnation " << entry.c.failovers << ")"
        << std::endl;
}

void
Supervisor::schedule()
{
    if (draining)
        return;
    for (size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].busy())
            continue;
        for (size_t e = 0; e < entries.size(); ++e) {
            if (entries[e].c.state == CampaignState::Queued) {
                spawn(s, e);
                break;
            }
        }
    }
}

void
Supervisor::failover(Entry &entry, const std::string &reason)
{
    ++entry.c.failovers;
    if (entry.c.failovers > options.maxFailovers) {
        std::string why = "failover limit (" +
                          std::to_string(options.maxFailovers) +
                          ") exceeded; last: " + reason;
        queue->failed(entry.c.id, why);
        entry.c.state = CampaignState::Failed;
        entry.c.reason = why;
        out << entry.c.id << " failed: " << why << std::endl;
        return;
    }
    queue->failover(entry.c.id, reason);
    entry.c.state = CampaignState::Queued;
    out << entry.c.id << " failover #" << entry.c.failovers << ": "
        << reason << std::endl;
}

void
Supervisor::reapWorkers()
{
    for (;;) {
        int status = 0;
        pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        for (auto &slot : slots) {
            if (slot.pid != pid)
                continue;
            Entry &entry = entries[slot.entry];
            util::closeQuietly(slot.heartbeatFd);
            bool watchdogKill = slot.killedByWatchdog;
            slot.pid = -1;
            slot.entry = SIZE_MAX;
            slot.heartbeatFd = -1;
            slot.killedByWatchdog = false;
            entry.shard = -1;

            if (WIFEXITED(status)) {
                int code = WEXITSTATUS(status);
                if (code == 0) {
                    queue->done(entry.c.id);
                    entry.c.state = CampaignState::Done;
                    out << entry.c.id << " done" << std::endl;
                } else if (code == 130) {
                    if (entry.cancelRequested) {
                        queue->cancel(entry.c.id);
                        entry.c.state = CampaignState::Cancelled;
                        out << entry.c.id << " cancelled" << std::endl;
                    } else {
                        // Parked at a round boundary during drain; no
                        // event needed — the journaled start is
                        // non-terminal, so replay re-queues it.
                        entry.c.state = CampaignState::Queued;
                        out << entry.c.id << " parked (resumable)"
                            << std::endl;
                    }
                } else if (code == 3) {
                    std::string why = "aborted by the failure policy";
                    queue->failed(entry.c.id, why);
                    entry.c.state = CampaignState::Failed;
                    entry.c.reason = why;
                    out << entry.c.id << " failed: " << why
                        << std::endl;
                } else {
                    std::string why = "worker error (exit " +
                                      std::to_string(code) + ")";
                    queue->failed(entry.c.id, why);
                    entry.c.state = CampaignState::Failed;
                    entry.c.reason = why;
                    out << entry.c.id << " failed: " << why
                        << std::endl;
                }
            } else if (WIFSIGNALED(status)) {
                int signo = WTERMSIG(status);
                std::string reason =
                    watchdogKill
                        ? "round deadline (" +
                              util::formatDuration(
                                  options.roundDeadlineSeconds) +
                              ") exceeded; watchdog killed the shard"
                        : "shard killed by signal " +
                              std::to_string(signo);
                failover(entry, reason);
            }
            break;
        }
    }
}

void
Supervisor::watchdog()
{
    uint64_t now = util::monotonicNanos();
    for (size_t s = 0; s < slots.size(); ++s) {
        Slot &slot = slots[s];
        if (!slot.busy() || slot.killedByWatchdog)
            continue;
        double silent =
            static_cast<double>(now - slot.lastBeatNs) * 1e-9;
        if (silent <= options.roundDeadlineSeconds)
            continue;
        out << "watchdog: shard " << s << " ("
            << entries[slot.entry].c.id << ") silent for "
            << util::formatDuration(silent) << "; killing pid "
            << slot.pid << std::endl;
        ::kill(slot.pid, SIGKILL);
        slot.killedByWatchdog = true;
    }
}

void
Supervisor::readHeartbeats()
{
    for (auto &slot : slots) {
        if (!slot.busy())
            continue;
        if (util::drainHeartbeats(slot.heartbeatFd) > 0)
            slot.lastBeatNs = util::monotonicNanos();
    }
}

void
Supervisor::beginDrain(const std::string &why)
{
    if (draining)
        return;
    draining = true;
    out << "draining (" << why << "); waiting for "
        << "running shards to park" << std::endl;
    for (const auto &slot : slots) {
        if (slot.busy())
            ::kill(slot.pid, SIGTERM);
    }
}

json::Value
Supervisor::campaignJson(const Entry &entry) const
{
    json::Value doc = json::Value::makeObject();
    doc.set("id", entry.c.id);
    doc.set("tenant", entry.c.tenant);
    doc.set("state", campaignStateName(entry.c.state));
    doc.set("failovers", entry.c.failovers);
    if (!entry.c.reason.empty())
        doc.set("reason", entry.c.reason);
    if (entry.shard >= 0) {
        doc.set("shard", static_cast<size_t>(entry.shard));
        doc.set("pid", static_cast<long>(
                           slots[static_cast<size_t>(entry.shard)].pid));
    }
    return doc;
}

json::Value
Supervisor::handleSubmit(const Request &request)
{
    if (draining) {
        return errorResponse(errors::draining,
                             "daemon is draining and accepts no new "
                             "campaigns; retry after restart",
                             true);
    }
    if (!request.spec.isObject()) {
        return errorResponse(errors::invalidSpec,
                             "submit needs a 'spec' object", false);
    }
    check::CheckResult findings;
    launcher::checkRunSpec(request.spec, findings);
    if (!findings.ok()) {
        std::string first = "spec failed validation";
        for (const auto &finding : findings.diagnostics()) {
            if (finding.severity == check::Severity::Error) {
                first = finding.message;
                break;
            }
        }
        json::Value response =
            errorResponse(errors::invalidSpec, first, false);
        response.set("diagnostics", findings.toJson());
        return response;
    }
    size_t load = 0;
    for (const auto &entry : entries) {
        if (entry.c.tenant == request.tenant &&
            (entry.c.state == CampaignState::Queued ||
             entry.c.state == CampaignState::Running))
            ++load;
    }
    if (load >= options.maxQueuedPerTenant) {
        return errorResponse(
            errors::queueFull,
            "tenant '" + request.tenant + "' already has " +
                std::to_string(load) +
                " campaigns queued or running (cap " +
                std::to_string(options.maxQueuedPerTenant) +
                "); retry later",
            true);
    }

    std::string id = nextId();
    util::makeDirectories(campaignDir(options.stateDir, id));
    queue->submit(id, request.tenant, request.spec);
    Entry entry;
    entry.c.id = id;
    entry.c.tenant = request.tenant;
    entry.c.spec = request.spec;
    entries.push_back(std::move(entry));
    out << id << " submitted by tenant '" << request.tenant << "'"
        << std::endl;

    json::Value response = okResponse();
    response.set("id", id);
    response.set("state", "queued");
    return response;
}

json::Value
Supervisor::handleRequest(const std::string &line)
{
    Request request;
    std::string parseError;
    if (!parseRequest(line, request, parseError))
        return errorResponse(errors::badRequest, parseError, false);

    if (request.op == "submit")
        return handleSubmit(request);

    if (request.op == "ping") {
        json::Value response = okResponse();
        response.set("pid", static_cast<long>(::getpid()));
        response.set("draining", draining);
        return response;
    }
    if (request.op == "drain") {
        beginDrain("client request");
        json::Value response = okResponse();
        response.set("draining", true);
        return response;
    }
    if (request.op == "status") {
        if (!request.id.empty()) {
            Entry *entry = findEntry(request.id);
            if (!entry) {
                return errorResponse(errors::unknownCampaign,
                                     "no campaign '" + request.id +
                                         "'",
                                     false);
            }
            json::Value response = okResponse();
            response.set("campaign", campaignJson(*entry));
            return response;
        }
        json::Value list = json::Value::makeArray();
        for (const auto &entry : entries)
            list.asArray().push_back(campaignJson(entry));
        json::Value response = okResponse();
        response.set("campaigns", std::move(list));
        response.set("draining", draining);
        return response;
    }
    if (request.op == "results") {
        Entry *entry = findEntry(request.id);
        if (!entry) {
            return errorResponse(errors::unknownCampaign,
                                 "no campaign '" + request.id + "'",
                                 false);
        }
        if (entry->c.state != CampaignState::Done) {
            bool pending =
                entry->c.state == CampaignState::Queued ||
                entry->c.state == CampaignState::Running;
            std::string detail =
                "campaign '" + request.id + "' is " +
                campaignStateName(entry->c.state) +
                (entry->c.reason.empty() ? ""
                                         : ": " + entry->c.reason);
            return errorResponse(errors::notDone, detail, pending);
        }
        std::string dir = campaignDir(options.stateDir, request.id);
        json::Value response = okResponse();
        response.set("id", request.id);
        response.set("dir", dir);
        response.set("csv_path", dir + "/result.csv");
        response.set("metadata_path", dir + "/result.md");
        try {
            response.set("csv", util::readFileText(dir + "/result.csv"));
        } catch (const std::exception &) {
            // Path response still stands; the file may have been
            // moved by the operator.
        }
        return response;
    }
    if (request.op == "cancel") {
        Entry *entry = findEntry(request.id);
        if (!entry) {
            return errorResponse(errors::unknownCampaign,
                                 "no campaign '" + request.id + "'",
                                 false);
        }
        if (entry->c.state == CampaignState::Queued) {
            queue->cancel(entry->c.id);
            entry->c.state = CampaignState::Cancelled;
            out << entry->c.id << " cancelled" << std::endl;
        } else if (entry->c.state == CampaignState::Running) {
            entry->cancelRequested = true;
            ::kill(slots[static_cast<size_t>(entry->shard)].pid,
                   SIGTERM);
        }
        json::Value response = okResponse();
        response.set("state", campaignStateName(entry->c.state));
        return response;
    }

    static const std::vector<std::string> ops = {
        "submit", "status", "results", "cancel", "drain", "ping"};
    std::string hint = check::suggestName(request.op, ops);
    return errorResponse(errors::unknownOp,
                         "unknown op '" + request.op + "'" +
                             (hint.empty() ? "" : "; " + hint),
                         false);
}

void
Supervisor::acceptClients()
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags >= 0)
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        clients.emplace(fd, std::string());
    }
}

void
Supervisor::serviceClients(const std::vector<pollfd> &polled)
{
    for (const auto &pfd : polled) {
        auto it = clients.find(pfd.fd);
        if (it == clients.end() ||
            (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        bool drop = false;
        char chunk[4096];
        for (;;) {
            ssize_t n = ::read(pfd.fd, chunk, sizeof(chunk));
            if (n > 0) {
                it->second.append(chunk, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            drop = true; // EOF or hard error
            break;
        }
        std::string line;
        while (util::takeLine(it->second, line)) {
            json::Value response = handleRequest(line);
            if (!util::sendLine(pfd.fd, json::write(response))) {
                drop = true;
                break;
            }
        }
        if (drop) {
            util::closeQuietly(pfd.fd);
            clients.erase(it);
        }
    }
}

int
Supervisor::run()
{
    util::makeDirectories(options.stateDir + "/campaigns");
    replayQueue();
    queue = std::make_unique<QueueJournal>(queuePath);
    writeState(false);
    slots.assign(options.shards, Slot());
    listenFd = util::listenUnixSocket(options.socketPath);
    // acceptClients() drains the backlog in a loop; the listener must
    // be non-blocking so the loop ends with EAGAIN, not a stall.
    int listenFlags = ::fcntl(listenFd, F_GETFL, 0);
    if (listenFlags >= 0)
        ::fcntl(listenFd, F_SETFL, listenFlags | O_NONBLOCK);

    struct sigaction action = {};
    action.sa_handler = drainSignalHandler;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    std::signal(SIGPIPE, SIG_IGN);

    out << "serving on " << options.socketPath << " ("
        << options.shards << " shard" << (options.shards == 1 ? "" : "s")
        << ", state in " << options.stateDir << ")" << std::endl;

    for (;;) {
        if (g_drainSignal)
            beginDrain("signal");
        schedule();

        std::vector<pollfd> fds;
        pollfd listener = {};
        listener.fd = listenFd;
        listener.events = POLLIN;
        fds.push_back(listener);
        for (const auto &[fd, buffer] : clients) {
            pollfd client = {};
            client.fd = fd;
            client.events = POLLIN;
            fds.push_back(client);
        }
        for (const auto &slot : slots) {
            if (!slot.busy())
                continue;
            pollfd heartbeat = {};
            heartbeat.fd = slot.heartbeatFd;
            heartbeat.events = POLLIN;
            fds.push_back(heartbeat);
        }
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()),
                           options.pollMillis);
        if (ready < 0 && errno != EINTR) {
            err << "poll: " << std::strerror(errno) << std::endl;
            return 1;
        }

        if (fds[0].revents & POLLIN)
            acceptClients();
        serviceClients(fds);
        readHeartbeats();
        reapWorkers();
        watchdog();

        if (draining) {
            bool idle = true;
            for (const auto &slot : slots) {
                if (slot.busy())
                    idle = false;
            }
            if (idle) {
                queue->drain();
                writeState(true);
                for (const auto &[fd, buffer] : clients)
                    util::closeQuietly(fd);
                clients.clear();
                util::closeQuietly(listenFd);
                ::unlink(options.socketPath.c_str());
                size_t resumable = 0;
                for (const auto &entry : entries) {
                    if (entry.c.state == CampaignState::Queued)
                        ++resumable;
                }
                out << "drained; " << resumable
                    << " campaign(s) resumable on restart"
                    << std::endl;
                return 130;
            }
        }
    }
}

} // anonymous namespace

int
runDaemon(const ServeOptions &options, std::ostream &out,
          std::ostream &err)
{
    try {
        Supervisor supervisor(options, out, err);
        return supervisor.run();
    } catch (const check::CheckFailure &failure) {
        // A queue journal replay refuses: name every located finding.
        err << "serve: cannot replay the campaign queue\n"
            << failure.result().renderText() << std::flush;
        return 2;
    } catch (const std::exception &problem) {
        err << "serve: " << problem.what() << std::endl;
        return 1;
    }
}

} // namespace serve
} // namespace sharp
