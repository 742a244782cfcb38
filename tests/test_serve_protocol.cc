/**
 * @file
 * Unit tests for the `sharp serve` building blocks that need no
 * daemon: the wire protocol (request parsing, typed errors, the
 * retryable flag), the fsync'd queue journal and its replay fold,
 * torn-tail repair on open, the daemon state file round trip, and
 * the socket/heartbeat plumbing the supervisor is built from.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "check/diagnostic.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/state.hh"
#include "util/heartbeat.hh"
#include "util/socket.hh"

namespace
{

namespace fs = std::filesystem;
using namespace sharp;
using namespace sharp::serve;

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() /
            ("sharp_serve_" + name + "_" + std::to_string(::getpid())))
        .string();
}

/** A minimal run spec that passes `sharp check`. */
json::Value
minimalSpec()
{
    return json::parse(R"({
        "backend": "sim", "workload": "bfs",
        "machines": ["machine1"], "seed": 7,
        "experiment": {"rule": "fixed", "params": {"count": 5}}
    })");
}

// ---- Protocol -------------------------------------------------------

TEST(ServeProtocol, ParsesAFullSubmitRequest)
{
    Request request;
    std::string error;
    ASSERT_TRUE(parseRequest(
        R"({"op":"submit","tenant":"ci","spec":{"backend":"sim"}})",
        request, error))
        << error;
    EXPECT_EQ(request.op, "submit");
    EXPECT_EQ(request.tenant, "ci");
    ASSERT_TRUE(request.spec.isObject());
    EXPECT_EQ(request.spec.getString("backend", ""), "sim");
}

TEST(ServeProtocol, DefaultsTenantAndRejectsGarbage)
{
    Request request;
    std::string error;
    ASSERT_TRUE(parseRequest(R"({"op":"ping"})", request, error));
    EXPECT_EQ(request.tenant, "default");

    EXPECT_FALSE(parseRequest("not json", request, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseRequest(R"(["op"])", request, error));
    EXPECT_FALSE(parseRequest(R"({"tenant":"x"})", request, error));
}

TEST(ServeProtocol, ErrorResponsesCarryTheRetryableContract)
{
    json::Value full =
        errorResponse(errors::queueFull, "tenant over cap", true);
    EXPECT_FALSE(full.getBool("ok", true));
    EXPECT_TRUE(isRetryable(full));
    const json::Value *error = full.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->getString("code", ""), "queue-full");

    json::Value bad =
        errorResponse(errors::invalidSpec, "no backend", false);
    EXPECT_FALSE(isRetryable(bad));
    EXPECT_TRUE(okResponse().getBool("ok", false));
    EXPECT_FALSE(isRetryable(okResponse()));
    EXPECT_FALSE(isRetryable(json::Value()));
}

// ---- Queue journal --------------------------------------------------

TEST(ServeQueue, ReplayFoldsEventsToCampaignState)
{
    std::string path = tempPath("replay");
    fs::remove(path);
    {
        QueueJournal journal(path);
        journal.submit("c000001", "default", minimalSpec());
        journal.submit("c000002", "ci", minimalSpec());
        journal.start("c000001", 0);
        journal.done("c000001");
        journal.start("c000002", 1);
        journal.failover("c000002", "shard killed by signal 9");
    }

    QueueContents queue = readQueue(path);
    EXPECT_FALSE(queue.truncated);
    ASSERT_EQ(queue.campaigns.size(), 2u);

    EXPECT_EQ(queue.campaigns[0].id, "c000001");
    EXPECT_EQ(queue.campaigns[0].state, CampaignState::Done);
    EXPECT_TRUE(queue.campaigns[0].started);

    // "Running" is not a fact a dead daemon can assert: a start (or
    // failover) whose campaign never reached a terminal state folds
    // back to Queued, ready for pickup on restart.
    EXPECT_EQ(queue.campaigns[1].tenant, "ci");
    EXPECT_EQ(queue.campaigns[1].state, CampaignState::Queued);
    EXPECT_EQ(queue.campaigns[1].failovers, 1u);
    EXPECT_TRUE(queue.campaigns[1].started);

    EXPECT_EQ(queue.nextIdNumber, 3u);
    fs::remove(path);
}

TEST(ServeQueue, MissingFileFoldsToAnEmptyQueue)
{
    QueueContents queue = readQueue(tempPath("missing"));
    EXPECT_TRUE(queue.campaigns.empty());
    EXPECT_EQ(queue.nextIdNumber, 1u);
}

TEST(ServeQueue, TornTailIsDiscardedOnReadAndRepairedOnOpen)
{
    std::string path = tempPath("torn");
    fs::remove(path);
    {
        QueueJournal journal(path);
        journal.submit("c000001", "default", minimalSpec());
    }
    // Crash mid-append: a torn half-line with no newline.
    {
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "{\"event\":\"done\",\"id\":\"c0";
    }

    QueueContents queue = readQueue(path);
    EXPECT_TRUE(queue.truncated);
    ASSERT_EQ(queue.campaigns.size(), 1u);
    EXPECT_EQ(queue.campaigns[0].state, CampaignState::Queued);

    // Re-opening the journal repairs the tail before appending, so
    // the next event lands on a clean line.
    {
        QueueJournal journal(path);
        journal.done("c000001");
    }
    QueueContents repaired = readQueue(path);
    EXPECT_FALSE(repaired.truncated);
    ASSERT_EQ(repaired.campaigns.size(), 1u);
    EXPECT_EQ(repaired.campaigns[0].state, CampaignState::Done);
    fs::remove(path);
}

TEST(ServeQueue, CheckerFlagsDefectsWithLocations)
{
    check::CheckResult result;
    checkQueueText("{\"schema\":\"sharp-queue-v1\"}\n"
                   "{\"event\":\"start\",\"id\":\"c000001\"}\n",
                   result);
    ASSERT_EQ(result.errorCount(), 1u);
    const auto &order = result.diagnostics().front();
    EXPECT_EQ(order.rule, "queue-order");
    EXPECT_EQ(order.line, 2u);
    EXPECT_NE(order.message.find("before its submit"),
              std::string::npos);
}

TEST(ServeQueue, ReplayRefusesWhatCheckRejects)
{
    // Folding a stray start after done back to queued would run a
    // finished campaign again, and a submit without a spec would
    // replay as an empty campaign: both refuse to read.
    for (const std::string &event :
         {std::string(R"({"event":"start","id":"c000001","shard":1})"),
          std::string(R"({"event":"submit","id":"c000002"})")}) {
        std::string dir = tempPath("refuse_state");
        fs::remove_all(dir);
        fs::create_directories(dir);
        {
            QueueJournal journal(dir + "/queue.jsonl");
            journal.submit("c000001", "default", minimalSpec());
            journal.start("c000001", 0);
            journal.done("c000001");
        }
        std::ofstream(dir + "/queue.jsonl", std::ios::app) << event << "\n";
        EXPECT_THROW(readQueue(dir + "/queue.jsonl"), check::CheckFailure);

        // The daemon refuses to start on it: exit 2, located.
        ServeOptions options;
        options.socketPath = dir + "/sock";
        options.stateDir = dir;
        std::ostringstream out, err;
        EXPECT_EQ(runDaemon(options, out, err), 2);
        EXPECT_NE(err.str().find(dir + "/queue.jsonl:5:1: error:"),
                  std::string::npos)
            << err.str();
        fs::remove_all(dir);
    }
}

// ---- Daemon state ---------------------------------------------------

TEST(ServeState, RoundTripsThroughJsonAndDisk)
{
    DaemonState state;
    state.socket = "/tmp/sharp.sock";
    state.shards = 4;
    state.maxQueuedPerTenant = 2;
    state.roundDeadlineSeconds = 0.25;
    state.maxFailovers = 5;
    state.pid = 1234;
    state.drained = true;

    DaemonState back = DaemonState::fromJson(state.toJson());
    EXPECT_EQ(back.socket, state.socket);
    EXPECT_EQ(back.shards, 4u);
    EXPECT_EQ(back.maxQueuedPerTenant, 2u);
    EXPECT_DOUBLE_EQ(back.roundDeadlineSeconds, 0.25);
    EXPECT_EQ(back.maxFailovers, 5u);
    EXPECT_EQ(back.pid, 1234);
    EXPECT_TRUE(back.drained);

    std::string path = tempPath("state.json");
    state.save(path);
    DaemonState loaded = DaemonState::fromJson(json::parseFile(path));
    EXPECT_EQ(loaded.socket, state.socket);
    EXPECT_TRUE(loaded.drained);
    fs::remove(path);
}

TEST(ServeState, CheckerRejectsBadShapes)
{
    check::CheckResult zero_shards;
    json::Value doc = DaemonState().toJson();
    doc.set("shards", 0);
    checkDaemonState(doc, zero_shards);
    EXPECT_GT(zero_shards.errorCount(), 0u);

    check::CheckResult no_schema;
    checkDaemonState(json::parse("{}"), no_schema);
    EXPECT_GT(no_schema.errorCount(), 0u);
}

// ---- Plumbing -------------------------------------------------------

TEST(ServePlumbing, SocketMovesWholeLinesBothWays)
{
    std::string path = tempPath("sock");
    int listener = util::listenUnixSocket(path);
    ASSERT_GE(listener, 0);

    int client = util::connectUnixSocket(path);
    int server = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(server, 0);

    ASSERT_TRUE(util::sendLine(client, R"({"op":"ping"})"));
    std::string buffer, line;
    ASSERT_TRUE(util::recvLine(server, buffer, line));
    EXPECT_EQ(line, R"({"op":"ping"})");

    ASSERT_TRUE(util::sendLine(server, "pong"));
    std::string client_buffer;
    ASSERT_TRUE(util::recvLine(client, client_buffer, line));
    EXPECT_EQ(line, "pong");

    util::closeQuietly(client);
    util::closeQuietly(server);
    util::closeQuietly(listener);
    fs::remove(path);
}

TEST(ServePlumbing, HeartbeatsAccumulateAndDrain)
{
    auto channel = util::HeartbeatChannel::create();
    EXPECT_EQ(util::drainHeartbeats(channel.readFd), 0u);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(util::sendHeartbeat(channel.writeFd));
    EXPECT_EQ(util::drainHeartbeats(channel.readFd), 3u);
    EXPECT_EQ(util::drainHeartbeats(channel.readFd), 0u);
    channel.closeRead();
    channel.closeWrite();
}

} // anonymous namespace
