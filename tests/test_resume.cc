/**
 * @file
 * Tests for the crash-safe journal and `--resume`: journal round
 * trips, torn-line tolerance, and the central invariant — a campaign
 * interrupted after k rounds and resumed produces byte-identical CSV
 * to the same campaign run uninterrupted.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "check/diagnostic.hh"
#include "core/stopping/fixed_rule.hh"
#include "core/stopping/ks_rule.hh"
#include "launcher/fault_backend.hh"
#include "launcher/launcher.hh"
#include "launcher/resume.hh"
#include "launcher/sim_backend.hh"
#include "record/journal.hh"
#include "sim/machine.hh"
#include "sim/rodinia.hh"
#include "util/message.hh"

namespace
{

namespace fs = std::filesystem;
using namespace sharp::launcher;
using namespace sharp::record;
using sharp::core::FixedCountRule;
using sharp::core::KsHalvesRule;

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

std::shared_ptr<SimBackend>
bfsBackend(uint64_t seed = 1)
{
    return std::make_shared<SimBackend>(
        sharp::sim::rodiniaByName("bfs"),
        sharp::sim::machineById("machine1"), 0, seed);
}

RunRecord
sampleRecord(size_t run, size_t instance, size_t attempt,
             FailureKind failure)
{
    RunRecord rec;
    rec.run = run;
    rec.instance = instance;
    rec.attempt = attempt;
    rec.workload = "bfs";
    rec.backend = "sim";
    rec.machine = "machine1";
    rec.day = 2;
    rec.warmup = run == 0;
    rec.failure = failure;
    if (failure == FailureKind::None)
        rec.metrics["execution_time"] = 1.25 + 0.125 * run;
    return rec;
}

TEST(Journal, RecordJsonRoundTripsEveryKind)
{
    size_t run = 0;
    for (FailureKind kind : allFailureKinds()) {
        RunRecord rec = sampleRecord(run++, 1, 2, kind);
        sharp::check::CheckResult findings;
        RunRecord back = recordFromJson(recordToJson(rec), findings);
        EXPECT_TRUE(findings.clean());
        EXPECT_EQ(back.run, rec.run);
        EXPECT_EQ(back.instance, rec.instance);
        EXPECT_EQ(back.attempt, rec.attempt);
        EXPECT_EQ(back.workload, rec.workload);
        EXPECT_EQ(back.machine, rec.machine);
        EXPECT_EQ(back.day, rec.day);
        EXPECT_EQ(back.warmup, rec.warmup);
        EXPECT_EQ(back.failure, rec.failure);
        EXPECT_EQ(back.metrics, rec.metrics);
    }
}

TEST(Journal, WriteThenReadBack)
{
    std::string path = tempPath("sharp_journal_roundtrip.jsonl");
    fs::remove(path);
    {
        RunJournal journal(path);
        sharp::json::Value spec = sharp::json::Value::makeObject();
        spec.set("backend", "sim");
        journal.writeSpec(spec);
        journal.appendRound({sampleRecord(0, 0, 0, FailureKind::None)});
        journal.appendRound(
            {sampleRecord(1, 0, 0, FailureKind::Timeout),
             sampleRecord(1, 0, 1, FailureKind::None)});
        journal.markDone();
    }
    JournalContents contents = readJournal(path);
    EXPECT_EQ(contents.spec.getString("backend", ""), "sim");
    EXPECT_EQ(contents.records.size(), 3u);
    EXPECT_EQ(contents.rounds, 2u);
    EXPECT_EQ(contents.warmupRounds, 1u);
    EXPECT_TRUE(contents.done);
    EXPECT_FALSE(contents.truncated);
    fs::remove(path);
}

TEST(Journal, TornTrailingLineIsDiscarded)
{
    std::string path = tempPath("sharp_journal_torn.jsonl");
    fs::remove(path);
    {
        RunJournal journal(path);
        sharp::json::Value spec = sharp::json::Value::makeObject();
        journal.writeSpec(spec);
        journal.appendRound({sampleRecord(0, 0, 0, FailureKind::None)});
    }
    // Simulate a crash mid-append: an unterminated, truncated line.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"type\":\"round\",\"run\":1,\"rec";
    }
    JournalContents contents = readJournal(path);
    EXPECT_TRUE(contents.truncated);
    EXPECT_EQ(contents.rounds, 1u);
    EXPECT_FALSE(contents.done);

    // A malformed line in the middle is a hard error, located.
    {
        std::ofstream more(path, std::ios::app);
        more << "\n{\"type\":\"done\"}\n";
    }
    try {
        readJournal(path);
        ADD_FAILURE() << "a malformed middle line must not read";
    } catch (const sharp::check::CheckFailure &failure) {
        const auto &found = failure.result().diagnostics();
        ASSERT_EQ(found.size(), 1u);
        EXPECT_EQ(found[0].rule, "journal-syntax");
        EXPECT_EQ(found[0].line, 3u);
        EXPECT_EQ(found[0].artifact, path);
    }
    fs::remove(path);
}

/**
 * Rerunning a fresh campaign with the same --journal path must not
 * append after the previous campaign's rounds and 'done' marker —
 * that would make a later --resume refuse ("already completed") or
 * replay rounds from both campaigns.
 */
TEST(Journal, FreshOpenTruncatesLeftoverCampaign)
{
    std::string path = tempPath("sharp_journal_leftover.jsonl");
    fs::remove(path);
    {
        RunJournal journal(path);
        sharp::json::Value spec = sharp::json::Value::makeObject();
        spec.set("backend", "old");
        journal.writeSpec(spec);
        journal.appendRound({sampleRecord(0, 0, 0, FailureKind::None)});
        journal.markDone();
    }
    {
        RunJournal journal(path);
        sharp::json::Value spec = sharp::json::Value::makeObject();
        spec.set("backend", "new");
        journal.writeSpec(spec);
    }
    JournalContents contents = readJournal(path);
    EXPECT_EQ(contents.spec.getString("backend", ""), "new");
    EXPECT_EQ(contents.rounds, 0u);
    EXPECT_TRUE(contents.records.empty());
    EXPECT_FALSE(contents.done);
    fs::remove(path);
}

/**
 * Resuming after a crash mid-append must trim the torn fragment
 * before new rounds are appended; otherwise the first append fuses
 * onto the fragment and the journal becomes unresumable.
 */
TEST(Resume, LoadTrimsTornTrailingLineBeforeAppend)
{
    std::string path = tempPath("sharp_journal_repair.jsonl");
    fs::remove(path);
    sharp::json::Value spec = sharp::json::Value::makeObject();
    spec.set("backend", "sim");
    {
        RunJournal journal(path);
        journal.writeSpec(spec);
        journal.appendRound({sampleRecord(0, 0, 0, FailureKind::None)});
    }
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"type\":\"round\",\"run\":1,\"rec";
    }
    ResumedCampaign campaign = loadResumedCampaign(path);
    EXPECT_TRUE(campaign.truncated);
    EXPECT_EQ(campaign.state.rounds, 1u);
    {
        RunJournal journal(path, JournalMode::Resume);
        journal.appendRound({sampleRecord(1, 0, 0, FailureKind::None)});
        journal.markDone();
    }
    // The appended round landed on a clean line boundary: the journal
    // parses whole and a second load sees both rounds.
    JournalContents contents = readJournal(path);
    EXPECT_FALSE(contents.truncated);
    EXPECT_EQ(contents.rounds, 2u);
    EXPECT_TRUE(contents.done);
    fs::remove(path);
}

/**
 * A crash can also land between a line's payload and its newline: the
 * final line parses but is unterminated. Loading must supply the
 * newline so appends start a fresh line instead of fusing.
 */
TEST(Resume, LoadTerminatesUnterminatedFinalLine)
{
    std::string path = tempPath("sharp_journal_noterm.jsonl");
    fs::remove(path);
    {
        std::ofstream raw(path);
        raw << "{\"type\":\"spec\",\"spec\":{\"backend\":\"sim\"}}";
    }
    ResumedCampaign campaign = loadResumedCampaign(path);
    EXPECT_FALSE(campaign.truncated);
    {
        RunJournal journal(path, JournalMode::Resume);
        journal.appendRound({sampleRecord(0, 0, 0, FailureKind::None)});
    }
    JournalContents contents = readJournal(path);
    EXPECT_FALSE(contents.spec.isNull());
    EXPECT_EQ(contents.rounds, 1u);
    fs::remove(path);
}

TEST(Resume, LoadRejectsSpeclessJournal)
{
    std::string path = tempPath("sharp_journal_nospec.jsonl");
    fs::remove(path);
    {
        RunJournal journal(path);
        journal.appendRound({sampleRecord(0, 0, 0, FailureKind::None)});
    }
    EXPECT_THROW(loadResumedCampaign(path), std::runtime_error);
    fs::remove(path);
}

/**
 * Wraps a backend and trips an interrupt flag after a fixed number of
 * invocations, so the launcher stops at the next round boundary — the
 * in-process stand-in for SIGINT.
 */
class TrippingBackend : public Backend
{
  public:
    TrippingBackend(std::shared_ptr<Backend> inner_in, size_t after_in,
                    std::atomic<bool> *flag_in)
        : inner(std::move(inner_in)), after(after_in), flag(flag_in)
    {
    }

    std::string name() const override { return inner->name(); }
    std::string workloadName() const override
    {
        return inner->workloadName();
    }
    void setDay(int day) override { inner->setDay(day); }
    bool deterministic() const override
    {
        return inner->deterministic();
    }

    RunResult
    run() override
    {
        maybeTrip();
        return inner->run();
    }

    std::vector<RunResult>
    runBatch(size_t n) override
    {
        maybeTrip();
        return inner->runBatch(n);
    }

  private:
    void
    maybeTrip()
    {
        if (++calls >= after)
            flag->store(true);
    }

    std::shared_ptr<Backend> inner;
    size_t after;
    std::atomic<bool> *flag;
    size_t calls = 0;
};

LaunchOptions
campaignOptions()
{
    LaunchOptions opts;
    opts.warmupRounds = 2;
    opts.concurrency = 2;
    opts.maxSamples = 400;
    return opts;
}

/** The invariant behind `sharp run --resume`. */
TEST(Resume, KillThenResumeMatchesUninterruptedRun)
{
    std::string baseline_journal = tempPath("sharp_resume_base.jsonl");
    std::string interrupted_journal =
        tempPath("sharp_resume_cut.jsonl");
    fs::remove(baseline_journal);
    fs::remove(interrupted_journal);
    sharp::json::Value spec = sharp::json::Value::makeObject();
    spec.set("backend", "sim");

    // Uninterrupted reference run.
    std::string baseline_csv;
    {
        RunJournal journal(baseline_journal);
        journal.writeSpec(spec);
        LaunchOptions opts = campaignOptions();
        opts.journal = &journal;
        Launcher launcher(bfsBackend(42),
                          std::make_unique<KsHalvesRule>(0.08, 30),
                          opts);
        LaunchReport report = launcher.launch();
        EXPECT_TRUE(report.ruleFired);
        baseline_csv = report.log.toCsv().toCsv();
    }
    EXPECT_TRUE(readJournal(baseline_journal).done);

    // Same campaign, interrupted mid-flight.
    std::atomic<bool> flag{false};
    {
        RunJournal journal(interrupted_journal);
        journal.writeSpec(spec);
        LaunchOptions opts = campaignOptions();
        opts.journal = &journal;
        opts.interruptFlag = &flag;
        Launcher launcher(
            std::make_shared<TrippingBackend>(bfsBackend(42), 9, &flag),
            std::make_unique<KsHalvesRule>(0.08, 30), opts);
        LaunchReport report = launcher.launch();
        ASSERT_TRUE(report.interrupted);
        EXPECT_FALSE(readJournal(interrupted_journal).done);
    }

    // Resume from the interrupted journal with a fresh backend.
    {
        ResumedCampaign campaign =
            loadResumedCampaign(interrupted_journal);
        EXPECT_FALSE(campaign.done);
        EXPECT_GT(campaign.state.rounds, 0u);
        RunJournal journal(interrupted_journal, JournalMode::Resume);
        LaunchOptions opts = campaignOptions();
        opts.journal = &journal;
        opts.resume = &campaign.state;
        Launcher launcher(bfsBackend(42),
                          std::make_unique<KsHalvesRule>(0.08, 30),
                          opts);
        LaunchReport report = launcher.launch();
        EXPECT_TRUE(report.ruleFired);
        EXPECT_FALSE(report.interrupted);
        EXPECT_EQ(report.log.toCsv().toCsv(), baseline_csv);
    }
    // After the resumed finish, the journal holds the whole campaign.
    JournalContents final_contents = readJournal(interrupted_journal);
    EXPECT_TRUE(final_contents.done);
    EXPECT_EQ(final_contents.records.size(),
              readJournal(baseline_journal).records.size());
    fs::remove(baseline_journal);
    fs::remove(interrupted_journal);
}

/** Resume replays retries too, keeping the fault schedule aligned. */
TEST(Resume, ResumeWithFaultInjectionAndRetries)
{
    std::string baseline_journal =
        tempPath("sharp_resume_fault_base.jsonl");
    std::string interrupted_journal =
        tempPath("sharp_resume_fault_cut.jsonl");
    fs::remove(baseline_journal);
    fs::remove(interrupted_journal);
    std::string captured;
    sharp::util::setMessageCapture(&captured);

    FaultSpec fault;
    fault.flakyExitProbability = 0.25;
    fault.seed = 7;
    sharp::json::Value spec = sharp::json::Value::makeObject();

    auto makeOptions = [] {
        LaunchOptions opts;
        opts.maxSamples = 500;
        opts.maxFailures = 1000;
        opts.retry.maxAttempts = 3;
        return opts;
    };
    auto makeFaulty = [&] {
        return std::make_shared<FaultInjectingBackend>(bfsBackend(9),
                                                       fault);
    };

    std::string baseline_csv;
    {
        RunJournal journal(baseline_journal);
        journal.writeSpec(spec);
        LaunchOptions opts = makeOptions();
        opts.journal = &journal;
        Launcher launcher(makeFaulty(),
                          std::make_unique<FixedCountRule>(60), opts);
        baseline_csv = launcher.launch().log.toCsv().toCsv();
    }

    std::atomic<bool> flag{false};
    {
        RunJournal journal(interrupted_journal);
        journal.writeSpec(spec);
        LaunchOptions opts = makeOptions();
        opts.journal = &journal;
        opts.interruptFlag = &flag;
        Launcher launcher(std::make_shared<TrippingBackend>(
                              makeFaulty(), 25, &flag),
                          std::make_unique<FixedCountRule>(60), opts);
        ASSERT_TRUE(launcher.launch().interrupted);
    }
    {
        ResumedCampaign campaign =
            loadResumedCampaign(interrupted_journal);
        RunJournal journal(interrupted_journal, JournalMode::Resume);
        LaunchOptions opts = makeOptions();
        opts.journal = &journal;
        opts.resume = &campaign.state;
        Launcher launcher(makeFaulty(),
                          std::make_unique<FixedCountRule>(60), opts);
        LaunchReport report = launcher.launch();
        EXPECT_EQ(report.log.toCsv().toCsv(), baseline_csv);
    }
    sharp::util::setMessageCapture(nullptr);
    fs::remove(baseline_journal);
    fs::remove(interrupted_journal);
}

TEST(Resume, ResumingCompletedJournalEndsImmediately)
{
    std::string path = tempPath("sharp_resume_done.jsonl");
    fs::remove(path);
    sharp::json::Value spec = sharp::json::Value::makeObject();
    {
        RunJournal journal(path);
        journal.writeSpec(spec);
        LaunchOptions opts;
        opts.journal = &journal;
        Launcher launcher(bfsBackend(4),
                          std::make_unique<FixedCountRule>(15), opts);
        launcher.launch();
    }
    ResumedCampaign campaign = loadResumedCampaign(path);
    EXPECT_TRUE(campaign.done);

    // Even if relaunched, the replayed rule decision ends the launch
    // without new rounds.
    LaunchOptions opts;
    opts.resume = &campaign.state;
    Launcher launcher(bfsBackend(4),
                      std::make_unique<FixedCountRule>(15), opts);
    LaunchReport report = launcher.launch();
    EXPECT_TRUE(report.ruleFired);
    EXPECT_EQ(report.series.size(), 15u);
    EXPECT_EQ(report.log.size(), 15u);
    fs::remove(path);
}

} // anonymous namespace
