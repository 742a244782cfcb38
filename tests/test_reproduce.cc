/**
 * @file
 * Tests for experiment reproduction from metadata — the §IV-d claim
 * that SHARP can parse its own records to recreate a run. On the
 * simulated testbed this must be bit-exact.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "check/diagnostic.hh"
#include "core/stopping/ks_rule.hh"
#include "json/parser.hh"
#include "json/writer.hh"
#include "launcher/launcher.hh"
#include "launcher/reproduce.hh"
#include "launcher/sim_backend.hh"
#include "record/metadata.hh"
#include "simd/dispatch.hh"

namespace
{

using namespace sharp;
using launcher::ReproSpec;

ReproSpec
hotspotSpec()
{
    ReproSpec spec;
    spec.backendKind = "sim";
    spec.workload = "hotspot";
    spec.machines = {"machine1"};
    spec.day = 2;
    spec.seed = 1234;
    spec.concurrency = 1;
    spec.jobs = 4;
    spec.experiment.ruleName = "ks";
    spec.experiment.ruleParams = {{"threshold", 0.1}, {"min", 20}};
    spec.experiment.options.maxSamples = 1500;
    return spec;
}

TEST(Reproduce, SpecRoundTripsThroughMetadata)
{
    ReproSpec spec = hotspotSpec();
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    ReproSpec again =
        launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_EQ(again.backendKind, spec.backendKind);
    EXPECT_EQ(again.workload, spec.workload);
    EXPECT_EQ(again.machines, spec.machines);
    EXPECT_EQ(again.day, spec.day);
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_EQ(again.concurrency, spec.concurrency);
    EXPECT_EQ(again.jobs, spec.jobs);
    EXPECT_EQ(again.experiment.ruleName, spec.experiment.ruleName);
    EXPECT_EQ(again.experiment.ruleParams, spec.experiment.ruleParams);
    EXPECT_EQ(again.experiment.options.maxSamples,
              spec.experiment.options.maxSamples);
}

TEST(Reproduce, FaultToleranceFieldsRoundTripThroughMetadata)
{
    ReproSpec spec = hotspotSpec();
    spec.maxFailures = 7;
    spec.maxFailureRate = 0.25;
    spec.retry.maxAttempts = 3;
    spec.retry.backoffBaseSeconds = 0.5;
    spec.retry.jitterSeed = 13;
    spec.faultEnabled = true;
    spec.fault.flakyExitProbability = 0.1;
    spec.fault.seed = 21;

    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    ReproSpec again =
        launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_EQ(again.maxFailures, 7u);
    EXPECT_DOUBLE_EQ(again.maxFailureRate, 0.25);
    EXPECT_EQ(again.retry.maxAttempts, 3u);
    EXPECT_DOUBLE_EQ(again.retry.backoffBaseSeconds, 0.5);
    EXPECT_EQ(again.retry.jitterSeed, 13u);
    ASSERT_TRUE(again.faultEnabled);
    EXPECT_DOUBLE_EQ(again.fault.flakyExitProbability, 0.1);
    EXPECT_EQ(again.fault.seed, 21u);
}

TEST(Reproduce, LargeSeedsRoundTripThroughSpecJson)
{
    // The journal spec header round-trips through JSON; seeds above
    // 2^53 must survive exactly or a resumed campaign replays a
    // different jitter/fault schedule than the interrupted one.
    ReproSpec spec = hotspotSpec();
    spec.seed = (1ULL << 53) + 1;
    spec.retry.maxAttempts = 2;
    spec.retry.backoffBaseSeconds = 0.1;
    spec.retry.jitterFraction = 0.5;
    spec.retry.jitterSeed = (1ULL << 60) + 3;
    spec.faultEnabled = true;
    spec.fault.flakyExitProbability = 0.1;
    spec.fault.seed = 0xFFFFFFFFFFFFFFFFULL;

    ReproSpec again = ReproSpec::fromJson(
        sharp::json::parse(sharp::json::write(spec.toJson())));
    EXPECT_EQ(again.seed, (1ULL << 53) + 1);
    EXPECT_EQ(again.retry.jitterSeed, (1ULL << 60) + 3);
    EXPECT_EQ(again.fault.seed, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(Reproduce, FullWidthSeedsRoundTripThroughMetadata)
{
    // repro_seed is an unsigned decimal: seeds >= 2^63 must reproduce.
    ReproSpec spec = hotspotSpec();
    spec.seed = 0xFFFFFFFFFFFFFFFFULL;
    record::RunLog log("hotspot");
    launcher::annotate(log, spec);
    EXPECT_EQ(launcher::reproSpecFromMetadata(log.toMetadata()).seed,
              0xFFFFFFFFFFFFFFFFULL);

    record::MetadataDocument doc = log.toMetadata();
    doc.set("Configuration", "repro_seed", "-1");
    EXPECT_THROW(launcher::reproSpecFromMetadata(doc),
                 std::invalid_argument);
}

TEST(Reproduce, DaysOutsideIntAreRejectedNotNarrowed)
{
    // "day": 2^32 + 1 must not load as day 1 through a narrowing cast.
    json::Value spec = hotspotSpec().toJson();
    spec.set("day", 4294967297.0);
    try {
        ReproSpec::fromJson(spec);
        ADD_FAILURE() << "an out-of-range day must not load";
    } catch (const check::CheckFailure &failure) {
        EXPECT_EQ(failure.result().diagnostics().front().rule,
                  "out-of-range");
    }
    spec.set("day", 2.5);
    EXPECT_THROW(ReproSpec::fromJson(spec), check::CheckFailure);
    spec.set("day", -2147483648.0);
    EXPECT_EQ(ReproSpec::fromJson(spec).day, -2147483647 - 1);

    record::RunLog log("hotspot");
    launcher::annotate(log, hotspotSpec());
    record::MetadataDocument doc = log.toMetadata();
    doc.set("Configuration", "repro_day", "4294967297");
    EXPECT_THROW(launcher::reproSpecFromMetadata(doc),
                 std::invalid_argument);
}

TEST(Reproduce, RetiredStatsCacheFieldsAreIgnored)
{
    // Older builds recorded the statistics engine's retired off switch:
    // "stats_cache": false in run specs and journal headers, and
    // repro_stats_cache: off in metadata. Both still load and replay
    // exactly as if absent; neither is written any more.
    record::RunLog log("hotspot");
    launcher::annotate(log, hotspotSpec());
    record::MetadataDocument doc = log.toMetadata();
    EXPECT_FALSE(doc.get("Configuration", "repro_stats_cache"));
    std::string plain = launcher::reproduce(doc).log.toCsv().toCsv();
    doc.set("Configuration", "repro_stats_cache", "off");
    EXPECT_EQ(launcher::reproduce(doc).log.toCsv().toCsv(), plain);

    json::Value spec = hotspotSpec().toJson();
    EXPECT_EQ(spec.find("stats_cache"), nullptr);
    std::string expected = json::write(ReproSpec::fromJson(spec).toJson());
    spec.set("stats_cache", false);
    EXPECT_EQ(json::write(ReproSpec::fromJson(spec).toJson()), expected);
}

TEST(Reproduce, MetadataWithoutJobsDefaultsToSerial)
{
    // Metadata recorded before the parallel layer lacks repro_jobs;
    // such documents must still reproduce (with jobs = 1).
    record::RunLog log("hotspot");
    launcher::annotate(log, hotspotSpec());
    record::MetadataDocument doc = log.toMetadata();
    doc.remove("Configuration", "repro_jobs");
    ReproSpec spec = launcher::reproSpecFromMetadata(doc);
    EXPECT_EQ(spec.jobs, 1u);
}

TEST(Reproduce, AnnotateRecordsActiveSimdBackend)
{
    // Provenance: the backend the dispatch layer actually selected is
    // recorded alongside the spec, so a replay on different silicon
    // can explain timing (not result) differences.
    record::RunLog log("hotspot");
    launcher::annotate(log, hotspotSpec());
    auto entry =
        log.toMetadata().get("Configuration", "repro_simd_backend");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(*entry, std::string(simd::activeBackendName()));
    // The backend is environment, not spec: it must not leak into the
    // reproduced spec JSON.
    ReproSpec spec = launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_EQ(sharp::json::write(spec.toJson())
                  .find("simd"),
              std::string::npos);
}

TEST(Reproduce, SimulatedReproductionIsBitExact)
{
    ReproSpec spec = hotspotSpec();
    launcher::Launcher original = launcher::makeLauncher(spec);
    launcher::LaunchReport first = original.launch();
    launcher::annotate(first.log, spec);

    // Round-trip the metadata through a real file, as a user would.
    namespace fs = std::filesystem;
    fs::path path = fs::temp_directory_path() / "sharp_repro_meta.md";
    first.log.toMetadata().save(path.string());
    record::MetadataDocument doc =
        record::MetadataDocument::load(path.string());
    fs::remove(path);

    launcher::LaunchReport second = launcher::reproduce(doc);

    ASSERT_EQ(second.series.size(), first.series.size());
    for (size_t i = 0; i < first.series.size(); ++i)
        EXPECT_DOUBLE_EQ(second.series[i], first.series[i]) << i;
    EXPECT_EQ(second.ruleFired, first.ruleFired);
}

TEST(Reproduce, FaasSpecBuildsClusterBackend)
{
    ReproSpec spec;
    spec.backendKind = "faas";
    spec.workload = "bfs-CUDA";
    spec.machines = {"machine1", "machine3"};
    spec.seed = 5;
    spec.concurrency = 2;
    spec.experiment.ruleName = "fixed";
    spec.experiment.ruleParams = {{"count", 30}};
    spec.experiment.options.maxSamples = 200;

    launcher::Launcher launcher = launcher::makeLauncher(spec);
    auto report = launcher.launch();
    EXPECT_TRUE(report.ruleFired);
    EXPECT_GE(report.series.size(), 30u);
    // Both workers served requests.
    bool m1 = false, m3 = false;
    for (const auto &rec : report.log.records()) {
        m1 |= rec.machine == "machine1";
        m3 |= rec.machine == "machine3";
    }
    EXPECT_TRUE(m1);
    EXPECT_TRUE(m3);
}

TEST(Reproduce, PhasedSpecBuildsPhasedBackend)
{
    ReproSpec spec;
    spec.backendKind = "sim-phased";
    spec.workload = "leukocyte";
    spec.machines = {"machine1"};
    spec.experiment.ruleName = "fixed";
    spec.experiment.ruleParams = {{"count", 10}};

    auto backend = launcher::makeBackend(spec);
    auto result = backend->run();
    EXPECT_GT(result.metric("tracking_time"), 0.0);
}

TEST(Reproduce, RejectsIncompleteMetadata)
{
    record::MetadataDocument empty;
    EXPECT_THROW(launcher::reproSpecFromMetadata(empty),
                 std::invalid_argument);

    record::RunLog log("x");
    ReproSpec spec = hotspotSpec();
    spec.backendKind = "quantum"; // unknown kind round-trips but...
    launcher::annotate(log, spec);
    ReproSpec parsed =
        launcher::reproSpecFromMetadata(log.toMetadata());
    EXPECT_THROW(launcher::makeBackend(parsed), std::invalid_argument);
}

TEST(Reproduce, RejectsMalformedNumbers)
{
    record::RunLog log("x");
    launcher::annotate(log, hotspotSpec());
    record::MetadataDocument doc = log.toMetadata();
    doc.set("Configuration", "repro_seed", "not-a-number");
    EXPECT_THROW(launcher::reproSpecFromMetadata(doc),
                 std::invalid_argument);
}

TEST(Reproduce, JsonSpecRoundTrip)
{
    ReproSpec spec = hotspotSpec();
    spec.backendKind = "faas";
    spec.machines = {"machine1", "machine3"};
    spec.concurrency = 2;
    ReproSpec again = ReproSpec::fromJson(spec.toJson());
    EXPECT_EQ(again.backendKind, spec.backendKind);
    EXPECT_EQ(again.workload, spec.workload);
    EXPECT_EQ(again.machines, spec.machines);
    EXPECT_EQ(again.day, spec.day);
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_EQ(again.concurrency, spec.concurrency);
    EXPECT_EQ(again.experiment.ruleName, spec.experiment.ruleName);
    EXPECT_EQ(again.experiment.ruleParams, spec.experiment.ruleParams);
}

TEST(Reproduce, JsonSpecDefaults)
{
    ReproSpec spec = ReproSpec::fromJson(
        sharp::json::parse(R"({"workload": "bfs"})"));
    EXPECT_EQ(spec.backendKind, "sim");
    EXPECT_EQ(spec.machines, std::vector<std::string>{"machine1"});
    EXPECT_EQ(spec.concurrency, 1u);
    EXPECT_EQ(spec.experiment.ruleName, "ks");
}

TEST(Reproduce, JsonSpecRejectsBadValues)
{
    EXPECT_THROW(ReproSpec::fromJson(sharp::json::parse("[1]")),
                 std::invalid_argument);
    EXPECT_THROW(ReproSpec::fromJson(sharp::json::parse(
                     R"({"workload": "bfs", "concurrency": 0})")),
                 std::invalid_argument);
    EXPECT_THROW(ReproSpec::fromJson(sharp::json::parse(
                     R"({"workload": "bfs", "machines": "machine1"})")),
                 std::invalid_argument);
}

TEST(Reproduce, ReproducedLogCanSeedAnotherReproduction)
{
    ReproSpec spec = hotspotSpec();
    spec.experiment.options.maxSamples = 300;
    launcher::Launcher original = launcher::makeLauncher(spec);
    auto first = original.launch();
    launcher::annotate(first.log, spec);

    auto second = launcher::reproduce(first.log.toMetadata());
    auto third = launcher::reproduce(second.log.toMetadata());
    ASSERT_EQ(third.series.size(), second.series.size());
    for (size_t i = 0; i < second.series.size(); ++i)
        EXPECT_DOUBLE_EQ(third.series[i], second.series[i]);
}

} // anonymous namespace
