/**
 * @file
 * Tests for `sharp-lint`: the token scanner, each rule's name,
 * severity, and file:line:column (pinned against the seeded defect
 * fixtures), suppression comments, the path allowlists, the 0/1/2
 * exit contract — and the self-host gate: `src/` must lint clean.
 */

#include <gtest/gtest.h>

#include "check/diagnostic.hh"
#include "lint/lexer.hh"
#include "lint/linter.hh"

namespace
{

using namespace sharp;
using check::CheckResult;
using check::Severity;
using lint::Token;
using lint::TokenKind;

std::string
fixture(const std::string &name)
{
    return std::string(SHARP_SOURCE_DIR) + "/tests/fixtures/lint/" +
           name;
}

/** First diagnostic carrying @p rule; nullptr when absent. */
const check::Diagnostic *
findRule(const CheckResult &result, const std::string &rule)
{
    for (const auto &diagnostic : result.diagnostics()) {
        if (diagnostic.rule == rule)
            return &diagnostic;
    }
    return nullptr;
}

CheckResult
lintFixture(const std::string &name)
{
    CheckResult result;
    lint::lintSourceFile(fixture(name), result);
    return result;
}

TEST(LintLexer, TracksLineAndColumnOneBased)
{
    auto tokens = lint::lexCpp("int a;\n  foo();\n");
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_EQ(tokens[0].text, "int");
    EXPECT_EQ(tokens[0].line, 1u);
    EXPECT_EQ(tokens[0].column, 1u);
    EXPECT_EQ(tokens[1].text, "a");
    EXPECT_EQ(tokens[1].column, 5u);
    EXPECT_EQ(tokens[3].text, "foo");
    EXPECT_EQ(tokens[3].line, 2u);
    EXPECT_EQ(tokens[3].column, 3u);
}

TEST(LintLexer, CommentsAreTokensAndStringsAreOpaque)
{
    auto tokens =
        lint::lexCpp("// fsync in a comment\nf(\"fsync inside\");\n");
    ASSERT_GE(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Comment);
    EXPECT_EQ(tokens[0].text, "// fsync in a comment");
    // The identifier "fsync" never appears as an Identifier token.
    for (const Token &token : tokens) {
        if (token.kind == TokenKind::Identifier) {
            EXPECT_NE(token.text, "fsync");
        }
    }
}

TEST(LintLexer, RawStringsAndFusedPunctuators)
{
    auto tokens = lint::lexCpp("x = R\"(a \" b)\"; p->q; a::b;\n");
    ASSERT_FALSE(tokens.empty());
    bool saw_raw = false, saw_arrow = false, saw_scope = false;
    for (const Token &token : tokens) {
        if (token.kind == TokenKind::String &&
            token.text.find("a \" b") != std::string::npos)
            saw_raw = true;
        if (token.kind == TokenKind::Punct && token.text == "->")
            saw_arrow = true;
        if (token.kind == TokenKind::Punct && token.text == "::")
            saw_scope = true;
    }
    EXPECT_TRUE(saw_raw);
    EXPECT_TRUE(saw_arrow);
    EXPECT_TRUE(saw_scope);
}

TEST(LintLexer, SurvivesMalformedInput)
{
    // Unterminated constructs must not throw or hang.
    EXPECT_NO_THROW(lint::lexCpp("\"never closed"));
    EXPECT_NO_THROW(lint::lexCpp("/* never closed"));
    EXPECT_NO_THROW(lint::lexCpp("R\"(never closed"));
    EXPECT_NO_THROW(lint::lexCpp("'x"));
}

TEST(LintRules, WallClockFixturePinsNameSeverityAndLocation)
{
    CheckResult result = lintFixture("wall_clock.cc");
    EXPECT_EQ(result.errorCount(), 3u);
    const auto *finding = findRule(result, "no-wall-clock");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, Severity::Error);
    EXPECT_EQ(finding->line, 9u);
    EXPECT_EQ(finding->column, 10u);
    EXPECT_NE(finding->message.find("random_device"),
              std::string::npos);
    // time(nullptr) and rand() are the other two pinned findings.
    EXPECT_EQ(result.diagnostics()[1].line, 16u);
    EXPECT_EQ(result.diagnostics()[1].column, 12u);
    EXPECT_EQ(result.diagnostics()[2].line, 22u);
    EXPECT_EQ(result.diagnostics()[2].column, 12u);
}

TEST(LintRules, JournalDisciplineFixture)
{
    CheckResult result = lintFixture("journal_discipline.cc");
    const auto *finding =
        findRule(result, "journal-append-discipline");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, Severity::Error);
    EXPECT_EQ(finding->line, 11u);
    EXPECT_EQ(finding->column, 9u);
}

TEST(LintRules, SeedWidthFixtureCatchesReadAndWrite)
{
    CheckResult result = lintFixture("seed_width.cc");
    EXPECT_EQ(result.errorCount(), 2u);
    const auto *finding = findRule(result, "seed-width");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, Severity::Error);
    EXPECT_EQ(finding->line, 11u);
    EXPECT_EQ(finding->column, 13u);
    EXPECT_EQ(result.diagnostics()[1].line, 17u);
    EXPECT_EQ(result.diagnostics()[1].column, 9u);
}

TEST(LintRules, EintrGuardFixture)
{
    CheckResult result = lintFixture("eintr.cc");
    const auto *finding = findRule(result, "eintr-guard");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, Severity::Error);
    EXPECT_EQ(finding->line, 10u);
    EXPECT_EQ(finding->column, 22u);
}

TEST(LintRules, EintrHandledLoopIsClean)
{
    CheckResult result;
    lint::lintSourceText("loop.cc",
                         "long f(int fd, char *b, unsigned long n) {\n"
                         "  while (n > 0) {\n"
                         "    long got = ::read(fd, b, n);\n"
                         "    if (got < 0 && errno == EINTR)\n"
                         "      continue;\n"
                         "    if (got <= 0) break;\n"
                         "    n -= (unsigned long)got;\n"
                         "  }\n"
                         "  return 0;\n"
                         "}\n",
                         result);
    EXPECT_TRUE(result.clean()) << result.renderText();
}

TEST(LintRules, UncheckedSyscallFixtureIsWarningSeverity)
{
    CheckResult result = lintFixture("unchecked.cc");
    EXPECT_EQ(result.errorCount(), 0u);
    const auto *finding = findRule(result, "unchecked-syscall");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, Severity::Warning);
    EXPECT_EQ(finding->line, 8u);
    EXPECT_EQ(finding->column, 5u);
    EXPECT_EQ(result.exitCode(), 1);
}

TEST(LintRules, ConsumedSyscallResultIsClean)
{
    CheckResult result;
    lint::lintSourceText("consumed.cc",
                         "void f(int fd) {\n"
                         "  if (ftruncate(fd, 0) != 0)\n"
                         "    return;\n"
                         "  long n = ::write(fd, \"x\", 1);\n"
                         "  (void)n;\n"
                         "}\n",
                         result);
    EXPECT_TRUE(result.clean()) << result.renderText();
}

TEST(LintRules, SuppressionCommentsSilenceFindings)
{
    CheckResult result = lintFixture("suppressed_clean.cc");
    EXPECT_TRUE(result.clean()) << result.renderText();
}

TEST(LintRules, SuppressionIsRuleSpecific)
{
    CheckResult result;
    lint::lintSourceText("s.cc",
                         "// sharp-lint: allow(eintr-guard)\n"
                         "long t = time(nullptr);\n",
                         result);
    // The comment allows a different rule; no-wall-clock still fires.
    EXPECT_NE(findRule(result, "no-wall-clock"), nullptr);
}

TEST(LintRules, TimeUtilsPathIsAllowlistedForWallClock)
{
    const std::string text =
        "double now() { return std::chrono::system_clock::now()"
        ".time_since_epoch().count(); }\n";
    CheckResult allowlisted;
    lint::lintSourceText("src/util/time_utils.cc", text, allowlisted);
    EXPECT_TRUE(allowlisted.clean());
    CheckResult elsewhere;
    lint::lintSourceText("src/core/other.cc", text, elsewhere);
    EXPECT_NE(findRule(elsewhere, "no-wall-clock"), nullptr);
}

TEST(LintRules, JournalHelperHomeIsAllowlisted)
{
    const std::string text = "void f(int fd) { int r = fsync(fd); "
                             "(void)r; }\n";
    CheckResult allowlisted;
    lint::lintSourceText("src/record/journal.cc", text, allowlisted);
    EXPECT_TRUE(allowlisted.clean());
    CheckResult elsewhere;
    lint::lintSourceText("src/serve/queue.cc", text, elsewhere);
    EXPECT_NE(findRule(elsewhere, "journal-append-discipline"),
              nullptr);
}

TEST(LintRules, IntrinsicsFixturePinsNameSeverityAndLocation)
{
    CheckResult result = lintFixture("intrinsics.cc");
    EXPECT_EQ(result.errorCount(), 5u);
    const auto *finding = findRule(result, "intrinsics-confined");
    ASSERT_NE(finding, nullptr);
    EXPECT_EQ(finding->severity, Severity::Error);
    // First finding is the include of <immintrin.h>.
    EXPECT_EQ(finding->line, 4u);
    EXPECT_EQ(finding->column, 11u);
    EXPECT_NE(finding->message.find("immintrin"), std::string::npos);
    // The remaining pinned findings: __m256d declaration, the two
    // _mm256_* calls, and the NEON load.
    ASSERT_EQ(result.diagnostics().size(), 5u);
    EXPECT_EQ(result.diagnostics()[1].line, 9u);
    EXPECT_EQ(result.diagnostics()[1].column, 5u);
    EXPECT_EQ(result.diagnostics()[2].line, 9u);
    EXPECT_EQ(result.diagnostics()[2].column, 17u);
    EXPECT_EQ(result.diagnostics()[3].line, 11u);
    EXPECT_EQ(result.diagnostics()[3].column, 5u);
    EXPECT_EQ(result.diagnostics()[4].line, 19u);
    EXPECT_EQ(result.diagnostics()[4].column, 12u);
}

TEST(LintRules, SimdHomeIsAllowlistedForIntrinsics)
{
    const std::string text =
        "#include <immintrin.h>\n"
        "double f(const double *p) {\n"
        "  __m256d v = _mm256_loadu_pd(p);\n"
        "  return _mm256_cvtsd_f64(v);\n"
        "}\n";
    CheckResult allowlisted;
    lint::lintSourceText("src/simd/avx2.cc", text, allowlisted);
    EXPECT_TRUE(allowlisted.clean()) << allowlisted.renderText();
    CheckResult elsewhere;
    lint::lintSourceText("src/stats/ecdf.cc", text, elsewhere);
    EXPECT_NE(findRule(elsewhere, "intrinsics-confined"), nullptr);
}

TEST(LintRules, EnvKnobFixturePinsNameSeverityAndLocation)
{
    CheckResult result = lintFixture("env_knob.cc");
    ASSERT_EQ(result.diagnostics().size(), 2u) << result.renderText();
    for (const auto &finding : result.diagnostics()) {
        EXPECT_EQ(finding.rule, "env-confined");
        EXPECT_EQ(finding.severity, Severity::Error);
    }
    EXPECT_EQ(result.diagnostics()[0].line, 8u);
    EXPECT_EQ(result.diagnostics()[0].column, 17u);
    EXPECT_NE(result.diagnostics()[0].message.find("'getenv'"),
              std::string::npos);
    EXPECT_EQ(result.diagnostics()[1].line, 14u);
    EXPECT_EQ(result.diagnostics()[1].column, 12u);
    EXPECT_NE(result.diagnostics()[1].message.find("'secure_getenv'"),
              std::string::npos);
}

TEST(LintRules, DispatchIsTheOnlyHomeForEnvironmentReads)
{
    // The allowlist is the one file that reads SHARP_SIMD_BACKEND, not
    // the whole src/simd directory.
    const std::string text =
        "const char *b = std::getenv(\"SHARP_SIMD_BACKEND\");\n";
    CheckResult allowlisted;
    lint::lintSourceText("src/simd/dispatch.cc", text, allowlisted);
    EXPECT_TRUE(allowlisted.clean()) << allowlisted.renderText();
    for (const char *path : {"src/simd/avx2.cc", "src/core/stats_cache.cc"}) {
        CheckResult elsewhere;
        lint::lintSourceText(path, text, elsewhere);
        EXPECT_NE(findRule(elsewhere, "env-confined"), nullptr) << path;
    }
}

TEST(LintPaths, FixtureDirectoryExitsTwo)
{
    CheckResult result = lint::lintPaths({fixture("")});
    EXPECT_GT(result.errorCount(), 0u);
    EXPECT_EQ(result.exitCode(), 2);
}

TEST(LintPaths, SelfHostSrcIsClean)
{
    // The linter's own acceptance gate: the shipped sources obey every
    // invariant the linter enforces.
    CheckResult result =
        lint::lintPaths({std::string(SHARP_SOURCE_DIR) + "/src"});
    EXPECT_TRUE(result.clean()) << result.renderText();
    EXPECT_EQ(result.exitCode(), 0);
}

TEST(LintCatalog, NamesSeveritiesAndOrderAreStable)
{
    const auto &catalog = lint::ruleCatalog();
    ASSERT_EQ(catalog.size(), 7u);
    EXPECT_STREQ(catalog[0].name, "no-wall-clock");
    EXPECT_STREQ(catalog[1].name, "journal-append-discipline");
    EXPECT_STREQ(catalog[2].name, "seed-width");
    EXPECT_STREQ(catalog[3].name, "eintr-guard");
    EXPECT_STREQ(catalog[4].name, "unchecked-syscall");
    EXPECT_STREQ(catalog[5].name, "intrinsics-confined");
    EXPECT_STREQ(catalog[6].name, "env-confined");
    for (size_t i = 0; i < catalog.size(); ++i) {
        EXPECT_EQ(catalog[i].severity, i == 4 ? Severity::Warning
                                              : Severity::Error)
            << catalog[i].name;
    }
}

} // namespace
