#include "lint/linter.hh"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "lint/lexer.hh"
#include "util/fs.hh"

namespace sharp
{
namespace lint
{

namespace
{

/** True when @p text occurs anywhere in @p haystack. */
bool
contains(const std::string &haystack, const char *text)
{
    return haystack.find(text) != std::string::npos;
}

bool
oneOf(const std::string &text, std::initializer_list<const char *> set)
{
    for (const char *candidate : set)
        if (text == candidate)
            return true;
    return false;
}

/** Unquoted body of a string-literal token ("seed" -> seed). */
std::string
literalBody(const Token &token)
{
    if (token.text.size() >= 2 && token.text.front() == '"' &&
        token.text.back() == '"')
        return token.text.substr(1, token.text.size() - 2);
    return token.text;
}

/**
 * Suppression directives harvested from comment tokens. A
 * `// sharp-lint: allow(rule-a, rule-b)` comment silences those rules
 * on every line the comment touches and on the line right after it,
 * so both trailing and preceding-line placement work.
 */
class Suppressions
{
  public:
    explicit Suppressions(const std::vector<Token> &tokens)
    {
        for (const Token &token : tokens) {
            if (token.kind != TokenKind::Comment)
                continue;
            size_t tag = token.text.find("sharp-lint:");
            if (tag == std::string::npos)
                continue;
            size_t open = token.text.find("allow(", tag);
            if (open == std::string::npos)
                continue;
            size_t close = token.text.find(')', open);
            if (close == std::string::npos)
                continue;
            std::string list =
                token.text.substr(open + 6, close - open - 6);
            size_t span = static_cast<size_t>(std::count(
                token.text.begin(), token.text.end(), '\n'));
            size_t start = 0;
            while (start <= list.size()) {
                size_t comma = list.find(',', start);
                std::string rule = list.substr(
                    start, comma == std::string::npos ? comma :
                                                        comma - start);
                rule.erase(0, rule.find_first_not_of(" \t"));
                size_t tail = rule.find_last_not_of(" \t");
                rule.erase(tail == std::string::npos ? 0 : tail + 1);
                if (!rule.empty()) {
                    for (size_t line = token.line;
                         line <= token.line + span + 1; ++line)
                        allowed.push_back({line, rule});
                }
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        }
    }

    bool
    covers(const std::string &rule, size_t line) const
    {
        for (const auto &[when, what] : allowed)
            if (when == line && what == rule)
                return true;
        return false;
    }

  private:
    std::vector<std::pair<size_t, std::string>> allowed;
};

/** A brace-delimited block; loops keep their introducer keyword. */
struct Block
{
    /** Significant-token index of `for`/`while`/`do` (or the `{`). */
    size_t start = 0;
    size_t open = 0;
    /** Index just past the block (past the do-while `;` for `do`). */
    size_t end = 0;
    bool isLoop = false;
};

/**
 * One file's token stream with the comment-free view and the block
 * structure every rule navigates.
 */
class Source
{
  public:
    Source(const std::string &path_in, const std::string &text)
        : path(path_in), tokens(lexCpp(text)), suppressions(tokens)
    {
        for (size_t i = 0; i < tokens.size(); ++i)
            if (tokens[i].kind != TokenKind::Comment)
                sig.push_back(i);
        findBlocks();
    }

    size_t size() const { return sig.size(); }

    const Token &at(size_t i) const { return tokens[sig[i]]; }

    /** Token text at @p i, or "" out of range. */
    std::string
    text(size_t i) const
    {
        return i < sig.size() ? at(i).text : std::string();
    }

    bool
    isIdentifier(size_t i, const char *name) const
    {
        return i < sig.size() && at(i).kind == TokenKind::Identifier &&
               at(i).text == name;
    }

    /**
     * Index just past the `)` matching the `(` at @p open;
     * size() when unbalanced.
     */
    size_t
    pastMatchingParen(size_t open) const
    {
        size_t depth = 0;
        for (size_t i = open; i < sig.size(); ++i) {
            if (text(i) == "(")
                ++depth;
            else if (text(i) == ")" && --depth == 0)
                return i + 1;
        }
        return sig.size();
    }

    /**
     * The outermost loop block containing @p i (condition included),
     * or nullptr when @p i is not inside any loop.
     */
    const Block *
    enclosingLoop(size_t i) const
    {
        const Block *outermost = nullptr;
        for (const Block &block : blocks) {
            if (!block.isLoop || i <= block.start || i >= block.end)
                continue;
            if (!outermost || block.start < outermost->start)
                outermost = &block;
        }
        return outermost;
    }

    bool
    rangeHasIdentifier(size_t from, size_t to, const char *name) const
    {
        for (size_t i = from; i < to && i < sig.size(); ++i)
            if (at(i).kind == TokenKind::Identifier && at(i).text == name)
                return true;
        return false;
    }

    const std::string &path;
    const Suppressions &allow() const { return suppressions; }

  private:
    void
    findBlocks()
    {
        std::vector<size_t> open_stack;
        for (size_t i = 0; i < sig.size(); ++i) {
            const std::string &piece = at(i).text;
            if (piece == "{") {
                open_stack.push_back(i);
                continue;
            }
            if (piece != "}" || open_stack.empty())
                continue;
            Block block;
            block.open = open_stack.back();
            open_stack.pop_back();
            block.start = block.open;
            block.end = i + 1;
            if (block.open > 0) {
                size_t before = block.open - 1;
                if (isIdentifier(before, "do")) {
                    block.isLoop = true;
                    block.start = before;
                    // Extend through the trailing `while (...);` so an
                    // EINTR check in the condition counts.
                    size_t tail = i + 1;
                    while (tail < sig.size() && text(tail) != ";" &&
                           text(tail) != "{")
                        ++tail;
                    block.end = tail + 1;
                } else if (text(before) == ")") {
                    size_t depth = 1;
                    size_t j = before;
                    while (j > 0 && depth > 0) {
                        --j;
                        if (text(j) == ")")
                            ++depth;
                        else if (text(j) == "(")
                            --depth;
                    }
                    if (depth == 0 && j > 0 &&
                        (isIdentifier(j - 1, "for") ||
                         isIdentifier(j - 1, "while"))) {
                        block.isLoop = true;
                        block.start = j - 1;
                    }
                }
            }
            blocks.push_back(block);
        }
    }

    std::vector<Token> tokens;
    Suppressions suppressions;
    /** Indices into `tokens` of every non-comment token. */
    std::vector<size_t> sig;
    std::vector<Block> blocks;
};

class Linter
{
  public:
    Linter(const Source &source_in, check::CheckResult &out_in)
        : source(source_in), out(out_in)
    {
    }

    void
    run()
    {
        if (!contains(source.path, "util/time_utils"))
            checkWallClock();
        if (!contains(source.path, "record/journal"))
            checkJournalDiscipline();
        checkSeedWidth();
        checkEintrGuard();
        checkUncheckedSyscall();
        if (!contains(source.path, "src/simd"))
            checkIntrinsicsConfined();
        if (!contains(source.path, "src/simd/dispatch.cc"))
            checkEnvConfined();
    }

  private:
    void
    report(const char *rule, const Token &where, std::string message,
           std::string hint = "")
    {
        if (source.allow().covers(rule, where.line))
            return;
        check::Severity severity = check::Severity::Error;
        for (const RuleInfo &info : ruleCatalog())
            if (info.name == std::string(rule))
                severity = info.severity;
        json::Location location;
        location.line = static_cast<uint32_t>(where.line);
        location.column = static_cast<uint32_t>(where.column);
        out.report(severity, location, rule, std::move(message),
                   std::move(hint));
    }

    /** True when the call at @p i is a member access (`x.f`, `p->f`). */
    bool
    isMemberAccess(size_t i) const
    {
        if (i == 0)
            return false;
        const std::string prev = source.text(i - 1);
        return prev == "." || prev == "->";
    }

    /**
     * True when the identifier at @p i is globally qualified (`::f`
     * with nothing namespace-like before the `::`).
     */
    bool
    isGlobalQualified(size_t i) const
    {
        if (i == 0 || source.text(i - 1) != "::")
            return false;
        if (i == 1)
            return true;
        const Token &before = source.at(i - 2);
        return before.kind != TokenKind::Identifier &&
               before.text != ">";
    }

    void
    checkWallClock()
    {
        static const char *const hint =
            "route timing through util/time_utils and seed from the "
            "run spec so runs stay reproducible";
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::Identifier ||
                isMemberAccess(i))
                continue;
            if (oneOf(token.text, {"random_device", "system_clock",
                                   "gettimeofday"})) {
                report("no-wall-clock", token,
                       "ambient wall-clock/entropy source '" +
                           token.text + "' is banned outside "
                           "util/time_utils",
                       hint);
                continue;
            }
            if (oneOf(token.text, {"rand", "srand"}) &&
                source.text(i + 1) == "(") {
                report("no-wall-clock", token,
                       "'" + token.text + "()' draws from global "
                       "hidden state; use the seeded rng:: generators",
                       hint);
                continue;
            }
            if (token.text == "time" && source.text(i + 1) == "(" &&
                oneOf(source.text(i + 2), {"nullptr", "NULL", "0"})) {
                report("no-wall-clock", token,
                       "'time(" + source.text(i + 2) + ")' reads the "
                       "wall clock",
                       hint);
            }
        }
    }

    void
    checkJournalDiscipline()
    {
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::Identifier ||
                isMemberAccess(i))
                continue;
            if (oneOf(token.text, {"fsync", "fdatasync"}) &&
                source.text(i + 1) == "(") {
                report("journal-append-discipline", token,
                       "hand-rolled '" + token.text + "': durable "
                       "JSONL appends must go through "
                       "record::appendJsonlLine",
                       "see src/record/journal.hh for the shared "
                       "fsync'd helper");
            }
        }
    }

    void
    checkSeedWidth()
    {
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::String)
                continue;
            std::string key = literalBody(token);
            bool seed_key = key == "seed" ||
                            (key.size() > 5 &&
                             key.compare(key.size() - 5, 5, "_seed") ==
                                 0);
            if (!seed_key || i < 2 || source.text(i - 1) != "(")
                continue;
            const Token &accessor = source.at(i - 2);
            if (accessor.kind != TokenKind::Identifier)
                continue;
            if (oneOf(accessor.text, {"getNumber", "getDouble",
                                      "getLong", "getInt"})) {
                report("seed-width", accessor,
                       "seed key '" + key + "' read through '" +
                           accessor.text + "', which narrows via "
                           "double",
                       "use getUint64 so seeds >= 2^53 round-trip "
                       "exactly");
                continue;
            }
            if (accessor.text != "set" || source.text(i + 1) != ",")
                continue;
            // Scan the remaining argument: a decimal-string write
            // mentions to_string (or is itself a literal); anything
            // else funnels the seed through a JSON double.
            bool as_string = false;
            size_t depth = 1;
            for (size_t j = i + 2; j < source.size() && depth > 0;
                 ++j) {
                const std::string piece = source.text(j);
                if (piece == "(")
                    ++depth;
                else if (piece == ")")
                    --depth;
                else if (piece == "to_string" ||
                         source.at(j).kind == TokenKind::String)
                    as_string = true;
            }
            if (!as_string) {
                report("seed-width", accessor,
                       "seed key '" + key + "' written as a JSON "
                       "number; numbers are doubles and round seeds "
                       ">= 2^53",
                       "write std::to_string(seed) (the decimal-string "
                       "form)");
            }
        }
    }

    void
    checkEintrGuard()
    {
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::Identifier ||
                source.text(i + 1) != "(")
                continue;
            bool direct = false;
            if (oneOf(token.text, {"read", "write", "pread", "pwrite"}))
                direct = isGlobalQualified(i);
            else if (oneOf(token.text, {"poll", "ppoll"}))
                direct = !isMemberAccess(i) &&
                         (i == 0 || source.text(i - 1) != "::" ||
                          isGlobalQualified(i));
            if (!direct)
                continue;
            const Block *loop = source.enclosingLoop(i);
            if (!loop)
                continue;
            if (!source.rangeHasIdentifier(loop->start, loop->end,
                                           "EINTR")) {
                report("eintr-guard", token,
                       "'" + token.text + "' inside a loop with no "
                       "EINTR handling in sight",
                       "retry on errno == EINTR; interrupted syscalls "
                       "are routine under signals and sanitizers");
            }
        }
    }

    void
    checkUncheckedSyscall()
    {
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::Identifier ||
                source.text(i + 1) != "(")
                continue;
            if (!oneOf(token.text, {"read", "write", "fsync",
                                    "fdatasync", "ftruncate",
                                    "truncate"}))
                continue;
            // Statement position: the call is the whole statement, so
            // its result has nowhere to go.
            size_t head = i;
            if (head > 0 && source.text(head - 1) == "::")
                --head;
            if (head == 0)
                continue;
            const Token &before = source.at(head - 1);
            bool statement =
                oneOf(before.text, {";", "{", "}"}) ||
                (before.kind == TokenKind::Identifier &&
                 oneOf(before.text, {"else", "do"}));
            if (!statement)
                continue;
            size_t past = source.pastMatchingParen(i + 1);
            if (source.text(past) == ";") {
                report("unchecked-syscall", token,
                       "result of '" + token.text + "' is discarded",
                       "check the return value, or cast to (void) "
                       "with a comment on why failure is fine");
            }
        }
    }

    void
    checkIntrinsicsConfined()
    {
        static const char *const hint =
            "add a kernel to src/simd behind the dispatch table; raw "
            "intrinsics elsewhere dodge the CPUID probe and the "
            "scalar-parity suite";
        auto hasPrefix = [](const std::string &text, const char *p) {
            return text.compare(0, std::char_traits<char>::length(p),
                                p) == 0;
        };
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::Identifier)
                continue;
            if (token.text == "include" && i > 0 &&
                source.text(i - 1) == "#" &&
                source.text(i + 1) == "<" &&
                oneOf(source.text(i + 2),
                      {"immintrin", "x86intrin", "arm_neon"})) {
                report("intrinsics-confined", source.at(i + 2),
                       "#include <" + source.text(i + 2) + ".h> "
                       "outside src/simd",
                       hint);
                continue;
            }
            bool vector_intrinsic =
                hasPrefix(token.text, "_mm") ||
                hasPrefix(token.text, "__m128") ||
                hasPrefix(token.text, "__m256") ||
                hasPrefix(token.text, "__m512") ||
                hasPrefix(token.text, "__mmask") ||
                hasPrefix(token.text, "vld1") ||
                hasPrefix(token.text, "vst1");
            if (vector_intrinsic && !isMemberAccess(i)) {
                report("intrinsics-confined", token,
                       "raw SIMD intrinsic '" + token.text +
                           "' outside src/simd",
                       hint);
            }
        }
    }

    void
    checkEnvConfined()
    {
        for (size_t i = 0; i < source.size(); ++i) {
            const Token &token = source.at(i);
            if (token.kind != TokenKind::Identifier ||
                !oneOf(token.text, {"getenv", "secure_getenv"}) ||
                isMemberAccess(i))
                continue;
            report("env-confined", token,
                   "environment read '" + token.text + "' outside "
                   "src/simd/dispatch.cc",
                   "SHARP_SIMD_BACKEND is the one environment knob; "
                   "take other settings from the run spec or a flag, "
                   "where the run records them");
        }
    }

    const Source &source;
    check::CheckResult &out;
};

} // anonymous namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"no-wall-clock", check::Severity::Error,
         "wall-clock/entropy reads outside util/time_utils"},
        {"journal-append-discipline", check::Severity::Error,
         "fsync'd JSONL appends outside record::appendJsonlLine"},
        {"seed-width", check::Severity::Error,
         "seeds serialized or read through double"},
        {"eintr-guard", check::Severity::Error,
         "looped poll/read/write without EINTR handling"},
        {"unchecked-syscall", check::Severity::Warning,
         "statement-position syscall result discarded"},
        {"intrinsics-confined", check::Severity::Error,
         "raw SIMD intrinsics outside the src/simd dispatch layer"},
        {"env-confined", check::Severity::Error,
         "getenv/secure_getenv outside src/simd/dispatch.cc"},
    };
    return catalog;
}

void
lintSourceText(const std::string &path, const std::string &text,
               check::CheckResult &out)
{
    std::string previous = out.artifact();
    out.setArtifact(path);
    Source source(path, text);
    Linter(source, out).run();
    out.setArtifact(std::move(previous));
}

void
lintSourceFile(const std::string &path, check::CheckResult &out)
{
    lintSourceText(path, util::readFileText(path), out);
}

bool
isCppSource(const std::string &path)
{
    size_t dot = path.find_last_of('.');
    if (dot == std::string::npos)
        return false;
    std::string ext = path.substr(dot);
    return oneOf(ext, {".cc", ".cpp", ".cxx", ".hh", ".hpp", ".h"});
}

check::CheckResult
lintPaths(const std::vector<std::string> &paths)
{
    check::CheckResult out;
    for (const std::string &path : paths) {
        if (util::isDirectory(path)) {
            for (const std::string &file :
                 util::listFilesRecursive(path)) {
                if (isCppSource(file))
                    lintSourceFile(file, out);
            }
        } else {
            lintSourceFile(path, out);
        }
    }
    out.setArtifact("");
    return out;
}

} // namespace lint
} // namespace sharp
