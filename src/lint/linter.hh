/**
 * @file
 * `sharp-lint`: invariant linting over SHARP's own C++ sources.
 *
 * The repository holds a handful of invariants that no compiler
 * enforces but that reproducibility depends on:
 *
 *  - **no-wall-clock** (error) — measurement and scheduling code must
 *    not read ambient entropy or wall-clock time
 *    (`std::random_device`, `rand()`, `time(nullptr)`,
 *    `system_clock`, `gettimeofday`); only `util/time_utils` may.
 *  - **journal-append-discipline** (error) — JSONL journal writes must
 *    route through the shared fsync'd `record::appendJsonlLine`
 *    helper; hand-rolled `fsync` calls elsewhere are banned.
 *  - **seed-width** (error) — seeds are 64-bit and must never pass
 *    through `double`: reads go through `getUint64`, writes through
 *    the decimal-string form.
 *  - **eintr-guard** (error) — direct `::poll`/`::read`/`::write`
 *    syscalls inside loops must handle `EINTR` somewhere in the loop.
 *  - **unchecked-syscall** (warning) — statement-position syscalls
 *    whose result is discarded (`write`, `fsync`, `ftruncate`, ...)
 *    must consume the return value or cast it to `(void)`.
 *  - **intrinsics-confined** (error) — raw SIMD intrinsics
 *    (`_mm*`, `vld1*`/`vst1*`, `#include <immintrin.h>`) are banned
 *    outside `src/simd`: kernels belong behind the runtime-dispatch
 *    table where the CPUID probe and scalar-parity suite cover them.
 *  - **env-confined** (error) — `getenv`/`secure_getenv` are banned
 *    outside `src/simd/dispatch.cc`: `SHARP_SIMD_BACKEND` is the one
 *    environment knob (CI's forced-backend legs need it); any other
 *    setting belongs in the run spec or a flag, where runs record it.
 *
 * Findings reuse the `sharp check` diagnostic currency (severity,
 * rule id, file:line:column, hint) and the 0/1/2 exit contract. A
 * finding is suppressed by a `// sharp-lint: allow(<rule>)` comment on
 * the same line or the line above.
 *
 * This is a token-level analyzer (see lint/lexer.hh), not a compiler
 * plugin: rules are heuristics tuned to this codebase's idiom, precise
 * enough to self-host over `src/` with zero findings.
 */

#ifndef SHARP_LINT_LINTER_HH
#define SHARP_LINT_LINTER_HH

#include <string>
#include <vector>

#include "check/diagnostic.hh"

namespace sharp
{
namespace lint
{

/** Metadata for one lint rule, for docs and `--list-rules`. */
struct RuleInfo
{
    const char *name;
    check::Severity severity;
    const char *summary;
};

/** Every rule the linter knows, in reporting order. */
const std::vector<RuleInfo> &ruleCatalog();

/**
 * Lint one translation unit's text. @p path is stamped onto findings
 * and consulted for the per-rule allowlists (`util/time_utils` for
 * no-wall-clock, `record/journal` for journal-append-discipline,
 * `src/simd` for intrinsics-confined, `src/simd/dispatch.cc` for
 * env-confined), so pass repository-relative paths when you have them.
 */
void lintSourceText(const std::string &path, const std::string &text,
                    check::CheckResult &out);

/**
 * Lint the file at @p path.
 * @throws std::runtime_error when the file cannot be read.
 */
void lintSourceFile(const std::string &path, check::CheckResult &out);

/** True when @p path has a C++ source/header extension. */
bool isCppSource(const std::string &path);

/**
 * Lint every C++ source under each element of @p paths (files are
 * linted directly; directories are walked recursively, symlink-safe).
 * Returns the merged result; use CheckResult::exitCode() for the
 * 0 clean / 1 warnings / 2 errors contract.
 */
check::CheckResult lintPaths(const std::vector<std::string> &paths);

} // namespace lint
} // namespace sharp

#endif // SHARP_LINT_LINTER_HH
