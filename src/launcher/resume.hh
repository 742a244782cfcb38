/**
 * @file
 * Loading an interrupted campaign back into a Launcher.
 *
 * `sharp run --resume` points at the journal a killed campaign left
 * behind. This helper parses the journal, splits it into the
 * reproduction spec (how to rebuild the backend, rule, and options)
 * and the ResumeState (the completed rounds that seed the relaunch),
 * and reports whether the campaign had in fact already finished.
 */

#ifndef SHARP_LAUNCHER_RESUME_HH
#define SHARP_LAUNCHER_RESUME_HH

#include <string>

#include "json/value.hh"
#include "launcher/launcher.hh"

namespace sharp
{
namespace launcher
{

/** A journal parsed into the pieces a resumed launch needs. */
struct ResumedCampaign
{
    /** The reproduction spec recorded when the campaign started. */
    json::Value spec;
    /** Completed rounds, ready for LaunchOptions::resume. */
    ResumeState state;
    /** True when the journal ends with the clean-completion marker. */
    bool done = false;
    /** True when a torn trailing line was discarded. */
    bool truncated = false;
};

/**
 * Parse the journal at @p journalPath (record::readJournal). A torn
 * trailing line (crash mid-write) is discarded; reopening the journal
 * in Resume mode trims it from the file before appending.
 * @throws check::CheckFailure when the journal is malformed beyond a
 *         torn trailing line (located diagnostics).
 * @throws std::runtime_error when the journal is unreadable or lacks
 *         a spec header (nothing to rebuild the campaign from).
 */
ResumedCampaign loadResumedCampaign(const std::string &journalPath);

} // namespace launcher
} // namespace sharp

#endif // SHARP_LAUNCHER_RESUME_HH
