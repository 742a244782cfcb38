// Seeded defect fixture: every finding here is an env-confined error.
// Tests pin the line:column of each; keep edits append-only.
#include <cstdlib>

const char *
knob()
{
    return std::getenv("SHARP_KNOB"); // line 8, column 17
}

const char *
secureKnob()
{
    return secure_getenv("SHARP_KNOB"); // line 14, column 12
}

const char *
memberIsNotTheEnvironment(const Settings &settings)
{
    return settings.getenv("knob"); // member access: no finding
}
