#include "common/env.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/log.hh"

namespace snoc {

const std::vector<EnvKnob> &
envKnobs()
{
    static const std::vector<EnvKnob> kKnobs = {
        {kEnvBenchFast, "unset", "1 (anything else = off)",
         "shrink simulation windows and thin sweep load grids for "
         "smoke runs (CI uses this; default windows give stable "
         "numbers); honored by the bench binaries and `snoc run`"},
        {kEnvBenchFormat, "table", "table, csv, json",
         "stdout format of the bench binaries (`snoc run` takes "
         "--format instead)"},
        {kEnvBenchOut, ".", "directory path",
         "where perf-mode benches write BENCH_*.json artifacts and "
         "`snoc run` writes its default run manifest"},
        {kEnvExpIsolate, "off", "off, fork",
         "process-isolated scenario execution: each evaluation runs "
         "in a forked child and returns its result over a pipe, so a "
         "crash or sanitizer abort is contained to one failed row "
         "(RunnerOptions::isolate overrides)"},
        {kEnvExpJobTimeout, "0 (no timeout)",
         "wall-clock seconds",
         "per-scenario watchdog: an evaluation exceeding the budget "
         "is killed and recorded as a timed-out row; a nonzero "
         "timeout implies SNOC_EXP_ISOLATE=fork (the watchdog needs "
         "a killable child)"},
        {kEnvExpRetries, "0", "non-negative integer",
         "bounded re-evaluations of a failed/crashed/timed-out "
         "scenario with exponential backoff before the row is "
         "recorded as failed (RunnerOptions::retries overrides)"},
        {kEnvExpTestHook, "unset", "1 (anything else = off)",
         "test-only fault hook: scenarios labeled __test_crash__ / "
         "__test_hang__ / __test_fail__ abort, hang or throw at "
         "evaluation time so crash containment and watchdog paths "
         "can be exercised deterministically (CI crash-injection "
         "smoke; never set in production runs)"},
        {kEnvExpThreads, "hardware concurrency", "positive integer",
         "experiment-engine worker threads (RunnerOptions::threads "
         "and `snoc run --threads` override)"},
        {kEnvFuzzIters, "6", "positive integer",
         "scenario-fuzz iterations in exp_fuzz_test (CI sanitizer "
         "job uses 4; crank it up for soak runs)"},
        {kEnvFuzzSeed, "fixed", "64-bit integer",
         "base seed of the scenario fuzzer; failing iterations print "
         "the exact SNOC_FUZZ_SEED/SNOC_FUZZ_ITERS pair to replay "
         "them"},
        {kEnvPlanDir, "plans", "directory path",
         "extra search directory for plan files named on the `snoc` "
         "command line and in the ported bench binaries"},
        {kEnvResultStore, "unset (caching off)", "directory path",
         "content-addressed result store: completed scenario rows "
         "are cached under sha256(canonical scenario JSON + build "
         "stamp) and reused on later runs (a cache hit is bitwise "
         "identical to a fresh simulation); manage with `snoc cache "
         "stats|clear|prune` (`snoc run --store` overrides)"},
    };
    return kKnobs;
}

namespace {

bool
declared(std::string_view name)
{
    return std::any_of(envKnobs().begin(), envKnobs().end(),
                       [name](const EnvKnob &k) { return k.name == name; });
}

/** Raw getenv behind a registration check: undeclared reads are bugs. */
const char *
rawDeclared(const char *name)
{
    SNOC_ASSERT(declared(name), "env knob '", name,
                "' is not declared in envKnobs()");
    return std::getenv(name);
}

} // namespace

std::vector<std::string>
undeclaredEnvKnobs()
{
    std::vector<std::string> names;
    for (char **e = environ; e && *e; ++e) {
        std::string_view entry(*e);
        std::string_view name = entry.substr(0, entry.find('='));
        if (name.starts_with("SNOC_") && !declared(name))
            names.emplace_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::string
envRaw(const char *name)
{
    const char *v = rawDeclared(name);
    return v ? v : "";
}

bool
envFlag(const char *name)
{
    const char *v = rawDeclared(name);
    return v != nullptr && v[0] == '1';
}

int
envInt(const char *name, int fallback)
{
    const char *v = rawDeclared(name);
    if (!v || !v[0])
        return fallback;
    int n = std::atoi(v);
    return n > 0 ? n : fallback;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = rawDeclared(name);
    if (!v || !v[0])
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *v = rawDeclared(name);
    return (v && v[0]) ? v : fallback;
}

} // namespace snoc
