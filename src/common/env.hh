/**
 * @file
 * Environment-knob registry and typed accessors.
 *
 * Every runtime knob the library or harness reads from the
 * environment is declared once in the table in env.cc — name,
 * default, accepted values, effect — and read through the typed
 * accessors here. `snoc list knobs` and the README knob table are
 * generated from the same registry, so documentation cannot drift
 * from the code, and an accessor on an undeclared name is a bug
 * (SNOC_ASSERT).
 */

#ifndef SNOC_COMMON_ENV_HH
#define SNOC_COMMON_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace snoc {

/** One declared knob; `snoc list knobs` renders this table. */
struct EnvKnob
{
    const char *name;     //!< environment variable
    const char *fallback; //!< human-readable default
    const char *values;   //!< accepted values
    const char *effect;   //!< one-line description
};

/** All declared knobs, in documentation order. */
const std::vector<EnvKnob> &envKnobs();

/**
 * Names of the SNOC_* variables set in the environment that
 * envKnobs() does not declare — retired or misspelled knobs, which
 * nothing reads — sorted.
 */
std::vector<std::string> undeclaredEnvKnobs();

/** The knob's current raw value, or "" when unset. */
std::string envRaw(const char *name);

/** True when the knob is set to "1" (the flag convention). */
bool envFlag(const char *name);

/** Integer knob; `fallback` when unset or not a positive integer. */
int envInt(const char *name, int fallback);

/** 64-bit unsigned knob; `fallback` when unset or empty. */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** String knob; `fallback` when unset or empty. */
std::string envString(const char *name, const std::string &fallback);

// Declared knob names (use these, not raw literals, at call sites).
inline constexpr const char *kEnvBenchFast = "SNOC_BENCH_FAST";
inline constexpr const char *kEnvBenchFormat = "SNOC_BENCH_FORMAT";
inline constexpr const char *kEnvBenchOut = "SNOC_BENCH_OUT";
inline constexpr const char *kEnvExpIsolate = "SNOC_EXP_ISOLATE";
inline constexpr const char *kEnvExpJobTimeout =
    "SNOC_EXP_JOB_TIMEOUT";
inline constexpr const char *kEnvExpRetries = "SNOC_EXP_RETRIES";
inline constexpr const char *kEnvExpTestHook = "SNOC_EXP_TEST_HOOK";
inline constexpr const char *kEnvExpThreads = "SNOC_EXP_THREADS";
inline constexpr const char *kEnvFuzzIters = "SNOC_FUZZ_ITERS";
inline constexpr const char *kEnvFuzzSeed = "SNOC_FUZZ_SEED";
inline constexpr const char *kEnvPlanDir = "SNOC_PLAN_DIR";
inline constexpr const char *kEnvResultStore = "SNOC_RESULT_STORE";
inline constexpr const char *kEnvSimShards = "SNOC_SIM_SHARDS";

} // namespace snoc

#endif // SNOC_COMMON_ENV_HH
