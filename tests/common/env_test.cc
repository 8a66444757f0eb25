#include "common/env.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

namespace snoc {
namespace {

/** RAII environment override (tests only). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(Env, RegistryDeclaresEveryKnob)
{
    std::vector<std::string> names;
    for (const EnvKnob &k : envKnobs())
        names.push_back(k.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "SNOC_BENCH_FAST", "SNOC_BENCH_FORMAT",
                  "SNOC_BENCH_OUT", "SNOC_EXP_ISOLATE",
                  "SNOC_EXP_JOB_TIMEOUT",
                  "SNOC_EXP_RETRIES", "SNOC_EXP_TEST_HOOK",
                  "SNOC_EXP_THREADS", "SNOC_FUZZ_ITERS",
                  "SNOC_FUZZ_SEED", "SNOC_PLAN_DIR",
                  "SNOC_RESULT_STORE"}));
    for (const EnvKnob &k : envKnobs()) {
        EXPECT_STRNE(k.fallback, "");
        EXPECT_STRNE(k.values, "");
        EXPECT_STRNE(k.effect, "");
    }
}

TEST(Env, UndeclaredKnobsAreListed)
{
    auto listed = [](const std::string &name) {
        std::vector<std::string> u = undeclaredEnvKnobs();
        return std::find(u.begin(), u.end(), name) != u.end();
    };
    EXPECT_FALSE(listed("SNOC_RETIRED_KNOB"));
    {
        ScopedEnv retired("SNOC_RETIRED_KNOB", "off");
        ScopedEnv misspelled("SNOC_EXP_THREAD", "4");
        ScopedEnv declaredKnob(kEnvExpThreads, "4");
        ScopedEnv foreign("NOT_SNOC_EXP_THREADS", "1");
        std::vector<std::string> u = undeclaredEnvKnobs();
        EXPECT_TRUE(listed("SNOC_RETIRED_KNOB"));
        EXPECT_TRUE(listed("SNOC_EXP_THREAD"));
        EXPECT_FALSE(listed(kEnvExpThreads));
        EXPECT_FALSE(listed("NOT_SNOC_EXP_THREADS"));
        EXPECT_TRUE(std::is_sorted(u.begin(), u.end()));
    }
    EXPECT_FALSE(listed("SNOC_RETIRED_KNOB"));
}

TEST(Env, FlagAccessor)
{
    {
        ScopedEnv e(kEnvBenchFast, nullptr);
        EXPECT_FALSE(envFlag(kEnvBenchFast));
    }
    {
        ScopedEnv e(kEnvBenchFast, "1");
        EXPECT_TRUE(envFlag(kEnvBenchFast));
    }
    {
        ScopedEnv e(kEnvBenchFast, "0");
        EXPECT_FALSE(envFlag(kEnvBenchFast));
    }
}

TEST(Env, IntAccessor)
{
    {
        ScopedEnv e(kEnvExpThreads, nullptr);
        EXPECT_EQ(envInt(kEnvExpThreads, 3), 3);
    }
    {
        ScopedEnv e(kEnvExpThreads, "8");
        EXPECT_EQ(envInt(kEnvExpThreads, 3), 8);
    }
    {
        ScopedEnv e(kEnvExpThreads, "bogus");
        EXPECT_EQ(envInt(kEnvExpThreads, 3), 3);
    }
}

TEST(Env, U64AndStringAccessors)
{
    {
        ScopedEnv e(kEnvFuzzSeed, "18446744073709551610");
        EXPECT_EQ(envU64(kEnvFuzzSeed, 1), 18446744073709551610ULL);
    }
    {
        ScopedEnv e(kEnvFuzzSeed, nullptr);
        EXPECT_EQ(envU64(kEnvFuzzSeed, 7), 7u);
    }
    {
        ScopedEnv e(kEnvBenchFormat, "csv");
        EXPECT_EQ(envString(kEnvBenchFormat, "table"), "csv");
    }
    {
        ScopedEnv e(kEnvBenchFormat, nullptr);
        EXPECT_EQ(envString(kEnvBenchFormat, "table"), "table");
    }
}

} // namespace
} // namespace snoc
