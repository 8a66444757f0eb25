/**
 * @file
 * Tests for the content-addressed result store. The load-bearing
 * guarantee is that a cache hit is bitwise identical to a fresh
 * simulation — both at the SimResult level (operator== over every
 * field, doubles included) and at the rendered-output level, which
 * is what the crash-safe campaign contract promises users. The rest
 * pins the addressing scheme: keys depend on scenario content and
 * the code-version stamp, stale/corrupt entries degrade to misses,
 * and clear/prune do what `snoc cache` advertises.
 */

#include "exp/result_store.hh"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "exp/runner.hh"
#include "exp/scenario.hh"

namespace snoc {
namespace {

namespace fs = std::filesystem;

Scenario
tinyScenario(double load = 0.05)
{
    SimConfig sim;
    sim.warmupCycles = 100;
    sim.measureCycles = 300;
    return makeSyntheticScenario("sn_54", "EB-Var",
                                 PatternKind::Random, load, 1,
                                 RoutingMode::Minimal, sim);
}

struct TempDir
{
    std::string path;
    TempDir(const char *tag)
        : path(::testing::TempDir() + "/snoc_store_" + tag)
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(ResultStore, KeyDependsOnScenarioContentAndStamp)
{
    Scenario a = tinyScenario(0.05);
    Scenario b = tinyScenario(0.05);
    EXPECT_EQ(resultKey(a), resultKey(b));
    EXPECT_EQ(resultKey(a).size(), 64u);

    b.load = 0.06;
    EXPECT_NE(resultKey(a), resultKey(b));

    Scenario c = tinyScenario(0.05);
    c.seed += 1;
    EXPECT_NE(resultKey(a), resultKey(c));

    // Execution knobs are not part of the scenario, so they cannot
    // perturb the key — the determinism contract makes the result a
    // pure function of the scenario alone.
    EXPECT_NE(resultStoreStamp().find("snoc-store-"),
              std::string::npos);
}

TEST(ResultStore, CacheHitIsBitwiseIdenticalToFreshRun)
{
    TempDir dir("hit");
    ResultStore store(dir.path);
    Scenario s = tinyScenario();

    SimResult fresh = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);
    EXPECT_FALSE(store.lookup(key).has_value()); // miss first
    store.put(key, s, fresh);

    std::optional<SimResult> hit = store.lookup(key);
    ASSERT_TRUE(hit.has_value());
    // Field-exact, doubles included: SimResult::operator== compares
    // every member bitwise-equal doubles via ==.
    EXPECT_TRUE(*hit == fresh);

    ResultStore::Stats st = store.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.puts, 1u);
}

TEST(ResultStore, RunnerServesCachedPointsIdentically)
{
    TempDir dir("runner");
    ResultStore store(dir.path);

    ExperimentPlan plan;
    plan.add(tinyScenario(0.04));
    plan.addSweep(tinyScenario(), {0.02, 0.05}, false);

    RunnerOptions opts;
    opts.threads = 1;
    opts.store = &store;

    std::vector<JobResult> cold = ExperimentRunner(opts).run(plan);
    std::vector<JobResult> warm = ExperimentRunner(opts).run(plan);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_EQ(cold[i].points.size(), warm[i].points.size());
        for (std::size_t p = 0; p < cold[i].points.size(); ++p) {
            EXPECT_TRUE(cold[i].points[p].sim ==
                        warm[i].points[p].sim);
            EXPECT_TRUE(cold[i].points[p].energy ==
                        warm[i].points[p].energy);
        }
        EXPECT_EQ(cold[i].cacheHits, 0);
        EXPECT_EQ(warm[i].cacheMisses, 0);
        EXPECT_EQ(warm[i].cacheHits,
                  static_cast<int>(warm[i].points.size()));
    }
}

TEST(ResultStore, ParallelColdRunServesASerialWarmRun)
{
    TempDir dir("parallel");
    ResultStore store(dir.path);

    ExperimentPlan plan;
    plan.addSweep(tinyScenario(), {0.02, 0.04, 0.06}, false);
    plan.add(tinyScenario(0.03));
    plan.add(tinyScenario(0.05));

    RunnerOptions coldOpts;
    coldOpts.threads = 4;
    coldOpts.store = &store;
    RunnerOptions warmOpts;
    warmOpts.threads = 1;
    warmOpts.store = &store;

    std::vector<JobResult> cold = ExperimentRunner(coldOpts).run(plan);
    ASSERT_EQ(cold[0].cacheMisses, 3);
    std::vector<JobResult> warm = ExperimentRunner(warmOpts).run(plan);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].cacheMisses, 0) << "job " << i;
        EXPECT_EQ(warm[i].cacheHits,
                  static_cast<int>(warm[i].points.size()))
            << "job " << i;
        for (std::size_t p = 0; p < warm[i].points.size(); ++p)
            EXPECT_TRUE(cold[i].points[p].sim == warm[i].points[p].sim);
    }
}

TEST(ResultStore, StaleStampIsAMissAndPruneEvictsIt)
{
    TempDir dir("stale");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);

    {
        ResultStore old(dir.path, "snoc-store-v1:some-older-commit");
        old.put(key, s, r);
        EXPECT_TRUE(old.lookup(key).has_value());
    }

    ResultStore now(dir.path);
    EXPECT_FALSE(now.lookup(key).has_value()); // foreign stamp
    ResultStore::Usage u = now.usage();
    EXPECT_EQ(u.entries, 0u);
    EXPECT_EQ(u.stale, 1u);

    EXPECT_EQ(now.prune(), 1u);
    EXPECT_EQ(now.usage().stale, 0u);
}

TEST(ResultStore, CorruptEntryIsAMissNeverAnError)
{
    TempDir dir("corrupt");
    ResultStore store(dir.path);
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);
    store.put(key, s, r);

    // Tear the entry the way a crashed writer would.
    std::string entry = dir.path + "/objects/" + key.substr(0, 2) +
                        "/" + key + ".json";
    {
        std::ofstream f(entry, std::ios::trunc);
        f << "{\"key\": \"" << key << "\", \"stam"; // torn mid-token
    }

    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.usage().corrupt, 1u);
    EXPECT_EQ(store.prune(), 1u); // prune sweeps corrupt files too
    EXPECT_EQ(store.usage().corrupt, 0u);
}

TEST(ResultStore, ClearRemovesEverything)
{
    TempDir dir("clear");
    ResultStore store(dir.path);
    for (double load : {0.02, 0.04, 0.06}) {
        Scenario s = tinyScenario(load);
        store.put(resultKey(s), s, ExperimentRunner::runScenario(s));
    }
    EXPECT_EQ(store.usage().entries, 3u);
    EXPECT_EQ(store.clear(), 3u);
    EXPECT_EQ(store.usage().entries, 0u);
}

} // namespace
} // namespace snoc
