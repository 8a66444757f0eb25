/**
 * @file
 * ExperimentRunner tests. The engine's core guarantee is that a plan
 * is a pure function of its Scenarios: executing on a thread pool
 * must reproduce the single-threaded results bit for bit, in plan
 * order. These tests pin that, plus job-strategy behavior and error
 * propagation.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "exp/runner.hh"

namespace snoc {
namespace {

/** Short windows: these tests check determinism, not statistics. */
SimConfig
quickSim()
{
    SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 600;
    return cfg;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    // Bitwise comparison on purpose: identical seeds must give an
    // identical simulation, not merely a statistically similar one.
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
    EXPECT_EQ(a.avgNetworkLatency, b.avgNetworkLatency);
    EXPECT_EQ(a.p99PacketLatencyBound, b.p99PacketLatencyBound);
    EXPECT_EQ(a.avgHops, b.avgHops);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.stable, b.stable);
    EXPECT_EQ(a.cyclesRun, b.cyclesRun);
    EXPECT_EQ(a.counters.bufferWrites, b.counters.bufferWrites);
    EXPECT_EQ(a.counters.bufferReads, b.counters.bufferReads);
    EXPECT_EQ(a.counters.crossbarTraversals,
              b.counters.crossbarTraversals);
    EXPECT_EQ(a.counters.linkFlitHops, b.counters.linkFlitHops);
    EXPECT_EQ(a.counters.flitsInjected, b.counters.flitsInjected);
    EXPECT_EQ(a.counters.flitsDelivered, b.counters.flitsDelivered);
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected);
    EXPECT_EQ(a.counters.packetsDelivered,
              b.counters.packetsDelivered);
}

ExperimentPlan
mixedSyntheticPlan()
{
    ExperimentPlan plan;
    for (const char *id : {"t2d4", "cm4"})
        for (double load : {0.05, 0.15})
            plan.add(makeSyntheticScenario(id, "EB-Var",
                                           PatternKind::Random, load,
                                           1, RoutingMode::Minimal,
                                           quickSim()));
    return plan;
}

TEST(ExperimentRunner, ParallelMatchesSerialBitwise)
{
    // A mixed plan: four Singles sharing two topologies, a
    // non-stopping sweep, a saturation-stopping sweep and a
    // saturation search.
    ExperimentPlan plan = mixedSyntheticPlan();
    Scenario base = makeSyntheticScenario(
        "t2d4", "EB-Var", PatternKind::Random, 0.0, 1,
        RoutingMode::Minimal, quickSim());
    plan.addSweep(base, {0.05, 0.1, 0.15}, false);
    plan.addSweep(base, {0.05, 0.1}, true);
    SaturationSpec spec;
    spec.tolerance = 0.1;
    spec.maxProbes = 4;
    plan.addSaturation(base, spec);

    RunnerOptions one;
    one.threads = 1;
    RunnerOptions four;
    four.threads = 4;

    std::vector<JobResult> serial = ExperimentRunner(one).run(plan);
    std::vector<JobResult> parallel = ExperimentRunner(four).run(plan);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].kind, parallel[i].kind);
        ASSERT_EQ(serial[i].points.size(), parallel[i].points.size())
            << "job " << i;
        EXPECT_EQ(serial[i].saturationLoad, parallel[i].saturationLoad);
        EXPECT_EQ(serial[i].bestThroughput, parallel[i].bestThroughput);
        for (std::size_t p = 0; p < serial[i].points.size(); ++p) {
            EXPECT_TRUE(serial[i].points[p].scenario ==
                        parallel[i].points[p].scenario)
                << "job " << i << " point " << p;
            expectIdentical(serial[i].points[p].sim,
                            parallel[i].points[p].sim);
        }
    }
}

TEST(ExperimentRunner, RepeatedRunsAreIdentical)
{
    ExperimentPlan plan;
    plan.add(makeSyntheticScenario("sn_subgr_200", "EB-Var",
                                   PatternKind::Shuffle, 0.1, 9,
                                   RoutingMode::Minimal, quickSim()));
    ExperimentRunner runner;
    std::vector<JobResult> a = runner.run(plan);
    std::vector<JobResult> b = runner.run(plan);
    expectIdentical(a[0].points[0].sim, b[0].points[0].sim);
    EXPECT_GT(a[0].points[0].sim.packetsDelivered, 0u);
}

TEST(ExperimentRunner, SweepJobMatchesSingleScenarioRuns)
{
    Scenario base = makeSyntheticScenario(
        "t2d4", "EB-Var", PatternKind::Random, 0.0, 1,
        RoutingMode::Minimal, quickSim());

    ExperimentPlan plan;
    plan.addSweep(base, {0.05, 0.1}, false);
    RunnerOptions opts;
    opts.threads = 2;
    std::vector<JobResult> results = ExperimentRunner(opts).run(plan);

    ASSERT_EQ(results.size(), 1u);
    const JobResult &sweep = results[0];
    EXPECT_EQ(sweep.kind, Job::Kind::Sweep);
    ASSERT_EQ(sweep.points.size(), 2u);
    EXPECT_DOUBLE_EQ(sweep.points[0].scenario.load, 0.05);
    EXPECT_DOUBLE_EQ(sweep.points[1].scenario.load, 0.1);

    // Each sweep point must equal the equivalent standalone run.
    for (const ScenarioResult &p : sweep.points)
        expectIdentical(p.sim,
                        ExperimentRunner::runScenario(p.scenario));
}

TEST(ExperimentRunner, SaturationJobBisectsTheBoundary)
{
    Scenario base = makeSyntheticScenario(
        "t2d4", "EB-Var", PatternKind::Random, 0.0, 1,
        RoutingMode::Minimal, quickSim());
    SaturationSpec spec;
    spec.tolerance = 0.1; // coarse: keep the test fast
    spec.maxProbes = 8;

    ExperimentPlan plan;
    plan.addSaturation(base, spec);
    std::vector<JobResult> results = ExperimentRunner().run(plan);

    ASSERT_EQ(results.size(), 1u);
    const JobResult &sat = results[0];
    EXPECT_EQ(sat.kind, Job::Kind::Saturation);
    EXPECT_GT(sat.bestThroughput, 0.0);
    EXPECT_LE(sat.bestThroughput, 1.2);
    EXPECT_GE(sat.saturationLoad, 0.0);
    EXPECT_LE(sat.saturationLoad, 1.0);
    EXPECT_LE(sat.points.size(), 8u);
}

TEST(ExperimentRunner, WorkloadScenariosRun)
{
    ExperimentPlan plan;
    plan.add(makeTraceScenario("t2d4", "barnes", 1500));
    std::vector<JobResult> results = ExperimentRunner().run(plan);
    ASSERT_EQ(results[0].points.size(), 1u);
    EXPECT_GT(results[0].points[0].sim.packetsDelivered, 0u);
}

TEST(ExperimentRunner, JobErrorsPropagateFromWorkers)
{
    ExperimentPlan plan;
    plan.add(makeSyntheticScenario("t2d4", "EB-Var",
                                   PatternKind::Random, 0.05, 1,
                                   RoutingMode::Minimal, quickSim()));
    Scenario bad;
    bad.topology = "no_such_topology";
    plan.add(bad);
    RunnerOptions opts;
    opts.threads = 2;
    EXPECT_THROW(ExperimentRunner(opts).run(plan), FatalError);
}

TEST(ExperimentRunner, SimShardsAboveOneAreRejected)
{
    // Every network is stepped by one thread. A caller that asks for
    // sharded stepping must get an error, not a silent serial run.
    for (int shards : {-1, 0, 1, 2, 64}) {
        RunnerOptions opts;
        opts.simShards = shards;
        if (shards > 1)
            EXPECT_THROW(ExperimentRunner{opts}, FatalError) << shards;
        else
            EXPECT_NO_THROW(ExperimentRunner{opts}) << shards;
    }
}

TEST(ExperimentRunner, EnergyMetricsAreModeInvariant)
{
    // Energy is evaluated as a pure function of (scenario, result)
    // after execution, so the attached metrics must be exactly equal
    // across thread counts — the same guarantee the SimResults
    // themselves carry. Scenarios
    // without an energy spec stay invalid/zero.
    ExperimentPlan plan;
    int i = 0;
    for (const char *id : {"t2d4", "cm4"})
        for (double load : {0.05, 0.15}) {
            Scenario s = makeSyntheticScenario(
                id, "EB-Var", PatternKind::Random, load, 1,
                RoutingMode::Minimal, quickSim());
            if (i != 3) // leave one point energy-disabled
                s.energy =
                    EnergySpec::corner(i % 2 ? "22nm" : "45nm");
            ++i;
            plan.add(s);
        }

    RunnerOptions serialOpts;
    serialOpts.threads = 1;
    RunnerOptions parallelOpts;
    parallelOpts.threads = 4;

    std::vector<JobResult> serial =
        ExperimentRunner(serialOpts).run(plan);
    std::vector<JobResult> parallel =
        ExperimentRunner(parallelOpts).run(plan);
    ASSERT_EQ(serial.size(), plan.size());
    for (std::size_t j = 0; j < serial.size(); ++j) {
        ASSERT_EQ(serial[j].points.size(), 1u);
        const ScenarioResult &p = serial[j].points[0];
        EXPECT_TRUE(p.energy == parallel[j].points[0].energy)
            << "job " << j;
        EXPECT_EQ(p.energy.valid, p.scenario.energy.enabled);
        // The runner's attachment must be exactly the free function
        // applied to the point — no engine-private state involved.
        EXPECT_TRUE(p.energy == evaluateEnergy(p.scenario, p.sim))
            << "job " << j;
        if (p.energy.valid) {
            EXPECT_GT(p.energy.dynamicW, 0.0);
            EXPECT_GT(p.energy.staticW, 0.0);
            EXPECT_EQ(p.energy.totalW,
                      p.energy.dynamicW + p.energy.staticW);
            EXPECT_GT(p.energy.flitsPerJoule, 0.0);
            EXPECT_GT(p.energy.edpJs, 0.0);
        } else {
            EXPECT_EQ(p.energy, EnergyMetrics{});
        }
    }
}

TEST(ExperimentRunner, ProgressCallbackCountsJobs)
{
    ExperimentPlan plan = mixedSyntheticPlan();
    std::size_t calls = 0;
    std::size_t lastTotal = 0;
    RunnerOptions opts;
    opts.threads = 2;
    opts.progress = [&](std::size_t, std::size_t total) {
        ++calls;
        lastTotal = total;
    };
    ExperimentRunner(opts).run(plan);
    EXPECT_EQ(calls, plan.size());
    EXPECT_EQ(lastTotal, plan.size());
}

} // namespace
} // namespace snoc
