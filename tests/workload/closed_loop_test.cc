/**
 * @file
 * Closed-loop workload layer tests: window conservation under direct
 * cycle driving, request/reply accounting at quiescence, fault-purge
 * unblocking, and bitwise equivalence across worker-thread counts
 * for closed-loop scenarios.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hh"
#include "tests/support/sim_invariants.hh"
#include "topo/topology_cache.hh"
#include "workload/closed_loop.hh"

namespace snoc {
namespace {

using testsupport::SimInvariantChecker;
using testsupport::checkClosedLoopWindows;

SimConfig
quickSim()
{
    SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 600;
    return cfg;
}

/** Build a network + closed-loop source on sn_54 (18 routers). */
struct Rig
{
    const NocTopology &topo;
    Network net;
    ClosedLoopSource cls;

    explicit Rig(const ClosedLoopSpec &spec, const FaultPlan &faults = {})
        : topo(TopologyCache::instance().get("sn_54")),
          net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
              RoutingMode::Minimal, 7, faults),
          cls(makeClosedLoopSource(
              std::shared_ptr<TrafficPattern>(
                  makeTrafficPattern(PatternKind::Random, topo)),
              spec, 42))
    {
    }
};

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
    EXPECT_EQ(a.stable, b.stable);
    EXPECT_EQ(a.counters.flitsInjected, b.counters.flitsInjected);
    EXPECT_EQ(a.counters.flitsDelivered, b.counters.flitsDelivered);
    EXPECT_EQ(a.counters.linkFlitHops, b.counters.linkFlitHops);
    EXPECT_EQ(a.counters.clRequestsIssued,
              b.counters.clRequestsIssued);
    EXPECT_EQ(a.counters.clRepliesMatched,
              b.counters.clRepliesMatched);
    EXPECT_EQ(a.counters.clReqLatencySum, b.counters.clReqLatencySum);
    EXPECT_EQ(a.counters.clWindowOccupancy,
              b.counters.clWindowOccupancy);
    EXPECT_EQ(a.counters.clStallNodeCycles,
              b.counters.clStallNodeCycles);
    EXPECT_EQ(a.counters.clSlotsPurged, b.counters.clSlotsPurged);
}

TEST(ClosedLoop, WindowBoundsRespectedAndStallsCounted)
{
    ClosedLoopSpec spec;
    spec.window = 2;
    spec.issueProb = 1.0;
    spec.memoryDelay = 30;
    Rig rig(spec);
    SimInvariantChecker checker(rig.net);

    bool alive = true;
    for (int c = 0; c < 800; ++c) {
        if (alive)
            alive = rig.cls.source(rig.net, rig.net.now());
        rig.net.step();
        if (c % 100 == 99) {
            checker.check("cycle " + std::to_string(c));
            checkClosedLoopWindows(rig.net, *rig.cls.state,
                                   "cycle " + std::to_string(c));
        }
    }
    const SimCounters &c = rig.net.counters();
    // Aggressive issue against a 2-deep window must both issue and
    // stall; latencies accumulate only on matched replies.
    EXPECT_GT(c.clRequestsIssued, 0u);
    EXPECT_GT(c.clStallNodeCycles, 0u);
    EXPECT_GT(c.clRepliesMatched, 0u);
    EXPECT_GT(c.clReqLatencySum, 0u);
    EXPECT_EQ(c.clSlotsPurged, 0u); // fault-free run
}

TEST(ClosedLoop, FiniteRunQuiescesWithAllRequestsMatched)
{
    ClosedLoopSpec spec;
    spec.window = 4;
    spec.issueProb = 0.6;
    spec.forwardFraction = 0.5; // exercise the 3-hop chain
    spec.memoryDelay = 10;
    spec.stopAfterRequests = 300;
    Rig rig(spec);
    SimInvariantChecker checker(rig.net);

    bool alive = true;
    int guard = 0;
    while ((alive || rig.net.flitsInFlight() +
                             rig.net.sourceQueueDepth() >
                         0) &&
           ++guard < 60000) {
        if (alive)
            alive = rig.cls.source(rig.net, rig.net.now());
        rig.net.step();
    }
    ASSERT_LT(guard, 60000) << "closed-loop run failed to quiesce";
    checker.checkQuiescent("after exhaustion");
    checkClosedLoopWindows(rig.net, *rig.cls.state, "after exhaustion");

    const SimCounters &c = rig.net.counters();
    EXPECT_EQ(c.clRequestsIssued, spec.stopAfterRequests);
    // Fault-free: every request must come home as a reply.
    EXPECT_EQ(c.clRepliesMatched, c.clRequestsIssued);
    EXPECT_EQ(c.clSlotsPurged, 0u);
    EXPECT_EQ(rig.cls.state->liveSlots(), 0u);
    EXPECT_EQ(rig.cls.state->pendingMessages(), 0u);
}

TEST(ClosedLoop, FaultPurgeFreesWindowSlotsInsteadOfDeadlocking)
{
    // A 1-deep window turns every lost reply into a permanently
    // stalled node unless the drop callback frees the slot.
    ClosedLoopSpec spec;
    spec.window = 1;
    spec.issueProb = 1.0;
    spec.memoryDelay = 5;
    spec.stopAfterRequests = 400;
    FaultPlan faults = FaultPlan::randomLinkFailures(0.25, 120, 1234);
    Rig rig(spec, faults);
    SimInvariantChecker checker(rig.net);

    bool alive = true;
    int guard = 0;
    while ((alive || rig.net.flitsInFlight() +
                             rig.net.sourceQueueDepth() >
                         0) &&
           ++guard < 120000) {
        if (alive)
            alive = rig.cls.source(rig.net, rig.net.now());
        rig.net.step();
    }
    ASSERT_LT(guard, 120000)
        << "faulty closed-loop run failed to quiesce: a purged chain "
           "left its window slot live";
    checker.checkQuiescent("after faulty exhaustion");
    checkClosedLoopWindows(rig.net, *rig.cls.state,
                           "after faulty exhaustion");

    const SimCounters &c = rig.net.counters();
    EXPECT_GT(c.clSlotsPurged, 0u) << "fault plan never cut a chain";
    EXPECT_EQ(c.clRequestsIssued,
              c.clRepliesMatched + c.clSlotsPurged);
    EXPECT_EQ(rig.cls.state->liveSlots(), 0u);
}

TEST(ClosedLoop, ThreadCountsBitwiseIdentical)
{
    // A window sweep plus the same points as Single jobs, so four
    // workers run concurrently. All must be bitwise identical to the
    // one-thread reference.
    ClosedLoopSpec spec;
    spec.sweepAxis = ClosedLoopAxis::Window;
    spec.forwardFraction = 0.3;
    spec.memoryDelay = 20;
    Scenario base = makeClosedLoopScenario(
        "sn_54", "EB-Var", PatternKind::Random, spec,
        RoutingMode::Minimal, quickSim());
    ExperimentPlan plan;
    plan.addSweep(base, {1, 2, 4, 8}, false);
    for (double window : {1, 2, 4, 8}) {
        Scenario point = base;
        applySweepValue(point, window);
        plan.add(point);
    }

    RunnerOptions serialOpts;
    serialOpts.threads = 1;
    RunnerOptions parallelOpts;
    parallelOpts.threads = 4;

    auto serial = ExperimentRunner(serialOpts).run(plan);
    auto parallel = ExperimentRunner(parallelOpts).run(plan);
    ASSERT_EQ(serial.size(), 5u);
    ASSERT_EQ(serial[0].points.size(), 4u);
    for (std::size_t j = 1; j < 5; ++j) {
        ASSERT_EQ(serial[j].points.size(), 1u);
        expectIdentical(serial[j].points[0].sim,
                        parallel[j].points[0].sim);
    }
    for (std::size_t p = 0; p < 4; ++p) {
        SCOPED_TRACE("window point " + std::to_string(p));
        // The swept axis must have landed on the window knob, not
        // the load.
        EXPECT_EQ(
            serial[0].points[p].scenario.traffic.closedLoop.window,
            static_cast<int>(1u << p));
        expectIdentical(serial[0].points[p].sim,
                        serial[p + 1].points[0].sim);
        expectIdentical(serial[0].points[p].sim,
                        parallel[0].points[p].sim);
    }
    // Deeper windows admit more outstanding requests: occupancy must
    // be monotonically non-decreasing across the sweep.
    for (std::size_t p = 1; p < 4; ++p)
        EXPECT_GE(serial[0].points[p].sim.counters.clWindowOccupancy,
                  serial[0].points[p - 1].sim.counters
                      .clWindowOccupancy);
}

TEST(ClosedLoop, IssueProbSaturationBisectionConverges)
{
    // Saturation on the issue-probability axis: stalling grows with
    // issueProb, so the bisection brackets a boundary just like an
    // open-loop load search.
    ClosedLoopSpec spec;
    spec.window = 8;
    spec.memoryDelay = 10;
    Scenario base = makeClosedLoopScenario(
        "sn_54", "EB-Var", PatternKind::Random, spec,
        RoutingMode::Minimal, quickSim());
    Job job;
    job.kind = Job::Kind::Saturation;
    job.scenario = base;
    job.saturation.maxProbes = 6;
    ExperimentPlan plan;
    plan.jobs.push_back(job);

    RunnerOptions opts;
    opts.threads = 1;
    auto results = ExperimentRunner(opts).run(plan);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].points.empty());
    EXPECT_GE(results[0].saturationLoad, 0.0);
    EXPECT_LE(results[0].saturationLoad, 1.0);
    for (const ScenarioResult &p : results[0].points) {
        // Probes moved the issue probability, never the load knob.
        EXPECT_EQ(p.scenario.load, base.load);
        EXPECT_GE(p.scenario.traffic.closedLoop.issueProb, 0.0);
        EXPECT_LE(p.scenario.traffic.closedLoop.issueProb, 1.0);
    }
}

} // namespace
} // namespace snoc
