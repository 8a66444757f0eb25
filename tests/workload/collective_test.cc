/**
 * @file
 * Collective workload tests: exact chain/phase accounting for
 * broadcast, barrier and all-to-all schedules, token conservation
 * under faults, and bitwise equivalence across worker-thread
 * counts.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "tests/support/sim_invariants.hh"
#include "topo/topology_cache.hh"
#include "workload/collective.hh"

namespace snoc {
namespace {

using testsupport::SimInvariantChecker;
using testsupport::checkCollectiveTokens;

SimConfig
quickSim()
{
    SimConfig cfg;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 600;
    return cfg;
}

struct Rig
{
    const NocTopology &topo;
    Network net;
    CollectiveSource cs;

    explicit Rig(const CollectiveSpec &spec,
                 const FaultPlan &faults = {})
        : topo(TopologyCache::instance().get("sn_54")),
          net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
              RoutingMode::Minimal, 7, faults),
          cs(makeCollectiveSource(spec))
    {
    }

    /** Pump until the schedule exhausts and the network drains. */
    int
    runToQuiescence(int guardLimit = 120000)
    {
        bool alive = true;
        int guard = 0;
        while ((alive ||
                net.flitsInFlight() + net.sourceQueueDepth() > 0) &&
               ++guard < guardLimit) {
            if (alive)
                alive = cs.source(net, net.now());
            net.step();
        }
        return guard;
    }
};

TEST(Collective, BroadcastRoundsCompleteWithExactChainCounts)
{
    CollectiveSpec spec;
    spec.kind = CollectiveKind::Broadcast;
    spec.rounds = 3;
    spec.gapCycles = 10;
    Rig rig(spec);
    SimInvariantChecker checker(rig.net);

    int guard = rig.runToQuiescence();
    ASSERT_LT(guard, 120000) << "broadcast schedule failed to finish";
    checker.checkQuiescent("after broadcast rounds");
    checkCollectiveTokens(rig.net, *rig.cs.state, "after rounds");

    const SimCounters &c = rig.net.counters();
    std::uint64_t members =
        static_cast<std::uint64_t>(rig.topo.numNodes() - 1);
    // One payload+ack chain per member per round.
    EXPECT_EQ(c.clRequestsIssued, 3 * members);
    EXPECT_EQ(c.clRepliesMatched, 3 * members);
    EXPECT_EQ(c.clPhasesCompleted, 3u);
    EXPECT_EQ(rig.cs.state->roundsCompleted(), 3);
    EXPECT_EQ(rig.cs.state->openTokens(), 0u);
}

TEST(Collective, BarrierRunsArriveAndReleaseStages)
{
    CollectiveSpec spec;
    spec.kind = CollectiveKind::Barrier;
    spec.root = 5;
    spec.rounds = 2;
    Rig rig(spec);
    SimInvariantChecker checker(rig.net);

    int guard = rig.runToQuiescence();
    ASSERT_LT(guard, 120000) << "barrier failed to release";
    checker.checkQuiescent("after barrier rounds");
    checkCollectiveTokens(rig.net, *rig.cs.state, "after rounds");

    const SimCounters &c = rig.net.counters();
    std::uint64_t members =
        static_cast<std::uint64_t>(rig.topo.numNodes() - 1);
    // Per round: every member arrives at the root, then the root
    // releases every member — two chains per member.
    EXPECT_EQ(c.clRequestsIssued, 2 * 2 * members);
    EXPECT_EQ(c.clRepliesMatched, 2 * 2 * members);
    EXPECT_EQ(c.clPhasesCompleted, 2u);
}

TEST(Collective, AllToAllCountsEveryPhase)
{
    CollectiveSpec spec;
    spec.kind = CollectiveKind::AllToAll;
    spec.phases = 4;
    spec.rounds = 2;
    Rig rig(spec);
    SimInvariantChecker checker(rig.net);

    int guard = rig.runToQuiescence();
    ASSERT_LT(guard, 120000) << "all-to-all failed to finish";
    checker.checkQuiescent("after a2a rounds");
    checkCollectiveTokens(rig.net, *rig.cs.state, "after rounds");

    const SimCounters &c = rig.net.counters();
    std::uint64_t n = static_cast<std::uint64_t>(rig.topo.numNodes());
    // Every node sends one shift per phase (dst != src is guaranteed
    // for shift < n).
    EXPECT_EQ(c.clRequestsIssued, 2 * 4 * n);
    EXPECT_EQ(c.clPhasesCompleted, 2 * 4u);
}

TEST(Collective, FaultDropsResolveTokensInsteadOfWedgingThePhase)
{
    CollectiveSpec spec;
    spec.kind = CollectiveKind::Broadcast;
    spec.rounds = 5;
    FaultPlan faults = FaultPlan::randomLinkFailures(0.3, 60, 99);
    Rig rig(spec, faults);
    SimInvariantChecker checker(rig.net);

    int guard = rig.runToQuiescence();
    ASSERT_LT(guard, 120000)
        << "a dropped chain left its token open and wedged the phase";
    checker.checkQuiescent("after faulty broadcast");
    checkCollectiveTokens(rig.net, *rig.cs.state, "after faults");

    const SimCounters &c = rig.net.counters();
    EXPECT_GT(c.clSlotsPurged, 0u) << "fault plan never cut a chain";
    EXPECT_EQ(c.clRequestsIssued,
              c.clRepliesMatched + c.clSlotsPurged);
    EXPECT_EQ(c.clPhasesCompleted, 5u)
        << "every round must complete even when legs are dropped";
    EXPECT_EQ(rig.cs.state->openTokens(), 0u);
}

TEST(Collective, ThreadCountsBitwiseIdentical)
{
    // Unlimited rounds span the measurement window; the two
    // collective singles run concurrently at four workers.
    CollectiveSpec bcast;
    bcast.kind = CollectiveKind::Broadcast;
    bcast.gapCycles = 5;
    CollectiveSpec a2a;
    a2a.kind = CollectiveKind::AllToAll;
    a2a.phases = 6;

    ExperimentPlan plan;
    plan.add(makeCollectiveScenario("sn_54", "EB-Var", bcast,
                                    RoutingMode::Minimal, quickSim()));
    plan.add(makeCollectiveScenario("sn_54", "EB-Var", a2a,
                                    RoutingMode::Minimal, quickSim()));

    RunnerOptions serialOpts;
    serialOpts.threads = 1;
    RunnerOptions parallelOpts;
    parallelOpts.threads = 4;

    auto serial = ExperimentRunner(serialOpts).run(plan);
    auto parallel = ExperimentRunner(parallelOpts).run(plan);
    ASSERT_EQ(serial.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const SimResult &a = serial[i].points[0].sim;
        const SimResult &b = parallel[i].points[0].sim;
        EXPECT_EQ(a.throughput, b.throughput);
        EXPECT_EQ(a.avgPacketLatency, b.avgPacketLatency);
        EXPECT_EQ(a.counters.flitsDelivered, b.counters.flitsDelivered);
        EXPECT_EQ(a.counters.clRequestsIssued,
                  b.counters.clRequestsIssued);
        EXPECT_EQ(a.counters.clRepliesMatched,
                  b.counters.clRepliesMatched);
        EXPECT_EQ(a.counters.clReqLatencySum,
                  b.counters.clReqLatencySum);
        EXPECT_EQ(a.counters.clPhasesCompleted,
                  b.counters.clPhasesCompleted);
    }
}

} // namespace
} // namespace snoc
