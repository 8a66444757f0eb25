/**
 * @file
 * Fault-injection tests: dynamic link/router failures applied
 * mid-run, degraded-operation semantics (drops, refusals, reroutes,
 * repairs), zero-fault equivalence of armed-but-empty plans, the
 * invariant layer holding through every perturbation, and faulted
 * runs pinned to delivery-stream fingerprints with
 * Network::auditInvariants checked mid-run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "sim/network.hh"
#include "tests/support/sim_invariants.hh"
#include "topo/table4.hh"
#include "traffic/synthetic.hh"

namespace snoc {
namespace {

using testsupport::SimInvariantChecker;

std::uint64_t
splitmix(std::uint64_t &s)
{
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Offer `perCycle` deterministic random packets. */
void
offerTraffic(Network &net, std::uint64_t &s, int perCycle)
{
    int nodes = net.topology().numNodes();
    const int sizes[3] = {1, 4, 6};
    for (int k = 0; k < perCycle; ++k) {
        std::uint64_t r = splitmix(s);
        int src = static_cast<int>(r % static_cast<std::uint64_t>(nodes));
        int dst = static_cast<int>((r >> 20) %
                                   static_cast<std::uint64_t>(nodes));
        if (src == dst)
            continue;
        net.offerPacket(src, dst, sizes[(r >> 40) % 3]);
    }
}

/** Drain with a generous bound; returns true when fully drained. */
bool
drain(Network &net, int limit = 30000)
{
    for (int c = 0;
         c < limit && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    return net.flitsInFlight() + net.sourceQueueDepth() == 0;
}

/** Delivery-stream fingerprint (id, endpoints, timestamps, hops). */
struct Stream
{
    std::vector<std::uint64_t> records;

    void
    attach(SimInvariantChecker &checker)
    {
        checker.setDeliveryCallback([this](const Packet &p) {
            records.push_back(p.id);
            records.push_back(
                (static_cast<std::uint64_t>(p.srcNode) << 32) |
                static_cast<std::uint64_t>(p.dstNode));
            records.push_back(p.ejectedAt);
            records.push_back(static_cast<std::uint64_t>(p.hops));
        });
    }
};

TEST(FaultInjection, ArmedEmptyPlanMatchesUnarmedRun)
{
    // Arming the machinery with no scheduled event must not disturb
    // the simulation on table-routed topologies: same deliveries,
    // same timestamps, same counters.
    auto run = [](const FaultPlan &plan) {
        Network net(makeNamedTopology("sn_54"),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::Minimal, 7, plan);
        SimInvariantChecker checker(net);
        Stream stream;
        stream.attach(checker);
        std::uint64_t s = 777;
        for (int c = 0; c < 600; ++c) {
            offerTraffic(net, s, 2);
            net.step();
        }
        EXPECT_TRUE(drain(net));
        checker.checkQuiescent("armed-empty");
        return stream.records;
    };

    FaultPlan armedEmpty;
    armedEmpty.armed = true;
    EXPECT_TRUE(armedEmpty.active());
    FaultPlan unarmed;
    EXPECT_FALSE(unarmed.active());

    EXPECT_EQ(run(unarmed), run(armedEmpty));
}

TEST(FaultInjection, LinkFailureDropsCutPacketsAndKeepsDelivering)
{
    FaultPlan plan = FaultPlan::randomLinkFailures(0.10, 400, 5);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 123;
    for (int c = 0; c < 400; ++c) {
        offerTraffic(net, s, 3);
        net.step();
    }
    std::uint64_t deliveredBefore = net.counters().packetsDelivered;
    for (int c = 0; c < 400; ++c) {
        offerTraffic(net, s, 3);
        net.step();
        if (c == 0)
            checker.check("cycle after the failures struck");
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("after link failures");

    const SimCounters &c = net.counters();
    EXPECT_GT(c.faultEvents, 0u);
    EXPECT_GT(c.flitsDropped, 0u) << "no in-flight flit was cut";
    EXPECT_GT(c.packetsDropped, 0u);
    // The degraded network keeps delivering (sn_54 survives 10%).
    EXPECT_GT(c.packetsDelivered, deliveredBefore + 100);
    // sn_54 is a strong expander: 10% of links never disconnects it.
    EXPECT_EQ(c.packetsUnroutable, 0u);
    EXPECT_EQ(c.packetsRefused, 0u);
    EXPECT_LT(net.liveTopology().numEdges(),
              net.topology().routers().numEdges());
}

TEST(FaultInjection, RouterFailureIsolatesItsNodes)
{
    FaultPlan plan;
    plan.routerDown(3, 300);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 99;
    for (int c = 0; c < 900; ++c) {
        offerTraffic(net, s, 3);
        net.step();
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("after router failure");

    EXPECT_FALSE(net.routerAlive(3));
    EXPECT_TRUE(net.routerAlive(0));
    const SimCounters &c = net.counters();
    // Traffic to/from the dead router's nodes is refused at the
    // source; packets already heading there died as cut or
    // unroutable.
    EXPECT_GT(c.packetsRefused, 0u);
    EXPECT_GT(c.packetsDropped + c.packetsUnroutable, 0u);
    EXPECT_GT(c.packetsDelivered, 0u);

    // Offers touching the dead router are refused without a trace.
    std::uint64_t refusedBefore = net.counters().packetsRefused;
    int first = net.topology().firstNodeOfRouter(3);
    net.offerPacket(first, (first + 7) % net.topology().numNodes(),
                    2);
    EXPECT_EQ(net.counters().packetsRefused, refusedBefore + 1);
}

TEST(FaultInjection, RepairRestoresService)
{
    // Kill one specific link, then repair it; after the repair the
    // network must again deliver between the formerly-severed pair.
    NocTopology topo = makeNamedTopology("sn_54");
    int a = 0;
    int b = topo.routers().neighbors(0).front();
    FaultPlan plan;
    plan.linkDown(a, b, 200).linkUp(a, b, 800);

    Network net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 31;
    for (int c = 0; c < 1200; ++c) {
        offerTraffic(net, s, 2);
        net.step();
        if (c == 500) {
            EXPECT_LT(net.liveTopology().numEdges(),
                      topo.routers().numEdges());
            checker.check("while the link is down");
        }
    }
    EXPECT_EQ(net.liveTopology().numEdges(),
              topo.routers().numEdges());
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("after repair");
    EXPECT_EQ(net.counters().faultEvents, 2u);
}

TEST(FaultInjection, CentralBufferRouterSurvivesFaults)
{
    // The CB reservation/occupancy accounting must stay exact when
    // packets die mid-divert; the audit inside check() verifies it.
    FaultPlan plan = FaultPlan::randomLinkFailures(0.15, 300, 11);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("CBR-6"), LinkConfig{},
                RoutingMode::Minimal, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 2024;
    for (int c = 0; c < 800; ++c) {
        offerTraffic(net, s, 4);
        net.step();
        if (c % 100 == 0)
            checker.check("CBR cycle " + std::to_string(c));
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("CBR after faults");
    EXPECT_GT(net.counters().flitsDropped, 0u);
}

TEST(FaultInjection, UgalReroutesAroundFailures)
{
    FaultPlan plan = FaultPlan::randomLinkFailures(0.10, 300, 3);
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::UgalL, 7, plan);
    SimInvariantChecker checker(net);

    std::uint64_t s = 555;
    for (int c = 0; c < 900; ++c) {
        offerTraffic(net, s, 3);
        net.step();
    }
    EXPECT_TRUE(drain(net));
    checker.checkQuiescent("UGAL-L after faults");
    EXPECT_GT(net.counters().packetsDelivered, 500u);
}

TEST(FaultInjection, GridTopologiesFallBackToTableRouting)
{
    // Algebraic grid schemes cannot route around holes; armed runs
    // switch to BFS-table minimal routing and keep working.
    for (const char *id : {"t2d4", "cm4", "fbf4", "pfbf4"}) {
        FaultPlan plan = FaultPlan::randomLinkFailures(0.08, 300, 9);
        Network net(makeNamedTopology(id),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::Minimal, 7, plan);
        SimInvariantChecker checker(net);
        std::uint64_t s = 404;
        for (int c = 0; c < 700; ++c) {
            offerTraffic(net, s, 2);
            net.step();
        }
        EXPECT_TRUE(drain(net)) << id;
        checker.checkQuiescent(id);
        EXPECT_GT(net.counters().packetsDelivered, 200u) << id;
        EXPECT_GT(net.counters().faultEvents, 0u) << id;
    }
}

TEST(FaultInjection, DegradationIsMonotonicInFailureFraction)
{
    // More dead links must not *increase* delivered throughput.
    auto delivered = [](double fraction) {
        FaultPlan plan =
            FaultPlan::randomLinkFailures(fraction, 300, 17);
        Network net(makeNamedTopology("sn_54"),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::Minimal, 7, plan);
        std::uint64_t s = 808;
        for (int c = 0; c < 1000; ++c) {
            offerTraffic(net, s, 4);
            net.step();
        }
        return net.counters().flitsDelivered;
    };
    std::uint64_t base = delivered(0.0);
    std::uint64_t degraded = delivered(0.25);
    EXPECT_LE(degraded, base + base / 20)
        << "25% link failures should not beat the intact network";
}

TEST(FaultInjection, ScenarioCarriesFaultPlanThroughTheEngine)
{
    Scenario s;
    s.topology = "sn_54";
    s.traffic = TrafficSpec::synthetic(PatternKind::Random);
    s.load = 0.1;
    s.sim.warmupCycles = 300;
    s.sim.measureCycles = 900;
    s.faults = FaultPlan::randomLinkFailures(0.10, 300, 21);

    SimResult r = ExperimentRunner::runScenario(s);
    EXPECT_GT(r.counters.faultEvents, 0u);
    EXPECT_GT(r.packetsDelivered, 0u);

    // Engine determinism extends to fault runs.
    SimResult r2 = ExperimentRunner::runScenario(s);
    EXPECT_EQ(r.throughput, r2.throughput);
    EXPECT_EQ(r.counters.flitsDropped, r2.counters.flitsDropped);
    EXPECT_EQ(r.packetsDelivered, r2.packetsDelivered);
}

TEST(FaultInjection, PlanResolutionIsDeterministic)
{
    NocTopology topo = makeNamedTopology("sn_54");
    FaultPlan plan = FaultPlan::randomLinkFailures(0.2, 100, 42);
    auto a = plan.resolve(topo.routers());
    auto b = plan.resolve(topo.routers());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].a, b[i].a);
        EXPECT_EQ(a[i].b, b[i].b);
        EXPECT_EQ(a[i].at, 100u);
        EXPECT_TRUE(topo.routers().hasEdge(a[i].a, a[i].b));
    }
}

// --- faulted runs vs pinned fingerprints ------------------------------------

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

struct Fingerprint
{
    std::uint64_t deliveryHash = 1469598103934665603ULL; // FNV basis
    std::uint64_t packets = 0;
    SimCounters counters;
    bool drained = false;
};

/** The hotpath goldens' schedule seed; variant > 0 perturbs it so
 *  several runs on one topology carry distinct traffic. */
std::uint64_t
scheduleSeed(const std::string &topoId, RoutingMode mode, int variant)
{
    std::uint64_t s =
        0xabcdef12 ^ (mode == RoutingMode::UgalL ? 77 : 0);
    for (const char ch : topoId)
        s = s * 131 + static_cast<std::uint64_t>(ch);
    return s + static_cast<std::uint64_t>(variant) * 0x9e3779b9ULL;
}

/** The hotpath test's loop (2 offers a cycle for 1200 cycles, then
 *  drain), auditing the network every `auditEvery` cycles. */
Fingerprint
runSerial(const std::string &topoId, RoutingMode mode,
          std::uint64_t seed, const FaultPlan &faults, int auditEvery)
{
    Network net(makeNamedTopology(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode, 7, faults);
    Fingerprint fp;
    net.setDeliveryCallback([&fp](const Packet &p) {
        fnv(fp.deliveryHash, p.id);
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.srcNode));
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.dstNode));
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.sizeFlits));
        fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.hops));
        fnv(fp.deliveryHash, p.createdAt);
        fnv(fp.deliveryHash, p.injectedAt);
        fnv(fp.deliveryHash, p.ejectedAt);
        ++fp.packets;
    });
    auto audit = [&](int cycle) {
        if (cycle % auditEvery != 0)
            return;
        std::string err;
        ASSERT_TRUE(net.auditInvariants(err))
            << "cycle " << cycle << ": " << err;
    };
    std::uint64_t s = seed;
    int cycle = 0;
    for (; cycle < 1200; ++cycle) {
        offerTraffic(net, s, 2);
        net.step();
        audit(cycle);
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c, ++cycle) {
        net.step();
        audit(cycle);
    }
    std::string err;
    EXPECT_TRUE(net.auditInvariants(err)) << err;
    fp.drained =
        net.flitsInFlight() == 0 && net.sourceQueueDepth() == 0;
    fp.counters = net.counters();
    return fp;
}

TEST(SerialFaults, FaultPlansMatchPinnedFingerprints)
{
    // Each plan runs on its own perturbed schedule: a link kill, 5%
    // random link failures, and a router kill with a later repair.
    // The fingerprints were captured when these runs were also
    // checked bitwise against an independent co-simulation engine.
    struct Pinned
    {
        FaultPlan plan;
        std::uint64_t deliveryHash;
        std::uint64_t packets;
        std::uint64_t packetsDropped;
    };
    std::vector<Pinned> pinned = {
        {FaultPlan{}.linkDown(0, 1, 300), 6769943661683062733ULL, 2349,
         0},
        {FaultPlan::randomLinkFailures(0.05, 400, 99),
         11409371652071512951ULL, 2344, 0},
        {FaultPlan{}.routerDown(3, 500).routerUp(3, 900),
         8669632917644580095ULL, 2280, 5},
    };
    pinned[0].plan.armed = true;
    pinned[2].plan.armed = true;

    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::Minimal;
    for (std::size_t p = 0; p < pinned.size(); ++p) {
        std::uint64_t seed =
            scheduleSeed(topoId, mode, static_cast<int>(p) + 1);
        Fingerprint fp = runSerial(topoId, mode, seed, pinned[p].plan,
                                   /*auditEvery=*/100);
        std::string what = "plan " + std::to_string(p);
        EXPECT_TRUE(fp.drained) << what;
        EXPECT_EQ(fp.deliveryHash, pinned[p].deliveryHash) << what;
        EXPECT_EQ(fp.packets, pinned[p].packets) << what;
        EXPECT_EQ(fp.counters.packetsDropped, pinned[p].packetsDropped)
            << what;
        EXPECT_GT(fp.counters.faultEvents, 0u) << what;
    }
}

} // namespace
} // namespace snoc
