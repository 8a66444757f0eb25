/**
 * @file
 * Incremental-bookkeeping equivalence tests for the O(1) occupancy
 * counters, the active-VC sweep bitmasks, the router-level
 * port-activity words, and the flat ShortestPaths table.
 *
 * The occupancy counters and sweep state are maintained at the exact
 * points credits move and queues change; Network::auditInvariants()
 * recounts every one of them against a from-scratch scan: occToward,
 * the per-input occMask, the reqCount refcounts, the per-output
 * ownedMask / reqMask / cbMask, and the inActive / outActive port
 * words. These tests drive randomized traffic — with and without
 * mid-run fault purges — through that audit via SimInvariantChecker,
 * pin the arbitration of routers whose port words span several
 * 64-bit words, reject routers with more than 64 VCs, and pin the
 * public-API relationships the adaptive schemes rely on
 * (pathOccupancy == sum of linkOccupancy along the minimal path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/shortest_paths.hh"
#include "sim/network.hh"
#include "tests/support/sim_invariants.hh"
#include "topo/grid_topologies.hh"
#include "topo/table4.hh"

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

void
offerRandom(Network &net, std::uint64_t &s, int perCycle)
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

/** Drive `cycles` of random traffic, auditing every `checkEvery`. */
void
soak(Network &net, std::uint64_t seed, int cycles, int checkEvery)
{
    SimInvariantChecker checker(net);
    std::uint64_t s = seed;
    for (int c = 0; c < cycles; ++c) {
        offerRandom(net, s, 2);
        net.step();
        if (c % checkEvery == checkEvery - 1)
            checker.check("cycle " + std::to_string(c));
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    checker.checkQuiescent("after drain");
}

TEST(OccupancyTracking, UgalTrafficMatchesRecounts)
{
    // UGAL's 2*diameter VC count is the configuration the bitmask
    // sweep targets; the audit recounts occToward, the VC masks,
    // reqCount and the port-activity words every 50 cycles.
    for (const char *topoId : {"sn_54", "cm4"}) {
        Network net(makeNamedTopology(topoId),
                    RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::UgalL, /*seed=*/7);
        soak(net, 0x5eed0 + std::string(topoId).size(), 600, 50);
    }
}

TEST(OccupancyTracking, CentralBufferTrafficMatchesRecounts)
{
    // The CBR divert/intake/drain paths maintain cbMask and the
    // requester refcounts across the bypass -> CB handoff.
    Network net(makeNamedTopology("cm4"), RouterConfig::named("CBR-6"),
                LinkConfig{}, RoutingMode::Minimal, /*seed=*/7);
    soak(net, 0xcb5eed, 600, 50);
}

TEST(OccupancyTracking, FaultPurgeKeepsCountersCoherent)
{
    // The purge rewrites buffers, ownership, and routing state
    // wholesale, then rebuilds the sweep masks; credits it returns
    // keep the occupancy counters balanced. Audit every cycle across
    // the kill / repair / re-kill window.
    FaultPlan plan;
    plan.linkDown(0, 1, 120)
        .routerDown(3, 160)
        .linkUp(0, 1, 220)
        .routerUp(3, 260);
    Network net(makeNamedTopology("cm4"), RouterConfig::named("EB-Var"),
                LinkConfig{}, RoutingMode::UgalL, /*seed=*/7, plan);
    SimInvariantChecker checker(net);
    std::uint64_t s = 0xfa17;
    for (int c = 0; c < 320; ++c) {
        offerRandom(net, s, 2);
        net.step();
        if (c >= 100)
            checker.check("cycle " + std::to_string(c));
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    checker.checkQuiescent("after faulted drain");
}

TEST(OccupancyTracking, RandomFaultSoakUnderCbr)
{
    // Random link failures against the CBR config: the purge must
    // rebuild cbMask alongside the edge-buffer masks.
    FaultPlan plan = FaultPlan::randomLinkFailures(0.10, 150, 23);
    Network net(makeNamedTopology("sn_54"), RouterConfig::named("CBR-6"),
                LinkConfig{}, RoutingMode::Minimal, /*seed=*/7, plan);
    SimInvariantChecker checker(net);
    std::uint64_t s = 0xabcdEF;
    for (int c = 0; c < 400; ++c) {
        offerRandom(net, s, 2);
        net.step();
        if (c % 25 == 24)
            checker.check("cycle " + std::to_string(c));
    }
}

/** FNV-1a over the 8 bytes of `v`. */
void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

/** Delivery-stream and counter fingerprints of one wide-router run. */
struct WideRun
{
    std::uint64_t packets = 0;
    std::uint64_t deliveryHash = 1469598103934665603ULL; // FNV basis
    std::uint64_t counterHash = 1469598103934665603ULL;
};

/**
 * Drive clos_1296 (162-port spines, three port-activity words) with
 * `perCycle` random packets per cycle for `cycles` cycles, auditing
 * every 50 cycles, then drain and fingerprint what was delivered.
 * Minimal routing's lowest-id tie-break sends every leaf-to-leaf
 * packet through one spine, so that spine arbitrates between
 * requesters in all three words every cycle.
 */
WideRun
runWide(const char *routerConfig, RoutingMode routing, int perCycle,
        int cycles, std::uint64_t seed)
{
    NocTopology topo = makeNamedTopology("clos_1296");
    int widest = 0;
    for (int r = 0; r < topo.numRouters(); ++r)
        widest = std::max(
            widest, static_cast<int>(topo.routers().neighbors(r).size()));
    EXPECT_GT(widest, 128);

    Network net(topo, RouterConfig::named(routerConfig), LinkConfig{},
                routing, /*seed=*/7);
    SimInvariantChecker checker(net);
    WideRun run;
    checker.setDeliveryCallback([&run](const Packet &p) {
        fnv(run.deliveryHash, p.id);
        fnv(run.deliveryHash, static_cast<std::uint64_t>(p.srcNode));
        fnv(run.deliveryHash, static_cast<std::uint64_t>(p.dstNode));
        fnv(run.deliveryHash, static_cast<std::uint64_t>(p.hops));
        fnv(run.deliveryHash, p.injectedAt);
        fnv(run.deliveryHash, p.ejectedAt);
    });
    std::uint64_t s = seed;
    for (int c = 0; c < cycles; ++c) {
        offerRandom(net, s, perCycle);
        net.step();
        if (c % 50 == 49)
            checker.check("cycle " + std::to_string(c));
    }
    for (int c = 0;
         c < 30000 && net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c)
        net.step();
    checker.checkQuiescent("after drain");

    const SimCounters &k = net.counters();
    for (std::uint64_t v :
         {k.bufferWrites, k.bufferReads, k.cbWrites, k.cbReads,
          k.crossbarTraversals, k.linkFlitHops, k.flitsInjected,
          k.flitsDelivered, k.packetsInjected, k.packetsDelivered})
        fnv(run.counterHash, v);
    run.packets = k.packetsDelivered;
    return run;
}

TEST(OccupancyTracking, WideMinimalRoutersKeepTheirArbitration)
{
    // clos_1296's spine routers have 162 ports: three port-activity
    // words. This fingerprint dates from before port words existed
    // and has held through the dense sweep wide routers once took;
    // it pins the requester search's order across words.
    WideRun r = runWide("EB-Var", RoutingMode::Minimal, 48, 300, 0xc105);
    EXPECT_EQ(r.packets, 14387u);
    EXPECT_EQ(r.deliveryHash, 17698057111276848339ULL);
    EXPECT_EQ(r.counterHash, 17825123032882910645ULL);
}

// The next two fingerprints were captured from the dense sweep the
// 162-port spines took before the port words grew past one word.
// Minimal EB-Var traffic enters a spine on one VC, so each input
// requests one output and the output-port order cannot show. Under
// CBR-6 it does: the spine's single CB output goes to the first
// output port in rotated order that drains it, and cbIntake/cbDivert
// run under contention. UGAL-L spreads traffic over all 13 spines on
// several VCs, so every spine's requester search crosses words.
TEST(OccupancyTracking, WideCentralBufferRoutersKeepTheirArbitration)
{
    WideRun r = runWide("CBR-6", RoutingMode::Minimal, 64, 300, 0xcb1296);
    EXPECT_EQ(r.packets, 19179u);
    EXPECT_EQ(r.deliveryHash, 2023834003736106588ULL);
    EXPECT_EQ(r.counterHash, 3314817687325657587ULL);
}

TEST(OccupancyTracking, WideUgalRoutersKeepTheirArbitration)
{
    WideRun r = runWide("EB-Var", RoutingMode::UgalL, 48, 300, 0x06a1);
    EXPECT_EQ(r.packets, 14393u);
    EXPECT_EQ(r.deliveryHash, 12069841858656520395ULL);
    EXPECT_EQ(r.counterHash, 14370668082627874315ULL);
}

TEST(OccupancyTracking, MoreThan64VcsFailAtConstruction)
{
    // A 34-router line has diameter 33, so UGAL asks for 2 x 33 VCs;
    // a port's VC masks hold 64.
    NocTopology line = makeConcentratedMesh("line_34", 34, 1, 1);
    ASSERT_EQ(line.routers().diameter(), 33);
    try {
        Network net(line, RouterConfig::named("EB-Var"), LinkConfig{},
                    RoutingMode::UgalL, /*seed=*/7);
        FAIL() << "a 66-VC router was built";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("66 VCs"),
                  std::string::npos)
            << e.what();
    }
}

TEST(OccupancyTracking, PathOccupancyIsSumOfLinkOccupancies)
{
    NocTopology topo = makeNamedTopology("sn_54");
    Network net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::UgalG, /*seed=*/7);
    ShortestPaths paths(net.topology().routers());
    std::uint64_t s = 0x900d;
    for (int c = 0; c < 300; ++c) {
        offerRandom(net, s, 2);
        net.step();
    }
    int n = net.topology().numRouters();
    for (int src = 0; src < n; ++src) {
        int dst = (src + n / 2) % n;
        if (src == dst)
            continue;
        int expected = 0;
        for (int v = src; v != dst;) {
            int nh = paths.nextHop(v, dst);
            expected += net.linkOccupancy(v, nh);
            v = nh;
        }
        EXPECT_EQ(net.pathOccupancy(src, dst), expected)
            << src << " -> " << dst;
    }
}

TEST(OccupancyTracking, LinkOccupancyStartsAtZeroAndStaysBounded)
{
    NocTopology topo = makeNamedTopology("cm4");
    Network net(topo, RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal, /*seed=*/7);
    const Graph &g = topo.routers();
    for (int u = 0; u < g.numVertices(); ++u)
        for (int v : g.neighbors(u))
            EXPECT_EQ(net.linkOccupancy(u, v), 0) << u << "->" << v;
    std::uint64_t s = 0xb0b;
    for (int c = 0; c < 200; ++c) {
        offerRandom(net, s, 2);
        net.step();
    }
    for (int u = 0; u < g.numVertices(); ++u)
        for (int v : g.neighbors(u))
            EXPECT_GE(net.linkOccupancy(u, v), 0) << u << "->" << v;
}

TEST(FlatShortestPaths, MatchesBfsAndTieBreaksLowestId)
{
    NocTopology topo = makeNamedTopology("sn_54");
    const Graph &g = topo.routers();
    ShortestPaths paths(g);
    for (int dst = 0; dst < g.numVertices(); ++dst) {
        auto d = g.bfsDistances(dst);
        for (int src = 0; src < g.numVertices(); ++src) {
            EXPECT_EQ(paths.distance(src, dst),
                      d[static_cast<std::size_t>(src)]);
            if (src == dst || d[static_cast<std::size_t>(src)] < 0)
                continue;
            int nh = paths.nextHop(src, dst);
            // One hop closer, and the lowest-id such neighbor.
            EXPECT_EQ(d[static_cast<std::size_t>(nh)],
                      d[static_cast<std::size_t>(src)] - 1);
            for (int w : g.neighbors(src))
                if (d[static_cast<std::size_t>(w)] ==
                    d[static_cast<std::size_t>(src)] - 1) {
                    EXPECT_LE(nh, w);
                }
        }
    }
}

} // namespace
} // namespace snoc
