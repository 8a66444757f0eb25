/**
 * @file
 * Space-sharded cycle-loop equivalence.
 *
 * The determinism contract of ShardedNetwork (src/sim/shard.hh) is
 * that stepping one network with N shard threads is *bitwise
 * identical* to the serial Network::step(): same delivered-packet
 * stream (ids, timestamps, hop counts, in delivery order), same
 * SimCounters, for every shard count. Enforced four ways:
 *
 *  - 2- and 4-shard runs reproduce the pre-refactor hotpath goldens
 *    (the same constants tests/sim/hotpath_equivalence_test.cc pins),
 *    chaining the sharded loop back to the original implementation;
 *  - fingerprints are invariant across shard counts 1/2/3/4 and under
 *    extreme clamping (more shards than routers);
 *  - fault plans (link kill, random failures, router kill + repair)
 *    purge and reroute coherently under sharding, with the shard-aware
 *    auditInvariants recounting boundary in-flight flits mid-run;
 *  - the audit itself runs while traffic is crossing shard boundaries,
 *    proving mailbox (channel) flits are counted exactly once;
 *  - a seeded fuzz sweep (SNOC_FUZZ_SEED / SNOC_FUZZ_ITERS) replays
 *    random scenarios, faults included, serially and sharded.
 *
 * Faulted serial runs on their own are pinned to fingerprints too,
 * with Network::auditInvariants checked mid-run, so a change to the
 * fault purge shows up even where both engines would agree.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "common/env.hh"
#include "sim/shard.hh"
#include "topo/table4.hh"

namespace snoc {
namespace {

// --- deterministic traffic + fingerprint (matches the hotpath
//     equivalence test so its goldens carry over) -----------------------------

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

void
hashDelivery(Fingerprint &fp, const Packet &p)
{
    fnv(fp.deliveryHash, p.id);
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.srcNode));
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.dstNode));
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.sizeFlits));
    fnv(fp.deliveryHash, static_cast<std::uint64_t>(p.hops));
    fnv(fp.deliveryHash, p.createdAt);
    fnv(fp.deliveryHash, p.injectedAt);
    fnv(fp.deliveryHash, p.ejectedAt);
    ++fp.packets;
}

/** The hotpath goldens' schedule seed; variant > 0 perturbs it so
 *  several runs on one topology carry distinct traffic. */
std::uint64_t
scheduleSeed(const std::string &topoId, RoutingMode mode,
             int variant = 0)
{
    std::uint64_t s =
        0xabcdef12 ^ (mode == RoutingMode::UgalL ? 77 : 0);
    for (const char ch : topoId)
        s = s * 131 + static_cast<std::uint64_t>(ch);
    return s + static_cast<std::uint64_t>(variant) * 0x9e3779b9ULL;
}

/** Offer the golden schedule's two packets for one cycle. */
void
offerCycle(Network &net, std::uint64_t &s)
{
    int nodes = net.topology().numNodes();
    const int sizes[3] = {1, 4, 6};
    for (int k = 0; k < 2; ++k) {
        std::uint64_t r = splitmix(s);
        int src =
            static_cast<int>(r % static_cast<std::uint64_t>(nodes));
        int dst = static_cast<int>((r >> 20) %
                                   static_cast<std::uint64_t>(nodes));
        if (src == dst)
            continue;
        net.offerPacket(src, dst, sizes[(r >> 40) % 3]);
    }
}

void
finishFingerprint(Fingerprint &fp, const Network &net)
{
    fp.drained =
        net.flitsInFlight() == 0 && net.sourceQueueDepth() == 0;
    fp.counters = net.counters();
}

constexpr int kOfferCycles = 1200;
constexpr int kDrainLimit = 30000;

/** The serial reference: the hotpath test's exact loop. Audits the
 *  network every `auditEvery` cycles when nonzero. */
Fingerprint
runSerial(const std::string &topoId, const std::string &routerCfg,
          RoutingMode mode, std::uint64_t seed,
          std::uint64_t routingSeed = 7, const FaultPlan &faults = {},
          int auditEvery = 0)
{
    Network net(makeNamedTopology(topoId),
                RouterConfig::named(routerCfg), LinkConfig{}, mode,
                routingSeed, faults);
    Fingerprint fp;
    net.setDeliveryCallback(
        [&fp](const Packet &p) { hashDelivery(fp, p); });
    auto audit = [&](int cycle) {
        if (auditEvery == 0 || cycle % auditEvery != 0)
            return;
        std::string err;
        ASSERT_TRUE(net.auditInvariants(err))
            << "cycle " << cycle << ": " << err;
    };
    std::uint64_t s = seed;
    int cycle = 0;
    for (int c = 0; c < kOfferCycles; ++c, ++cycle) {
        offerCycle(net, s);
        net.step();
        audit(cycle);
    }
    for (int c = 0;
         c < kDrainLimit &&
         net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c, ++cycle) {
        net.step();
        audit(cycle);
    }
    std::string err;
    EXPECT_TRUE(net.auditInvariants(err)) << err;
    finishFingerprint(fp, net);
    return fp;
}

/** Same run stepped by a ShardedNetwork; audits the shard
 *  bookkeeping every `auditEvery` cycles when nonzero. */
Fingerprint
runSharded(const std::string &topoId, const std::string &routerCfg,
           RoutingMode mode, int shards, std::uint64_t seed,
           std::uint64_t routingSeed = 7, const FaultPlan &faults = {},
           int auditEvery = 0)
{
    Network net(makeNamedTopology(topoId),
                RouterConfig::named(routerCfg), LinkConfig{}, mode,
                routingSeed, faults);
    Fingerprint fp;
    net.setDeliveryCallback(
        [&fp](const Packet &p) { hashDelivery(fp, p); });
    ShardedNetwork sn(net, shards);
    auto audit = [&](int cycle) {
        if (auditEvery == 0 || cycle % auditEvery != 0)
            return;
        std::string err;
        ASSERT_TRUE(sn.auditInvariants(err))
            << "cycle " << cycle << ": " << err;
    };
    std::uint64_t s = seed;
    int cycle = 0;
    for (int c = 0; c < kOfferCycles; ++c, ++cycle) {
        offerCycle(net, s);
        sn.step();
        audit(cycle);
    }
    for (int c = 0;
         c < kDrainLimit &&
         net.flitsInFlight() + net.sourceQueueDepth() > 0;
         ++c, ++cycle) {
        sn.step();
        audit(cycle);
    }
    std::string err;
    EXPECT_TRUE(sn.auditInvariants(err)) << err;
    finishFingerprint(fp, net);
    return fp;
}

void
expectEqual(const Fingerprint &a, const Fingerprint &b,
            const std::string &what)
{
    EXPECT_EQ(a.deliveryHash, b.deliveryHash) << what;
    EXPECT_EQ(a.packets, b.packets) << what;
    EXPECT_EQ(a.drained, b.drained) << what;
    const SimCounters &x = a.counters;
    const SimCounters &y = b.counters;
    EXPECT_EQ(x.bufferWrites, y.bufferWrites) << what;
    EXPECT_EQ(x.bufferReads, y.bufferReads) << what;
    EXPECT_EQ(x.cbWrites, y.cbWrites) << what;
    EXPECT_EQ(x.cbReads, y.cbReads) << what;
    EXPECT_EQ(x.crossbarTraversals, y.crossbarTraversals) << what;
    EXPECT_EQ(x.linkFlitHops, y.linkFlitHops) << what;
    EXPECT_EQ(x.flitsInjected, y.flitsInjected) << what;
    EXPECT_EQ(x.flitsDelivered, y.flitsDelivered) << what;
    EXPECT_EQ(x.packetsInjected, y.packetsInjected) << what;
    EXPECT_EQ(x.packetsDelivered, y.packetsDelivered) << what;
    EXPECT_EQ(x.faultEvents, y.faultEvents) << what;
    EXPECT_EQ(x.flitsDropped, y.flitsDropped) << what;
    EXPECT_EQ(x.packetsDropped, y.packetsDropped) << what;
    EXPECT_EQ(x.packetsUnroutable, y.packetsUnroutable) << what;
    EXPECT_EQ(x.packetsRefused, y.packetsRefused) << what;
    EXPECT_EQ(x.packetsRerouted, y.packetsRerouted) << what;
}

// --- sharded runs vs the pre-refactor goldens -------------------------------

struct Golden
{
    const char *topoId;
    const char *routerCfg;
    RoutingMode mode;
    std::uint64_t deliveryHash;
    std::uint64_t packets;
};

// Hash/count constants identical to
// tests/sim/hotpath_equivalence_test.cc (captured from the
// pre-refactor implementation at seed commit d4521ab).
const Golden kGoldens[] = {
    {"sn_54", "EB-Var", RoutingMode::Minimal, 2639430157430525923ULL,
     2359},
    {"sn_54", "EB-Var", RoutingMode::UgalL, 6892119119667836727ULL,
     2346},
    {"cm4", "EB-Var", RoutingMode::Minimal, 15130970296130405403ULL,
     2382},
    {"cm4", "EB-Var", RoutingMode::UgalL, 10544351002339066447ULL,
     2393},
    {"sn_54", "CBR-6", RoutingMode::Minimal, 12281713939419675306ULL,
     2359},
    {"cm4", "CBR-6", RoutingMode::Minimal, 15521535991371378789ULL,
     2382},
};

class ShardGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(ShardGolden, ShardedRunsMatchGoldenAndSerial)
{
    const Golden &g = GetParam();
    std::uint64_t seed = scheduleSeed(g.topoId, g.mode);
    Fingerprint serial =
        runSerial(g.topoId, g.routerCfg, g.mode, seed);
    // The serial reference itself must still be on the golden chain.
    ASSERT_EQ(serial.deliveryHash, g.deliveryHash) << g.topoId;
    ASSERT_EQ(serial.packets, g.packets) << g.topoId;
    ASSERT_TRUE(serial.drained) << g.topoId;
    for (int shards : {2, 4}) {
        Fingerprint fp = runSharded(g.topoId, g.routerCfg, g.mode,
                                    shards, seed);
        expectEqual(fp, serial,
                    std::string(g.topoId) + " shards=" +
                        std::to_string(shards));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, ShardGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        std::string name = info.param.topoId;
        name += '_';
        for (const char *c = info.param.routerCfg; *c; ++c)
            if (std::isalnum(static_cast<unsigned char>(*c)))
                name += *c;
        name += info.param.mode == RoutingMode::UgalL ? "_UgalL"
                                                      : "_Minimal";
        return name;
    });

// --- shard-count invariance --------------------------------------------------

TEST(ShardCount, FingerprintInvariantAcrossShardCounts)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::UgalL;
    std::uint64_t seed = scheduleSeed(topoId, mode);
    Fingerprint ref = runSerial(topoId, "EB-Var", mode, seed);
    // 1 shard must behave exactly like no sharding at all, 3 cuts
    // the 6 SN subgroup blocks unevenly across shards, and 18 gives
    // every router its own shard.
    for (int shards : {1, 2, 3, 4, 18}) {
        Fingerprint fp =
            runSharded(topoId, "EB-Var", mode, shards, seed);
        expectEqual(fp, ref, "shards=" + std::to_string(shards));
    }
}

TEST(ShardCount, ClampsToRouterCount)
{
    Network net(makeNamedTopology("sn_54"),
                RouterConfig::named("EB-Var"));
    ShardedNetwork sn(net, 1000);
    EXPECT_EQ(sn.numShards(), net.topology().numRouters());
    std::string err;
    EXPECT_TRUE(sn.auditInvariants(err)) << err;
}

// --- fault coherence under sharding -----------------------------------------

TEST(ShardFaults, PurgeAndRerouteMatchSerial)
{
    const std::string topoId = "sn_54";
    const RoutingMode mode = RoutingMode::Minimal;
    std::uint64_t seed = scheduleSeed(topoId, mode);

    std::vector<FaultPlan> plans(3);
    plans[0] = FaultPlan{}.linkDown(0, 1, 300);
    plans[0].armed = true;
    plans[1] = FaultPlan::randomLinkFailures(0.05, 400, 99);
    plans[2] = FaultPlan{}.routerDown(3, 500).routerUp(3, 900);
    plans[2].armed = true;

    for (std::size_t p = 0; p < plans.size(); ++p) {
        Fingerprint serial =
            runSerial(topoId, "EB-Var", mode, seed, 7, plans[p]);
        for (int shards : {2, 4}) {
            Fingerprint fp =
                runSharded(topoId, "EB-Var", mode, shards, seed, 7,
                           plans[p], /*auditEvery=*/100);
            expectEqual(fp, serial,
                        "plan " + std::to_string(p) + " shards=" +
                            std::to_string(shards));
        }
    }
}

// --- faulted serial runs vs pinned fingerprints -----------------------------

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
        Fingerprint fp = runSerial(topoId, "EB-Var", mode, seed, 7,
                                   pinned[p].plan, /*auditEvery=*/100);
        std::string what = "plan " + std::to_string(p);
        EXPECT_TRUE(fp.drained) << what;
        EXPECT_EQ(fp.deliveryHash, pinned[p].deliveryHash) << what;
        EXPECT_EQ(fp.packets, pinned[p].packets) << what;
        EXPECT_EQ(fp.counters.packetsDropped, pinned[p].packetsDropped)
            << what;
        EXPECT_GT(fp.counters.faultEvents, 0u) << what;
        expectEqual(runSharded(topoId, "EB-Var", mode, 3, seed, 7,
                               pinned[p].plan, /*auditEvery=*/100),
                    fp, what + " shards=3");
    }
}

// --- seeded fuzz: random scenarios, serial vs sharded -----------------------

TEST(ShardFuzz, RandomScenariosMatchSerialReplays)
{
    const std::uint64_t baseSeed = envU64(kEnvFuzzSeed, 0xb47c4ed5ULL);
    const std::uint64_t iters = envU64(kEnvFuzzIters, 3);

    const char *topos[] = {"sn_54", "cm4"};
    const char *cfgs[] = {"EB-Var", "CBR-6"};

    for (std::uint64_t it = 0; it < iters; ++it) {
        std::uint64_t s = baseSeed + it * 0x9e3779b97f4a7c15ULL;
        std::uint64_t r = splitmix(s);
        const std::string topoId = topos[r & 1];
        const std::string routerCfg = cfgs[(r >> 8) & 1];
        RoutingMode mode = ((r >> 16) & 1) ? RoutingMode::UgalL
                                           : RoutingMode::Minimal;
        int runs = 2 + static_cast<int>((r >> 24) % 4);
        SCOPED_TRACE("replay with SNOC_FUZZ_SEED=" +
                     std::to_string(baseSeed + it * 0x9e3779b97f4a7c15ULL) +
                     " SNOC_FUZZ_ITERS=1 | " + topoId + "/" +
                     routerCfg + " runs=" + std::to_string(runs));

        for (int k = 0; k < runs; ++k) {
            std::uint64_t rk = splitmix(s);
            std::uint64_t routingSeed = 1 + (rk & 0xff);
            FaultPlan faults;
            if ((rk >> 8 & 3) == 0)
                faults = FaultPlan::randomLinkFailures(
                    0.02 + 0.04 * ((rk >> 10 & 3) / 3.0),
                    200 + (rk >> 16 & 511), rk >> 32);
            int shards = 2 + static_cast<int>((rk >> 40) % 3);
            std::uint64_t seed = splitmix(s);
            expectEqual(
                runSharded(topoId, routerCfg, mode, shards, seed,
                           routingSeed, faults, /*auditEvery=*/250),
                runSerial(topoId, routerCfg, mode, seed, routingSeed,
                          faults, /*auditEvery=*/250),
                "fuzz run " + std::to_string(k) + " shards=" +
                    std::to_string(shards));
        }
    }
}

// --- boundary accounting while traffic is in flight -------------------------

TEST(ShardAudit, BoundaryFlitsCountedExactlyOnceMidRun)
{
    const std::string topoId = "cm4";
    Network net(makeNamedTopology(topoId),
                RouterConfig::named("EB-Var"), LinkConfig{},
                RoutingMode::Minimal);
    ShardedNetwork sn(net, 4);
    // A 4-way cut of the 4x4 concentrated mesh must actually cut
    // links — otherwise this audits nothing.
    ASSERT_GT(sn.partition().boundaryEdges, 0);

    std::uint64_t s = scheduleSeed(topoId, RoutingMode::Minimal);
    bool sawBoundaryTraffic = false;
    for (int c = 0; c < 400; ++c) {
        offerCycle(net, s);
        sn.step();
        std::string err;
        ASSERT_TRUE(sn.auditInvariants(err))
            << "cycle " << c << ": " << err;
        if (net.flitsInFlight() > 0)
            sawBoundaryTraffic = true;
    }
    EXPECT_TRUE(sawBoundaryTraffic);
    EXPECT_GT(net.counters().packetsDelivered, 0u);
    // The sharded worklist must add up: never more than the router
    // count, and nonzero while traffic is in flight.
    EXPECT_LE(sn.lastActiveRouters(),
              static_cast<std::size_t>(net.topology().numRouters()));
}

} // namespace
} // namespace snoc
