/**
 * @file
 * JSON round-trip tests for the experiment data structures: the
 * committed goldens (every field non-default, armed FaultPlan
 * included; a full result row; the canonical hash of each committed
 * plan) pin the canonical serialized forms byte-for-byte, the
 * property checks prove parse(serialize(x)) == x, and the error
 * cases pin the JSON-path diagnostics for malformed input. Two more
 * Ios over the schema declarations (exp/schema.hh) check that every
 * Scenario member reaches the cache key and that the schema doc
 * lists exactly the declared members.
 */

#include "exp/serialize.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>

#include "common/hash.hh"
#include "common/log.hh"
#include "exp/plan_io.hh"
#include "exp/result_store.hh"
#include "exp/runner.hh"
#include "exp/schema.hh"

#ifndef SNOC_SOURCE_DIR
#define SNOC_SOURCE_DIR "."
#endif

namespace snoc {
namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(SNOC_SOURCE_DIR) + "/tests/exp/golden/" +
           name;
}

/**
 * Every serializable field away from its default. Keep in sync with
 * the committed golden tests/exp/golden/plan_full.json (regenerate
 * the golden from this builder when the schema changes).
 */
ExperimentPlan
fullFatPlan()
{
    ExperimentPlan plan;
    plan.name = "full-fat";

    Scenario full;
    full.label = "kitchen-sink";
    full.topology = "sn_subgr_200";
    full.routerConfig = "CBR-20";
    full.link.hopsPerCycle = 9;
    full.routing = RoutingMode::UgalG;
    full.traffic = TrafficSpec::synthetic(PatternKind::Adversarial2);
    full.traffic.packetSizeFlits = 4;
    full.load = 0.25;
    full.seed = 12345678901234567890ULL;
    full.routingSeed = 987654321;
    full.sim.warmupCycles = 111;
    full.sim.measureCycles = 2222;
    full.sim.drainCycleLimit = 3333;
    full.sim.drain = true;
    full.faults = FaultPlan::randomLinkFailures(0.125, 400, 77);
    full.faults.linkDown(1, 2, 100)
        .linkUp(1, 2, 300)
        .routerDown(3, 200)
        .routerUp(3, 350);
    full.energy = EnergySpec::corner("22nm", 64);
    plan.add(full);

    Scenario sweepBase = full;
    sweepBase.label = "sweep-base";
    sweepBase.faults = {};
    plan.addSweep(sweepBase, {0.01, 0.02, 0.04}, false, 5.5);

    SaturationSpec sat;
    sat.loLoad = 0.03;
    sat.hiLoad = 0.9;
    sat.tolerance = 0.05;
    sat.maxProbes = 7;
    Scenario satBase = sweepBase;
    satBase.label = "saturation-base";
    plan.addSaturation(satBase, sat);

    plan.add(makeTraceScenario("cm_54", "ocean-c", 1234, 77));

    ClosedLoopSpec cl;
    cl.window = 4;
    cl.issueProb = 0.5;
    cl.requestSizeFlits = 3;
    cl.replySizeFlits = 5;
    cl.forwardSizeFlits = 4;
    cl.forwardFraction = 0.25;
    cl.memoryDelay = 90;
    cl.sweepAxis = ClosedLoopAxis::Window;
    cl.stopAfterRequests = 5000;
    plan.add(makeClosedLoopScenario("sn_54", "EB-Small",
                                    PatternKind::Shuffle, cl));

    CollectiveSpec coll;
    coll.kind = CollectiveKind::AllToAll;
    coll.root = 3;
    coll.fanout = 5;
    coll.rounds = 2;
    coll.phases = 4;
    coll.gapCycles = 10;
    coll.payloadSizeFlits = 8;
    coll.controlSizeFlits = 1;
    plan.add(makeCollectiveScenario("cm_54", "EB-Large", coll));
    return plan;
}

/**
 * A saturation-job result row with every SimResult, SimCounters and
 * bookkeeping field away from its default, plus a failed point. Keep
 * in sync with tests/exp/golden/job_result_full.json.
 */
JobResult
fullFatJobResult()
{
    SimResult sim;
    sim.avgPacketLatency = 23.5;
    sim.avgNetworkLatency = 0.1 + 0.2; // shortest round-trip token
    sim.p99PacketLatencyBound = 41.125;
    sim.avgHops = 2.5;
    sim.throughput = 0.1875;
    sim.offeredLoad = 0.2;
    sim.packetsDelivered = 1234;
    sim.stable = false;
    std::uint64_t next = 1;
    for (std::uint64_t *c :
         {&sim.counters.bufferWrites, &sim.counters.bufferReads,
          &sim.counters.cbWrites, &sim.counters.cbReads,
          &sim.counters.crossbarTraversals, &sim.counters.linkFlitHops,
          &sim.counters.flitsInjected, &sim.counters.flitsDelivered,
          &sim.counters.packetsInjected,
          &sim.counters.packetsDelivered, &sim.counters.faultEvents,
          &sim.counters.flitsDropped, &sim.counters.packetsDropped,
          &sim.counters.packetsUnroutable,
          &sim.counters.packetsRefused, &sim.counters.packetsRerouted,
          &sim.counters.clRequestsIssued,
          &sim.counters.clRepliesMatched,
          &sim.counters.clReqLatencySum,
          &sim.counters.clWindowOccupancy,
          &sim.counters.clStallNodeCycles,
          &sim.counters.clSlotsPurged,
          &sim.counters.clPhasesCompleted})
        *c = next++;
    sim.cyclesRun = 12000;

    JobResult r;
    r.kind = Job::Kind::Saturation;
    r.saturationLoad = 0.375;
    r.bestThroughput = 0.3125;
    r.status = JobStatus::Failed;
    r.error = "point 1: boom";
    r.retries = 2;
    r.cacheHits = 1;
    r.cacheMisses = 3;
    r.wallMs = 12.75;

    ScenarioResult good;
    good.scenario = fullFatPlan().jobs[2].scenario;
    good.sim = sim;
    ScenarioResult bad;
    bad.scenario = good.scenario;
    bad.scenario.load = 0.9;
    bad.ok = false;
    bad.error = "boom";
    r.points = {good, bad};
    return r;
}

TEST(Serialize, GoldenBytesArePinned)
{
    std::string golden = readTextFile(goldenPath("plan_full.json"));
    EXPECT_EQ(serializePlan(fullFatPlan()), golden)
        << "canonical serializer output changed; regenerate the "
           "golden intentionally if the schema changed";
}

TEST(Serialize, GoldenParsesBackToTheSamePlan)
{
    std::string golden = readTextFile(goldenPath("plan_full.json"));
    EXPECT_TRUE(parsePlan(golden, "plan_full.json") == fullFatPlan());
}

TEST(Serialize, JobResultGoldenIsPinnedAndRoundTrips)
{
    std::string golden =
        readTextFile(goldenPath("job_result_full.json"));
    EXPECT_EQ(toJson(fullFatJobResult()).dump(2) + "\n", golden)
        << "canonical result-row form changed: stored results and "
           "journals written before the change would no longer "
           "read back";
    EXPECT_TRUE(jobResultFromJson(JsonValue::parse(golden)) ==
                fullFatJobResult());
}

TEST(Serialize, CommittedPlansKeepTheirCanonicalHash)
{
    // One "<sha256>  plans/<file>" line per committed plan: the hash
    // of its canonical form, which result-store keys and journal
    // plan bindings are derived from (the build stamp aside).
    std::map<std::string, std::string> pinned;
    std::istringstream lines(
        readTextFile(goldenPath("plan_canonical.sha256")));
    std::string hash, file;
    while (lines >> hash >> file)
        pinned[file] = hash;

    std::map<std::string, std::string> actual;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(SNOC_SOURCE_DIR) + "/plans")) {
        std::string name =
            "plans/" + entry.path().filename().string();
        actual[name] = sha256Hex(
            serializePlan(loadPlanFile(entry.path().string())));
    }
    EXPECT_EQ(actual, pinned);
}

TEST(Serialize, RoundTripIsExact)
{
    ExperimentPlan plan = fullFatPlan();
    EXPECT_TRUE(parsePlan(serializePlan(plan)) == plan);

    // A defaults-only scenario round-trips through the minimal form.
    Scenario plain;
    plain.topology = "sn_54";
    EXPECT_EQ(serializeScenario(plain),
              "{\n  \"topology\": \"sn_54\"\n}\n");
    EXPECT_TRUE(parseScenario(serializeScenario(plain)) == plain);

    // The full form (`snoc describe`) is a valid plan fragment too:
    // every member it writes is one the strict reader accepts.
    for (const Job &job : plan.jobs)
        EXPECT_TRUE(jobFromJson(toFullJson(job)) == job);
    EXPECT_TRUE(scenarioFromJson(toFullJson(plain)) == plain);
}

TEST(Serialize, DescribeIncludesRoutingAndFaults)
{
    Scenario s;
    s.topology = "sn_54";
    s.load = 0.06;
    EXPECT_EQ(s.describe(), "sn_54/EB-Var/minimal/RND@0.06");
    s.routing = RoutingMode::UgalL;
    EXPECT_EQ(s.describe(), "sn_54/EB-Var/ugal-l/RND@0.06");
    Scenario armed = s;
    armed.faults.armed = true;
    // Minimal vs ugal-l vs armed runs of the same point must not
    // collide (the pre-redesign label dropped both axes).
    EXPECT_NE(armed.describe(), s.describe());
    EXPECT_EQ(armed.describe(), "sn_54/EB-Var/ugal-l/RND@0.06+faults");
    // The energy corner is a result axis too: the same point
    // evaluated at 45nm and 22nm must get distinct derived labels.
    Scenario energized = armed;
    energized.energy = EnergySpec::corner("22nm");
    EXPECT_EQ(energized.describe(),
              "sn_54/EB-Var/ugal-l/RND@0.06+faults+22nm");
    energized.energy = EnergySpec::corner("45nm");
    EXPECT_NE(energized.describe(), armed.describe());
}

TEST(Serialize, EnergySpecRoundTripsThroughTheMinimalForm)
{
    // Presence of the member enables evaluation; a defaults-only
    // enabled spec serializes as the empty object.
    Scenario s;
    s.topology = "sn_54";
    s.energy.enabled = true;
    EXPECT_EQ(serializeScenario(s),
              "{\n  \"topology\": \"sn_54\",\n  \"energy\": {}\n}\n");
    EXPECT_TRUE(parseScenario(serializeScenario(s)) == s);

    s.energy = EnergySpec::corner("22nm", 64);
    EXPECT_TRUE(parseScenario(serializeScenario(s)) == s);
}

void
expectErrorContains(const std::string &text,
                    const std::string &needle)
{
    try {
        parsePlan(text);
        FAIL() << "expected FatalError for: " << text;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "message: " << e.what() << "\nwanted: " << needle;
    }
}

TEST(Serialize, ErrorsCarryTheJsonPath)
{
    // Unknown member (typo protection), with its exact path.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "laod": 0.1}}]})",
        "$.jobs[0].scenario: unknown member 'laod'");

    // Unregistered routing mode, with the valid set listed.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "routing": "ugal"}}]})",
        "$.jobs[0].scenario.routing");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "routing": "ugal"}}]})",
        "ugal-l");

    // Unknown topology / router config / pattern / workload.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "nope"}}]})",
        "$.jobs[0].scenario.topology");
    // Slim NoC prefix alone is not enough: the size suffix must
    // resolve, so typos fail at parse time, not mid-run.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_garbage"}}]})",
        "$.jobs[0].scenario.topology");

    // Overflowing number literals are rejected with their path
    // instead of becoming inf.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "load": 1e999}}]})",
        "$.jobs[0].scenario.load");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "routerConfig": "EB-Huge"}}]})",
        "$.jobs[0].scenario.routerConfig");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "traffic": {"pattern": "XXX"}}}]})",
        "$.jobs[0].scenario.traffic.pattern");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "traffic": {"workload": "doom"}}}]})",
        "$.jobs[0].scenario.traffic.workload");

    // Structural mistakes.
    expectErrorContains(R"({"jobs": [{}]})",
                        "$.jobs[0]: missing 'scenario'");
    expectErrorContains(R"({"name": "x"})", "$: missing 'jobs'");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "sweep": {"loads": []}}]})",
        "$.jobs[0].sweep.loads: needs at least one load");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "traffic": {"pattern": "RND", "workload": "fft"}}}]})",
        "'workload' and 'pattern' are exclusive");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "faults": {"events": [{"kind": "link-down",
                                    "a": 1}]}}}]})",
        "link events need both endpoints");

    // Energy spec: unregistered tech corner and nonsense flit width
    // fail at parse time, with the valid corners listed.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "energy": {"tech": "33nm"}}}]})",
        "$.jobs[0].scenario.energy.tech");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "energy": {"tech": "33nm"}}}]})",
        "45nm");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "energy": {"flitBits": 0}}}]})",
        "$.jobs[0].scenario.energy.flitBits");

    // Type mismatch deep in the tree, with its path.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
             "sim": {"warmupCycles": "soon"}}}]})",
        "$.jobs[0].scenario.sim.warmupCycles");

    // Sweep and saturation inputs are checked at parse time, not by
    // an assertion deep inside the run.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "sweep": {"loads": [-0.5, 0.05]}}]})",
        "$.jobs[0].sweep.loads[0]: must be non-negative");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "sweep": {"loads": [0.05],
                                "saturationFactor": 0}}]})",
        "$.jobs[0].sweep.saturationFactor: must be positive");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "saturation": {"loLoad": -0.1}}]})",
        "$.jobs[0].saturation.loLoad: must be non-negative");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "saturation": {"loLoad": 0.5,
                                     "hiLoad": 0.2}}]})",
        "$.jobs[0].saturation.hiLoad: must exceed loLoad");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "saturation": {"tolerance": 0}}]})",
        "$.jobs[0].saturation.tolerance: must be positive");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54"},
                      "saturation": {"maxProbes": 0}}]})",
        "$.jobs[0].saturation.maxProbes: must be at least 1");

    // Members that would enter the cache key without changing the
    // result are rejected: the routing seed outside UGAL, the load
    // outside synthetic traffic, and sweeps of traffic with no axis.
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "routingSeed": 8}}]})",
        "$.jobs[0].scenario.routingSeed: only UGAL routing reads");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54", "load": 0.2,
             "traffic": {"closedLoop": {}}}}]})",
        "$.jobs[0].scenario.load: only synthetic traffic");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54", "load": 0.2,
             "traffic": {"collective": {}}}}]})",
        "$.jobs[0].scenario.load: only synthetic traffic");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54", "load": 0.2,
             "traffic": {"workload": "fft"}}}]})",
        "$.jobs[0].scenario.load: only synthetic traffic");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "traffic": {"collective": {}}},
                      "sweep": {"loads": [0.1, 0.2]}}]})",
        "$.jobs[0].sweep: collective and trace scenarios have no axis");
    expectErrorContains(
        R"({"jobs": [{"scenario": {"topology": "sn_54",
                                   "traffic": {"workload": "fft"}},
                      "saturation": {}}]})",
        "$.jobs[0].saturation: collective and trace scenarios have no");
}

// --- Ios over the same schema declarations ----------------------------------

template <class V>
constexpr bool kIsVector = false;
template <class E>
constexpr bool kIsVector<std::vector<E>> = true;

template <class V>
constexpr bool kIsStruct =
    std::is_class_v<V> && !std::is_same_v<V, std::string> &&
    !kIsVector<V>;

/** Whether `rule` accepts `v`. */
template <class V, class Rule>
bool
accepts(const Rule &rule, const V &v)
{
    try {
        rule(v);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

/** A value other than `v` that `rule` accepts. */
template <class V, class Rule>
V
otherValue(const V &v, const Rule &rule)
{
    std::vector<V> candidates;
    if constexpr (std::is_same_v<V, bool>) {
        candidates = {!v};
    } else if constexpr (std::is_same_v<V, std::string>) {
        candidates = {"x"};
        for (const auto *names :
             {&namedTopologyIds(), &RouterConfig::names(),
              &workloadNames(), &techCornerNames()})
            candidates.insert(candidates.end(), names->begin(),
                              names->end());
    } else if constexpr (std::is_floating_point_v<V>) {
        candidates = {v / 2, 0.5, v + 1};
    } else {
        candidates = {V(v + 1), V(v - 1)};
    }
    for (const V &c : candidates)
        if (c != v && accepts(rule, c))
            return c;
    ADD_FAILURE() << "no valid alternative value";
    return v;
}

/** One pass of the per-member mutator over a schema tree. */
struct Mutation
{
    int target = 0;       //!< index of the member to move
    int seen = 0;         //!< members visited so far
    bool repair = false;  //!< pass 2: make visible members valid
    std::string moved;    //!< path of the member that was moved
};

/**
 * Visits members in schema order and moves member number
 * `target` off its value, activating the gates around it. A second
 * pass with `repair` set replaces values the rules reject in the
 * members that became visible (an enabled workload needs a name).
 */
template <class T>
struct Mutator
{
    static constexpr bool kReads = false;
    T &x;
    Mutation &m;
    std::string path;

    template <class M, class Rule = AnyValue>
    void
    field(const char *key, M T::*member, Rule rule = {},
          Presence = kOptional)
    {
        visit(x.*member, path + "." + key, rule);
    }

    template <class E, class FromName>
    void
    name(const char *key, E T::*member, FromName, Presence = kOptional)
    {
        E &v = x.*member;
        if (!m.repair && m.seen++ == m.target) {
            v = v == E{} ? E(1) : E{}; // every enum has two or more
            m.moved = path + "." + key;
        }
    }

    template <class S, class Fn>
    void
    when(S &selector, std::initializer_list<S> values, Fn fn)
    {
        if (m.repair) {
            if (std::find(values.begin(), values.end(), selector) !=
                values.end())
                fn();
            return;
        }
        bool before = !m.moved.empty();
        fn();
        if (!before && !m.moved.empty())
            selector = *values.begin();
    }

    template <class Fn>
    void
    object(const char *key, Fn fn)
    {
        Mutator group{x, m, path + "." + key};
        fn(group);
    }

    void check(bool, const char *, const char *) {}

    template <class V, class Rule>
    void
    visit(V &v, const std::string &at, const Rule &rule)
    {
        if constexpr (kIsStruct<V>) {
            Mutator<V> sub{v, m, at};
            schema(sub, v);
        } else if constexpr (kIsVector<V>) {
            for (std::size_t i = 0; i < v.size(); ++i)
                visit(v[i], at + "[" + std::to_string(i) + "]", rule);
            if (!m.repair && m.seen++ == m.target) {
                v.push_back(v.empty() ? typename V::value_type{}
                                      : v.back());
                m.moved = at;
            }
        } else if (m.repair) {
            if (!accepts(rule, v))
                v = otherValue(v, rule);
        } else if (m.seen++ == m.target) {
            v = otherValue(v, rule);
            m.moved = at;
        }
    }
};

TEST(Schema, EveryScenarioMemberReachesTheKeyAndRoundTrips)
{
    Scenario base;
    base.topology = "sn_54";
    base.faults.linkDown(1, 2, 100); // so event members are visited
    const std::string baseText = serializeScenario(base);

    int members = 0;
    for (;; ++members) {
        Scenario s = base;
        Mutation m;
        m.target = members;
        Mutator<Scenario> mutate{s, m, "$"};
        schema(mutate, s);
        if (m.moved.empty())
            break;
        m.repair = true;
        Mutator<Scenario> repair{s, m, "$"};
        schema(repair, s);

        std::string text = serializeScenario(s);
        EXPECT_NE(text, baseText) << m.moved;
        EXPECT_NE(resultKey(s), resultKey(base)) << m.moved;
        EXPECT_TRUE(parseScenario(text) == s) << m.moved << "\n" << text;
    }
    // Every member of the Scenario tree, the events array and each
    // member of its one event included.
    EXPECT_EQ(members, 44);
}

TEST(Schema, TraceScenarioSimChangesTheKeyButNotTheResult)
{
    // The one named exception to "every member changes the result":
    // trace replay runs its own windows (workloadSimConfig), so a
    // `sim` block on a workload scenario enters the cache key yet
    // changes nothing. The campaign benchmark's prepare step shrinks
    // `sim` on every scenario, trace ones included, which is why the
    // reader does not reject the block yet.
    Scenario trace = makeTraceScenario("sn_54", "radix", 300);
    Scenario shifted = trace;
    shifted.sim.warmupCycles = 50;
    shifted.sim.measureCycles = 100;
    shifted.sim.drain = true;
    EXPECT_NE(resultKey(shifted), resultKey(trace));
    EXPECT_TRUE(ExperimentRunner::runScenario(shifted) ==
                ExperimentRunner::runScenario(trace));
}

/** Collects declared member names per docs table heading. */
using MemberTables = std::map<std::string, std::vector<std::string>>;

std::string
tableHeading(const std::string &key)
{
    // A struct's table is titled after the member that holds it.
    static const std::map<std::string, std::string> special = {
        {"", "Plan (top level)"}, {"jobs", "Job"}, {"events", "Event"}};
    if (auto it = special.find(key); it != special.end())
        return it->second;
    std::string heading = key;
    heading[0] = static_cast<char>(std::toupper(heading[0]));
    return heading;
}

template <class T>
struct NameCollector
{
    static constexpr bool kReads = false;
    T &x;
    MemberTables &tables;
    std::string table;

    template <class M, class Rule = AnyValue>
    void
    field(const char *key, M T::*member, Rule = {}, Presence = kOptional)
    {
        tables[table].push_back(key);
        if constexpr (kIsStruct<M>) {
            NameCollector<M> sub{x.*member, tables, tableHeading(key)};
            schema(sub, x.*member);
        } else if constexpr (kIsVector<M>) {
            using E = typename M::value_type;
            if constexpr (kIsStruct<E>) {
                E item{};
                NameCollector<E> sub{item, tables, tableHeading(key)};
                schema(sub, item);
            }
        }
    }

    template <class E, class FromName>
    void
    name(const char *key, E T::*, FromName, Presence = kOptional)
    {
        tables[table].push_back(key);
    }

    template <class S, class Fn>
    void
    when(S &, std::initializer_list<S>, Fn fn)
    {
        fn();
    }

    template <class Fn>
    void
    object(const char *key, Fn fn)
    {
        tables[table].push_back(key);
        NameCollector group{x, tables, tableHeading(key)};
        fn(group);
    }

    void check(bool, const char *, const char *) {}
};

TEST(Schema, DocsListExactlyTheDeclaredMembers)
{
    ExperimentPlan plan;
    MemberTables declared;
    NameCollector<ExperimentPlan> collect{plan, declared,
                                          tableHeading("")};
    schema(collect, plan);

    // "| `member` | ..." rows, grouped under the nearest heading.
    MemberTables documented;
    std::istringstream doc(readTextFile(
        std::string(SNOC_SOURCE_DIR) + "/docs/SCENARIO_SCHEMA.md"));
    std::string line, heading;
    while (std::getline(doc, line)) {
        if (line.rfind("#", 0) == 0)
            heading = line.substr(line.find(' ') + 1);
        else if (line.rfind("| `", 0) == 0)
            documented[heading].push_back(
                line.substr(3, line.find('`', 3) - 3));
    }
    EXPECT_EQ(documented, declared);
}

TEST(Serialize, FastModeTransformScalesPlans)
{
    ExperimentPlan plan;
    Scenario s;
    s.topology = "sn_54";
    s.sim.warmupCycles = 2000;
    s.sim.measureCycles = 8000;
    s.faults = FaultPlan::randomLinkFailures(0.1, 2000, 1);
    s.faults.linkDown(0, 1, 1000);
    plan.addSweep(s, {0.008, 0.024, 0.06, 0.16, 0.4}, false);
    applyFastMode(plan);
    const Job &job = plan.jobs[0];
    EXPECT_EQ(job.scenario.sim.warmupCycles, 500u);
    EXPECT_EQ(job.scenario.sim.measureCycles, 2000u);
    EXPECT_EQ(job.scenario.faults.randomFailAt, 500u);
    EXPECT_EQ(job.scenario.faults.events[0].at, 250u);
    // Grid thins to {first, middle} — the classic fast load grid.
    EXPECT_EQ(job.loads, (std::vector<double>{0.008, 0.06}));

    // Explicit zeros keep their semantics (shrink, never raise).
    ExperimentPlan cold;
    Scenario zero;
    zero.topology = "sn_54";
    zero.sim.warmupCycles = 0;
    zero.faults.armed = true;
    cold.add(zero);
    applyFastMode(cold);
    EXPECT_EQ(cold.jobs[0].scenario.sim.warmupCycles, 0u);
    EXPECT_EQ(cold.jobs[0].scenario.faults.randomFailAt, 0u);
}

} // namespace
} // namespace snoc
