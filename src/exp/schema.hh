/**
 * @file
 * The plan-file and result-row JSON schema, declared once per struct.
 *
 * Each `schema(io, x)` lists one struct's members in canonical order,
 * each with its JSON key, validation rule and presence. The Io gives
 * the declarations their meaning: serialize.cc drives them with a
 * writer (the canonical minimal form) and a strict reader (conversion,
 * rules, JSON paths in errors, unknown members rejected); the tests
 * drive them with a per-member mutator and a member-name collector.
 * An Io bound to one object of struct T provides:
 *  - field(key, &T::m, rule, presence): a scalar, a struct with its
 *    own schema, or a vector of either; the rule checks each scalar;
 *  - name(key, &T::m, fromName, presence): a registry-named enum,
 *    written as to_string(m) and read through fromName;
 *  - when(selector, {values}, fn): members that exist only while the
 *    selector holds one of `values`;
 *  - object(key, fn): members of T grouped under a nested object;
 *  - check(ok, key, message): a reader-only rule across members,
 *    reported at `key` (at the object itself when key is null);
 *  - kReads, true for the reader alone, which also answers has(key)
 *    for the hand-written presence logic.
 */

#ifndef SNOC_EXP_SCHEMA_HH
#define SNOC_EXP_SCHEMA_HH

#include <initializer_list>
#include <limits>
#include <string>

#include "common/log.hh"
#include "exp/experiment_plan.hh"
#include "power/tech_params.hh"
#include "sim/router_config.hh"
#include "topo/table4.hh"
#include "trace/workloads.hh"

namespace snoc {

/** When a member appears in the canonical form. */
enum Presence
{
    kOptional, //!< omitted while equal to the default; may be absent
    kAlways,   //!< always written; may be absent on input
    kRequired, //!< always written; absence is an error
};

// --- rules: throw FatalError; the reader prefixes the member's path ---------

struct AnyValue
{
    void operator()(const auto &) const {}
};
inline constexpr AnyValue kAny{};

/** lo <= v <= hi, else `message`. */
struct Within
{
    double lo, hi;
    const char *message;

    void
    operator()(double v) const
    {
        if (!(v >= lo && v <= hi))
            fatal(message);
    }
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Within kProbability{0, 1, "must be within [0, 1]"};
inline constexpr Within kNonNegative{0, kInf, "must be non-negative"};
inline constexpr Within kPositive{std::numeric_limits<double>::denorm_min(),
                                  kInf, "must be positive"}; // v > 0
inline constexpr Within kAtLeastOne{1, kInf, "must be at least 1"};
inline constexpr Within kOneFlit{1, kInf, "must be at least 1 flit"};
inline constexpr Within kOneBit{1, kInf, "must be at least 1 bit"};

/** Registry lookups (RouterConfig::named, ...) throw on unknown names. */
inline constexpr auto kTopologyId = [](const std::string &id) {
    if (!isNamedTopologyId(id))
        fatal("unknown topology id '", id, "'");
};

// --- plan files -------------------------------------------------------------

template <class Io>
void
schema(Io &io, ClosedLoopSpec &)
{
    using T = ClosedLoopSpec;
    io.field("window", &T::window, kAtLeastOne);
    io.field("issueProb", &T::issueProb, kProbability);
    io.field("requestSizeFlits", &T::requestSizeFlits, kOneFlit);
    io.field("replySizeFlits", &T::replySizeFlits, kOneFlit);
    io.field("forwardSizeFlits", &T::forwardSizeFlits, kOneFlit);
    io.field("forwardFraction", &T::forwardFraction, kProbability);
    io.field("memoryDelay", &T::memoryDelay, kAtLeastOne);
    io.name("sweep", &T::sweepAxis, closedLoopAxisFromName);
    io.field("stopAfterRequests", &T::stopAfterRequests);
}

template <class Io>
void
schema(Io &io, CollectiveSpec &)
{
    using T = CollectiveSpec;
    io.name("kind", &T::kind, collectiveKindFromName);
    io.field("root", &T::root, kNonNegative);
    io.field("fanout", &T::fanout, kNonNegative);
    io.field("rounds", &T::rounds, kNonNegative);
    io.field("phases", &T::phases, kNonNegative);
    io.field("gapCycles", &T::gapCycles);
    io.field("payloadSizeFlits", &T::payloadSizeFlits, kOneFlit);
    io.field("controlSizeFlits", &T::controlSizeFlits, kOneFlit);
}

template <class Io>
void
schema(Io &io, TrafficSpec &t)
{
    using T = TrafficSpec;
    using K = TrafficSpec::Kind;
    // Member presence selects the kind. The pattern still names the
    // request-destination draw of closed-loop traffic.
    if constexpr (Io::kReads) {
        bool workload = io.has("workload"), pattern = io.has("pattern");
        bool closedLoop = io.has("closedLoop");
        bool collective = io.has("collective");
        io.check(!(workload && pattern), nullptr,
                 "'workload' and 'pattern' are exclusive");
        io.check(workload + closedLoop + collective <= 1, nullptr,
                 "'workload', 'closedLoop' and 'collective' are exclusive");
        io.check(!(collective && pattern), nullptr,
                 "'collective' does not draw destinations from a 'pattern'");
        t.kind = workload     ? K::Workload
                 : closedLoop ? K::ClosedLoop
                 : collective ? K::Collective
                              : K::Synthetic;
    }
    io.when(t.kind, {K::Synthetic, K::ClosedLoop}, [&] {
        io.name("pattern", &T::pattern, patternFromName, kAlways);
    });
    io.when(t.kind, {K::Synthetic}, [&] {
        io.field("packetSizeFlits", &T::packetSizeFlits, kOneFlit);
    });
    io.when(t.kind, {K::Workload}, [&] {
        io.field("workload", &T::workload, workloadByName, kAlways);
        io.field("workloadCycles", &T::workloadCycles);
    });
    io.when(t.kind, {K::ClosedLoop}, [&] {
        io.field("closedLoop", &T::closedLoop, kAny, kAlways);
    });
    io.when(t.kind, {K::Collective}, [&] {
        io.field("collective", &T::collective, kAny, kAlways);
    });
}

template <class Io>
void
schema(Io &io, EnergySpec &)
{
    using T = EnergySpec;
    io.field("tech", &T::tech, techCornerByName);
    io.field("flitBits", &T::flitBits, kOneBit);
}

template <class Io>
void
schema(Io &io, SimConfig &)
{
    using T = SimConfig;
    io.field("warmupCycles", &T::warmupCycles);
    io.field("measureCycles", &T::measureCycles);
    io.field("drainCycleLimit", &T::drainCycleLimit);
    io.field("drain", &T::drain);
}

template <class Io>
void
schema(Io &io, LinkConfig &)
{
    io.field("hopsPerCycle", &LinkConfig::hopsPerCycle, kAtLeastOne);
}

template <class Io>
void
schema(Io &io, FaultEvent &ev)
{
    using T = FaultEvent;
    io.field("at", &T::at, kAny, kAlways);
    io.name("kind", &T::kind, faultEventKindFromName, kRequired);
    io.field("a", &T::a, kAny, kRequired);
    io.field("b", &T::b);
    bool router = ev.kind == T::Kind::RouterDown ||
                  ev.kind == T::Kind::RouterUp;
    io.check(router || ev.b >= 0, nullptr,
             "link events need both endpoints 'a' and 'b'");
}

template <class Io>
void
schema(Io &io, FaultPlan &)
{
    using T = FaultPlan;
    io.field("events", &T::events);
    io.field("randomLinkFraction", &T::randomLinkFraction, kProbability);
    io.field("randomFailAt", &T::randomFailAt);
    io.field("faultSeed", &T::faultSeed);
    io.field("armed", &T::armed);
}

template <class Io>
void
schema(Io &io, Scenario &s)
{
    using T = Scenario;
    io.field("label", &T::label);
    io.field("topology", &T::topology, kTopologyId, kRequired);
    io.field("routerConfig", &T::routerConfig, &RouterConfig::named);
    io.field("link", &T::link);
    io.name("routing", &T::routing, routingModeFromName);
    io.field("traffic", &T::traffic);
    // Only open-loop synthetic traffic reads the offered load, and
    // only UGAL draws from the routing seed. Anywhere else either
    // would enter the cache key without changing the result.
    using K = TrafficSpec::Kind;
    io.when(s.traffic.kind, {K::Synthetic}, [&] {
        io.field("load", &T::load, kNonNegative);
    });
    io.field("seed", &T::seed);
    io.when(s.routing, {RoutingMode::UgalL, RoutingMode::UgalG}, [&] {
        io.field("routingSeed", &T::routingSeed);
    });
    if constexpr (Io::kReads) {
        io.check(s.traffic.kind == K::Synthetic || !io.has("load"),
                 "load", "only synthetic traffic has an offered load");
        io.check(s.routing == RoutingMode::UgalL ||
                     s.routing == RoutingMode::UgalG ||
                     !io.has("routingSeed"),
                 "routingSeed", "only UGAL routing reads a routing seed");
    }
    io.field("sim", &T::sim);
    io.field("faults", &T::faults);
    // Presence of the member enables evaluation, so an enabled
    // defaults-only spec is written as the empty object.
    if constexpr (Io::kReads)
        s.energy.enabled = io.has("energy");
    io.when(s.energy.enabled, {true}, [&] {
        io.field("energy", &T::energy, kAny, kAlways);
    });
}

template <class Io>
void
schema(Io &io, SaturationSpec &sat)
{
    using T = SaturationSpec;
    io.field("loLoad", &T::loLoad, kNonNegative);
    io.field("hiLoad", &T::hiLoad);
    io.check(sat.loLoad < sat.hiLoad, "hiLoad", "must exceed loLoad");
    io.field("tolerance", &T::tolerance, kPositive);
    io.field("maxProbes", &T::maxProbes, kAtLeastOne);
}

template <class Io>
void
schema(Io &io, Job &job)
{
    using T = Job;
    using K = Job::Kind;
    io.field("scenario", &T::scenario, kAny, kRequired);
    // Member presence selects the kind; neither runs the scenario once.
    if constexpr (Io::kReads) {
        bool sweep = io.has("sweep"), saturation = io.has("saturation");
        io.check(!(sweep && saturation), nullptr,
                 "'sweep' and 'saturation' are exclusive");
        job.kind = sweep ? K::Sweep : saturation ? K::Saturation
                                                 : K::Single;
        // Closed-loop jobs sweep their closedLoop axis, synthetic
        // ones the load; other traffic has no axis to vary.
        TrafficSpec::Kind traffic = job.scenario.traffic.kind;
        io.check(job.kind == K::Single ||
                     traffic == TrafficSpec::Kind::Synthetic ||
                     traffic == TrafficSpec::Kind::ClosedLoop,
                 sweep ? "sweep" : "saturation",
                 "collective and trace scenarios have no axis to sweep");
    }
    io.when(job.kind, {K::Sweep}, [&] {
        io.object("sweep", [&](auto &sweep) {
            sweep.field("loads", &T::loads, kNonNegative, kRequired);
            sweep.check(!job.loads.empty(), "loads",
                        "needs at least one load");
            sweep.field("stopAtSaturation", &T::stopAtSaturation);
            sweep.field("saturationFactor", &T::saturationFactor,
                        kPositive);
        });
    });
    io.when(job.kind, {K::Saturation}, [&] {
        io.field("saturation", &T::saturation, kAny, kAlways);
    });
}

template <class Io>
void
schema(Io &io, ExperimentPlan &)
{
    io.field("name", &ExperimentPlan::name);
    io.field("jobs", &ExperimentPlan::jobs, kAny, kRequired);
}

// --- result rows (store / journal payloads) ---------------------------------

template <class Io>
void
schema(Io &io, SimCounters &)
{
    using T = SimCounters;
    io.field("bufferWrites", &T::bufferWrites);
    io.field("bufferReads", &T::bufferReads);
    io.field("cbWrites", &T::cbWrites);
    io.field("cbReads", &T::cbReads);
    io.field("crossbarTraversals", &T::crossbarTraversals);
    io.field("linkFlitHops", &T::linkFlitHops);
    io.field("flitsInjected", &T::flitsInjected);
    io.field("flitsDelivered", &T::flitsDelivered);
    io.field("packetsInjected", &T::packetsInjected);
    io.field("packetsDelivered", &T::packetsDelivered);
    io.field("faultEvents", &T::faultEvents);
    io.field("flitsDropped", &T::flitsDropped);
    io.field("packetsDropped", &T::packetsDropped);
    io.field("packetsUnroutable", &T::packetsUnroutable);
    io.field("packetsRefused", &T::packetsRefused);
    io.field("packetsRerouted", &T::packetsRerouted);
    io.field("clRequestsIssued", &T::clRequestsIssued);
    io.field("clRepliesMatched", &T::clRepliesMatched);
    io.field("clReqLatencySum", &T::clReqLatencySum);
    io.field("clWindowOccupancy", &T::clWindowOccupancy);
    io.field("clStallNodeCycles", &T::clStallNodeCycles);
    io.field("clSlotsPurged", &T::clSlotsPurged);
    io.field("clPhasesCompleted", &T::clPhasesCompleted);
}

template <class Io>
void
schema(Io &io, SimResult &)
{
    using T = SimResult;
    io.field("avgPacketLatency", &T::avgPacketLatency);
    io.field("avgNetworkLatency", &T::avgNetworkLatency);
    io.field("p99PacketLatencyBound", &T::p99PacketLatencyBound);
    io.field("avgHops", &T::avgHops);
    io.field("throughput", &T::throughput);
    io.field("offeredLoad", &T::offeredLoad);
    io.field("packetsDelivered", &T::packetsDelivered);
    io.field("stable", &T::stable);
    io.field("counters", &T::counters);
    io.field("cyclesRun", &T::cyclesRun);
}

/** EnergyMetrics are not stored: the runner re-derives them. */
template <class Io>
void
schema(Io &io, ScenarioResult &)
{
    using T = ScenarioResult;
    io.field("scenario", &T::scenario, kAny, kRequired);
    io.field("sim", &T::sim, kAny, kRequired);
    io.field("ok", &T::ok);
    io.field("error", &T::error);
}

template <class Io>
void
schema(Io &io, JobResult &)
{
    using T = JobResult;
    io.name("kind", &T::kind, jobKindFromName, kRequired);
    io.name("status", &T::status, jobStatusFromName);
    io.field("error", &T::error);
    io.field("retries", &T::retries);
    io.field("cacheHits", &T::cacheHits);
    io.field("cacheMisses", &T::cacheMisses);
    io.field("wallMs", &T::wallMs);
    io.field("saturationLoad", &T::saturationLoad);
    io.field("bestThroughput", &T::bestThroughput);
    io.field("points", &T::points, kAny, kRequired);
}

} // namespace snoc

#endif // SNOC_EXP_SCHEMA_HH
