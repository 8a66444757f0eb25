/**
 * @file
 * FaultPlan: a pure-data schedule of link/router failure (and
 * optional repair) events applied by the simulator mid-run.
 *
 * Like Scenario, a FaultPlan holds no live simulation objects:
 * explicit events name router pairs and cycles, and the declarative
 * random-failure spec ("kill this fraction of links at cycle T,
 * seeded") is resolved against the concrete topology graph only when
 * the Network arms itself with the plan. Two runs with the same
 * topology and the same plan therefore fail the same links at the
 * same cycles, on any thread of the experiment engine.
 *
 * Semantics (see docs/ARCHITECTURE.md, "Fault injection"):
 *  - events fire at the start of cycle `at`, before injection;
 *  - a link failure kills both directions (and all parallel channels)
 *    between the named router pair;
 *  - a router failure kills the router and every incident link, and
 *    disables its locally attached nodes;
 *  - repairs (LinkUp / RouterUp) restore the wires, not the traffic
 *    that was lost on them.
 *
 * A default-constructed (inactive) plan is guaranteed to leave the
 * simulator bit-for-bit identical to a run without any plan — the
 * hot path never touches fault state unless the plan is active.
 */

#ifndef SNOC_SIM_FAULT_PLAN_HH
#define SNOC_SIM_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "sim/types.hh"

namespace snoc {

/** One timed fault (or repair) event. */
struct FaultEvent
{
    enum class Kind : std::uint8_t
    {
        LinkDown,   //!< kill every channel between routers a and b
        LinkUp,     //!< repair the a--b link
        RouterDown, //!< kill router a and all its incident links
        RouterUp,   //!< repair router a (links revive unless also
                    //!< independently LinkDown'ed)
    };

    Cycle at = 0;
    Kind kind = Kind::LinkDown;
    int a = -1; //!< router id (RouterDown/Up) or one link endpoint
    int b = -1; //!< the link's other endpoint; unused for routers

    bool operator==(const FaultEvent &) const = default;
};

/** A schedule of fault events, attachable to a Scenario. */
struct FaultPlan
{
    /** Explicit events; resolve() returns them sorted by cycle. */
    std::vector<FaultEvent> events;

    /**
     * Declarative spec: fail `randomLinkFraction` of the topology's
     * links (distinct router pairs, drawn with `faultSeed`) at cycle
     * `randomFailAt`. Resolved into LinkDown events against the
     * concrete graph by resolve().
     */
    double randomLinkFraction = 0.0;
    Cycle randomFailAt = 0;
    std::uint64_t faultSeed = 1;

    /**
     * Run the fault-aware machinery even when no event is scheduled.
     * Degradation studies set this on their zero-failure baseline so
     * every point of the curve uses the same (fault-capable) routing
     * and bookkeeping; plain runs leave it false and stay on the
     * untouched hot path.
     */
    bool armed = false;

    bool operator==(const FaultPlan &) const = default;

    /** True when the Network must arm its fault machinery. */
    bool
    active() const
    {
        return armed || !events.empty() || randomLinkFraction > 0.0;
    }

    // --- builders -----------------------------------------------------------

    /** Armed plan failing `fraction` of links at cycle `at`. */
    static FaultPlan
    randomLinkFailures(double fraction, Cycle at, std::uint64_t seed)
    {
        FaultPlan p;
        p.randomLinkFraction = fraction;
        p.randomFailAt = at;
        p.faultSeed = seed;
        p.armed = true;
        return p;
    }

    /** Append a link failure between routers a and b. */
    FaultPlan &
    linkDown(int a, int b, Cycle at)
    {
        events.push_back({at, FaultEvent::Kind::LinkDown, a, b});
        return *this;
    }

    /** Append a link repair. */
    FaultPlan &
    linkUp(int a, int b, Cycle at)
    {
        events.push_back({at, FaultEvent::Kind::LinkUp, a, b});
        return *this;
    }

    /** Append a router failure. */
    FaultPlan &
    routerDown(int r, Cycle at)
    {
        events.push_back({at, FaultEvent::Kind::RouterDown, r, -1});
        return *this;
    }

    /** Append a router repair. */
    FaultPlan &
    routerUp(int r, Cycle at)
    {
        events.push_back({at, FaultEvent::Kind::RouterUp, r, -1});
        return *this;
    }

    /**
     * Expand the plan against a concrete router graph: the random
     * spec becomes explicit LinkDown events over distinct adjacent
     * router pairs, and the whole schedule is returned sorted by
     * cycle (stable, so same-cycle events keep insertion order).
     */
    std::vector<FaultEvent> resolve(const Graph &g) const;
};

/** Plan-file name of an event kind: "link-down", "router-up", ... */
std::string to_string(FaultEvent::Kind kind);

/**
 * Resolve an event-kind name.
 * @throws FatalError listing the valid names when unknown.
 */
FaultEvent::Kind faultEventKindFromName(const std::string &name);

} // namespace snoc

#endif // SNOC_SIM_FAULT_PLAN_HH
