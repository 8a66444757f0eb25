/**
 * @file
 * Hot-path throughput benchmark: raw cycle-loop speed of the
 * flit-level simulator, recorded as the repo's perf trajectory.
 *
 * For each topology x routing mode x load it warms a network up
 * under random Bernoulli traffic, then times a fixed window of
 * Network::step() calls and reports simulated cycles/sec,
 * flit-hops/sec (link work actually performed), delivered
 * flits/sec, and the mean active-router fraction (how much of the
 * network the worklist actually visits per cycle). Only the step()
 * calls are timed: the Bernoulli source draw is O(nodes) per cycle
 * in every mode, so including it would flood the simulator-core
 * signal exactly in the sparse regime the sweep optimizations
 * target.
 *
 * Results stream to stdout like every bench and are also written to
 * BENCH_hotpath.json (see SNOC_BENCH_OUT), giving successive commits
 * comparable perf points. SNOC_BENCH_FAST=1 shrinks the windows for
 * CI smoke runs; throughput numbers are then noisy but the artifact
 * shape is identical.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/simulation.hh"
#include "workload/closed_loop.hh"

namespace {

using namespace snoc;
using namespace snoc::bench;

const char *
modeName(RoutingMode mode)
{
    switch (mode) {
      case RoutingMode::Minimal: return "minimal";
      case RoutingMode::MinAdaptive: return "min-adaptive";
      case RoutingMode::UgalL: return "ugal-l";
      case RoutingMode::UgalG: return "ugal-g";
      case RoutingMode::XyAdaptive: return "xy-adaptive";
    }
    return "?";
}

std::string
fmt(double v, const char *spec = "%.3g")
{
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

struct PerfPoint
{
    double cyclesPerSec = 0.0;
    double flitHopsPerSec = 0.0;
    double flitsPerSec = 0.0;
    double activeFraction = 0.0;
    double nsPerCycleRouter = 0.0; //!< wall ns per stepped router
    Cycle cycles = 0;
};

PerfPoint
measure(const std::string &topoId, RoutingMode mode, double load)
{
    Network net(topo(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode, /*seed=*/7);
    net.reservePackets(1u << 14);
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    SyntheticConfig sc;
    sc.load = load;
    TrafficSource src = makeSyntheticSource(pattern, sc);

    PerfPoint p;
    Cycle warmup = fastMode() ? 300 : 2000;
    p.cycles = fastMode() ? 1500 : 20000;

    for (Cycle c = 0; c < warmup; ++c) {
        src(net, net.now());
        net.step();
    }

    SimCounters before = net.counters();
    std::uint64_t activeSum = 0;
    double wall = 0.0;
    for (Cycle c = 0; c < p.cycles; ++c) {
        src(net, net.now());
        auto t0 = std::chrono::steady_clock::now();
        net.step();
        auto t1 = std::chrono::steady_clock::now();
        wall += std::chrono::duration<double>(t1 - t0).count();
        activeSum += net.lastActiveRouters();
    }
    wall = wall > 0.0 ? wall : 1e-9;
    SimCounters delta = net.counters() - before;

    p.cyclesPerSec = static_cast<double>(p.cycles) / wall;
    p.flitHopsPerSec = static_cast<double>(delta.linkFlitHops) / wall;
    p.flitsPerSec = static_cast<double>(delta.flitsDelivered) / wall;
    p.activeFraction =
        static_cast<double>(activeSum) /
        (static_cast<double>(p.cycles) *
         static_cast<double>(net.topology().numRouters()));
    // Wall time per router actually visited by the worklist: the
    // per-router sweep cost, independent of idle-skip savings.
    p.nsPerCycleRouter =
        wall * 1e9 / std::max<double>(1.0,
                                      static_cast<double>(activeSum));
    return p;
}

/**
 * Closed-loop hot path: the same timed step() window, but driven by
 * the request/reply workload layer (src/workload/closed_loop.hh)
 * instead of an open-loop Bernoulli source. The delivery-callback
 * chain, window bookkeeping, and reply injection all live on the
 * step() path, so these rows track the reactive-traffic cost the
 * synthetic grid cannot see. Keyed by window depth: w=1 is
 * dependency-chain latency-bound (most routers idle), deep windows
 * approach the saturated open-loop regime.
 */
PerfPoint
measureClosedLoop(const std::string &topoId, RoutingMode mode,
                  int window)
{
    Network net(topo(topoId), RouterConfig::named("EB-Var"),
                LinkConfig{}, mode, /*seed=*/7);
    net.reservePackets(1u << 14);
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(PatternKind::Random, net.topology()));
    ClosedLoopSpec spec;
    spec.window = window;
    spec.memoryDelay = 20;
    ClosedLoopSource cls = makeClosedLoopSource(pattern, spec, 42);

    PerfPoint p;
    Cycle warmup = fastMode() ? 300 : 2000;
    p.cycles = fastMode() ? 1500 : 20000;

    for (Cycle c = 0; c < warmup; ++c) {
        cls.source(net, net.now());
        net.step();
    }

    SimCounters before = net.counters();
    std::uint64_t activeSum = 0;
    double wall = 0.0;
    for (Cycle c = 0; c < p.cycles; ++c) {
        cls.source(net, net.now());
        auto t0 = std::chrono::steady_clock::now();
        net.step();
        auto t1 = std::chrono::steady_clock::now();
        wall += std::chrono::duration<double>(t1 - t0).count();
        activeSum += net.lastActiveRouters();
    }
    wall = wall > 0.0 ? wall : 1e-9;
    SimCounters delta = net.counters() - before;

    p.cyclesPerSec = static_cast<double>(p.cycles) / wall;
    p.flitHopsPerSec = static_cast<double>(delta.linkFlitHops) / wall;
    p.flitsPerSec = static_cast<double>(delta.flitsDelivered) / wall;
    p.activeFraction =
        static_cast<double>(activeSum) /
        (static_cast<double>(p.cycles) *
         static_cast<double>(net.topology().numRouters()));
    p.nsPerCycleRouter =
        wall * 1e9 / std::max<double>(1.0,
                                      static_cast<double>(activeSum));
    return p;
}

} // namespace

int
main()
{
    const char *topologies[] = {"sn_subgr_200", "cm4", "t2d4"};
    const RoutingMode modes[] = {RoutingMode::Minimal,
                                 RoutingMode::UgalL,
                                 RoutingMode::UgalG};
    // Three regimes: 0.10 saturates the network (nearly every router
    // is active, so the rate is bounded by raw per-router cost), 0.01
    // is moderately sparse, and 0.001 is the near-idle regime —
    // latency points at the bottom of every load sweep — where the
    // per-cycle O(routers + channels) worklist scan dominates.
    const double loads[] = {0.10, 0.01, 0.001};

    PerfReport report("hotpath");
    report.out().beginTable(
        "hot-path cycle-loop throughput (random traffic, EB-Var)",
        {"topology", "routing", "load", "mode", "window", "cycles",
         "cycles_per_sec", "flit_hops_per_sec",
         "flits_delivered_per_sec", "active_router_fraction",
         "ns_per_cycle_router"});
    // `window` is "-" everywhere except the closed-loop grid, whose
    // rows are keyed by (topology, routing, window, mode) and carry
    // no load knob ("-" in the load column).
    auto addRow = [&](const char *t, RoutingMode m,
                      const std::string &load, const char *kind,
                      const std::string &window, const PerfPoint &p) {
        report.out().addRow(
            {t, modeName(m), load, kind, window,
             std::to_string(static_cast<std::uint64_t>(p.cycles)),
             fmt(p.cyclesPerSec, "%.0f"),
             fmt(p.flitHopsPerSec, "%.0f"),
             fmt(p.flitsPerSec, "%.0f"),
             fmt(p.activeFraction, "%.3f"),
             fmt(p.nsPerCycleRouter, "%.1f")});
    };
    for (const char *t : topologies) {
        for (RoutingMode m : modes) {
            for (double load : loads)
                addRow(t, m, fmt(load, "%.3g"), "serial", "-",
                       measure(t, m, load));
        }
    }

    // Closed-loop grid: reactive request/reply traffic across window
    // depths.
    const int windowGrid[] = {1, 4, 16};
    for (const char *t : {"sn_subgr_200", "t2d4"}) {
        for (RoutingMode m : {RoutingMode::Minimal,
                              RoutingMode::UgalL}) {
            for (int window : windowGrid) {
                addRow(t, m, "-", "closed-loop", std::to_string(window),
                       measureClosedLoop(t, m, window));
            }
        }
    }
    report.out().endTable();
    std::cout << "\nperf artifact: " << report.path() << "\n";
    return 0;
}
