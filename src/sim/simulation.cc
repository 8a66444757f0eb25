#include "sim/simulation.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace snoc {

namespace {

/**
 * Closed-loop stability override. Open-loop instability shows up as
 * source backlog; a closed-loop source never grows backlog — it
 * stalls instead. When the measurement window recorded closed-loop
 * activity, redefine stability as "less than half of all node-cycles
 * were spent with a full window". No-op (and bit-identical behavior)
 * when the window counters show no closed-loop activity.
 */
void
applyClosedLoopStability(SimResult &r, double nodes, double cycles)
{
    const SimCounters &w = r.counters;
    if (w.clRequestsIssued == 0 && w.clStallNodeCycles == 0 &&
        w.clWindowOccupancy == 0)
        return;
    r.stable = static_cast<double>(w.clStallNodeCycles) * 2.0 <
               nodes * cycles;
}

} // namespace

SimResult
runSimulation(Network &net, const TrafficSource &source,
              const SimConfig &cfg)
{
    bool alive = true;
    for (Cycle c = 0; c < cfg.warmupCycles && alive; ++c) {
        alive = source(net, net.now());
        net.step();
    }
    net.beginMeasurement();
    SimCounters before = net.counters();
    std::uint64_t offeredBefore = before.flitsInjected;

    Cycle measured = 0;
    for (Cycle c = 0; c < cfg.measureCycles && alive; ++c) {
        alive = source(net, net.now());
        net.step();
        ++measured;
    }

    // Packets still waiting in source queues: they feed the
    // stability test below, not the offered load, which counts only
    // flits that were injected during the window.
    std::uint64_t sourceBacklog = net.sourceQueueDepth();
    // Snapshot window activity here, before the drain loop: drain
    // cycles keep writing buffers, traversing crossbars and hopping
    // links, but cyclesRun counts only measured cycles, so counting
    // drain events would overstate every per-cycle energy metric.
    SimCounters windowEnd = net.counters();

    if (cfg.drain) {
        // Keep pumping the source while it still has pending events
        // (trace replies are generated in response to deliveries).
        Cycle waited = 0;
        while ((alive || net.flitsInFlight() > 0 ||
                net.sourceQueueDepth() > 0) &&
               waited < cfg.drainCycleLimit) {
            if (alive)
                alive = source(net, net.now());
            net.step();
            ++waited;
        }
    }

    SimResult r;
    r.cyclesRun = measured;
    r.avgPacketLatency = net.packetLatency().mean();
    r.avgNetworkLatency = net.networkLatency().mean();
    r.p99PacketLatencyBound =
        net.packetLatency().mean() + 3.0 * net.packetLatency().stddev();
    r.avgHops = net.hopCount().mean();
    r.packetsDelivered = net.packetLatency().count();
    double nodes = static_cast<double>(net.topology().numNodes());
    double cycles = std::max<double>(1.0, static_cast<double>(measured));
    r.throughput =
        static_cast<double>(net.flitsDeliveredInWindow()) /
        (nodes * cycles);
    std::uint64_t offered = windowEnd.flitsInjected - offeredBefore;
    r.offeredLoad = static_cast<double>(offered) / (nodes * cycles);
    // A run is unstable when the source backlog grew to a sizable
    // fraction of the measurement window's traffic.
    r.stable = static_cast<double>(sourceBacklog) * 6.0 <
               std::max<double>(1.0, static_cast<double>(offered));
    // Window activity only: drives the dynamic-power model.
    r.counters = windowEnd - before;
    applyClosedLoopStability(r, nodes, cycles);
    return r;
}

} // namespace snoc
