/**
 * @file
 * Simulation driver: runs a traffic source against a Network with
 * the paper's warmup / measurement / drain methodology and reports
 * latency and throughput. Load sweeps and saturation searches live
 * in exp/strategies.hh.
 */

#ifndef SNOC_SIM_SIMULATION_HH
#define SNOC_SIM_SIMULATION_HH

#include <functional>

#include "sim/network.hh"

namespace snoc {

/**
 * A traffic source: called once per cycle; offers packets into the
 * network for the cycle. Return false to indicate the source is
 * exhausted (trace end); synthetic sources always return true.
 */
using TrafficSource = std::function<bool(Network &net, Cycle cycle)>;

/** Result of one simulation run. */
struct SimResult
{
    double avgPacketLatency = 0.0;  //!< cycles, generation -> ejection
    double avgNetworkLatency = 0.0; //!< cycles, injection -> ejection
    double p99PacketLatencyBound = 0.0; //!< mean + 3 stddev proxy
    double avgHops = 0.0;
    double throughput = 0.0;        //!< flits/node/cycle delivered
    /** Flits injected in the window / (nodes x measured cycles);
     *  packets still queued at their sources are not counted. */
    double offeredLoad = 0.0;
    std::uint64_t packetsDelivered = 0;
    bool stable = true;             //!< delivered kept up with offered
    SimCounters counters;           //!< measurement-window activity
    Cycle cyclesRun = 0;

    bool operator==(const SimResult &) const = default;
};

/** Run configuration. */
struct SimConfig
{
    Cycle warmupCycles = 2000;
    Cycle measureCycles = 10000;
    Cycle drainCycleLimit = 50000;  //!< extra cycles to wait for drain
    bool drain = false;             //!< run until in-flight == 0

    bool operator==(const SimConfig &) const = default;
};

/** Drive `source` against `net` and measure. */
SimResult runSimulation(Network &net, const TrafficSource &source,
                        const SimConfig &cfg);

} // namespace snoc

#endif // SNOC_SIM_SIMULATION_HH
