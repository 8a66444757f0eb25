/**
 * @file
 * Activity and delivery counters collected during simulation; the
 * dynamic-power model converts activity counts into energy.
 */

#ifndef SNOC_SIM_COUNTERS_HH
#define SNOC_SIM_COUNTERS_HH

#include <cstdint>

namespace snoc {

/** Raw event counts over a run (or measurement window). */
struct SimCounters
{
    std::uint64_t bufferWrites = 0;     //!< flits written to buffers
    std::uint64_t bufferReads = 0;      //!< flits read from buffers
    std::uint64_t cbWrites = 0;         //!< flits entering a CB
    std::uint64_t cbReads = 0;          //!< flits leaving a CB
    std::uint64_t crossbarTraversals = 0;
    std::uint64_t linkFlitHops = 0;     //!< flits x wire length [hops]
    std::uint64_t flitsInjected = 0;
    std::uint64_t flitsDelivered = 0;
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsDelivered = 0;

    // --- fault-injection group (all zero on fault-free runs) ---
    // Conservation contracts (see tests/support/sim_invariants.hh):
    //   flitsInjected == flitsDelivered + flitsDropped + in-flight
    //   packetsInjected == packetsDelivered + packetsDropped
    //                      + packetsUnroutable + in-flight
    // packetsRefused covers source-side discards of packets that were
    // never injected, so it sits outside both balances.
    std::uint64_t faultEvents = 0;       //!< fault/repair events fired
    std::uint64_t flitsDropped = 0;      //!< flits purged by faults
    std::uint64_t packetsDropped = 0;    //!< in-flight packets cut by a
                                         //!< failed link/router
    std::uint64_t packetsUnroutable = 0; //!< in-flight packets whose
                                         //!< destination became
                                         //!< disconnected
    std::uint64_t packetsRefused = 0;    //!< source-side drops: dead
                                         //!< source router or
                                         //!< disconnected pair at
                                         //!< offer/injection time
    std::uint64_t packetsRerouted = 0;   //!< committed detours replanned
                                         //!< around a fault

    // --- closed-loop workload group (src/workload/; all zero for
    // open-loop traffic, so fault-free/open-loop runs stay
    // bit-identical to builds that predate the group) ---
    // Conservation contract (tests/support/sim_invariants.hh):
    //   clRequestsIssued == clRepliesMatched + clSlotsPurged
    //                       + live window slots
    std::uint64_t clRequestsIssued = 0;  //!< request chains started
    std::uint64_t clRepliesMatched = 0;  //!< replies closing a chain
    std::uint64_t clReqLatencySum = 0;   //!< sum of request->reply
                                         //!< latencies [cycles]
    std::uint64_t clWindowOccupancy = 0; //!< sum over node-cycles of
                                         //!< outstanding requests
    std::uint64_t clStallNodeCycles = 0; //!< node-cycles spent with a
                                         //!< full window (no inject)
    std::uint64_t clSlotsPurged = 0;     //!< chains cut by a fault
                                         //!< drop; the waiting slot
                                         //!< was freed, not leaked
    std::uint64_t clPhasesCompleted = 0; //!< collective phases done

    void
    reset()
    {
        *this = SimCounters();
    }

    bool operator==(const SimCounters &) const = default;

    /** Window counters: activity since an earlier snapshot. */
    friend SimCounters
    operator-(const SimCounters &a, const SimCounters &b)
    {
        SimCounters d;
        d.bufferWrites = a.bufferWrites - b.bufferWrites;
        d.bufferReads = a.bufferReads - b.bufferReads;
        d.cbWrites = a.cbWrites - b.cbWrites;
        d.cbReads = a.cbReads - b.cbReads;
        d.crossbarTraversals =
            a.crossbarTraversals - b.crossbarTraversals;
        d.linkFlitHops = a.linkFlitHops - b.linkFlitHops;
        d.flitsInjected = a.flitsInjected - b.flitsInjected;
        d.flitsDelivered = a.flitsDelivered - b.flitsDelivered;
        d.packetsInjected = a.packetsInjected - b.packetsInjected;
        d.packetsDelivered = a.packetsDelivered - b.packetsDelivered;
        d.faultEvents = a.faultEvents - b.faultEvents;
        d.flitsDropped = a.flitsDropped - b.flitsDropped;
        d.packetsDropped = a.packetsDropped - b.packetsDropped;
        d.packetsUnroutable =
            a.packetsUnroutable - b.packetsUnroutable;
        d.packetsRefused = a.packetsRefused - b.packetsRefused;
        d.packetsRerouted = a.packetsRerouted - b.packetsRerouted;
        d.clRequestsIssued = a.clRequestsIssued - b.clRequestsIssued;
        d.clRepliesMatched = a.clRepliesMatched - b.clRepliesMatched;
        d.clReqLatencySum = a.clReqLatencySum - b.clReqLatencySum;
        d.clWindowOccupancy =
            a.clWindowOccupancy - b.clWindowOccupancy;
        d.clStallNodeCycles =
            a.clStallNodeCycles - b.clStallNodeCycles;
        d.clSlotsPurged = a.clSlotsPurged - b.clSlotsPurged;
        d.clPhasesCompleted =
            a.clPhasesCompleted - b.clPhasesCompleted;
        return d;
    }
};

} // namespace snoc

#endif // SNOC_SIM_COUNTERS_HH
