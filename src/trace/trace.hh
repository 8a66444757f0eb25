/**
 * @file
 * Trace events, generation, and replay.
 *
 * A trace is a time-ordered list of L1-back-side messages. The
 * replayer offers events at their timestamps and, for each delivered
 * read request, schedules the paper's 6-flit reply from the
 * destination after a memory-access delay, so request-reply
 * dependencies shape the traffic exactly as in Section 5.1.
 */

#ifndef SNOC_TRACE_TRACE_HH
#define SNOC_TRACE_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/simulation.hh"
#include "trace/workloads.hh"

namespace snoc {

/** One trace record. */
struct TraceEvent
{
    Cycle cycle = 0;
    int srcNode = 0;
    int dstNode = 0;
    MsgClass msgClass = MsgClass::ReadReq;

    /** Message sizes from Section 5.1. */
    static int sizeFor(MsgClass cls);
};

/**
 * Generate a deterministic synthetic trace for a workload profile.
 *
 * @param profile   workload characteristics
 * @param topo      topology (node count + placement for locality)
 * @param cycles    trace duration
 * @param seed      determinism knob
 */
std::vector<TraceEvent> generateTrace(const WorkloadProfile &profile,
                                      const NocTopology &topo,
                                      Cycle cycles,
                                      std::uint64_t seed = 99);

/**
 * Build a TrafficSource replaying `events` (must be cycle-sorted).
 * Read requests trigger replies from the destination after
 * `memoryDelay` cycles. The source reports exhaustion (returns
 * false) once all events and replies have been offered.
 */
TrafficSource makeTraceSource(std::vector<TraceEvent> events,
                              Cycle memoryDelay = 60);

/**
 * The windows a `cycles`-long workload runs with: warmup cycles / 10,
 * measure `cycles`, drain on. A scenario's own SimConfig is ignored.
 */
SimConfig workloadSimConfig(Cycle cycles);

/**
 * Convenience: run one workload to completion on a network and
 * report the measured statistics (drains all replies).
 */
SimResult runWorkload(Network &net, const WorkloadProfile &profile,
                      Cycle cycles, std::uint64_t seed = 99);

} // namespace snoc

#endif // SNOC_TRACE_TRACE_HH
