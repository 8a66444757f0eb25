/**
 * @file
 * Network: wires routers and channels up from a NocTopology, drives
 * the per-cycle pipeline, and accounts statistics.
 *
 * Nodes inject packets via unbounded source queues (open-loop
 * semantics: generation timestamps are kept, so source queueing
 * counts toward packet latency) feeding the routers' 20-flit
 * injection queues. Link latencies are ceil(wireLength / H) with
 * H = 1 (plain) or H ~ 9 (SMART links, Section 5.1).
 *
 * Hot-path contract: packets live in an index-based PacketPool arena
 * owned by the Network (flits carry handles, not refcounts), all
 * queues are pre-reserved ring buffers, and step() visits only the
 * active-router worklist — routers with buffered flits, in-flight
 * channel traffic, or fresh injections. Steady-state step() performs
 * zero heap allocations (enforced by tests/sim/
 * hotpath_equivalence_test.cc).
 */

#ifndef SNOC_SIM_NETWORK_HH
#define SNOC_SIM_NETWORK_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/stats.hh"
#include "sim/channel.hh"
#include "sim/fault_plan.hh"
#include "sim/packet_pool.hh"
#include "sim/router.hh"
#include "topo/noc_topology.hh"

namespace snoc {

/** Wire / SMART configuration. */
struct LinkConfig
{
    int hopsPerCycle = 1; //!< SMART H; 1 disables SMART

    bool operator==(const LinkConfig &) const = default;
};

/**
 * Called for every delivered packet (trace replay hooks replies).
 * The reference is borrowed: it is valid for the duration of the
 * callback only, after which the pool slot is recycled.
 */
using DeliveryCallback = std::function<void(const Packet &)>;

/**
 * Called for every packet the fault machinery removes without
 * delivering it: offer-time refusals, source-queue purges, and
 * in-flight kills. The closed-loop workload layer uses it to free
 * the window slot a purged request/reply chain would have completed
 * — without it a fault would deadlock the slot forever. Same
 * borrowed-reference contract as DeliveryCallback. Never invoked on
 * fault-free runs.
 */
using DropCallback = std::function<void(const Packet &)>;

/** A simulated network instance. */
class Network : public NetworkState
{
  public:
    /**
     * @param topo    topology (copied; self-contained afterwards)
     * @param router  router microarchitecture
     * @param link    wire configuration
     * @param mode    routing mode
     * @param seed    seed for routing randomness
     * @param faults  fault schedule; an inactive (default) plan keeps
     *                the network bit-for-bit identical to one built
     *                without a plan, an active plan arms fault-aware
     *                routing and the degraded-operation machinery
     */
    Network(const NocTopology &topo, const RouterConfig &router,
            const LinkConfig &link = {},
            RoutingMode mode = RoutingMode::Minimal,
            std::uint64_t seed = 7, const FaultPlan &faults = {});

    const NocTopology &topology() const { return *topo_; }
    Cycle now() const { return now_; }

    /**
     * Queue a packet for injection at its source node. Generation
     * time is `now()` unless createdAt is provided.
     */
    void offerPacket(int srcNode, int dstNode, int sizeFlits,
                     MsgClass msgClass = MsgClass::Generic,
                     std::uint32_t tag = 0);

    /** Advance one cycle. */
    void step();

    /** Set a callback invoked at packet delivery. */
    void setDeliveryCallback(DeliveryCallback cb) { onDeliver_ = cb; }

    /**
     * The currently-installed delivery callback (possibly empty).
     * Layers that need their own hook — the workload sources, the
     * test suite's invariant checker — chain whatever was installed
     * before them instead of clobbering it.
     */
    const DeliveryCallback &deliveryCallback() const
    {
        return onDeliver_;
    }

    /** Set a callback invoked when a fault discards a packet. */
    void setDropCallback(DropCallback cb) { onDrop_ = cb; }

    /** The currently-installed drop callback (for chaining). */
    const DropCallback &dropCallback() const { return onDrop_; }

    /**
     * Mutable counter access for the workload layer (src/workload/):
     * closed-loop sources account their window occupancy, stall
     * cycles and request latencies here so the counters ride the
     * existing measurement-window snapshot machinery. Touched only
     * from source calls and delivery/drop callbacks.
     */
    SimCounters &workloadCounters() { return *counters_; }

    /**
     * Pre-size the packet arena (and each source queue) for at least
     * `packets` concurrent packets, so even the very first cycles of
     * a run allocate nothing. Optional: the pool grows on demand and
     * stops allocating once the in-flight high-water mark is reached.
     */
    void reservePackets(std::size_t packets);

    /** Flits currently anywhere in the network (drain check). */
    std::uint64_t flitsInFlight() const;

    /** Packets waiting in source queues. */
    std::uint64_t sourceQueueDepth() const;

    /** Routers visited by the last step() (worklist diagnostics). */
    std::size_t lastActiveRouters() const { return activeScratch_.size(); }

    // --- fault injection (see src/sim/fault_injection.cc) ---

    /** True when an active FaultPlan armed the fault machinery. */
    bool faultsArmed() const { return faultsArmed_; }

    /** Fault events not yet fired (diagnostics). */
    std::size_t pendingFaultEvents() const
    {
        return faultEvents_.size() - faultCursor_;
    }

    /**
     * The currently-alive router graph: the topology minus failed
     * links/routers. Identical to topology().routers() until a fault
     * event fires (or when faults are not armed).
     */
    const Graph &liveTopology() const;

    /** Whether a router is currently alive (always true unarmed). */
    bool routerAlive(int router) const;

    /** Packet pool slots currently allocated (in flight + queued). */
    std::size_t packetsAlive() const { return pool_->liveCount(); }

    /**
     * Exhaustive structural audit for the test suite's invariant
     * layer (tests/support/sim_invariants.hh): per-VC credit
     * conservation across every channel, buffered-flit recounts,
     * central-buffer occupancy/reservation consistency, and the
     * routers' occupancy counters, sweep masks and port-activity
     * words against from-scratch scans. Returns
     * false and fills `err` on the first violation. Not a hot-path
     * facility — it walks the whole network.
     */
    bool auditInvariants(std::string &err) const;

    // --- measurement ---

    /** Reset measurement accumulators (start of the window). */
    void beginMeasurement();

    /** Latency from generation to tail ejection [cycles]. */
    const Accumulator &packetLatency() const { return latency_; }

    /** Latency from injection (head leaves source queue). */
    const Accumulator &networkLatency() const { return netLatency_; }

    /** Hops per delivered packet. */
    const Accumulator &hopCount() const { return hops_; }

    /** Flits delivered since beginMeasurement(). */
    std::uint64_t flitsDeliveredInWindow() const { return winFlits_; }

    /** Activity counters (whole run). */
    const SimCounters &counters() const { return *counters_; }

    /** Per-link utilization sample. */
    struct LinkUtilization
    {
        int routerA = 0;
        int routerB = 0;
        int wireLength = 0;
        double flitsPerCycle = 0.0;
    };

    /**
     * Flits sent per cycle on every directed link since construction
     * (utilization heat map; sorted by decreasing utilization).
     */
    std::vector<LinkUtilization> linkUtilization() const;

    // --- NetworkState (adaptive routing) ---
    int linkOccupancy(int router, int nextRouter) const override;
    int pathOccupancy(int srcRouter, int dstRouter) const override;

  private:
    std::unique_ptr<const NocTopology> topo_;
    RouterConfig routerCfg_;
    LinkConfig linkCfg_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    std::unique_ptr<const ShortestPaths> paths_; //!< for pathOccupancy
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<FlitChannel>> channels_;
    // Router woken by each channel's in-flight flits / credits.
    std::vector<int> chanFlitSink_;
    std::vector<int> chanCreditSink_;
    DeliveryCallback onDeliver_;
    DropCallback onDrop_;

    /** Per-node source queue of not-yet-flitized packets. */
    std::vector<RingBuffer<PacketHandle>> sourceQueues_;
    /** Local slot of each node within its router. */
    std::vector<int> localSlot_;

    Cycle now_ = 0;
    bool stateAttached_ = false;
    std::uint64_t nextPacketId_ = 1;
    // Heap-allocated so routers' pointers stay valid if the Network
    // is moved (factories return Network by value).
    std::unique_ptr<PacketPool> pool_ = std::make_unique<PacketPool>();
    std::unique_ptr<SimCounters> counters_ =
        std::make_unique<SimCounters>();
    Accumulator latency_;
    Accumulator netLatency_;
    Accumulator hops_;
    std::uint64_t winFlits_ = 0;

    std::vector<PacketHandle> deliveredScratch_;
    std::vector<std::uint8_t> routerActive_; //!< per-router wake flag
    std::vector<int> activeScratch_; //!< this cycle's router worklist

    // --- fault state (inert unless faultsArmed_) ---
    bool faultsArmed_ = false;
    std::vector<FaultEvent> faultEvents_; //!< resolved, cycle-sorted
    std::size_t faultCursor_ = 0;         //!< first unfired event
    std::vector<std::uint8_t> linkDead_;  //!< per channel: explicit
                                          //!< LinkDown in force
    std::vector<std::uint8_t> routerLive_;
    std::unique_ptr<Graph> liveGraph_;    //!< topo minus dead elements
    std::unordered_map<const FlitChannel *, std::size_t>
        chanIndexByPtr_; //!< purge: router port -> channel index

    void build(std::uint64_t seed, RoutingMode mode,
               const FaultPlan &faults);
    void pumpInjection();
    void pumpNode(int node);
    void processDelivered();
    void buildWorklist();
    int linkLatencyFor(int distance) const;

    // Fault machinery (src/sim/fault_injection.cc).
    void armFaults(const FaultPlan &faults);
    bool channelAlive(std::size_t chan) const;
    void applyPendingFaults();
    void rebuildLiveGraph();
    void purgeAfterFaults();
    bool offerBlockedByFaults(int srcRouter, int dstRouter);
};

} // namespace snoc

#endif // SNOC_SIM_NETWORK_HH
