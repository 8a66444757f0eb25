/**
 * @file
 * Space-sharded parallel cycle loop: one large Network stepped by N
 * threads, bitwise identical to the serial `Network::step()`.
 *
 * The router graph is cut by the deterministic partitioner
 * (src/graph/partition.hh); each shard thread runs the per-cycle
 * phases over its owned routers only, with a barrier between phases:
 *
 *     serial prologue   attachState, fault events   (main thread)
 *     ---- barrier ----
 *     phase A           injection pump + worklist   (all shards)
 *     ---- barrier ----
 *     phase B           collectArrivals             (all shards)
 *     ---- barrier ----
 *     phase C           router step + drainEjection (all shards)
 *     ---- barrier ----
 *     serial epilogue   delivery merge, counter fold, ++now
 *
 * Cross-shard traffic needs no new structure: a FlitChannel's flit
 * and credit rings are already single-producer single-consumer *per
 * phase* — flits and credits are popped only in phase B (by the
 * channel's two endpoint routers, one ring each) and pushed only in
 * phase C — so with the inter-phase barrier the existing channels
 * are the boundary mailboxes, preallocated and allocation-free.
 *
 * Determinism contract (enforced by tests/sim/shard_test.cc and the
 * exp fuzz soak): for any shard count, every delivered packet, every
 * SimCounters field, all latency accumulators, and all RNG draws are
 * bitwise identical to the serial loop at every cycle boundary.
 * The ingredients:
 *
 *  - within a phase, each router touches only its own state and its
 *    phase-private ring ends, so cross-router order is irrelevant;
 *  - routing RNG draws happen at offerPacket (serial, between
 *    steps), never inside the parallel phases;
 *  - the serial delivery order is ascending router id; each shard
 *    drains its (ascending) routers into a private list with
 *    per-router segments, and the epilogue k-way-merges the segments
 *    by router id before running the one serial processDelivered;
 *  - counters are commutative uint64 sums: each shard's routers
 *    count into per-shard SimCounters, folded into the Network's
 *    counters every epilogue, so counters() is exact at every
 *    boundary.
 *
 * Sharding parallelizes *one big* topology across threads; the
 * experiment runner's worker pool parallelizes *many* scenarios, one
 * per thread. With shards >= 2 the runner divides its pool by the
 * shard count, so a plan claims about `threads` cores in total.
 */

#ifndef SNOC_SIM_SHARD_HH
#define SNOC_SIM_SHARD_HH

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/partition.hh"
#include "sim/simulation.hh"

namespace snoc {

/**
 * Sense-reversing spin barrier for the per-cycle phase handoffs.
 * Spins briefly then yields, so oversubscribed runs (more shards
 * than cores) degrade gracefully instead of livelocking.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties) : parties_(parties) {}

    /** `sense` is the caller's thread-local phase flag (start at
     *  false); the barrier flips it on every crossing. */
    void
    wait(bool &sense)
    {
        sense = !sense;
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            phase_.store(sense, std::memory_order_release);
        } else {
            int spins = 0;
            while (phase_.load(std::memory_order_acquire) != sense) {
                if (++spins >= 256) {
                    std::this_thread::yield();
                    spins = 0;
                }
            }
        }
    }

  private:
    const int parties_;
    std::atomic<int> arrived_{0};
    std::atomic<bool> phase_{false};
};

/**
 * Steps an existing Network with `numShards` threads (the calling
 * thread runs shard 0; numShards - 1 workers are parked on the
 * barrier between steps). The Network must not be stepped directly
 * while a ShardedNetwork is attached; destruction detaches cleanly,
 * after which the Network is a normal serial network again, counters
 * intact.
 */
class ShardedNetwork
{
  public:
    /** @param numShards clamped to [1, numRouters]. */
    ShardedNetwork(Network &net, int numShards);
    ~ShardedNetwork();

    ShardedNetwork(const ShardedNetwork &) = delete;
    ShardedNetwork &operator=(const ShardedNetwork &) = delete;

    Network &network() { return net_; }
    const Network &network() const { return net_; }

    int numShards() const { return part_.numShards; }
    const Partition &partition() const { return part_; }

    /** Advance the network one cycle (call from the owning thread). */
    void step();

    /** Routers visited by the last step(), summed over shards (the
     *  sharded counterpart of Network::lastActiveRouters()). */
    std::size_t lastActiveRouters() const { return lastActive_; }

    /**
     * Shard-aware structural audit: shard bookkeeping (every router
     * owned by exactly one shard, every channel on exactly one flit
     * and one credit wake list, boundary in-flight flits counted
     * exactly once across shards, per-shard counters fully folded),
     * then the Network's own auditInvariants(). Call at cycle
     * boundaries only.
     */
    bool auditInvariants(std::string &err) const;

  private:
    /** Per-shard working set; everything here is touched by exactly
     *  one thread during the parallel phases. */
    struct Shard
    {
        std::vector<int> routers; //!< owned routers, ascending id
        std::vector<int> nodes;   //!< nodes on owned routers
        // Channels whose flit (resp. credit) arrivals wake one of
        // our routers — the shard-local split of the serial
        // buildWorklist channel scan.
        std::vector<int> flitWake;
        std::vector<int> creditWake;
        std::vector<int> active;  //!< this cycle's own worklist
        SimCounters counters;     //!< folded+reset every epilogue
        /** One drained router's slice of `delivered`. */
        struct Segment
        {
            int router = 0;
            std::size_t count = 0;
        };
        std::vector<PacketHandle> delivered;
        std::vector<Segment> segments;
    };

    void workerLoop(int shard);
    void phaseA(int shard);
    void phaseB(int shard);
    void phaseC(int shard);
    void mergeDelivered();

    Network &net_;
    Partition part_;
    std::vector<Shard> shards_;
    SpinBarrier barrier_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stop_{false};
    bool mainSense_ = false;
    std::size_t lastActive_ = 0;
    // Epilogue merge cursors (members so step() stays allocation-free
    // in steady state).
    std::vector<std::size_t> segCursor_;
    std::vector<std::size_t> flitCursor_;
};

/**
 * Drive `source` against a sharded network with the warmup /
 * measurement / drain methodology of runSimulation(). Bitwise
 * identical to runSimulation() on the underlying Network for any
 * shard count.
 */
SimResult runShardedSimulation(ShardedNetwork &sn,
                               const TrafficSource &source,
                               const SimConfig &cfg);

} // namespace snoc

#endif // SNOC_SIM_SHARD_HH
