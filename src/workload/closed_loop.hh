/**
 * @file
 * Closed-loop request/reply traffic source (MSHR-window model).
 *
 * Each node runs a window of outstanding request slots. A free slot
 * issues a 2-flit read request to a pattern-drawn destination; the
 * home node answers with a cache-line reply after a fixed memory
 * delay — or forwards to a third-party owner first (the MOSI
 * dirty-miss 3-hop chain). A node whose window is full stalls and
 * injects nothing: delivered throughput feeds back into offered
 * traffic, which is exactly what open-loop Bernoulli sources cannot
 * model.
 *
 * Determinism contract (the layer must be bitwise identical across
 * worker-thread counts):
 *  - all offers happen inside the TrafficSource call, which the
 *    driver runs once per cycle — chain continuations created by
 *    delivery callbacks are parked in a cycle-ordered pending queue
 *    and offered on the next source call;
 *  - delivery/drop callbacks fire in ascending router order every
 *    cycle, so the chain RNG and slot state evolve identically;
 *  - per-node issue RNG streams are seeded from (seed, node) only,
 *    never from network state.
 *
 * Fault interaction: every chain packet carries its slot index in
 * Packet::tag; the network's drop callback frees the slot when a
 * fault purges any leg of the chain (counted in clSlotsPurged), so a
 * lossy run can never deadlock a window slot.
 */

#ifndef SNOC_WORKLOAD_CLOSED_LOOP_HH
#define SNOC_WORKLOAD_CLOSED_LOOP_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "sim/simulation.hh"
#include "traffic/patterns.hh"
#include "workload/spec.hh"

namespace snoc {

/**
 * Live state behind a closed-loop source. Exposed so the test
 * suite's invariant layer can audit the window-conservation laws
 * (outstanding <= window per node, sum(outstanding) == live slots,
 * issued == matched + purged + live).
 */
class ClosedLoopState
{
  public:
    ClosedLoopState(std::shared_ptr<TrafficPattern> pattern,
                    const ClosedLoopSpec &spec, std::uint64_t seed);

    /** Called once per cycle by the TrafficSource wrapper. */
    bool pump(Network &net, Cycle now);

    const ClosedLoopSpec &spec() const { return spec_; }

    /** Outstanding requests per node (empty before the first pump). */
    const std::vector<int> &outstanding() const { return outstanding_; }

    /** Window slots currently awaiting a reply. */
    std::uint64_t liveSlots() const { return liveSlots_; }

    /** Requests issued so far (whole run). */
    std::uint64_t requestsIssued() const { return issued_; }

    /** Chain messages parked for a later cycle. */
    std::size_t pendingMessages() const { return pending_.size(); }

  private:
    /** One parked chain continuation (offered at cycle `at`). */
    struct PendingMsg
    {
        Cycle at = 0;
        int src = -1;
        int dst = -1;
        std::uint32_t tag = 0;
        MsgClass cls = MsgClass::Generic;
        int size = 1;
    };

    /** One MSHR-like window slot. */
    struct Slot
    {
        int requester = -1;
        Cycle issuedAt = 0;
        bool live = false;
    };

    void attach(Network &net);
    void handleDeliver(const Packet &p);
    void handleDrop(const Packet &p);
    std::uint32_t allocSlot(int requester, Cycle now);
    void freeSlot(std::uint32_t index);

    std::shared_ptr<TrafficPattern> pattern_;
    ClosedLoopSpec spec_;
    std::uint64_t seed_;

    Network *net_ = nullptr;
    std::vector<Rng> nodeRng_;    //!< per-node issue/destination draws
    Rng chainRng_;                //!< forward decisions + owner draws
    std::vector<int> outstanding_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::deque<PendingMsg> pending_;
    std::uint64_t liveSlots_ = 0;
    std::uint64_t issued_ = 0;
};

/** A closed-loop source plus its auditable state. */
struct ClosedLoopSource
{
    TrafficSource source;
    std::shared_ptr<ClosedLoopState> state;
};

/**
 * Build a closed-loop source. The pattern draws request
 * destinations (and third-party owners for forwarded chains); the
 * seed feeds the per-node issue streams and the chain RNG.
 */
ClosedLoopSource makeClosedLoopSource(
    std::shared_ptr<TrafficPattern> pattern, const ClosedLoopSpec &spec,
    std::uint64_t seed);

} // namespace snoc

#endif // SNOC_WORKLOAD_CLOSED_LOOP_HH
