#include "sim/network.hh"

#include <algorithm>

#include "common/log.hh"

namespace snoc {

Network::Network(const NocTopology &topo, const RouterConfig &router,
                 const LinkConfig &link, RoutingMode mode,
                 std::uint64_t seed, const FaultPlan &faults)
    : topo_(std::make_unique<const NocTopology>(topo)),
      routerCfg_(router), linkCfg_(link)
{
    SNOC_ASSERT(linkCfg_.hopsPerCycle >= 1, "H must be >= 1");
    build(seed, mode, faults);
}

int
Network::linkLatencyFor(int distance) const
{
    int d = std::max(distance, 1);
    return (d + linkCfg_.hopsPerCycle - 1) / linkCfg_.hopsPerCycle;
}

void
Network::build(std::uint64_t seed, RoutingMode mode,
               const FaultPlan &faults)
{
    routing_ = makeRouting(*topo_, mode, seed, faults.active());
    paths_ = std::make_unique<const ShortestPaths>(topo_->routers());

    const Graph &g = topo_->routers();
    routers_.reserve(static_cast<std::size_t>(g.numVertices()));
    for (int r = 0; r < g.numVertices(); ++r) {
        routers_.push_back(std::make_unique<Router>(
            r, routerCfg_, *routing_, *pool_, *counters_));
    }

    // Create one channel pair per directed adjacency entry. Port k of
    // router u pairs with the matching occurrence of u in v's list,
    // which keeps parallel edges consistent.
    // channelTo[u][k]: channel from u along its k-th adjacency entry.
    std::vector<std::vector<FlitChannel *>> channelTo(
        static_cast<std::size_t>(g.numVertices()));
    for (int u = 0; u < g.numVertices(); ++u) {
        const auto &nb = g.neighbors(u);
        channelTo[static_cast<std::size_t>(u)].resize(nb.size());
        for (std::size_t k = 0; k < nb.size(); ++k) {
            int lat = linkLatencyFor(
                topo_->placement().distance(u, nb[k]));
            channels_.push_back(std::make_unique<FlitChannel>(lat));
            channelTo[static_cast<std::size_t>(u)][k] =
                channels_.back().get();
            // Channel u -> nb[k]: its flits wake the downstream
            // router, its returning credits wake the sender.
            chanFlitSink_.push_back(nb[k]);
            chanCreditSink_.push_back(u);
        }
    }
    // Pair directed channels into bidirectional ports.
    for (int u = 0; u < g.numVertices(); ++u) {
        const auto &nbU = g.neighbors(u);
        // occurrence index of v within u's list so far
        std::vector<int> seen(static_cast<std::size_t>(g.numVertices()),
                              0);
        for (std::size_t k = 0; k < nbU.size(); ++k) {
            int v = nbU[k];
            int occ = seen[static_cast<std::size_t>(v)]++;
            // Find the occ-th occurrence of u in v's list.
            const auto &nbV = g.neighbors(v);
            int found = -1;
            int c = 0;
            for (std::size_t k2 = 0; k2 < nbV.size(); ++k2) {
                if (nbV[k2] == u) {
                    if (c == occ) {
                        found = static_cast<int>(k2);
                        break;
                    }
                    ++c;
                }
            }
            SNOC_ASSERT(found >= 0, "asymmetric adjacency");
            FlitChannel *out = channelTo[static_cast<std::size_t>(u)]
                                        [k];
            FlitChannel *in = channelTo[static_cast<std::size_t>(v)]
                                       [static_cast<std::size_t>(found)];
            routers_[static_cast<std::size_t>(u)]->addNetworkPort(
                out, in, v, topo_->placement().distance(u, v));
        }
    }

    // Local ports.
    localSlot_.resize(static_cast<std::size_t>(topo_->numNodes()));
    sourceQueues_.resize(static_cast<std::size_t>(topo_->numNodes()));
    for (int r = 0; r < g.numVertices(); ++r) {
        int first = topo_->firstNodeOfRouter(r);
        for (int i = 0; i < topo_->concentrationOf(r); ++i) {
            routers_[static_cast<std::size_t>(r)]->addLocalPort(
                first + i);
            localSlot_[static_cast<std::size_t>(first + i)] = i;
        }
    }
    for (auto &r : routers_)
        r->finalize(g.numVertices());

    deliveredScratch_.reserve(
        static_cast<std::size_t>(topo_->numNodes()));
    routerActive_.resize(routers_.size());
    activeScratch_.reserve(static_cast<std::size_t>(g.numVertices()));

    if (faults.active())
        armFaults(faults);
}

void
Network::reservePackets(std::size_t packets)
{
    pool_->reserve(packets);
    if (sourceQueues_.empty())
        return;
    // `packets` bounds the *total* concurrent packets; give each
    // node's queue its share plus burst slack rather than the full
    // total (which would multiply the reservation by the node
    // count). An unusually bursty node grows its ring once — a
    // warmup event, not a steady-state one.
    std::size_t perQueue = packets / sourceQueues_.size() + 16;
    for (auto &q : sourceQueues_)
        q.reserve(perQueue);
}

void
Network::offerPacket(int srcNode, int dstNode, int sizeFlits,
                     MsgClass msgClass, std::uint32_t tag)
{
    SNOC_ASSERT(srcNode >= 0 && srcNode < topo_->numNodes() &&
                    dstNode >= 0 && dstNode < topo_->numNodes(),
                "node out of range");
    SNOC_ASSERT(srcNode != dstNode, "self-addressed packet");
    SNOC_ASSERT(sizeFlits >= 1, "empty packet");
    if (faultsArmed_ &&
        offerBlockedByFaults(topo_->routerOfNode(srcNode),
                             topo_->routerOfNode(dstNode))) {
        // Refused before a pool slot exists: synthesize a transient
        // Packet so the drop callback still sees src/dst/class/tag
        // (the workload layer frees the issuing window slot here).
        if (onDrop_) {
            Packet refused;
            refused.srcNode = srcNode;
            refused.dstNode = dstNode;
            refused.srcRouter = topo_->routerOfNode(srcNode);
            refused.dstRouter = topo_->routerOfNode(dstNode);
            refused.sizeFlits = sizeFlits;
            refused.msgClass = msgClass;
            refused.createdAt = now_;
            refused.tag = tag;
            onDrop_(refused);
        }
        return;
    }
    PacketHandle h = pool_->alloc();
    Packet &pkt = pool_->get(h);
    pkt.id = nextPacketId_++;
    pkt.srcNode = srcNode;
    pkt.dstNode = dstNode;
    pkt.srcRouter = topo_->routerOfNode(srcNode);
    pkt.dstRouter = topo_->routerOfNode(dstNode);
    pkt.sizeFlits = sizeFlits;
    pkt.msgClass = msgClass;
    pkt.createdAt = now_;
    pkt.tag = tag;
    routing_->onInject(pkt, *this);
    sourceQueues_[static_cast<std::size_t>(srcNode)].push_back(h);
}

void
Network::pumpNode(int node)
{
    auto &q = sourceQueues_[static_cast<std::size_t>(node)];
    if (q.empty())
        return;
    Router &r = *routers_[static_cast<std::size_t>(
        topo_->routerOfNode(node))];
    int slot = localSlot_[static_cast<std::size_t>(node)];
    // Move whole packets only, keeping flits contiguous.
    while (!q.empty()) {
        Packet &pkt = pool_->get(q.front());
        if (r.injectionSpace(slot) < pkt.sizeFlits)
            break;
        PacketHandle h = q.front();
        q.pop_front();
        pkt.injectedAt = now_;
        for (int f = 0; f < pkt.sizeFlits; ++f) {
            Flit flit;
            flit.pkt = h;
            flit.head = f == 0;
            flit.tail = f == pkt.sizeFlits - 1;
            flit.vc = 0;
            r.injectFlit(slot, flit);
        }
        counters_->flitsInjected +=
            static_cast<std::uint64_t>(pkt.sizeFlits);
        ++counters_->packetsInjected;
    }
}

void
Network::pumpInjection()
{
    for (int node = 0; node < topo_->numNodes(); ++node)
        pumpNode(node);
}

void
Network::buildWorklist()
{
    // A router must run this cycle iff it has buffered flits (inputs,
    // central buffer, or ejection queues — fresh injections included)
    // or traffic parked on an incident channel (arriving flits or
    // returning credits, whether or not they arrive this cycle).
    // Everything else is provably a no-op: routeHeads and the
    // allocators touch only buffered flits, and the rotating
    // arbitration pointers are derived from `now`, not mutated state.
    activeScratch_.clear();
    int n = static_cast<int>(routers_.size());
    for (int r = 0; r < n; ++r)
        routerActive_[static_cast<std::size_t>(r)] =
            routers_[static_cast<std::size_t>(r)]->bufferedFlits() > 0;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (channels_[c]->flitsInFlight() > 0)
            routerActive_[static_cast<std::size_t>(
                chanFlitSink_[c])] = true;
        if (channels_[c]->creditsInFlight() > 0)
            routerActive_[static_cast<std::size_t>(
                chanCreditSink_[c])] = true;
    }
    for (int r = 0; r < n; ++r)
        if (routerActive_[static_cast<std::size_t>(r)])
            activeScratch_.push_back(r);
}

void
Network::step()
{
    // Attach live queue state lazily: Network objects are movable,
    // so the pointer must be taken on the object that actually
    // steps, not on the one build() ran on.
    if (!stateAttached_) {
        routing_->attachState(*this);
        stateAttached_ = true;
    }
    if (faultsArmed_)
        applyPendingFaults();
    pumpInjection();
    buildWorklist();
    for (int r : activeScratch_)
        routers_[static_cast<std::size_t>(r)]->collectArrivals(now_);
    for (int r : activeScratch_)
        routers_[static_cast<std::size_t>(r)]->step(now_);
    deliveredScratch_.clear();
    for (int r : activeScratch_)
        routers_[static_cast<std::size_t>(r)]->drainEjection(
            now_, deliveredScratch_);
    processDelivered();
    ++now_;
}

void
Network::processDelivered()
{
    for (PacketHandle h : deliveredScratch_) {
        const Packet &pkt = pool_->get(h);
        latency_.add(static_cast<double>(pkt.ejectedAt -
                                         pkt.createdAt));
        netLatency_.add(static_cast<double>(pkt.ejectedAt -
                                            pkt.injectedAt));
        hops_.add(static_cast<double>(pkt.hops));
        winFlits_ += static_cast<std::uint64_t>(pkt.sizeFlits);
        if (onDeliver_)
            onDeliver_(pkt);
        pool_->release(h);
    }
}

std::uint64_t
Network::flitsInFlight() const
{
    std::uint64_t total = 0;
    for (const auto &r : routers_)
        total += static_cast<std::uint64_t>(r->bufferedFlits());
    for (const auto &c : channels_)
        total += c->flitsInFlight();
    return total;
}

std::uint64_t
Network::sourceQueueDepth() const
{
    std::uint64_t total = 0;
    for (const auto &q : sourceQueues_)
        total += q.size();
    return total;
}

void
Network::beginMeasurement()
{
    latency_.reset();
    netLatency_.reset();
    hops_.reset();
    winFlits_ = 0;
}

std::vector<Network::LinkUtilization>
Network::linkUtilization() const
{
    std::vector<LinkUtilization> out;
    double cycles = std::max<double>(1.0, static_cast<double>(now_));
    for (const auto &r : routers_) {
        for (int p = 0; p < r->numNetPorts(); ++p) {
            LinkUtilization lu;
            lu.routerA = r->id();
            lu.routerB = r->portNeighbor(p);
            lu.wireLength =
                topo_->placement().distance(lu.routerA, lu.routerB);
            lu.flitsPerCycle =
                static_cast<double>(r->portFlitsSent(p)) / cycles;
            out.push_back(lu);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const LinkUtilization &a, const LinkUtilization &b) {
                  return a.flitsPerCycle > b.flitsPerCycle;
              });
    return out;
}

int
Network::linkOccupancy(int router, int nextRouter) const
{
    return routers_[static_cast<std::size_t>(router)]
        ->linkOccupancyToward(nextRouter);
}

int
Network::pathOccupancy(int srcRouter, int dstRouter) const
{
    int occ = 0;
    int v = srcRouter;
    while (v != dstRouter) {
        int nh = paths_->nextHop(v, dstRouter);
        occ += linkOccupancy(v, nh);
        v = nh;
    }
    return occ;
}

} // namespace snoc
