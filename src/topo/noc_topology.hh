/**
 * @file
 * NocTopology: the common bundle every topology factory produces and
 * every downstream consumer (simulator, power model, benches) uses.
 *
 * A topology instance is a router graph, a physical placement on the
 * die grid, a node-to-router attachment, and the router cycle time
 * the paper assigns per radix class (Section 5.1: 0.4 ns for low-radix
 * T2D/CM, 0.5 ns for SN/PFBF, 0.6 ns for high-radix FBF).
 */

#ifndef SNOC_TOPO_NOC_TOPOLOGY_HH
#define SNOC_TOPO_NOC_TOPOLOGY_HH

#include <string>
#include <vector>

#include "core/layout.hh"
#include "graph/graph.hh"

namespace snoc {

/**
 * Topology family tag plus the structural details deterministic
 * routing needs (grid dimensions, partition counts). Generic falls
 * back to BFS-table minimal routing with hop-indexed VCs.
 */
struct RoutingHint
{
    enum class Kind
    {
        Generic,    //!< BFS minimal, VC = hop index
        SlimNoc,    //!< BFS minimal, 2 VCs (diameter 2)
        Mesh,       //!< dimension-ordered XY
        Torus,      //!< dimension-ordered XY + dateline VCs
        Fbf,        //!< X hop then Y hop
        Pfbf,       //!< X phase (intra + partition links) then Y phase
        Dragonfly,  //!< minimal local-global-local
        Clos,       //!< up/down
    };
    Kind kind = Kind::Generic;
    int cols = 0;
    int rows = 0;
    int partsX = 1;
    int partsY = 1;
};

/** A fully-specified network instance. */
class NocTopology
{
  public:
    /**
     * @param name          short id ("sn_subgr", "t2d4", "fbf9", ...)
     * @param routers       router connectivity graph
     * @param placement     tile coordinates per router
     * @param nodesPerRouter node count attached to each router
     *                      (routers with 0 are transit-only, e.g.
     *                      folded-Clos spine routers)
     * @param cycleTimeNs   router clock period
     * @param expectedDiameter the topology's nominal diameter, used
     *                      for validation; -1 to skip the check
     */
    NocTopology(std::string name, Graph routers, Placement placement,
                std::vector<int> nodesPerRouter, double cycleTimeNs,
                int expectedDiameter = -1);

    const std::string &name() const { return name_; }
    const Graph &routers() const { return routers_; }
    const Placement &placement() const { return placement_; }
    double cycleTimeNs() const { return cycleTimeNs_; }

    const RoutingHint &routingHint() const { return routingHint_; }
    void setRoutingHint(const RoutingHint &hint) { routingHint_ = hint; }

    int numRouters() const { return routers_.numVertices(); }
    int numNodes() const { return numNodes_; }

    /** Nodes attached to a given router. */
    int concentrationOf(int router) const;

    /** Maximum concentration over all routers (the paper's p). */
    int concentration() const;

    /** Router radix k = k' + p for the widest router. */
    int routerRadix() const;

    /** The router a node is attached to. @pre 0 <= node < numNodes(). */
    int
    routerOfNode(int node) const
    {
        return routerOfNode_[static_cast<std::size_t>(node)];
    }

    /** The nodes attached to a router: [first, first + count). */
    int firstNodeOfRouter(int router) const;

    /** Hop-count diameter of the router graph. */
    int diameter() const { return routers_.diameter(); }

    /**
     * Layout-cut bisection link count: links whose L-route crosses
     * the vertical center line of the die. A proxy for bisection
     * bandwidth under the physical placement.
     */
    int bisectionLinks() const;

  private:
    std::string name_;
    Graph routers_;
    Placement placement_;
    std::vector<int> nodesPerRouter_;
    std::vector<int> firstNode_;
    std::vector<int> routerOfNode_; //!< node -> attached router
    int numNodes_;
    double cycleTimeNs_;
    RoutingHint routingHint_;
};

} // namespace snoc

#endif // SNOC_TOPO_NOC_TOPOLOGY_HH
