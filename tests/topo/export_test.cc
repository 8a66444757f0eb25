/**
 * @file
 * Exporter tests: DOT and JSON outputs are well-formed and complete.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "topo/export.hh"
#include "topo/slimnoc_topology.hh"
#include "topo/table4.hh"

namespace snoc {
namespace {

TEST(Export, DotContainsAllRoutersAndLinks)
{
    NocTopology topo = makeNamedTopology("sn_54");
    std::ostringstream oss;
    writeDot(topo, oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("graph \"sn_54\""), std::string::npos);
    for (int r = 0; r < topo.numRouters(); ++r) {
        EXPECT_NE(s.find("r" + std::to_string(r) + " [label"),
                  std::string::npos)
            << r;
    }
    // Count edge lines.
    std::size_t edges = 0;
    std::size_t pos = 0;
    while ((pos = s.find(" -- ", pos)) != std::string::npos) {
        ++edges;
        ++pos;
    }
    EXPECT_EQ(edges,
              static_cast<std::size_t>(topo.routers().numEdges()));
}

TEST(Export, JsonIsStructurallySound)
{
    NocTopology topo = makeNamedTopology("t2d4");
    std::ostringstream oss;
    writeJson(topo, oss);
    JsonValue doc = JsonValue::parse(oss.str(), "t2d4.json");
    EXPECT_EQ(doc.find("name")->asString("$.name"), "t2d4");
    EXPECT_EQ(doc.find("num_nodes")->asInt("$.num_nodes"), 200);
    EXPECT_EQ(doc.find("dim_x")->asInt("$.dim_x"),
              topo.placement().dimX());
    // One router record per router, one link record per edge.
    const auto &routers = doc.find("routers")->items("$.routers");
    ASSERT_EQ(routers.size(), static_cast<std::size_t>(topo.numRouters()));
    for (int r = 0; r < topo.numRouters(); ++r)
        EXPECT_EQ(routers[r].find("nodes")->asInt("$.nodes"),
                  topo.concentrationOf(r));
    EXPECT_EQ(doc.find("links")->items("$.links").size(),
              static_cast<std::size_t>(topo.routers().numEdges()));
}

TEST(Export, JsonEscapesTheTopologyName)
{
    // A name with a quote and a backslash still parses back exactly.
    NocTopology sn = makeNamedTopology("sn_54");
    const std::string name = "say \"hi\" \\ bye";
    NocTopology topo(name, sn.routers(), sn.placement(),
                     std::vector<int>(sn.numRouters(), 1),
                     sn.cycleTimeNs());
    std::ostringstream oss;
    writeJson(topo, oss);
    EXPECT_EQ(JsonValue::parse(oss.str()).find("name")->asString("$.name"),
              name);
}

TEST(Export, ExactNodeTrimming)
{
    // Section 3.5.3: exact node counts that are not Nr * p.
    NocTopology t = makeSlimNocTopologyExactNodes(
        190, SnLayout::Subgroup);
    EXPECT_EQ(t.numNodes(), 190);
    EXPECT_EQ(t.numRouters(), 50); // q = 5
    // Concentrations differ by at most one.
    int lo = 1 << 20;
    int hi = 0;
    for (int r = 0; r < t.numRouters(); ++r) {
        lo = std::min(lo, t.concentrationOf(r));
        hi = std::max(hi, t.concentrationOf(r));
    }
    EXPECT_LE(hi - lo, 1);
    EXPECT_EQ(t.diameter(), 2);
}

TEST(Export, ExactNodesInfeasibleThrows)
{
    EXPECT_THROW(makeSlimNocTopologyExactNodes(1, SnLayout::Basic),
                 FatalError);
}

} // namespace
} // namespace snoc
