#include "topo/export.hh"

#include <ostream>

#include "common/json.hh"

namespace snoc {

void
writeDot(const NocTopology &topo, std::ostream &os)
{
    os << "graph \"" << topo.name() << "\" {\n"
       << "  node [shape=box];\n";
    for (int r = 0; r < topo.numRouters(); ++r) {
        const Coord &c = topo.placement().coordOf(r);
        os << "  r" << r << " [label=\"r" << r << " (p="
           << topo.concentrationOf(r) << ")\" pos=\"" << c.x * 100
           << "," << c.y * 100 << "\"];\n";
    }
    for (int u = 0; u < topo.numRouters(); ++u) {
        for (int v : topo.routers().neighbors(u)) {
            if (v > u)
                os << "  r" << u << " -- r" << v << ";\n";
        }
    }
    os << "}\n";
}

void
writeJson(const NocTopology &topo, std::ostream &os)
{
    JsonValue routers = JsonValue::array();
    for (int r = 0; r < topo.numRouters(); ++r) {
        const Coord &c = topo.placement().coordOf(r);
        JsonValue router = JsonValue::object();
        router.set("id", JsonValue::number(r));
        router.set("x", JsonValue::number(c.x));
        router.set("y", JsonValue::number(c.y));
        router.set("nodes", JsonValue::number(topo.concentrationOf(r)));
        routers.push(std::move(router));
    }
    JsonValue links = JsonValue::array();
    for (int u = 0; u < topo.numRouters(); ++u) {
        for (int v : topo.routers().neighbors(u)) {
            if (v <= u)
                continue;
            JsonValue link = JsonValue::object();
            link.set("a", JsonValue::number(u));
            link.set("b", JsonValue::number(v));
            link.set("length",
                     JsonValue::number(topo.placement().distance(u, v)));
            links.push(std::move(link));
        }
    }

    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::string(topo.name()));
    doc.set("cycle_time_ns", JsonValue::number(topo.cycleTimeNs()));
    doc.set("dim_x", JsonValue::number(topo.placement().dimX()));
    doc.set("dim_y", JsonValue::number(topo.placement().dimY()));
    doc.set("num_nodes", JsonValue::number(topo.numNodes()));
    doc.set("routers", std::move(routers));
    doc.set("links", std::move(links));
    os << doc.dump(2) << "\n";
}

} // namespace snoc
