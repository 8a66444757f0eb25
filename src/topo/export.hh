/**
 * @file
 * Topology exporters: Graphviz DOT (with physical tile positions)
 * and a JSON description consumable by external plotting/analysis
 * scripts. Every NocTopology can be dumped losslessly: routers with
 * coordinates and concentration, plus one edge record per link.
 */

#ifndef SNOC_TOPO_EXPORT_HH
#define SNOC_TOPO_EXPORT_HH

#include <iosfwd>

#include "topo/noc_topology.hh"

namespace snoc {

/**
 * Write Graphviz DOT. Router nodes carry `pos` attributes (tile
 * coordinates, usable with `neato -n`), labels "r<id> (p=<conc>)".
 */
void writeDot(const NocTopology &topo, std::ostream &os);

/**
 * Write a JSON object (pretty-printed by common/json's writer):
 * {
 *   "name": ..., "cycle_time_ns": ..., "dim_x": ..., "dim_y": ...,
 *   "num_nodes": ...,
 *   "routers": [{"id":0,"x":0,"y":0,"nodes":4}, ...],
 *   "links":   [{"a":0,"b":7,"length":3}, ...]
 * }
 */
void writeJson(const NocTopology &topo, std::ostream &os);

} // namespace snoc

#endif // SNOC_TOPO_EXPORT_HH
