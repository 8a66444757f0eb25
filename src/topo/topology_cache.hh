/**
 * @file
 * Process-wide cache of named topologies.
 *
 * Constructing a named topology (MMS graph generation, layout
 * optimization, placement) is far more expensive than simulating a
 * short window on it, and experiment campaigns revisit the same
 * handful of ids hundreds of times. The cache builds each id once,
 * under a mutex, and hands out a stable const reference that is safe
 * to share across ExperimentRunner worker threads: NocTopology is
 * immutable after construction and Network copies it anyway.
 */

#ifndef SNOC_TOPO_TOPOLOGY_CACHE_HH
#define SNOC_TOPO_TOPOLOGY_CACHE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "topo/noc_topology.hh"

namespace snoc {

/** Thread-safe build-once store for makeNamedTopology() results. */
class TopologyCache
{
  public:
    /** The process-wide instance used by the experiment engine. */
    static TopologyCache &instance();

    /**
     * The topology for a Table-4 id, building it on first use.
     * The reference stays valid until clear(); entries are
     * heap-allocated so later insertions never move them.
     * Distinct ids build concurrently (the cache-wide mutex only
     * guards the map); same-id races build exactly once, with the
     * losers blocking until the build finishes.
     * @throws FatalError for unknown ids (from makeNamedTopology).
     */
    const NocTopology &get(const std::string &id);

    /** Lookups served from the cache. */
    std::size_t hits() const;

    /** Lookups that had to build the topology. */
    std::size_t misses() const;

    /** Cached topology count. */
    std::size_t size() const;

    /** Drop all entries and reset counters (invalidates references). */
    void clear();

  private:
    /** One per id: built once via `once`, pinned by shared_ptr. */
    struct Entry;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

} // namespace snoc

#endif // SNOC_TOPO_TOPOLOGY_CACHE_HH
