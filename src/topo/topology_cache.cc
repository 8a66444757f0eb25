#include "topo/topology_cache.hh"

#include "topo/table4.hh"

namespace snoc {

struct TopologyCache::Entry
{
    std::once_flag once;
    std::unique_ptr<const NocTopology> topo;
};

TopologyCache &
TopologyCache::instance()
{
    static TopologyCache cache;
    return cache;
}

const NocTopology &
TopologyCache::get(const std::string &id)
{
    // The cache-wide mutex only guards the map; the expensive
    // topology construction happens outside it so distinct ids
    // build concurrently across worker threads. Same-id races are
    // collapsed by the entry's once_flag (losers block until the
    // winner's build completes; call_once retries after exceptions).
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(id);
        if (it != map_.end()) {
            ++hits_;
            entry = it->second;
        } else {
            ++misses_;
            entry = std::make_shared<Entry>();
            map_.emplace(id, entry);
        }
    }

    try {
        std::call_once(entry->once, [&] {
            entry->topo =
                std::make_unique<const NocTopology>(makeNamedTopology(id));
        });
    } catch (...) {
        // Failed builds (unknown id) must not leave a poisoned
        // entry behind; only erase it if no other thread replaced
        // it or finished a build meanwhile.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(id);
        if (it != map_.end() && it->second == entry && !entry->topo)
            map_.erase(it);
        throw;
    }
    return *entry->topo;
}

std::size_t
TopologyCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
TopologyCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
TopologyCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

void
TopologyCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
}

} // namespace snoc
