/**
 * @file
 * Content-addressed result store: simulate each scenario once, ever.
 *
 * A completed scenario row is cached on disk under
 *
 *     key = sha256( canonical-minimal scenario JSON
 *                   + '\n' + version/behavior stamp )
 *
 * The canonical scenario form (exp/serialize.hh) already encodes
 * every axis that can change a result — topology, router/link
 * config, routing mode, traffic spec, load, seeds, fault plan,
 * simulation windows — and the PR-4 guarantee parse(serialize(s)) ==
 * s makes the key a pure function of the scenario's *meaning*, not
 * of who built it (a bench binary, a plan file, the fuzzer). The
 * stamp folds in the build's git-describe, so a store survives
 * recompiles of the same commit but never serves rows across code
 * changes; `snoc cache prune` evicts rows whose stamp went stale.
 *
 * Execution knobs (threads, shards) are deliberately
 * NOT part of the key: the engine's determinism contract makes
 * results bitwise identical across execution modes, so a row cached
 * by a sharded run is exactly the row a serial run would produce —
 * and the store's own contract (enforced by test) is that a cache
 * hit is bitwise identical to a fresh simulation.
 *
 * Layout: <root>/objects/<key[0:2]>/<key>.json, one JSON document
 * per entry ({"key", "stamp", "scenario", "sim"}). Writes go
 * through a temp file + rename, so a concurrent reader (or a crash
 * mid-put) sees either the whole entry or none of it; unreadable or
 * stamp-mismatched entries degrade to cache misses, never errors.
 */

#ifndef SNOC_EXP_RESULT_STORE_HH
#define SNOC_EXP_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "exp/experiment_plan.hh"

namespace snoc {

/**
 * The version/behavior stamp folded into every store key and written
 * into journal headers: the build's git-describe plus a store schema
 * tag. Two builds with equal stamps must produce bitwise-identical
 * results for equal scenarios.
 */
std::string resultStoreStamp();

/** The store key for a scenario (64 hex chars; see file comment). */
std::string resultKey(const Scenario &scenario);

/** On-disk content-addressed cache of completed scenario rows. */
class ResultStore
{
  public:
    /**
     * Open (creating directories as needed) a store rooted at
     * `root`. `stamp` defaults to resultStoreStamp(); tests override
     * it to model entries written by another code version.
     * @throws FatalError when the root cannot be created
     */
    explicit ResultStore(std::string root, std::string stamp = {});

    /**
     * The store root from the environment (SNOC_RESULT_STORE), or ""
     * when caching is disabled.
     */
    static std::string resolveRoot();

    /**
     * The cached result under `key`, or nullopt. Missing, corrupt
     * and stale-stamped entries all count as misses.
     */
    std::optional<SimResult> lookup(const std::string &key);

    /** Cache a completed row (idempotent; atomic via tmp+rename). */
    void put(const std::string &key, const Scenario &scenario,
             const SimResult &sim);

    /** Hit/miss/put counts for this store handle (manifest stats). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t puts = 0;
    };
    Stats stats() const;

    /** Whole-store disk accounting (`snoc cache stats`). */
    struct Usage
    {
        std::uint64_t entries = 0; //!< parseable entries
        std::uint64_t stale = 0;   //!< entries with a foreign stamp
        std::uint64_t corrupt = 0; //!< unparseable entry files
        std::uint64_t bytes = 0;   //!< total entry bytes on disk
    };
    Usage usage() const;

    /** Delete every entry (`snoc cache clear`); returns the count. */
    std::uint64_t clear();

    /**
     * Delete entries whose stamp differs from this handle's stamp,
     * plus unparseable entry files (`snoc cache prune`); returns the
     * count removed.
     */
    std::uint64_t prune();

    const std::string &root() const { return root_; }
    const std::string &stamp() const { return stamp_; }

  private:
    std::string root_;
    std::string stamp_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> puts_{0};
    std::mutex writeMutex_; //!< serializes tmp-file names per handle

    std::string entryPath(const std::string &key) const;
};

} // namespace snoc

#endif // SNOC_EXP_RESULT_STORE_HH
