/**
 * @file
 * Sharded, thread-safe cache of evaluation results, keyed by content
 * fingerprints of (model, instance).
 *
 * The racing loop and the perturbation sweeps re-evaluate
 * near-identical configurations constantly (elites re-race every
 * iteration, Figs. 7/8 probe one step around the optimum); the cache
 * turns every repeat into a lookup. Optional save/load to disk lets
 * repeated runs start warm.
 */

#ifndef RACEVAL_ENGINE_EVAL_CACHE_HH
#define RACEVAL_ENGINE_EVAL_CACHE_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/fingerprint.hh"

namespace raceval::engine
{

/** Cache key: content fingerprint of the model side plus instance id. */
struct EvalKey
{
    uint64_t model = 0;    //!< configuration/model fingerprint (salted)
    uint64_t instance = 0; //!< benchmark instance id

    bool operator==(const EvalKey &) const = default;
};

/** What one evaluation produced. */
struct EvalValue
{
    double cost = 0.0;   //!< the objective (cost-function output)
    double simCpi = 0.0; //!< simulated CPI (for error reports)
};

/**
 * One record of a persisted cache file. The v3 format sorts records
 * ascending by (model, instance), so identical caches save to
 * identical bytes. Fixed little-endian layout on every target we build
 * for; the cache file is a warm-start hint, not an archive.
 */
struct EvalFileRecord
{
    uint64_t model;
    uint64_t instance;
    double cost;
    double simCpi;
};

static_assert(sizeof(EvalFileRecord) == 32,
              "EvalFileRecord layout is part of the cache file format");

/** Aggregate cache counters. */
struct EvalCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t entries = 0; //!< current resident entries

    /** @return hits / (hits + misses), 0 when empty. */
    double
    hitRate() const
    {
        uint64_t total = hits + misses;
        return total ? static_cast<double>(hits)
            / static_cast<double>(total) : 0.0;
    }
};

/**
 * The sharded result cache.
 *
 * Keys map to a fixed number of lock shards by mixed fingerprint, so
 * concurrent workers contend only when they touch the same shard.
 * Entries are never evicted: a race's working set is bounded by its
 * experiment budget.
 */
class EvalCache
{
  public:
    /** Look up a key; counts a hit or a miss. */
    bool lookup(const EvalKey &key, EvalValue &out);

    /** Insert (first write wins; re-inserts of a present key are
     *  no-ops, keeping deterministic first-result semantics). */
    void insert(const EvalKey &key, const EvalValue &value);

    /** @return current entry count. */
    size_t size() const;

    /** @return a copy of every (key, value) pair. */
    std::vector<std::pair<EvalKey, EvalValue>> entries() const;

    EvalCacheStats stats() const;

    /**
     * Persist every entry to a binary file.
     *
     * The cache file is a warm-start hint, not an archive: an
     * unwritable path warns and writes nothing rather than killing a
     * finished run.
     *
     * @param digest caller-provided compatibility stamp (the engine
     *        digests its model kind); load() refuses files whose
     *        digest does not match.
     * @return entries written (0 on I/O failure).
     */
    size_t save(const std::string &path, uint64_t digest = 0) const;

    /**
     * Merge entries from a previously saved file.
     *
     * Missing files are not an error (a cold start); a digest
     * mismatch (cache saved by a differently-shaped engine) warns and
     * loads nothing. A file cut short loads the whole records before
     * the cut, however many its header claims.
     *
     * @param[out] compatible when given, set to false only when the
     *        file exists but belongs to someone else (bad magic or
     *        digest mismatch) -- i.e. overwriting it would destroy
     *        another engine's warm start.
     * @return entries loaded (0 when the file does not exist or does
     *         not match).
     */
    size_t load(const std::string &path, uint64_t digest = 0,
                bool *compatible = nullptr);

  private:
    struct KeyHash
    {
        size_t
        operator()(const EvalKey &key) const
        {
            return static_cast<size_t>(
                Fingerprinter::mix64(key.model ^ (key.instance
                    * 0x9e3779b97f4a7c15ull)));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<EvalKey, EvalValue, KeyHash> map;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
    };

    static constexpr size_t numShards = 8;

    Shard &shardFor(const EvalKey &key);

    std::array<Shard, numShards> shards;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_EVAL_CACHE_HH
