#include "engine/eval_cache.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace raceval::engine
{

namespace
{

/** On-disk header: magic + digest + entry count. Version 3 sorts the
 *  records by (model, instance); v2 stored them in hash order. */
const char cacheMagic[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', '3'};
const char cacheMagicV2[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', '2'};

/** The sort order of v3 records. */
bool
recordLess(const EvalFileRecord &a, const EvalFileRecord &b)
{
    if (a.model != b.model)
        return a.model < b.model;
    return a.instance < b.instance;
}

} // namespace

EvalCache::Shard &
EvalCache::shardFor(const EvalKey &key)
{
    KeyHash hash;
    return shards[hash(key) % numShards];
}

bool
EvalCache::lookup(const EvalKey &key, EvalValue &out)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        ++shard.misses;
        return false;
    }
    ++shard.hits;
    out = it->second;
    return true;
}

void
EvalCache::insert(const EvalKey &key, const EvalValue &value)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.emplace(key, value).second)
        ++shard.insertions;
}

std::vector<std::pair<EvalKey, EvalValue>>
EvalCache::entries() const
{
    std::vector<std::pair<EvalKey, EvalValue>> out;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        out.insert(out.end(), shard.map.begin(), shard.map.end());
    }
    return out;
}

size_t
EvalCache::size() const
{
    size_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

EvalCacheStats
EvalCache::stats() const
{
    EvalCacheStats out;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        out.hits += shard.hits;
        out.misses += shard.misses;
        out.insertions += shard.insertions;
        out.entries += shard.map.size();
    }
    return out;
}

size_t
EvalCache::save(const std::string &path, uint64_t digest) const
{
    std::vector<EvalFileRecord> records;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto &[key, value] : shard.map) {
            records.push_back(EvalFileRecord{key.model, key.instance,
                                             value.cost, value.simCpi});
        }
    }
    // v3 contract: records sorted by (model, instance), so equal
    // caches save to equal bytes.
    std::sort(records.begin(), records.end(), recordLess);

    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        warn("eval cache: cannot open '%s' for writing, not saving",
             path.c_str());
        return 0;
    }
    uint64_t count = records.size();
    bool ok = std::fwrite(cacheMagic, 1, sizeof(cacheMagic), file)
            == sizeof(cacheMagic)
        && std::fwrite(&digest, sizeof(digest), 1, file) == 1
        && std::fwrite(&count, sizeof(count), 1, file) == 1
        && (records.empty()
            || std::fwrite(records.data(), sizeof(EvalFileRecord),
                           records.size(), file) == records.size());
    std::fclose(file);
    if (!ok) {
        warn("eval cache: short write to '%s'", path.c_str());
        return 0;
    }
    return records.size();
}

size_t
EvalCache::load(const std::string &path, uint64_t digest,
                bool *compatible)
{
    if (compatible)
        *compatible = true;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return 0; // cold start
    char magic[sizeof(cacheMagic)] = {};
    uint64_t file_digest = 0;
    uint64_t count = 0;
    if (std::fread(magic, 1, sizeof(magic), file) != sizeof(magic)
        || std::memcmp(magic, cacheMagic, sizeof(magic)) != 0
        || std::fread(&file_digest, sizeof(file_digest), 1, file) != 1
        || std::fread(&count, sizeof(count), 1, file) != 1) {
        std::fclose(file);
        if (std::memcmp(magic, cacheMagicV2, sizeof(magic)) == 0) {
            warn("eval cache: '%s' is a v2 cache file; the v2 format "
                 "is no longer readable -- delete it and let this run "
                 "re-save it in the v3 (sorted) format",
                 path.c_str());
        } else {
            warn("eval cache: '%s' is not a cache file, ignoring",
                 path.c_str());
        }
        if (compatible)
            *compatible = false;
        return 0;
    }
    if (file_digest != digest) {
        std::fclose(file);
        warn("eval cache: '%s' was saved by a differently-shaped "
             "engine (digest mismatch), ignoring", path.c_str());
        if (compatible)
            *compatible = false;
        return 0;
    }
    size_t loaded = 0;
    EvalFileRecord record;
    for (uint64_t i = 0; i < count; ++i) {
        if (std::fread(&record, sizeof(record), 1, file) != 1) {
            warn("eval cache: '%s' truncated after %zu entries",
                 path.c_str(), loaded);
            break;
        }
        insert(EvalKey{record.model, record.instance},
               EvalValue{record.cost, record.simCpi});
        ++loaded;
    }
    std::fclose(file);
    return loaded;
}

} // namespace raceval::engine
