#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>

#include "common/json_writer.hh"
#include "common/log.hh"

namespace raceval::obs
{

// ------------------------------------------------------------- Histogram

double
Histogram::percentile(double p) const
{
    RV_ASSERT(p >= 0.0 && p <= 100.0, "histogram percentile %g", p);
    // A relaxed copy of the buckets: concurrent record()s may be
    // partially visible, which only perturbs the estimate by the
    // in-flight samples.
    std::array<uint64_t, kBuckets> counts;
    uint64_t n = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        counts[b] = buckets[b].load(std::memory_order_relaxed);
        n += counts[b];
    }
    if (n == 0)
        return 0.0;

    // Nearest-rank target, then linear interpolation across the
    // winning bucket's value range by the rank's position in it.
    uint64_t target = static_cast<uint64_t>(p / 100.0
                                            * static_cast<double>(n));
    if (target >= n)
        target = n - 1;
    uint64_t below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        if (!counts[b])
            continue;
        if (below + counts[b] > target) {
            double frac = static_cast<double>(target - below)
                / static_cast<double>(counts[b]);
            double lo = static_cast<double>(bucketLo(b));
            double hi = static_cast<double>(bucketHi(b));
            return lo + frac * (hi - lo);
        }
        below += counts[b];
    }
    return static_cast<double>(bucketHi(kBuckets - 1)); // unreachable
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    out.count = total.load(std::memory_order_relaxed);
    out.max = maxSeen.load(std::memory_order_relaxed);
    if (out.count) {
        out.mean = static_cast<double>(
                       sum.load(std::memory_order_relaxed))
            / static_cast<double>(out.count);
        out.p50 = percentile(50.0);
        out.p90 = percentile(90.0);
        out.p99 = percentile(99.0);
    }
    return out;
}

void
Histogram::reset() noexcept
{
    for (auto &bucket : buckets)
        bucket.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
    maxSeen.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------- MetricRegistry

MetricRegistry &
MetricRegistry::instance()
{
    // Intentionally immortal (never destroyed): consumers living in
    // static storage -- a bench driver's global engine, say -- release
    // their SourceHandles during exit teardown, in an order the
    // registry cannot control. A function-local static registry could
    // be destroyed first and turn those releases into use-after-free.
    static MetricRegistry *registry = new MetricRegistry();
    return *registry;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricRegistry::SourceHandle
MetricRegistry::addSource(std::string prefix, SourceFn fn)
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t id = nextSourceId++;
    sources.emplace(id,
                    std::make_pair(std::move(prefix), std::move(fn)));
    return SourceHandle(this, id);
}

void
MetricRegistry::SourceHandle::release()
{
    if (!registry)
        return;
    std::lock_guard<std::mutex> lock(registry->mutex);
    registry->sources.erase(id);
    registry = nullptr;
    id = 0;
}

MetricRegistry::Snapshot
MetricRegistry::snapshot() const
{
    // Copy the source closures out, then pull them without the
    // registry lock: sources take their own locks (e.g. the engine's
    // TraceBank mutex) and must be free to register metrics while we
    // wait on them.
    std::vector<std::pair<std::string, SourceFn>> pulls;
    Snapshot out;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &[name, c] : counters)
            out.counters.emplace_back(name, c->value());
        for (const auto &[name, g] : gauges)
            out.gauges.emplace_back(name, g->value());
        for (const auto &[name, h] : histograms)
            out.histograms.emplace_back(name, h->snapshot());
        for (const auto &[id, source] : sources)
            pulls.push_back(source);
    }
    for (auto &[prefix, fn] : pulls)
        out.sources.emplace_back(prefix, fn());
    return out;
}

std::string
MetricRegistry::json() const
{
    Snapshot snap = snapshot();
    JsonWriter w;
    w.beginObject();
    w.beginObject("counters");
    for (const auto &[name, v] : snap.counters)
        w.field(name.c_str(), v);
    w.endObject();
    w.beginObject("gauges");
    for (const auto &[name, v] : snap.gauges)
        w.field(name.c_str(), v);
    w.endObject();
    w.beginObject("histograms");
    for (const auto &[name, h] : snap.histograms) {
        w.beginObject(name.c_str())
            .field("count", h.count)
            .field("mean", h.mean)
            .field("max", h.max)
            .field("p50", h.p50)
            .field("p90", h.p90)
            .field("p99", h.p99)
            .endObject();
    }
    w.endObject();
    w.beginArray("sources");
    for (const auto &[prefix, samples] : snap.sources) {
        w.beginObject().field("name", prefix).beginObject("samples");
        for (const Sample &sample : samples)
            w.field(sample.name.c_str(), sample.value);
        w.endObject().endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

size_t
writeMetricsJson(const std::string &path)
{
    JsonWriter w;
    w.beginObject();
    w.rawField("metrics", MetricRegistry::instance().json());
    w.endObject();
    const std::string json = w.str();

    std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "w");
    if (!file) {
        warn("cannot write metrics file '%s'", tmp.c_str());
        return 0;
    }
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot rename metrics file onto '%s'", path.c_str());
        std::remove(tmp.c_str());
        return 0;
    }
    return json.size();
}

void
MetricRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (auto &[name, c] : counters)
        c->reset();
    for (auto &[name, g] : gauges)
        g->set(0);
    for (auto &[name, h] : histograms)
        h->reset();
    sources.clear();
}

} // namespace raceval::obs
