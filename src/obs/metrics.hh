/**
 * @file
 * Process-wide metrics registry: lock-free counters, gauges and
 * fixed-bucket latency histograms registered by name.
 *
 * The tuning hot path runs hundreds of thousands of evaluations per
 * race; anything instrumenting it must cost a relaxed atomic op per
 * event, never a lock. The split that achieves that:
 *
 *   - the registry (name -> metric) is mutex-guarded, but consulted
 *     only at *registration* -- call sites cache a reference once
 *     (the RV_COUNTER_ADD family of macros hides a function-local
 *     static) and then touch only the atomic;
 *   - Counter/Gauge are single relaxed atomics; Histogram is 64
 *     power-of-two buckets of relaxed atomics, so record() is a
 *     bit_width() plus two fetch_adds;
 *   - snapshot()/json() walk everything under the registry mutex --
 *     the metrics file's path at driver exit, never the hot path's.
 *
 * Aggregates that already keep their own counters (EngineStats,
 * CampaignStats, ...) register a *source*: a closure returning named
 * samples, pulled only at snapshot time. That makes the registry the
 * one export path for every statistic in the process without forcing
 * existing stats structs to change their storage.
 *
 * Building with -DRACEVAL_DISABLE_OBS compiles the RV_* macros (and
 * RV_SPAN in obs/trace.hh) down to nothing for
 * overhead-free builds; the classes stay available either way.
 */

#ifndef RACEVAL_OBS_METRICS_HH
#define RACEVAL_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace raceval::obs
{

/** One named value pulled from a registered source. */
struct Sample
{
    std::string name;
    double value = 0.0;
};

/** Monotonic event counter (relaxed atomic; wait-free). */
class Counter
{
  public:
    void
    add(uint64_t n = 1) noexcept
    {
        v.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const noexcept
    {
        return v.load(std::memory_order_relaxed);
    }

    void reset() noexcept { v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v{0};
};

/** Instantaneous level (queue depth, packed bytes, ...). */
class Gauge
{
  public:
    void
    set(int64_t x) noexcept
    {
        v.store(x, std::memory_order_relaxed);
    }

    void
    add(int64_t d) noexcept
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    int64_t
    value() const noexcept
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> v{0};
};

/** Percentile summary of a Histogram at snapshot time. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double mean = 0.0;
    uint64_t max = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/**
 * Fixed-bucket latency histogram.
 *
 * Values (nanoseconds by convention) land in power-of-two buckets:
 * bucket b holds [2^(b-1), 2^b), bucket 0 holds zero. record() is
 * wait-free; percentile() reads a relaxed snapshot of the buckets and
 * interpolates linearly inside the winning bucket, so any estimate is
 * within one power of two of the exact sample percentile (tested
 * against stats::percentile in tests/test_obs.cc).
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 64;

    void
    record(uint64_t value) noexcept
    {
        buckets[bucketOf(value)].fetch_add(1,
                                           std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(value, std::memory_order_relaxed);
        // Losing this race under contention only shrinks the reported
        // max toward another in-flight sample; a CAS loop is not worth
        // it on the hot path.
        uint64_t seen = maxSeen.load(std::memory_order_relaxed);
        while (value > seen
               && !maxSeen.compare_exchange_weak(
                      seen, value, std::memory_order_relaxed)) {
        }
    }

    /** @return bucket index of a value (0..kBuckets-1). */
    static size_t
    bucketOf(uint64_t value) noexcept
    {
        size_t b = static_cast<size_t>(std::bit_width(value));
        return b < kBuckets ? b : kBuckets - 1;
    }

    /** @return inclusive lower bound of a bucket. */
    static uint64_t
    bucketLo(size_t b) noexcept
    {
        return b == 0 ? 0 : uint64_t{1} << (b - 1);
    }

    /** @return inclusive upper bound of a bucket. */
    static uint64_t
    bucketHi(size_t b) noexcept
    {
        return b == 0 ? 0 : (uint64_t{1} << b) - 1;
    }

    uint64_t
    count() const noexcept
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Percentile estimate; @p p in [0, 100]. */
    double percentile(double p) const;

    HistogramSnapshot snapshot() const;

    void reset() noexcept;

  private:
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> maxSeen{0};
};

/**
 * The process-wide registry.
 *
 * Metrics are created on first use and live for the process (stable
 * addresses: callers hold references across the registry mutex).
 * snapshot() and json() serve the bench drivers' metrics files
 * (writeMetricsJson).
 */
class MetricRegistry
{
  public:
    using SourceFn = std::function<std::vector<Sample>()>;

    /** Everything the registry knows, at one instant. */
    struct Snapshot
    {
        std::vector<std::pair<std::string, uint64_t>> counters;
        std::vector<std::pair<std::string, int64_t>> gauges;
        std::vector<std::pair<std::string, HistogramSnapshot>>
            histograms;
        /** (source prefix, samples) per registered source. */
        std::vector<std::pair<std::string, std::vector<Sample>>>
            sources;
    };

    /**
     * RAII registration of a sample source; unregisters on
     * destruction. Movable, not copyable.
     */
    class SourceHandle
    {
      public:
        SourceHandle() = default;
        SourceHandle(SourceHandle &&other) noexcept { swap(other); }
        SourceHandle &
        operator=(SourceHandle &&other) noexcept
        {
            if (this != &other) {
                release();
                swap(other);
            }
            return *this;
        }
        SourceHandle(const SourceHandle &) = delete;
        SourceHandle &operator=(const SourceHandle &) = delete;
        ~SourceHandle() { release(); }

        /** Unregister now (idempotent). */
        void release();

      private:
        friend class MetricRegistry;
        SourceHandle(MetricRegistry *registry, uint64_t id)
            : registry(registry), id(id)
        {
        }
        void
        swap(SourceHandle &other) noexcept
        {
            std::swap(registry, other.registry);
            std::swap(id, other.id);
        }

        MetricRegistry *registry = nullptr;
        uint64_t id = 0;
    };

    static MetricRegistry &instance();

    /// @name Registration (find-or-create by name; mutex-guarded --
    /// cache the returned reference, do not call per event)
    /// @{
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);
    /// @}

    /**
     * Register a pull source.
     *
     * @param prefix namespace prepended to every sample name in
     *        snapshots ("engine" -> "engine.requests").
     * @param fn called at snapshot time (thread-safe; may take its
     *        own locks but must not call back into the registry).
     */
    SourceHandle addSource(std::string prefix, SourceFn fn);

    Snapshot snapshot() const;

    /** Compact JSON object of a snapshot (the metrics blob written
     *  alongside the --json bench results). */
    std::string json() const;

    /** Reset every counter/gauge/histogram to zero and drop all
     *  sources. Metrics stay registered (addresses remain valid);
     *  test isolation only. */
    void resetForTest();

  private:
    MetricRegistry() = default;

    mutable std::mutex mutex;
    // node-based maps: values never move, so references handed out
    // stay valid while the registry grows.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    uint64_t nextSourceId = 1;
    std::map<uint64_t, std::pair<std::string, SourceFn>> sources;
};

/**
 * Write one registry snapshot, {"metrics": json()}, to @p path. The
 * bench drivers call this once at exit so every --json blob gets a
 * sibling metrics file. Write-then-rename: a concurrent reader sees
 * the previous file or this one, never a torn file.
 *
 * @return bytes written (0 on I/O failure, with a warning).
 */
size_t writeMetricsJson(const std::string &path);

/// @name Hot-path macros
/// Each expansion caches its metric reference in a function-local
/// static, so steady-state cost is one relaxed atomic op. Compile out
/// entirely under -DRACEVAL_DISABLE_OBS.
/// @{
#ifndef RACEVAL_DISABLE_OBS
#define RV_COUNTER_ADD(name, n)                                         \
    do {                                                                \
        static ::raceval::obs::Counter &rvObsCounter =                  \
            ::raceval::obs::MetricRegistry::instance().counter(name);   \
        rvObsCounter.add(n);                                            \
    } while (0)
#define RV_GAUGE_ADD(name, d)                                           \
    do {                                                                \
        static ::raceval::obs::Gauge &rvObsGauge =                      \
            ::raceval::obs::MetricRegistry::instance().gauge(name);     \
        rvObsGauge.add(d);                                              \
    } while (0)
#define RV_GAUGE_SET(name, x)                                           \
    do {                                                                \
        static ::raceval::obs::Gauge &rvObsGauge =                      \
            ::raceval::obs::MetricRegistry::instance().gauge(name);     \
        rvObsGauge.set(x);                                              \
    } while (0)
#define RV_HISTOGRAM_RECORD(name, v)                                    \
    do {                                                                \
        static ::raceval::obs::Histogram &rvObsHisto =                  \
            ::raceval::obs::MetricRegistry::instance().histogram(name); \
        rvObsHisto.record(v);                                           \
    } while (0)
#else
// sizeof keeps the operands referenced (silencing -Wunused for
// variables that only feed telemetry) without evaluating them.
#define RV_COUNTER_ADD(name, n) do { (void)sizeof(n); } while (0)
#define RV_GAUGE_ADD(name, d) do { (void)sizeof(d); } while (0)
#define RV_GAUGE_SET(name, x) do { (void)sizeof(x); } while (0)
#define RV_HISTOGRAM_RECORD(name, v) do { (void)sizeof(v); } while (0)
#endif
/// @}

} // namespace raceval::obs

#endif // RACEVAL_OBS_METRICS_HH
