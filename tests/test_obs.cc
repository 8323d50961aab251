/**
 * @file
 * Unit tests for the telemetry layer: metrics registry (counters,
 * gauges, histograms, pull sources), span tracing (ring buffers,
 * Chrome trace rendering, determinism, RACEVAL_TRACE_RING parsing),
 * the metrics file, the shared JsonWriter and the pluggable log sink.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/params.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/descriptive.hh"
#include "tuner/race.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"

using namespace raceval;

namespace
{

/** RAII session guard: every tracing test leaves the global session
 *  closed even when an assertion fails mid-test. */
struct TraceSession
{
    explicit TraceSession(const char *path_) : path(path_)
    {
        obs::startTracing(path);
    }
    ~TraceSession()
    {
        obs::stopTracing();
        std::remove(path);
    }
    const char *path;
};

} // namespace

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriter, EscapesMetacharacters)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(jsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(JsonWriter, DoublesRoundTripAndNonFiniteIsNull)
{
    double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(jsonDouble(v)), v);
    EXPECT_EQ(jsonDouble(1.0 / 0.0), "null");
    EXPECT_EQ(jsonDouble(0.0 / 0.0), "null");
}

TEST(JsonWriter, CompactObjectShape)
{
    JsonWriter w;
    w.beginObject()
        .field("a", uint64_t{1})
        .field("b", "x")
        .beginArray("c")
        .value(uint64_t{2})
        .value(uint64_t{3})
        .endArray()
        .endObject();
    EXPECT_EQ(w.str(), "{\"a\": 1, \"b\": \"x\", \"c\": [2, 3]}");
}

TEST(JsonWriter, PrettyModeIndents)
{
    JsonWriter w(/*pretty=*/true);
    w.beginObject().field("a", uint64_t{1}).endObject();
    EXPECT_EQ(w.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, RawFieldSplicesNestedDocument)
{
    JsonWriter inner;
    inner.beginObject().field("x", uint64_t{7}).endObject();
    JsonWriter outer;
    outer.beginObject().rawField("in", inner.str()).endObject();
    EXPECT_EQ(outer.str(), "{\"in\": {\"x\": 7}}");
}

// ------------------------------------------------------------- Histogram

TEST(Histogram, BucketBoundsArePowersOfTwo)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
    for (size_t b = 1; b < 20; ++b) {
        EXPECT_EQ(obs::Histogram::bucketOf(obs::Histogram::bucketLo(b)),
                  b);
        EXPECT_EQ(obs::Histogram::bucketOf(obs::Histogram::bucketHi(b)),
                  b);
    }
    EXPECT_EQ(obs::Histogram::bucketOf(~uint64_t{0}),
              obs::Histogram::kBuckets - 1);
}

TEST(Histogram, PercentileTracksExactWithinOneBucket)
{
    // The histogram estimate must stay within the winning power-of-two
    // bucket of the exact sample percentile from stats/descriptive.
    Rng rng(123);
    obs::Histogram h;
    std::vector<double> exact;
    for (int i = 0; i < 20000; ++i) {
        // Skewed latency-like distribution across several decades.
        uint64_t v = rng.nextBelow(1000) * rng.nextBelow(1000);
        h.record(v);
        exact.push_back(static_cast<double>(v));
    }
    for (double p : {50.0, 90.0, 99.0}) {
        double want = stats::percentile(exact, p);
        double got = h.percentile(p);
        size_t bucket = obs::Histogram::bucketOf(
            static_cast<uint64_t>(want));
        EXPECT_GE(got,
                  static_cast<double>(obs::Histogram::bucketLo(bucket)))
            << "p" << p;
        EXPECT_LE(got,
                  static_cast<double>(obs::Histogram::bucketHi(bucket))
                      + 1.0)
            << "p" << p;
    }
}

TEST(Histogram, SnapshotAggregates)
{
    obs::Histogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_DOUBLE_EQ(snap.mean, 50.5);
    EXPECT_EQ(snap.max, 100u);
    EXPECT_GT(snap.p99, snap.p50);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

// -------------------------------------------------------------- Registry

TEST(MetricRegistry, CountersSurviveConcurrentIncrements)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    reg.resetForTest();
    obs::Counter &c = reg.counter("test.concurrent");
    ThreadPool pool(4);
    pool.parallelFor(1000, [&](size_t) {
        for (int k = 0; k < 100; ++k)
            c.add(1);
    });
    EXPECT_EQ(c.value(), 100000u);
    reg.resetForTest();
}

TEST(MetricRegistry, FindOrCreateReturnsStableReferences)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    reg.resetForTest();
    obs::Counter &a = reg.counter("test.stable");
    // Force the map to grow; the reference must stay valid.
    for (int i = 0; i < 100; ++i)
        reg.counter(strprintf("test.filler%d", i));
    obs::Counter &b = reg.counter("test.stable");
    EXPECT_EQ(&a, &b);
    reg.resetForTest();
}

TEST(MetricRegistry, MacrosCacheTheirMetric)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    reg.resetForTest();
    for (int i = 0; i < 5; ++i)
        RV_COUNTER_ADD("test.macro_counter", 2);
    RV_GAUGE_SET("test.macro_gauge", 17);
    RV_HISTOGRAM_RECORD("test.macro_histo", 32);
#ifndef RACEVAL_DISABLE_OBS
    EXPECT_EQ(reg.counter("test.macro_counter").value(), 10u);
    EXPECT_EQ(reg.gauge("test.macro_gauge").value(), 17);
    EXPECT_EQ(reg.histogram("test.macro_histo").count(), 1u);
#endif
    reg.resetForTest();
}

TEST(MetricRegistry, SourcesAppearInSnapshotsAndUnregister)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    reg.resetForTest();
    {
        obs::MetricRegistry::SourceHandle handle = reg.addSource(
            "testsrc", [] {
                return std::vector<obs::Sample>{{"alpha", 1.5}};
            });
        obs::MetricRegistry::Snapshot snap = reg.snapshot();
        ASSERT_EQ(snap.sources.size(), 1u);
        EXPECT_EQ(snap.sources[0].first, "testsrc");
        ASSERT_EQ(snap.sources[0].second.size(), 1u);
        EXPECT_EQ(snap.sources[0].second[0].name, "alpha");
        EXPECT_DOUBLE_EQ(snap.sources[0].second[0].value, 1.5);
    }
    // Handle released: the source must be gone.
    EXPECT_TRUE(reg.snapshot().sources.empty());
    reg.resetForTest();
}

TEST(MetricRegistry, JsonIsBalancedAndCarriesMetrics)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::instance();
    reg.resetForTest();
    reg.counter("test.json_counter").add(3);
    reg.gauge("test.json_gauge").set(-4);
    reg.histogram("test.json_histo").record(7);
    std::string json = reg.json();
    EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_gauge\": -4"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_histo\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    reg.resetForTest();
}

// ----------------------------------------------------------------- Spans

TEST(Trace, DisabledSpansDoZeroWork)
{
    ASSERT_FALSE(obs::tracingActive());
    EXPECT_FALSE(obs::tracingEnabled());
    {
        RV_SPAN("test.disabled");
        RV_SPAN("test.disabled_arg", 7);
    }
    EXPECT_EQ(obs::tracingEventCount(), 0u);
}

TEST(Trace, NestedSpansRenderWellFormedChromeTrace)
{
    TraceSession session("test_obs_trace.json");
    {
        RV_SPAN("test.outer", 1);
        {
            RV_SPAN("test.inner", 2);
        }
        RV_SPAN("test.mark", 3);
    }
    std::string json = obs::traceEventsJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"test.mark\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(obs::tracingEventCount(), 3u);
}

TEST(Trace, StopWritesTheFileAndDisablesRecording)
{
    const char *path = "test_obs_stop.json";
    obs::startTracing(path);
    {
        RV_SPAN("test.stopped");
    }
    EXPECT_EQ(obs::stopTracing(), 1u);
    EXPECT_FALSE(obs::tracingActive());
    std::FILE *file = std::fopen(path, "r");
    ASSERT_NE(file, nullptr);
    std::fclose(file);
    std::remove(path);
    // Rings keep the closed session's events; what matters is that no
    // NEW event lands after stop.
    size_t after_stop = obs::tracingEventCount();
    {
        RV_SPAN("test.after_stop");
    }
    EXPECT_EQ(obs::tracingEventCount(), after_stop);
}

TEST(Trace, PauseSuppressesRecording)
{
    TraceSession session("test_obs_pause.json");
    obs::setTracingPaused(true);
    EXPECT_FALSE(obs::tracingEnabled());
    {
        RV_SPAN("test.paused");
    }
    obs::setTracingPaused(false);
    EXPECT_TRUE(obs::tracingEnabled());
    {
        RV_SPAN("test.resumed");
    }
    std::string json = obs::traceEventsJson();
    EXPECT_EQ(json.find("\"test.paused\""), std::string::npos);
    EXPECT_NE(json.find("\"test.resumed\""), std::string::npos);
}

TEST(Trace, RingOverflowDropsOldestAndCounts)
{
    // Capacity only applies to rings created after the call, and this
    // thread's ring already exists -- flood from a fresh thread.
    obs::setTraceRingCapacity(16);
    {
        TraceSession session("test_obs_ring.json");
        size_t before = obs::tracingEventCount();
        std::thread flooder([] {
            for (int i = 0; i < 40; ++i) {
                RV_SPAN("test.flood");
            }
        });
        flooder.join();
        EXPECT_EQ(obs::tracingEventCount() - before, 16u);
        EXPECT_EQ(obs::tracingDropped(), 24u);
    }
    // Restore the default for later rings.
    obs::setTraceRingCapacity(size_t{1} << 15);
}

namespace
{

/** Open a session under RACEVAL_TRACE_RING=@p ring, flood 40 spans
 *  from a fresh thread (a new ring) and report what the rings kept.
 *  @return the warnings logged while opening the session. */
std::vector<std::string>
floodUnderRingEnv(const char *ring, size_t &kept, uint64_t &dropped)
{
    std::vector<std::string> warnings;
    setLogSink([&warnings](LogLevel level, const std::string &msg) {
        if (level == LogLevel::Warn)
            warnings.push_back(msg);
    });
    ::setenv("RACEVAL_TRACE_RING", ring, 1);
    {
        TraceSession session("test_obs_ring_env.json");
        ::unsetenv("RACEVAL_TRACE_RING");
        setLogSink(nullptr);
        size_t before = obs::tracingEventCount();
        std::thread flooder([] {
            for (int i = 0; i < 40; ++i) {
                RV_SPAN("test.flood_env");
            }
        });
        flooder.join();
        kept = obs::tracingEventCount() - before;
        dropped = obs::tracingDropped();
    }
    obs::setTraceRingCapacity(size_t{1} << 15);
    return warnings;
}

} // namespace

TEST(Trace, RingEnvTakesOnlyWholeDecimalsInRange)
{
    size_t kept = 0;
    uint64_t dropped = 0;
    // Trailing junk is not a capacity: the default (far above 40)
    // stays, and the warning names the bad value.
    std::vector<std::string> warnings =
        floodUnderRingEnv("32abc", kept, dropped);
    EXPECT_EQ(kept, 40u);
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("'32abc'"), std::string::npos);

    for (const char *bad : {"abc", "", "15", "1048577", "+32", " 32",
                            "99999999999999999999999"}) {
        warnings = floodUnderRingEnv(bad, kept, dropped);
        EXPECT_EQ(kept, 40u) << "'" << bad << "'";
        EXPECT_EQ(warnings.size(), 1u) << "'" << bad << "'";
    }

    // A well-formed capacity applies: a 32-event ring drops the 8
    // oldest of 40.
    warnings = floodUnderRingEnv("32", kept, dropped);
    EXPECT_TRUE(warnings.empty());
    EXPECT_EQ(kept, 32u);
    EXPECT_EQ(dropped, 8u);
}

// ---------------------------------------------------------- Determinism

namespace
{

/** A deterministic synthetic racing task (no engine, no simulation):
 *  any telemetry influence on the trajectory would flip the result. */
tuner::RaceResult
syntheticRace()
{
    tuner::ParameterSpace space;
    space.addOrdinal("a", {1, 2, 3, 4, 5, 6, 7, 8});
    space.addOrdinal("b", {1, 2, 3, 4});
    tuner::RacerOptions opts;
    opts.maxExperiments = 400;
    opts.seed = 99;
    tuner::IteratedRacer racer(
        space,
        [](const tuner::Configuration &config, size_t instance) {
            double x = static_cast<double>(config[0]) - 3.0;
            double y = static_cast<double>(config[1]) - 1.0;
            return x * x + y * y
                + 0.01 * static_cast<double>(instance);
        },
        /*num_instances=*/4, opts);
    return racer.run();
}

} // namespace

TEST(Trace, RacingIsBitIdenticalWithTracingEnabled)
{
    tuner::RaceResult off = syntheticRace();
    tuner::RaceResult on;
    {
        TraceSession session("test_obs_identity.json");
        on = syntheticRace();
        // The race must actually have recorded spans...
        EXPECT_GT(obs::tracingEventCount(), 0u);
    }
    // ...without perturbing the trajectory one bit.
    EXPECT_EQ(off.best, on.best);
    EXPECT_EQ(off.bestMeanCost, on.bestMeanCost);
    EXPECT_EQ(off.bestCosts, on.bestCosts);
    EXPECT_EQ(off.experimentsUsed, on.experimentsUsed);
    EXPECT_EQ(off.iterations, on.iterations);
}

// --------------------------------------------------------- Metrics file

TEST(Metrics, WriteMetricsJsonHoldsTheRegistry)
{
    const char *path = "test_obs_once.metrics.json";
    obs::MetricRegistry::instance().resetForTest();
    obs::MetricRegistry::instance().gauge("test.once").set(11);
    obs::MetricRegistry::instance().counter("test.once_counter").add(5);
    size_t written = obs::writeMetricsJson(path);
    EXPECT_GT(written, 0u);
    std::FILE *file = std::fopen(path, "r");
    ASSERT_NE(file, nullptr);
    std::string text(written + 1, '\0');
    size_t n = std::fread(text.data(), 1, text.size(), file);
    std::fclose(file);
    text.resize(n);
    std::remove(path);
    EXPECT_EQ(n, written);
    EXPECT_EQ(text.rfind("{\"metrics\": {", 0), 0u) << text;
    EXPECT_EQ(text.back(), '}');
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
    EXPECT_NE(text.find("\"test.once\": 11"), std::string::npos);
    EXPECT_NE(text.find("\"test.once_counter\": 5"), std::string::npos);
    obs::MetricRegistry::instance().resetForTest();
}

// --------------------------------------------------------------- LogSink

TEST(LogSink, CustomSinkReceivesFilteredMessages)
{
    std::vector<std::pair<LogLevel, std::string>> seen;
    setLogSink([&seen](LogLevel level, const std::string &msg) {
        seen.emplace_back(level, msg);
    });
    setLogLevel(LogLevel::Warn);
    logAt(LogLevel::Info, "dropped %d", 1);
    logAt(LogLevel::Warn, "kept %d", 2);
    logAt(LogLevel::Error, "kept %d", 3);
    setLogLevel(LogLevel::Info);
    setLogSink(nullptr);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, LogLevel::Warn);
    EXPECT_EQ(seen[0].second, "kept 2");
    EXPECT_EQ(seen[1].first, LogLevel::Error);
    EXPECT_EQ(seen[1].second, "kept 3");
}

TEST(LogSink, WarnAndInformRouteThroughTheSink)
{
    std::vector<std::string> seen;
    setLogSink([&seen](LogLevel, const std::string &msg) {
        seen.push_back(msg);
    });
    bool was_quiet = quiet();
    setQuiet(false);
    warn("w%d", 1);
    inform("i%d", 2);
    setQuiet(true);
    warn("suppressed");
    inform("suppressed");
    setQuiet(was_quiet);
    setLogSink(nullptr);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "w1");
    EXPECT_EQ(seen[1], "i2");
}

TEST(LogSink, LevelNamesAreStable)
{
    EXPECT_STREQ(logLevelName(LogLevel::Debug), "debug");
    EXPECT_STREQ(logLevelName(LogLevel::Info), "info");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::Error), "error");
}
