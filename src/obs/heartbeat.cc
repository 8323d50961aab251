#include "obs/heartbeat.hh"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace raceval::obs
{

namespace
{

/** Default shortlist for the stderr line (substring match). */
const char *const kDefaultLogKeys[] = {
    "experiments_per_s", "hit_rate", "packed_bytes", "queue_depth",
    "fresh_evals", "pending",
};

struct HeartbeatState
{
    std::mutex mutex;
    std::condition_variable wake;
    std::thread thread;
    bool running = false;
    bool stopRequested = false;
    HeartbeatOptions opts;
    uint64_t ticks = 0;
    /** Counter values at the previous tick, for rate computation. */
    std::map<std::string, uint64_t> lastCounters;
    std::chrono::steady_clock::time_point lastTick;
    std::chrono::steady_clock::time_point started;
};

HeartbeatState &
state()
{
    static HeartbeatState s;
    return s;
}

bool
matchesAny(const std::string &name,
           const std::vector<std::string> &keys)
{
    if (keys.empty()) {
        for (const char *key : kDefaultLogKeys) {
            if (name.find(key) != std::string::npos)
                return true;
        }
        return false;
    }
    for (const std::string &key : keys) {
        if (name.find(key) != std::string::npos)
            return true;
    }
    return false;
}

std::string
metricsJson(double uptime_seconds)
{
    JsonWriter w;
    w.beginObject();
    w.field("uptime_seconds", uptime_seconds);
    w.rawField("metrics", MetricRegistry::instance().json());
    w.endObject();
    return w.str();
}

size_t
writeJsonFile(const std::string &path, const std::string &json)
{
    // Write-then-rename: a concurrent reader (CI collecting the
    // artifact mid-run) sees either the previous snapshot or this
    // one, never a torn file.
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

/** One tick: log line + metrics file. Called with the state mutex
 *  NOT held (snapshotting pulls sources that take their own locks). */
void
tick(HeartbeatState &s)
{
    RV_INSTANT("heartbeat.tick");
    auto now = std::chrono::steady_clock::now();
    double interval = std::chrono::duration<double>(
        now - s.lastTick).count();
    double uptime = std::chrono::duration<double>(
        now - s.started).count();
    s.lastTick = now;
    ++s.ticks;

    MetricRegistry::Snapshot snap =
        MetricRegistry::instance().snapshot();

    if (s.opts.logLine) {
        std::string line = strprintf("hb[%llu] up %.1fs",
            static_cast<unsigned long long>(s.ticks), uptime);
        for (const auto &[name, value] : snap.counters) {
            uint64_t last = s.lastCounters.count(name)
                ? s.lastCounters[name] : 0;
            double rate = interval > 0.0
                ? static_cast<double>(value - last) / interval : 0.0;
            s.lastCounters[name] = value;
            if (!matchesAny(name, s.opts.logKeys))
                continue;
            line += strprintf(" %s=%llu(+%.0f/s)", name.c_str(),
                              static_cast<unsigned long long>(value),
                              rate);
        }
        for (const auto &[name, value] : snap.gauges) {
            if (matchesAny(name, s.opts.logKeys)) {
                line += strprintf(" %s=%lld", name.c_str(),
                                  static_cast<long long>(value));
            }
        }
        for (const auto &[prefix, samples] : snap.sources) {
            for (const Sample &sample : samples) {
                std::string name = prefix + "." + sample.name;
                if (matchesAny(name, s.opts.logKeys)) {
                    line += strprintf(" %s=%.6g", name.c_str(),
                                      sample.value);
                }
            }
        }
        logAt(LogLevel::Info, "%s", line.c_str());
    }

    if (!s.opts.metricsJsonPath.empty())
        writeJsonFile(s.opts.metricsJsonPath, metricsJson(uptime));
}

void
reporterLoop()
{
    HeartbeatState &s = state();
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(s.mutex);
            double seconds = s.opts.intervalSeconds;
            s.wake.wait_for(
                lock,
                std::chrono::duration<double>(seconds),
                [&] { return s.stopRequested; });
            if (s.stopRequested)
                return; // stopHeartbeat() takes the final snapshot
        }
        tick(s);
    }
}

} // namespace

void
startHeartbeat(HeartbeatOptions options)
{
    HeartbeatState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.running)
        return;
    if (options.intervalSeconds < 0.01)
        options.intervalSeconds = 0.01;
    s.opts = std::move(options);
    s.stopRequested = false;
    s.ticks = 0;
    s.lastCounters.clear();
    s.started = s.lastTick = std::chrono::steady_clock::now();
    s.running = true;
    s.thread = std::thread(reporterLoop);
}

bool
heartbeatRunning()
{
    HeartbeatState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.running;
}

void
stopHeartbeat()
{
    HeartbeatState &s = state();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.running)
            return;
        s.stopRequested = true;
    }
    s.wake.notify_all();
    s.thread.join();
    tick(s); // final snapshot: log line + metrics file
    std::lock_guard<std::mutex> lock(s.mutex);
    s.running = false;
}

size_t
writeMetricsJson(const std::string &path)
{
    return writeJsonFile(path, metricsJson(0.0));
}

} // namespace raceval::obs
