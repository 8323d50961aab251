/**
 * @file
 * Background heartbeat reporter over the metrics registry.
 *
 * A long campaign (or, next on the roadmap, the tuning-as-a-service
 * daemon) is opaque while it runs: the stats structs only surface at
 * the end. The heartbeat thread closes that gap by periodically
 * snapshotting the MetricRegistry and
 *
 *   - logging one compact key=value line at Info level (through the
 *     pluggable log sink, so daemon logs stay machine-parseable),
 *     with per-interval rates for counters; and
 *   - rewriting a metrics JSON file (write-then-rename, so readers
 *     never see a torn file) that accompanies the bench drivers'
 *     --json blobs.
 *
 * Lifecycle: startHeartbeat() spawns the thread, stopHeartbeat()
 * takes a final snapshot, writes the file one last time and joins.
 * The reporter only ever *reads* metrics; it can never perturb
 * evaluation determinism.
 */

#ifndef RACEVAL_OBS_HEARTBEAT_HH
#define RACEVAL_OBS_HEARTBEAT_HH

#include <string>
#include <vector>

namespace raceval::obs
{

/** Heartbeat knobs. */
struct HeartbeatOptions
{
    /** Seconds between snapshots (clamped to >= 0.01). */
    double intervalSeconds = 10.0;
    /** Metrics JSON rewritten every tick and at stop ("" = none). */
    std::string metricsJsonPath;
    /** Emit the Info-level stderr line each tick. */
    bool logLine = true;
    /** Only samples/metrics whose name contains one of these
     *  substrings appear in the log line (the JSON always carries
     *  everything). Empty = a built-in shortlist of the high-signal
     *  names: experiments/s, hit rates, packed bytes, queue depth. */
    std::vector<std::string> logKeys;
};

/** Start the background reporter (no-op when already running). */
void startHeartbeat(HeartbeatOptions options);

/** @return true while the reporter thread is alive. */
bool heartbeatRunning();

/** Final snapshot + join; idempotent. */
void stopHeartbeat();

/**
 * Write one registry snapshot as a metrics JSON file immediately
 * (usable without a running heartbeat -- the bench drivers call this
 * once at exit so every --json blob gets a sibling metrics file).
 *
 * @return bytes written (0 on I/O failure, with a warning).
 */
size_t writeMetricsJson(const std::string &path);

} // namespace raceval::obs

#endif // RACEVAL_OBS_HEARTBEAT_HH
