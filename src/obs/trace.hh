/**
 * @file
 * RAII span tracing with per-thread ring buffers, flushed to Chrome
 * trace-event JSON (load the file in chrome://tracing or Perfetto).
 *
 * Design constraints, in order:
 *
 *   - determinism: a span never touches simulation state, RNG streams
 *     or evaluation ordering -- all bit-identity tests hold with
 *     tracing enabled (locked in by tests/test_obs.cc and the
 *     perf_obs_guard ctest entry);
 *   - hot-path cost: with no session active a Span is one relaxed
 *     atomic load; with a session active it is two steady_clock reads
 *     plus one ring-buffer slot write behind an uncontended per-thread
 *     mutex (only the flusher ever contends);
 *   - bounded memory: each thread records into a fixed-size ring;
 *     overflow overwrites the oldest events and is counted, never
 *     reallocates, never blocks.
 *
 * Span naming convention (see docs/architecture.md §10 for the full
 * taxonomy): "<subsystem>.<operation>", lowercase, static string
 * literals only -- the ring stores the pointer, not a copy. Current
 * spans: race.run / race.iteration / race.step, engine.batch /
 * engine.eval, replay.run, bank.record, cache.save / cache.load,
 * campaign.task / campaign.checkpoint.
 *
 * -DRACEVAL_DISABLE_OBS compiles RV_SPAN to nothing.
 */

#ifndef RACEVAL_OBS_TRACE_HH
#define RACEVAL_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace raceval::obs
{

namespace detail
{

extern std::atomic<bool> tracingOn;

/** Nanoseconds since the process trace epoch (monotonic). */
uint64_t traceNowNs() noexcept;

/** Append one completed span to this thread's ring. */
void recordSpan(const char *name, uint64_t start_ns, uint64_t dur_ns,
                uint64_t arg, bool has_arg) noexcept;

} // namespace detail

/** @return true when a session is open and not paused (span fast
 *  path: one relaxed load). */
inline bool
tracingEnabled() noexcept
{
    return detail::tracingOn.load(std::memory_order_relaxed);
}

/** @return true when a session is open (paused or not). */
bool tracingActive() noexcept;

/**
 * Open the process-wide trace session.
 *
 * @param path Chrome trace JSON written by stopTracing().
 * @return false when a session is already open (kept untouched).
 */
bool startTracing(const std::string &path);

/**
 * Pause/resume span recording without closing the session. Used for
 * telemetry-on/off A-B measurement inside one process (the
 * tuning_throughput overhead guard).
 */
void setTracingPaused(bool paused) noexcept;

/**
 * Close the session: collect every thread's ring, write the Chrome
 * trace file, disable span recording. Idempotent.
 *
 * @return events written (0 when no session was open or the file
 *         could not be written -- a trace is diagnostics, losing one
 *         never kills a run).
 */
size_t stopTracing();

/** Render the session's events as Chrome trace JSON without closing
 *  it (tests; also the body of stopTracing()). */
std::string traceEventsJson();

/** @return events currently held in the rings (oldest may already be
 *  overwritten). */
size_t tracingEventCount();

/** @return events overwritten by ring wrap-around this session. */
uint64_t tracingDropped();

/**
 * Set the per-thread ring capacity in events, used as given (default
 * 1<<15 ~= 1.25 MiB/thread; values under 16 are ignored). Takes
 * effect for rings created after the call; call before
 * startTracing(). The RACEVAL_TRACE_RING environment variable
 * overrides it at session start; it must be a whole decimal in
 * 16..2^20, else startTracing() warns with the bad value and keeps
 * the current capacity.
 */
void setTraceRingCapacity(size_t events);

/**
 * RAII scoped span. Construct with a *static* name literal; records
 * itself into the thread's ring at destruction. The enabled check
 * happens at construction: a span alive across a pause/stop still
 * records, which at worst adds an event to a closing session.
 */
class Span
{
  public:
    explicit Span(const char *static_name) noexcept
    {
        if (tracingEnabled()) {
            name = static_name;
            start = detail::traceNowNs();
        }
    }

    /** @param arg one uint64 payload, shown as args.v in the viewer
     *  (instance ids, chunk indices, batch sizes). */
    Span(const char *static_name, uint64_t arg) noexcept
        : Span(static_name)
    {
        this->arg = arg;
        hasArg = true;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (name) {
            detail::recordSpan(name, start,
                               detail::traceNowNs() - start, arg,
                               hasArg);
        }
    }

  private:
    const char *name = nullptr;
    uint64_t start = 0;
    uint64_t arg = 0;
    bool hasArg = false;
};

#define RV_OBS_CONCAT2(a, b) a##b
#define RV_OBS_CONCAT(a, b) RV_OBS_CONCAT2(a, b)

#ifndef RACEVAL_DISABLE_OBS
/** Scoped span covering the rest of the enclosing block. */
#define RV_SPAN(...)                                                    \
    ::raceval::obs::Span RV_OBS_CONCAT(rvObsSpan, __LINE__){__VA_ARGS__}
#else
#define RV_SPAN(...) do { } while (0)
#endif

} // namespace raceval::obs

#endif // RACEVAL_OBS_TRACE_HH
