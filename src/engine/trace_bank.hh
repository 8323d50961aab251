/**
 * @file
 * Record-once / replay-many trace storage for the evaluation engine.
 *
 * Every benchmark instance registered with the bank is functionally
 * executed exactly once, packed on the fly into its structure-of-arrays
 * form (vm::PackedTrace), and every subsequent evaluation is a pure
 * replay of that pack through the zero-virtual-call PackedStream. The
 * pack is the only in-memory trace form, whatever the trace's length.
 */

#ifndef RACEVAL_ENGINE_TRACE_BANK_HH
#define RACEVAL_ENGINE_TRACE_BANK_HH

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "vm/packed_trace.hh"

namespace raceval::engine
{

/** Aggregate TraceBank counters (all monotonically increasing). */
struct TraceBankStats
{
    uint64_t instances = 0;     //!< registered programs
    uint64_t recordings = 0;    //!< functional executions performed
    uint64_t replays = 0;       //!< packed traces handed out
    uint64_t recordedInsts = 0; //!< dynamic instructions recorded
    uint64_t packedBytes = 0;   //!< memory held by packed replay arrays
};

/**
 * The record-once trace store.
 *
 * Thread-safe: instances may be added and replayed concurrently; the
 * first packed() of an instance records it (guarded per instance),
 * every other caller waits for the recording and then shares it.
 */
class TraceBank
{
  public:
    /**
     * Register a program as a benchmark instance.
     *
     * Deduplicates by content fingerprint: registering an identical
     * program again returns the existing instance id (and its
     * already-recorded trace).
     *
     * @return the instance id.
     */
    size_t add(const isa::Program &program);

    /** @return number of registered instances. */
    size_t size() const;

    /** @return the program behind an instance. */
    const isa::Program &program(size_t id) const;

    /**
     * The packed recording of an instance -- the replay hot path.
     * Records on first use (functional execution packed directly);
     * the stream it replays is identical to live execution.
     */
    std::shared_ptr<const vm::PackedTrace> packed(size_t id);

    /** @return dynamic instruction count of an instance (records it). */
    uint64_t instCount(size_t id);

    TraceBankStats stats() const;

  private:
    struct Entry
    {
        isa::Program program;
        std::once_flag recordOnce;
        std::shared_ptr<const vm::PackedTrace> trace;
    };

    Entry &entryFor(size_t id);
    void record(Entry &entry);

    mutable std::mutex mutex;
    std::vector<std::unique_ptr<Entry>> entries;
    std::unordered_map<uint64_t, size_t> byFingerprint;
    TraceBankStats counters;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_TRACE_BANK_HH
