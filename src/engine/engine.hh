/**
 * @file
 * The batched, cached, trace-replay evaluation engine -- the service
 * every consumer of simulation results goes through.
 *
 * The paper's methodology is bounded by evaluation throughput
 * (10K-100K (configuration, instance) experiments per racing run,
 * paper §III-C). The engine attacks that hot path with the
 * record-once/replay-many discipline:
 *
 *   - a TraceBank functionally executes each benchmark exactly once
 *     and memoizes the dynamic instruction stream, so every candidate
 *     evaluation is a pure trace replay into a timing model;
 *   - a sharded EvalCache keyed by content fingerprints makes repeated
 *     and near-identical evaluations (elite re-races, perturbation
 *     sweeps) free, and can persist across runs;
 *   - a BatchEvaluator executes a whole racing step as one
 *     deduplicated batch over the thread pool;
 *   - EngineStats reports the resulting experiments/s to the drivers.
 */

#ifndef RACEVAL_ENGINE_ENGINE_HH
#define RACEVAL_ENGINE_ENGINE_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "core/params.hh"
#include "obs/metrics.hh"
#include "core/stats.hh"
#include "core/timing_model.hh"
#include "engine/eval_cache.hh"
#include "engine/trace_bank.hh"
#include "tuner/evaluator.hh"

namespace raceval::engine
{

/** Engine construction knobs. */
struct EngineOptions
{
    /** Worker threads for batch evaluation (0 = hardware). */
    unsigned threads = 0;
};

/** Aggregate engine report, surfaced by the drivers. */
struct EngineStats
{
    TraceBankStats bank;
    EvalCacheStats cache;
    uint64_t requests = 0;    //!< evaluation requests served
    uint64_t evaluations = 0; //!< fresh simulations actually run
    uint64_t batches = 0;     //!< collected batches
    uint64_t batchSubmissions = 0; //!< tickets submitted to batches
    uint64_t batchDeduplicated = 0; //!< tickets folded into another
    /** Dynamic instructions stepped by fresh simulations (cache hits
     *  replay nothing and add nothing). */
    uint64_t instsSimulated = 0;
    /** Wall time spent evaluating: each batch wave charges its wall
     *  clock once, however many workers ran it. */
    double evalSeconds = 0.0;

    /** @return fresh simulations per second of evaluation wall time. */
    double
    experimentsPerSecond() const
    {
        return evalSeconds > 0.0
            ? static_cast<double>(evaluations) / evalSeconds : 0.0;
    }

    /** @return evaluation wall nanoseconds per simulated instruction
     *  (the per-instruction cost the hot-path work targets). */
    double
    nsPerInst() const
    {
        return instsSimulated
            ? evalSeconds * 1e9 / static_cast<double>(instsSimulated)
            : 0.0;
    }

    /** @return simulated instructions per microsecond of evaluation
     *  wall time (simulated MIPS, the paper-facing speed number). */
    double
    simulatedMips() const
    {
        return evalSeconds > 0.0
            ? static_cast<double>(instsSimulated) / evalSeconds / 1e6
            : 0.0;
    }

    /** Multi-line human-readable report. */
    std::string summary() const;

    /** JSON object (for the --json bench blobs). */
    std::string json() const;

    /** Flat samples for the metrics registry (the engine registers a
     *  pull source named "engine"; names match the json() keys). */
    std::vector<obs::Sample> samples() const;
};

/**
 * Cost metric over one simulated run.
 *
 * @param stats timing-model output for (model, instance).
 * @param instance the bank instance id that was replayed.
 * @return the objective value; must be deterministic and thread-safe.
 */
using SimCostFn = std::function<double(const core::CoreStats &stats,
                                       size_t instance)>;

/** config -> model materializer (e.g. SniperParamSpace::apply). */
using ModelFn =
    std::function<core::CoreParams(const tuner::Configuration &config)>;

class BatchEvaluator;

/**
 * The evaluation engine.
 *
 * Implements tuner::CostEvaluator, so any tuner::SearchStrategy wired
 * to the engine searches entirely on cached trace replays. Also serves
 * raw
 * model evaluations (evaluateModel) for the validation flow's error
 * reports and the perturbation sweeps.
 *
 * Thread-safety: evaluate()/evaluateModel()/batches may be used from
 * multiple threads; the cost and model functions must be thread-safe.
 */
class EvalEngine : public tuner::CostEvaluator
{
  public:
    /**
     * @param family the default timing-model family replayed into.
     *        Per-call overloads may evaluate any registered family
     *        over the same TraceBank and EvalCache: every cache key is
     *        salted with the family's fingerprint, so results never
     *        alias across families.
     * @param options engine knobs.
     */
    explicit EvalEngine(core::ModelFamily family,
                        EngineOptions options = {});

    /**
     * Register a benchmark instance (deduplicated by content).
     *
     * @return the instance id used in every evaluation call.
     */
    size_t addInstance(const isa::Program &program);

    /** @return registered instance count. */
    size_t numInstances() const { return bank.size(); }

    /**
     * Mark an instance as held out (the paper's hold-out contract:
     * Table II SPEC stand-ins are measured and reported but never
     * tuned against). Any racing experiment -- a Configuration-keyed
     * evaluation, the path every search strategy charges its budget
     * through -- against a held-out instance panics; raw model
     * evaluations (evaluateModel / submitModel) stay allowed, they
     * are reporting. Mark before evaluation starts; marking is not
     * synchronized against concurrent evaluation.
     */
    void markHeldOut(size_t instance);

    /** @return true when the instance was marked held out. */
    bool
    isHeldOut(size_t instance) const
    {
        return instance < heldOutFlags.size() && heldOutFlags[instance];
    }

    /** @return the default model family (construction-time choice). */
    core::ModelFamily modelFamily() const { return fam; }

    /**
     * Set the configuration materializer. Required before any
     * Configuration-keyed evaluation.
     */
    void setModelFn(ModelFn fn) { modelFn = std::move(fn); }

    /**
     * Set the default cost metric (cost domain 0).
     *
     * @param fn the metric; when unset, cost = simulated CPI.
     * @param cost_tag salt folded into every cache key so results from
     *        different metrics never alias (e.g. the CostKind).
     */
    void
    setCostFn(SimCostFn fn, uint64_t cost_tag)
    {
        domains[0].fn = std::move(fn);
        domains[0].tag = cost_tag;
    }

    /**
     * Register an additional cost metric and return its domain id.
     *
     * Cost domains let independent consumers (e.g. the racing tasks of
     * a campaign, each scoring against its own hardware target) share
     * one engine -- and therefore one TraceBank and one EvalCache --
     * without their objective values ever aliasing: the domain tag is
     * salted into every cache key. Domain 0 is the setCostFn default.
     *
     * Register domains before evaluation starts; registration is not
     * synchronized against concurrent evaluation.
     *
     * @param fn the metric (thread-safe, deterministic).
     * @param cost_tag per-domain cache-key salt; give distinct metrics
     *        distinct tags.
     */
    size_t
    addCostDomain(SimCostFn fn, uint64_t cost_tag)
    {
        domains.push_back(CostDomain{std::move(fn), cost_tag});
        return domains.size() - 1;
    }

    /** @return registered cost-domain count (>= 1: the default). */
    size_t numCostDomains() const { return domains.size(); }

    /** @return a domain's cache-key salt (the metric's identity, e.g.
     *  for content fingerprints of work keyed to this domain). */
    uint64_t
    costDomainTag(size_t domain) const
    {
        return domains[domain].tag;
    }

    /// @name Evaluation
    /// @{

    /** Evaluate a raced configuration on an instance: materialized
     *  through the model fn, then cached by model content -- racing,
     *  error reports and perturbation sweeps share entries. */
    double evaluate(const tuner::Configuration &config, size_t instance);

    /** Evaluate a raw model on an instance (cache-aware), replaying
     *  into the default family. */
    EvalValue evaluateModel(const core::CoreParams &model,
                            size_t instance);

    /** Evaluate a raw model on an instance under an explicit timing
     *  family (cache-aware; keys are family-salted, so families share
     *  the cache without aliasing). */
    EvalValue evaluateModel(core::ModelFamily family,
                            const core::CoreParams &model,
                            size_t instance);

    /** Replay an instance into the default family, bypassing the
     *  cache. */
    core::CoreStats replayRun(const core::CoreParams &model,
                              size_t instance);

    /** Replay an instance into an explicit family, bypassing the
     *  cache. */
    core::CoreStats replayRun(core::ModelFamily family,
                              const core::CoreParams &model,
                              size_t instance);

    // tuner::CostEvaluator: the racing hot path.
    std::vector<double>
    evaluateMany(const std::vector<tuner::EvalPair> &pairs) override;

    /// @}

    /// @name Cache persistence
    /// @{
    /**
     * Persist the EvalCache. On disk the instance half of every key
     * is the *program fingerprint* rather than the bank-local id, so
     * files survive instance registration order and count changing
     * between runs.
     *
     * @return entries written (0 on I/O failure -- a warm-start file
     *         is a hint, failure to write one never kills a run).
     */
    size_t saveCache(const std::string &path) const;

    /**
     * Load a previously saved cache. Entries whose program is already
     * registered resolve immediately; the rest stay pending and
     * resolve when addInstance() registers their program. Keys carry
     * their timing-model family salt, so one file may serve engines of
     * every family without aliasing; files from the pre-family format
     * are refused.
     *
     * @return entries accepted (resolved + pending).
     */
    size_t loadCache(const std::string &path);

    /** @return true when loadCache() found a file belonging to an
     *  incompatible (pre-family) cache format -- do not saveCache()
     *  over it. */
    bool warmStartRefused() const { return warmRefused; }
    /// @}

    TraceBank &traceBank() { return bank; }
    const TraceBank &traceBank() const { return bank; }
    ThreadPool &threadPool() { return pool; }

    EngineStats stats() const;

  private:
    friend class BatchEvaluator;

    /** One registered cost metric (see addCostDomain). */
    struct CostDomain
    {
        SimCostFn fn;     //!< nullptr = simulated CPI
        uint64_t tag = 0; //!< cache-key salt
    };

    EvalKey modelKey(core::ModelFamily family,
                     const core::CoreParams &model, size_t instance,
                     size_t domain) const;
    /** Apply the model fn (asserts one is set). */
    core::CoreParams materialize(const tuner::Configuration &config)
        const;
    /** Replay and score one experiment. */
    EvalValue computeFresh(core::ModelFamily family,
                           const core::CoreParams &model,
                           size_t instance, size_t domain);
    /** Add wall time since @p start to the evaluation clock. */
    void chargeWall(std::chrono::steady_clock::time_point start);
    /**
     * Record every registered instance not yet recorded (held-out ones
     * included), in parallel over the pool. A racing step replays one
     * instance, so recording it inside the step would leave all
     * workers but one waiting. Cheap once nothing new is registered.
     */
    void recordAhead();

    core::ModelFamily fam;
    TraceBank bank;
    EvalCache cache;
    ThreadPool pool;
    ModelFn modelFn;
    /** Registered cost metrics; [0] is the setCostFn default. */
    std::vector<CostDomain> domains{1};

    /** Loaded warm-start entries whose instance is not registered
     *  yet: program fingerprint -> [(model key half, value)]. */
    mutable std::mutex pendingMutex;
    std::unordered_map<uint64_t,
                       std::vector<std::pair<uint64_t, EvalValue>>>
        pendingWarmStart;
    bool warmRefused = false;

    /** Instances marked held out (never raced); see markHeldOut(). */
    std::vector<bool> heldOutFlags;

    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> evaluations{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> batchSubmissions{0};
    std::atomic<uint64_t> batchDeduplicated{0};
    std::atomic<uint64_t> instsSimulatedCount{0};
    /** Instances [0, n) are known recorded (see recordAhead). */
    std::atomic<size_t> recordedAhead{0};
    std::atomic<uint64_t> evalNanos{0};

    /** Registry pull source exporting stats() (released before the
     *  members it samples are destroyed -- keep it last). */
    obs::MetricRegistry::SourceHandle obsSource;
};

/**
 * Asynchronous submit/collect over the engine.
 *
 * submit() is cheap and deduplicating: identical keys in one batch
 * share a single slot (and a single simulation). collect() runs every
 * fresh slot as its own work item over the engine's thread pool and
 * fills the cache; afterwards cost()/simCpi() answer by ticket. A
 * racing step submits many candidates against one instance, so one
 * item per evaluation is what spreads the step over every worker.
 */
class BatchEvaluator
{
  public:
    using Ticket = size_t;

    explicit BatchEvaluator(EvalEngine &engine);

    /** Queue a raced configuration; @return the result ticket. */
    Ticket submit(const tuner::Configuration &config, size_t instance);

    /**
     * Queue a raw model (replayed into the engine's default family);
     * @return the result ticket.
     *
     * @param domain cost domain scoring this experiment (0 = the
     *        engine's setCostFn default).
     */
    Ticket submitModel(const core::CoreParams &model, size_t instance,
                       size_t domain = 0);

    /**
     * Queue a raw model under an explicit timing family. One batch may
     * mix families freely -- keys are family-salted, so slots of
     * different families never deduplicate into each other.
     */
    Ticket submitModel(core::ModelFamily family,
                       const core::CoreParams &model, size_t instance,
                       size_t domain = 0);

    /** Evaluate every pending slot; idempotent. */
    void collect();

    /** @return objective for a ticket (collect() must have run). */
    double cost(Ticket ticket) const;

    /** @return simulated CPI for a ticket (collect() must have run). */
    double simCpi(Ticket ticket) const;

    /** @return tickets submitted so far. */
    size_t submitted() const { return tickets.size(); }

    /** @return unique experiments the batch will/did run. */
    size_t uniqueSlots() const { return slots.size(); }

  private:
    struct Slot
    {
        EvalKey key;
        size_t instance;
        size_t domain = 0;
        core::ModelFamily family = core::ModelFamily::InOrder;
        core::CoreParams model; //!< unused once served
        EvalValue value;
        bool served = false; //!< filled from cache at submit time
    };

    /** Evaluate one fresh slot and cache its value. */
    void runSlot(Slot &slot);

    EvalEngine &engine;
    std::vector<size_t> tickets; //!< ticket -> slot index
    std::vector<Slot> slots;
    std::unordered_map<uint64_t, size_t> slotIndex; //!< mixed key -> slot
    bool collected = false;
};

} // namespace raceval::engine

#endif // RACEVAL_ENGINE_ENGINE_HH
