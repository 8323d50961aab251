/**
 * @file
 * Multi-race campaign orchestration over one shared evaluation engine.
 *
 * The paper's methodology is a *campaign*: many (target, workload
 * suite, seed, search strategy) tuning runs, each an independent
 * search (iterated racing by default; any registered SearchStrategy
 * per task), whose aggregate throughput bounds how much validation is
 * affordable (§IV, 10K-100K experiments per run). PR 2 made one race
 * fast; this layer
 * runs a fleet of them concurrently over a single engine::EvalEngine,
 * so every task shares the same trace recordings and evaluation cache
 * while keeping its race-local budget and bit-identical trajectory:
 *
 *   - each CampaignTask races its own parameter space / model
 *     materializer / workload subset / seed, scored through one of the
 *     engine's cost domains;
 *   - the scheduler runs tasks on a small pool of racer threads, so
 *     whole racing-step batches from different tasks interleave at the
 *     engine and keep its ThreadPool saturated;
 *   - per-task and aggregate CampaignStats report experiments/s and
 *     the shared-cache hit rate;
 *   - an optional JSON checkpoint makes campaigns restartable:
 *     completed tasks are skipped on resume and their recorded
 *     RaceResults are bit-identical to the uninterrupted run.
 *
 * Determinism: a task's trajectory depends only on its own options and
 * the evaluator's (deterministic) values, never on scheduling -- so
 * serial vs concurrent execution, cold vs warm caches, and alone vs
 * in-campaign all produce bit-identical per-task results.
 */

#ifndef RACEVAL_CAMPAIGN_CAMPAIGN_HH
#define RACEVAL_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "core/timing_model.hh"
#include "engine/engine.hh"
#include "tuner/strategy.hh"

namespace raceval::campaign
{

/** One racing task of a campaign. */
struct CampaignTask
{
    /** Unique task id, also the checkpoint key (e.g.
     *  "a53/control/seed1"). */
    std::string name;
    /** Raced parameter declarations (borrowed; must outlive run()). */
    const tuner::ParameterSpace *space = nullptr;
    /** Configuration -> model materializer for this task's hardware
     *  target preset (cache entries are shared between tasks whenever
     *  the materialized models coincide). */
    engine::ModelFn modelFn;
    /** Engine instance ids of this task's workload subset; racer
     *  instance t is engine instance instances[t]. */
    std::vector<size_t> instances;
    /** Engine cost domain scoring this task (0 = engine default). */
    size_t costDomain = 0;
    /** Timing-model family this task races (empty = the engine's
     *  default family). Tasks of different families share the engine's
     *  TraceBank and EvalCache; keys are family-salted, so their
     *  results never alias. */
    std::optional<core::ModelFamily> family;
    /** Registered search strategy driving this task ("" = the default,
     *  irace). Covered by the checkpoint task fingerprint via the
     *  strategy's salt, so changing a task's strategy invalidates its
     *  checkpointed result -- with the one documented exception that
     *  irace (explicit or defaulted) contributes nothing, keeping
     *  pre-strategy checkpoints valid. */
    std::string strategy;
    /** Registered target board this task validates against ("" = not
     *  target-scoped). Covered by the checkpoint task fingerprint via
     *  the board's fingerprint salt, with the same asymmetry as the
     *  strategy: the zero-salt pre-scenario boards (cortex-a53 /
     *  cortex-a72, explicit or via "") mix nothing, so pre-scenario
     *  checkpoints stay valid for exactly those tasks. */
    std::string target;
    /** Racing knobs: budget, seed replicate, elimination params. */
    tuner::RacerOptions racer;
    /** Seed configurations (e.g. the target's public-info model). */
    std::vector<tuner::Configuration> initialCandidates;
};

/** Campaign scheduling knobs. */
struct CampaignOptions
{
    /** Concurrent racer threads (0 = one per task). Results are
     *  bit-identical at any concurrency; this only trades memory and
     *  scheduling overhead against engine saturation. */
    unsigned concurrency = 4;
    /** Checkpoint file ("" = no checkpointing). Existing entries
     *  whose task fingerprint still matches are restored instead of
     *  re-raced; the file is rewritten after every task completion. */
    std::string checkpointPath;
    /** Warm-start cache file ("" = none): a v3 EvalCache file (see
     *  EvalEngine::saveCache) loaded into the shared engine with
     *  EvalEngine::loadCache at run() start, so every task serves
     *  repeat experiments from the cache. The campaign never writes
     *  this file; produce it with saveCache() from a previous run.
     *  Missing files race cold; incompatible ones warn and race
     *  cold. */
    std::string warmStartPath;
    /** Narrate task completions via inform(). */
    bool verbose = false;
};

/** Outcome of one task. */
struct TaskOutcome
{
    std::string name;
    tuner::RaceResult result;
    /** Wall time of this task's race (0 when restored). */
    double wallSeconds = 0.0;
    /** True when restored from the checkpoint, not re-raced. */
    bool fromCheckpoint = false;

    /** @return budget-charged experiments per second of task wall
     *  time (0 when restored). */
    double
    experimentsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(result.experimentsUsed) / wallSeconds
            : 0.0;
    }
};

/** Aggregate campaign report. */
struct CampaignStats
{
    unsigned tasksTotal = 0;
    unsigned tasksRaced = 0;          //!< raced during this run()
    unsigned tasksFromCheckpoint = 0; //!< restored, not re-raced
    /** Budget charged by the tasks raced this run. */
    uint64_t experiments = 0;
    /** Whole-campaign wall time (all tasks, all threads). */
    double wallSeconds = 0.0;
    /** Shared-engine snapshot at campaign end. */
    engine::EngineStats engine;

    /** @return aggregate campaign throughput: budget-charged
     *  experiments per second of campaign wall time. */
    double
    experimentsPerSecond() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(experiments) / wallSeconds : 0.0;
    }

    /** Multi-line human-readable report. */
    std::string summary() const;

    /** JSON object (for the --json bench blobs). */
    std::string json() const;
};

/** What run() returns: outcomes in addTask order + aggregate stats. */
struct CampaignResult
{
    std::vector<TaskOutcome> tasks;
    CampaignStats stats;
};

/**
 * Content fingerprint of a task definition (racer options, workload
 * subset by program content, space shape, materializer probes, initial
 * candidates). Stamped into checkpoint entries so a resumed campaign
 * only reuses results whose task definition is unchanged.
 */
uint64_t taskFingerprint(const engine::EvalEngine &engine,
                         const CampaignTask &task);

/** The multi-race orchestrator. */
class CampaignRunner
{
  public:
    /**
     * @param engine the shared evaluation engine; every task's
     *        instances and cost domain must already be registered.
     * @param options scheduling knobs.
     */
    explicit CampaignRunner(engine::EvalEngine &engine,
                            CampaignOptions options = {});

    /** Add a task (validated: unique name, non-empty workload subset,
     *  registered instances/domain, a space and a model fn). */
    void addTask(CampaignTask task);

    /** @return tasks added so far. */
    size_t numTasks() const { return tasks.size(); }

    /**
     * Run every task (restoring checkpointed ones) and return the
     * outcomes in addTask order. May be called once per runner.
     */
    CampaignResult run();

  private:
    void runTask(size_t index, uint64_t fingerprint,
                 std::vector<TaskOutcome> &outcomes,
                 std::vector<CheckpointEntry> &completed);

    engine::EvalEngine &engine;
    CampaignOptions opts;
    std::vector<CampaignTask> tasks;
    /** Serializes outcome recording and checkpoint rewriting. */
    std::mutex mutex;
    bool ran = false;
};

} // namespace raceval::campaign

#endif // RACEVAL_CAMPAIGN_CAMPAIGN_HH
