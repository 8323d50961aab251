/**
 * @file
 * The six-step validation flow of Fig. 1:
 *   #1 model from publicly available information,
 *   #2 set cache latency parameters using micro-benchmarks (lmbench),
 *   #3 approximate the remaining unknown parameters,
 *   #4 tune parameters with a registered search strategy (iterated
 *      racing by default; see tuner::SearchStrategyRegistry),
 *   #5 inspect per-component error; optionally rerun with a
 *      component-weighted cost function,
 *   #6 emit the tuned model.
 *
 * Every simulation result the flow consumes -- racing costs, error
 * reports, held-out SPEC evaluations -- is served by the trace-replay
 * evaluation engine (src/engine): each benchmark is functionally
 * executed once, and every candidate evaluation afterwards is a cached
 * trace replay.
 */

#ifndef RACEVAL_VALIDATE_FLOW_HH
#define RACEVAL_VALIDATE_FLOW_HH

#include <memory>
#include <string>
#include <vector>

#include "core/params.hh"
#include "engine/engine.hh"
#include "scenario/scenario.hh"
#include "tuner/strategy.hh"
#include "validate/latency_probe.hh"
#include "validate/oracle.hh"
#include "validate/sniper_space.hh"

namespace raceval::validate
{

/** Which error the racing cost function minimizes. */
enum class CostKind : uint8_t
{
    Cpi,          //!< absolute relative CPI error (paper default)
    CpiPlusBranch //!< CPI error + weighted branch-MPKI error (step #5)
};

/** Per-benchmark error record for reports. */
struct BenchError
{
    std::string name;
    double hwCpi = 0.0;
    double simCpi = 0.0;

    /** @return absolute relative CPI error. */
    double
    error() const
    {
        return hwCpi > 0.0 ? std::abs(simCpi - hwCpi) / hwCpi : 0.0;
    }
};

/** Options of the end-to-end flow. */
struct FlowOptions
{
    uint64_t budget = 3000;   //!< racing experiments (paper: 10K-100K)
    unsigned threads = 0;     //!< parallel evaluations (0 = hardware)
    uint64_t seed = 20190324;
    /** Registered search strategy driving step #4 (see
     *  tuner::SearchStrategyRegistry; "irace" is the paper's). */
    std::string strategy = tuner::defaultSearchStrategy;
    CostKind costKind = CostKind::Cpi;
    bool verbose = false;
    /** When set, the engine's EvalCache is loaded from this path at
     *  start and saved back after run() -- repeated runs start warm. */
    std::string evalCachePath;
};

/** Everything the flow produces. */
struct FlowReport
{
    LatencyEstimates latencies;          //!< step #2 output
    core::CoreParams publicModel;        //!< steps #1-#3 model
    core::CoreParams tunedModel;         //!< step #6 output
    tuner::RaceResult race;              //!< step #4 details
    std::vector<BenchError> untunedUbench;
    std::vector<BenchError> tunedUbench;
    double untunedUbenchAvg = 0.0;
    double tunedUbenchAvg = 0.0;
    engine::EngineStats engineStats;     //!< evaluation-engine report
};

/**
 * Drives the whole methodology against one board.
 *
 * The flow never reads the board's parameters -- it only calls
 * HardwareOracle::measure(), preserving the black-box discipline of
 * real hardware validation.
 */
class ValidationFlow
{
  public:
    /**
     * @param target the registered board to validate against (see
     *        scenario::ScenarioRegistry): ground truth, public-info
     *        baseline, raced-space clamp and cache salt all come from
     *        the entry. Must outlive the flow.
     * @param family the timing-model family to validate; must be on
     *        the target's family whitelist.
     * @param options flow options.
     */
    ValidationFlow(const scenario::TargetBoard &target,
                   core::ModelFamily family, FlowOptions options = {});

    /**
     * Family-only constructor: validates against the family's
     * pre-scenario default board (OoO on cortex-a72, in-order and
     * interval on cortex-a53).
     */
    ValidationFlow(core::ModelFamily family, FlowOptions options = {});

    /** Legacy two-family constructor (OoO vs in-order). */
    ValidationFlow(bool out_of_order, FlowOptions options = {})
        : ValidationFlow(out_of_order ? core::ModelFamily::Ooo
                                      : core::ModelFamily::InOrder,
                         options)
    {
    }

    /** Saves the engine's EvalCache to options.evalCachePath (when
     *  set), so everything evaluated over the flow's lifetime --
     *  including post-run() SPEC sweeps -- warms the next run. */
    ~ValidationFlow();

    /** Execute steps #1 through #6. */
    FlowReport run();

    /** @return the measurement oracle (shared with benches). */
    HardwareOracle &oracle() { return *hwOracle; }

    /** @return the raced parameter space. */
    const SniperParamSpace &paramSpace() const { return sniperSpace; }

    /** @return the evaluation engine serving this flow. */
    engine::EvalEngine &engine() { return *evalEngine; }

    /**
     * Simulate one program on a model and report CPI error.
     *
     * The program is registered with the engine's TraceBank (recorded
     * once, deduplicated by content) and the result is cached, so
     * sweeps over many models per program cost one replay each.
     */
    BenchError evaluateOn(const core::CoreParams &model,
                          const isa::Program &program);

    /**
     * Mean absolute CPI error of a model over the micro-benchmarks,
     * evaluated as one engine batch.
     *
     * @param stride evaluate every stride-th micro-benchmark only;
     *        values > 1 trade fidelity for speed (smoke runs).
     */
    double ubenchError(const core::CoreParams &model,
                       std::vector<BenchError> *detail = nullptr,
                       size_t stride = 1);

    /**
     * Batched flavour: mean ubench CPI error of many models at once
     * (one deduplicated engine batch across models x instances). Used
     * by the perturbation sweeps.
     */
    std::vector<double>
    ubenchErrorBatch(const std::vector<core::CoreParams> &models,
                     size_t stride = 1);

    /** @return the validated timing-model family. */
    core::ModelFamily family() const { return fam; }

    /** @return the target board this flow validates against. */
    const scenario::TargetBoard &target() const { return *targetBoard; }

  private:
    /** Absolute relative CPI error vs the board for an instance. */
    double cpiError(double sim_cpi, size_t instance);

    core::ModelFamily fam;
    FlowOptions opts;
    const scenario::TargetBoard *targetBoard;
    SniperParamSpace sniperSpace;
    std::unique_ptr<HardwareOracle> hwOracle;
    std::unique_ptr<engine::EvalEngine> evalEngine;
    /** Engine instance ids of the micro-benchmarks, in suite order. */
    std::vector<size_t> ubenchInstances;
    /** Base model the raced configurations overlay (set in run()). */
    core::CoreParams raceBase;
};

} // namespace raceval::validate

#endif // RACEVAL_VALIDATE_FLOW_HH
