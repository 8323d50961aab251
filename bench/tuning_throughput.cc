/**
 * @file
 * Tuning turnaround (paper §III-C): the paper reports ~7h for a 10K
 * budget and ~2d for 100K on a 24-context host; evaluation throughput
 * bounds the whole methodology. This binary races the same A53 tuning
 * task (fixed budget, fixed seed) down three paths and reports
 * experiments/second of each:
 *
 *   pre-engine   every evaluation functionally re-executes the
 *                benchmark and packs a throwaway trace of it (the
 *                seed repo's hot path, through the live
 *                run(FunctionalCore&) convenience),
 *   engine/cold  the evaluation engine with empty caches: each
 *                benchmark is recorded once, every evaluation is a
 *                trace replay on its own pool item, batches are
 *                deduplicated,
 *   engine/warm  the same engine again: the EvalCache serves the
 *                whole race.
 *
 * The three paths produce bit-identical RaceResults (checked); the
 * speedup is pure evaluation-engine machinery. The --json blob carries
 * a host stamp (cores, CPU, build, compiler, git sha).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "core/inorder.hh"
#include "engine/engine.hh"
#include "obs/trace.hh"
#include "tuner/strategy.hh"
#include "ubench/ubench.hh"
#include "validate/oracle.hh"
#include "validate/sniper_space.hh"
#include "vm/functional.hh"

using namespace raceval;

namespace
{

/** The shared racing task: built once, raced by every path. */
struct Task
{
    validate::SniperParamSpace sspace{false};
    std::vector<isa::Program> programs;
    std::unique_ptr<validate::HardwareOracle> oracle;
    core::CoreParams base = core::publicInfoA53();
    tuner::RacerOptions ropts;

    Task()
    {
        oracle = std::make_unique<validate::HardwareOracle>(
            hw::makeMachine(hw::secretA53(), false));
        for (const auto &info : ubench::all())
            programs.push_back(ubench::build(info));
        // Pre-measure the board outside the timed region, exactly like
        // the validation flow does before racing.
        for (const isa::Program &prog : programs)
            oracle->measure(prog);
        ropts.maxExperiments = bench::budgetFromEnv(1200);
        ropts.seed = 20190324;
    }

    double
    cpiError(const core::CoreStats &sim, const isa::Program &prog)
    {
        double hw_cpi = oracle->measure(prog).cpi();
        return hw_cpi > 0.0 ? std::abs(sim.cpi() - hw_cpi) / hw_cpi
                            : 0.0;
    }
};

Task &
task()
{
    static Task instance;
    return instance;
}

struct PathResult
{
    double seconds = 0.0;
    uint64_t experiments = 0; //!< budget-consuming evaluations
    std::optional<tuner::RaceResult> race;
};

PathResult preEngine, engineCold, engineWarm;
/** Evaluation requests the race trajectory issues (same all paths). */
uint64_t requestsPerRace = 0;
std::unique_ptr<engine::EvalEngine> sharedEngine;
engine::EngineStats finalEngineStats;

std::unique_ptr<engine::EvalEngine>
makeEngine()
{
    Task &t = task();
    auto eng = std::make_unique<engine::EvalEngine>(core::ModelFamily::InOrder);
    for (const isa::Program &prog : t.programs)
        eng->addInstance(prog);
    eng->setModelFn([&t](const tuner::Configuration &config) {
        return t.sspace.apply(config, t.base);
    });
    eng->setCostFn(
        [&t](const core::CoreStats &sim, size_t instance) {
            return t.cpiError(sim, t.programs[instance]);
        },
        /*cost_tag=*/1);
    return eng;
}

template <typename Fn>
PathResult
timedRace(Fn &&make_racer)
{
    PathResult out;
    auto start = std::chrono::steady_clock::now();
    tuner::RaceResult result = make_racer();
    out.seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    out.experiments = result.experimentsUsed;
    out.race = std::move(result);
    return out;
}

void
BM_PreEngineRacing(benchmark::State &state)
{
    Task &t = task();
    tuner::CostFn live = [&t](const tuner::Configuration &config,
                              size_t instance) {
        core::CoreParams model = t.sspace.apply(config, t.base);
        vm::FunctionalCore source(t.programs[instance]);
        core::InOrderCore sim(model);
        return t.cpiError(sim.run(source), t.programs[instance]);
    };
    // The pre-engine evaluation path: live functional execution per
    // fresh pair, memoized and parallelized by a SimpleCostEvaluator
    // (exactly what the racer's CostFn convenience path wraps).
    tuner::SimpleCostEvaluator live_eval(live, t.ropts.threads);
    for (auto _ : state) {
        preEngine = timedRace([&] {
            auto strategy = tuner::makeSearchStrategy(
                bench::strategyName(), t.sspace.space(), live_eval,
                t.programs.size(), t.ropts);
            strategy->addInitialCandidate(t.sspace.encode(t.base));
            return strategy->run();
        });
    }
    state.counters["experiments"] =
        static_cast<double>(preEngine.experiments);
    state.counters["s"] = preEngine.seconds;
}

void
BM_EngineRacingCold(benchmark::State &state)
{
    Task &t = task();
    for (auto _ : state) {
        sharedEngine = makeEngine();
        engineCold = timedRace([&] {
            auto strategy = tuner::makeSearchStrategy(
                bench::strategyName(), t.sspace.space(), *sharedEngine,
                t.programs.size(), t.ropts);
            strategy->addInitialCandidate(t.sspace.encode(t.base));
            return strategy->run();
        });
        requestsPerRace = sharedEngine->stats().requests;
    }
    state.counters["experiments"] =
        static_cast<double>(engineCold.experiments);
    state.counters["s"] = engineCold.seconds;
}

void
BM_EngineRacingWarm(benchmark::State &state)
{
    Task &t = task();
    if (!sharedEngine)
        sharedEngine = makeEngine(); // filtered run: warm == cold
    for (auto _ : state) {
        engineWarm = timedRace([&] {
            auto strategy = tuner::makeSearchStrategy(
                bench::strategyName(), t.sspace.space(), *sharedEngine,
                t.programs.size(), t.ropts);
            strategy->addInitialCandidate(t.sspace.encode(t.base));
            return strategy->run();
        });
    }
    finalEngineStats = sharedEngine->stats();
    state.counters["s"] = engineWarm.seconds;
}

BENCHMARK(BM_PreEngineRacing)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(BM_EngineRacingCold)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(BM_EngineRacingWarm)->Unit(benchmark::kSecond)->Iterations(1);

double
rate(const PathResult &path)
{
    return path.seconds > 0.0
        ? static_cast<double>(requestsPerRace) / path.seconds : 0.0;
}

bool
sameRace(const tuner::RaceResult &a, const tuner::RaceResult &b)
{
    return a.best == b.best && a.bestMeanCost == b.bestMeanCost
        && a.bestCosts == b.bestCosts
        && a.experimentsUsed == b.experimentsUsed
        && a.iterations == b.iterations;
}

/** Telemetry A-B: the same cold race with span recording paused vs
 *  live, interleaved min-of-N. Feeds the perf_obs_guard ctest entry:
 *  enabled-mode overhead must stay in the low single digits and the
 *  RaceResult must stay bit-identical with tracing on. */
void
measureTelemetryOverhead()
{
    if (!engineCold.race)
        return; // filtered run

    Task &t = task();
    // The A-B needs a live trace session so the "on" side actually
    // records spans; open a throwaway one when --trace was not given.
    const char *temp_trace = "tuning_throughput.tmp-trace.json";
    bool own_session = !obs::tracingActive();
    if (own_session)
        obs::startTracing(temp_trace);

    auto race_once = [&] {
        auto eng = makeEngine();
        return timedRace([&] {
            auto strategy = tuner::makeSearchStrategy(
                bench::strategyName(), t.sspace.space(), *eng,
                t.programs.size(), t.ropts);
            strategy->addInitialCandidate(t.sspace.encode(t.base));
            return strategy->run();
        });
    };

    // Interleave the sides so drift (frequency scaling, competing
    // ctest jobs) hits both equally; min-of-rounds rejects the noise.
    PathResult off, on;
    bool identical = true;
    for (int round = 0; round < 3; ++round) {
        obs::setTracingPaused(true);
        PathResult r = race_once();
        if (round == 0 || r.seconds < off.seconds)
            off = std::move(r);
        obs::setTracingPaused(false);
        r = race_once();
        if (round == 0 || r.seconds < on.seconds)
            on = std::move(r);
        identical = identical && sameRace(*off.race, *on.race)
            && sameRace(*on.race, *engineCold.race);
    }
    obs::setTracingPaused(false);
    if (own_session) {
        obs::stopTracing();
        std::remove(temp_trace);
    }

    double overhead_pct = off.seconds > 0.0
        ? 100.0 * (on.seconds - off.seconds) / off.seconds : 0.0;
    std::printf("\ntelemetry overhead (cold race, min of 3): "
                "off %.3f s, on %.3f s, %+.2f%%; bit-identical: %s\n",
                off.seconds, on.seconds, overhead_pct,
                identical ? "yes" : "NO (BUG)");
    bench::jsonMetric("telemetry_off_seconds", off.seconds);
    bench::jsonMetric("telemetry_on_seconds", on.seconds);
    bench::jsonMetric("telemetry_overhead_pct", overhead_pct);
    bench::jsonMetric("telemetry_bit_identical", identical ? 1.0 : 0.0);
}

void
report()
{
    if (!preEngine.race || !engineCold.race || !engineWarm.race)
        return; // filtered run; gbench output already printed

    bool identical = sameRace(*preEngine.race, *engineCold.race)
        && sameRace(*engineCold.race, *engineWarm.race);

    std::printf("\n=== racing throughput: %llu-experiment A53 task, "
                "%llu evaluation requests per race ===\n",
                static_cast<unsigned long long>(preEngine.experiments),
                static_cast<unsigned long long>(requestsPerRace));
    std::printf("%-14s %10s %16s %10s\n", "path", "seconds",
                "experiments/s", "speedup");
    std::printf("%-14s %10.2f %16.0f %9.2fx\n", "pre-engine",
                preEngine.seconds, rate(preEngine), 1.0);
    std::printf("%-14s %10.2f %16.0f %9.2fx\n", "engine/cold",
                engineCold.seconds, rate(engineCold),
                preEngine.seconds / engineCold.seconds);
    std::printf("%-14s %10.2f %16.0f %9.2fx\n", "engine/warm",
                engineWarm.seconds, rate(engineWarm),
                preEngine.seconds / engineWarm.seconds);
    std::printf("RaceResults bit-identical across paths: %s\n",
                identical ? "yes" : "NO (BUG)");
    bench::printEngineStats(finalEngineStats);
    std::printf("\npaper scale: 10K trials ~= 7 hours, 100K ~= 2 days "
                "on 24 threads; scale the experiments/s column to "
                "project this host.\n");

    bench::jsonMetric("experiments", double(preEngine.experiments));
    bench::jsonMetric("requests_per_race", double(requestsPerRace));
    bench::jsonMetric("pre_engine_seconds", preEngine.seconds);
    bench::jsonMetric("engine_cold_seconds", engineCold.seconds);
    bench::jsonMetric("engine_warm_seconds", engineWarm.seconds);
    bench::jsonMetric("pre_engine_exp_per_s", rate(preEngine));
    bench::jsonMetric("engine_cold_exp_per_s", rate(engineCold));
    bench::jsonMetric("engine_warm_exp_per_s", rate(engineWarm));
    bench::jsonMetric("cold_speedup",
                      preEngine.seconds / engineCold.seconds);
    bench::jsonMetric("warm_speedup",
                      preEngine.seconds / engineWarm.seconds);
    bench::jsonMetric("bit_identical", identical ? 1.0 : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::parseGbenchArgs(argc, argv,
                           "Racing throughput: pre-engine live "
                           "execution vs the trace-replay evaluation "
                           "engine (cold and warm cache).");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    report();
    measureTelemetryOverhead();
    bench::writeJson(&finalEngineStats);
    return 0;
}
