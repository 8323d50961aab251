/**
 * @file
 * The paper's premise, made measurable (Fig. 2 step 4): iterated
 * racing must beat unguided search at fitting simulator parameters to
 * hardware. This driver races the SAME tuning task (same board, same
 * raced space, same public-information seed, same instance suite, same
 * experiment budget) under every registered search strategy and
 * reports tuned error + experiments/s per strategy.
 *
 * The task defaults to the paper's: the A53-class board over the
 * Table I micro-benchmark suite. --target <board> retargets it (e.g.
 * cortex-m-class, racing that board's clamped space with its default
 * family), and --suite <name> swaps the workload family (e.g. the
 * firmware suite's long interrupt-dispatch / timer-wheel / list-walk
 * traces). Held-out suites are refused: by the paper's contract those
 * programs are measured and reported, never tuned against -- the
 * engine would panic a few frames later anyway.
 *
 * All strategies evaluate through one shared evaluation engine:
 * earlier strategies warm the cache for later ones, which makes them
 * faster but -- by the strategy-local budget invariant -- never
 * changes their trajectory. The invariant checked at the end: irace's
 * tuned error is <= both baselines' (random search and successive
 * halving). --strategy <name> narrows the sweep to one strategy
 * (skipping the cross-strategy check).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "engine/engine.hh"
#include "scenario/scenario.hh"
#include "stats/descriptive.hh"
#include "tuner/strategy.hh"
#include "ubench/ubench.hh"
#include "validate/oracle.hh"
#include "validate/sniper_space.hh"
#include "workload/firmware.hh"

using namespace raceval;

int
main(int argc, char **argv)
{
    bench::parseDriverArgs(argc, argv,
                           "Strategy comparison: the same tuning task "
                           "(one board, one workload suite) under "
                           "every registered search strategy at equal "
                           "budget.");
    setQuiet(true);

    const scenario::TargetBoard &board = bench::benchTarget("cortex-a53");
    const scenario::WorkloadSuite &suite = bench::benchSuite("ubench");
    if (suite.role == scenario::WorkloadRole::HeldOut) {
        std::fprintf(stderr, "%s: suite '%s' is held out -- measured "
                     "and reported, never tuned against (--suite "
                     "ubench or firmware)\n", argv[0], suite.name);
        return 2;
    }
    bench::header(strprintf("Search-strategy comparison: one %s/%s "
                            "task, equal budget per strategy",
                            board.name, suite.name));

    // The shared task: tune the board's public-info model against its
    // hidden ground truth over the selected suite, racing the board's
    // clamped space with its default family. Under --smoke a strided
    // subset (ubench) and shrunken instruction counts keep the tiny
    // smoke budget meaningful.
    core::ModelFamily family = board.defaultFamily;
    validate::SniperParamSpace sspace(family, board.clamp);
    core::CoreParams base = board.publicInfo();
    auto oracle = std::make_unique<validate::HardwareOracle>(
        hw::makeMachine(board.secret(), board.outOfOrderHw));

    engine::EvalEngine eng(family);
    std::vector<isa::Program> programs;
    if (suite.role == scenario::WorkloadRole::Firmware) {
        for (const auto &info : workload::firmware::all()) {
            uint64_t insts = ubench::scaledCount(
                info.dynInsts, workload::firmware::traceCap);
            if (bench::smokeMode())
                insts /= 16;
            programs.push_back(info.builder(insts));
            eng.addInstance(programs.back());
        }
    } else {
        size_t stride = bench::smokeScaled<size_t>(1, 4);
        const auto &all_ubench = ubench::all();
        for (size_t i = 0; i < all_ubench.size(); i += stride) {
            uint64_t insts =
                ubench::scaledCount(all_ubench[i].paperDynInsts);
            if (bench::smokeMode())
                insts /= 16;
            programs.push_back(all_ubench[i].builder(insts, true));
            eng.addInstance(programs.back());
        }
    }
    // Pre-measure the board outside the timed region, exactly like
    // the validation flow does before racing.
    for (const isa::Program &prog : programs)
        oracle->measure(prog);
    eng.setModelFn([&](const tuner::Configuration &config) {
        return sspace.apply(config, base);
    });
    // Same tag rule as the flow: the board's salt keeps boards apart
    // in any shared cache, and the zero-salt A53 default reproduces
    // the pre-scenario tag exactly.
    eng.setCostFn(
        [&](const core::CoreStats &sim, size_t instance) {
            double hw_cpi = oracle->measure(programs[instance]).cpi();
            return hw_cpi > 0.0
                ? std::abs(sim.cpi() - hw_cpi) / hw_cpi : 0.0;
        },
        /*cost_tag=*/1 ^ board.fingerprintSalt);

    tuner::RacerOptions opts;
    // The generic 150-experiment smoke budget is too small for the
    // racing-beats-sampling shape to emerge (irace spends its first
    // ~300 experiments learning the elite distribution); 600 on the
    // strided ubench suite keeps the smoke run under a second AND
    // lands on the paper's side of the comparison. The firmware suite
    // has only 3 instances, so each racing iteration charges far
    // fewer experiments and irace needs ~1200 to converge past the
    // unguided baselines.
    uint64_t smoke_budget =
        suite.role == scenario::WorkloadRole::Firmware ? 1200 : 600;
    opts.maxExperiments = bench::budgetFromEnv(2400, smoke_budget);
    opts.seed = 20190324;

    // The seed model's own mean CPI error, for reference (reporting,
    // not search -- one engine batch, shared by every strategy).
    tuner::Configuration seed_config = sspace.encode(base);
    std::vector<tuner::EvalPair> seed_pairs;
    for (size_t i = 0; i < programs.size(); ++i)
        seed_pairs.emplace_back(seed_config, i);
    double seed_error = stats::mean(eng.evaluateMany(seed_pairs));

    std::printf("task: %zu instances, budget %llu experiments, seed "
                "model error %.1f%%\n\n", programs.size(),
                static_cast<unsigned long long>(opts.maxExperiments),
                100.0 * seed_error);
    std::printf("%-9s %12s %6s %9s %8s %11s\n", "strategy",
                "experiments", "iters", "seconds", "exp/s",
                "tuned error");

    struct Row
    {
        const char *name;
        tuner::RaceResult result;
        double seconds = 0.0;
    };
    std::vector<Row> rows;
    for (const tuner::SearchStrategyInfo &info :
         tuner::SearchStrategyRegistry::instance().all()) {
        if (bench::strategyExplicit()
            && bench::strategyName() != info.name)
            continue;
        auto strategy = info.make(sspace.space(), eng, programs.size(),
                                  opts);
        strategy->addInitialCandidate(seed_config);
        auto start = std::chrono::steady_clock::now();
        tuner::RaceResult result = strategy->run();
        double seconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();

        std::printf("%-9s %12llu %6u %9.2f %8.0f %10.1f%%\n", info.name,
                    static_cast<unsigned long long>(
                        result.experimentsUsed),
                    result.iterations, seconds,
                    seconds > 0.0
                        ? static_cast<double>(result.experimentsUsed)
                            / seconds : 0.0,
                    100.0 * result.bestMeanCost);
        bench::jsonMetric(std::string(info.name) + "_tuned_error",
                          100.0 * result.bestMeanCost);
        bench::jsonMetric(std::string(info.name) + "_experiments",
                          static_cast<double>(result.experimentsUsed));
        bench::jsonMetric(std::string(info.name) + "_seconds", seconds);
        bench::jsonMetric(std::string(info.name) + "_exp_per_s",
                          seconds > 0.0
                              ? static_cast<double>(
                                    result.experimentsUsed) / seconds
                              : 0.0);
        rows.push_back(Row{info.name, std::move(result), seconds});
    }

    bench::jsonMetric("instances", static_cast<double>(programs.size()));
    bench::jsonMetric("budget",
                      static_cast<double>(opts.maxExperiments));
    bench::jsonMetric("seed_error", 100.0 * seed_error);

    // The paper's shape: racing <= every unguided baseline at equal
    // budget (every strategy was seeded with the public-info model,
    // so none can end worse than the seed either).
    bool irace_wins = true;
    const Row *irace = nullptr;
    for (const Row &row : rows) {
        if (std::string(row.name) == "irace")
            irace = &row;
    }
    if (irace) {
        for (const Row &row : rows) {
            if (&row != irace
                && irace->result.bestMeanCost
                    > row.result.bestMeanCost)
                irace_wins = false;
        }
    }
    if (rows.size() > 1) {
        bench::note(strprintf("\nshape check: irace tuned error <= "
                              "every baseline at equal budget: %s",
                              irace_wins ? "yes" : "NO (BUG)"));
        bench::jsonMetric("irace_wins", irace_wins ? 1.0 : 0.0);
    }
    engine::EngineStats stats = eng.stats();
    bench::printEngineStats(stats);
    bench::writeJson(&stats);
    return irace_wins ? 0 : 1;
}
