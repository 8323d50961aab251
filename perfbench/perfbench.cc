/**
 * @file
 * The repository benchmark harness: one tuning task raced end to end
 * through the public layer APIs, timed at every layer boundary from
 * the outside.
 *
 * A workload is a (target board, timing family, tuning suite) triple
 * plus the held-out suite its tuned model is checked on. One run:
 *
 *   1. set-up: build the programs, measure them on the board's
 *      hardware stand-in, register them with a fresh EvalEngine and
 *      force every trace recording (repeated; the median is setup_s);
 *   2. cold race: irace on the fresh engine;
 *   3. held-out check: the tuned model on the held-out suite; then
 *      more cold races, each with its own derived racer seed on its
 *      own fresh engine (WorkloadDef::coldRaces in all);
 *   4. warm re-races: every cold race again on its own (now warm)
 *      engine, for --seconds, the client moving across the allowed
 *      CPUs.
 *
 * With --trace 1 the cold and warm races go through a timing wrapper
 * around the engine's CostEvaluator and the model/cost closures time
 * themselves; two extra cold races (an untraced reference on the full
 * pool and one on a 1-thread engine) give the tracing overhead and the
 * thread-scaling point; and a 1-thread replay of the tuned model gives
 * the per-instruction cost, the step profiler's phase shares and the
 * simulated component counts. Nothing is traced inside the library.
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}; see perfbench/README.md for every metric.
 *
 *   perfbench --workload a53-ubench-inorder --seed 20190324 \
 *             --seconds 2 --trace 0
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "engine/engine.hh"
#include "obs/step_profiler.hh"
#include "scenario/scenario.hh"
#include "tuner/strategy.hh"
#include "validate/oracle.hh"
#include "validate/sniper_space.hh"

using namespace raceval;

namespace
{

using Clock = std::chrono::steady_clock;

/** Racing budget of every race (the repo drivers' full budget). */
constexpr uint64_t raceBudget = 2400;
/** Set-ups per run (setup_s is their median): at least this many... */
constexpr int minSetups = 2;
/** ...and more until this much set-up time has been spent. */
constexpr double minSetupSeconds = 1.0;
/** Warm rounds (one re-race per cold race) per client CPU stint; the
 *  first round of a stint warms the new CPU's caches and is not
 *  measured. At least one stint runs, however short --seconds. */
constexpr int warmStintRounds = 4;
/** Passes of the 1-thread tuned-model replay (median ns/inst). */
constexpr int replayReps = 3;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// --- workloads --------------------------------------------------------

struct WorkloadDef
{
    const char *name;
    const char *board;
    core::ModelFamily family;
    const char *tuningSuite;
    const char *heldOutSuite;
    /** Cold races per untraced run, each with its own racer seed. The
     *  cost of an experiment depends on the race's trajectory: single
     *  a53 races of one run ranged 139-224 exp/s. The firmware race
     *  charges about the same experiments on every seed; its extra
     *  races average host noise. */
    int coldRaces;
};

// The M-class board has no held-out suite of its own; the SPEC
// stand-ins, measured on that board, play the part so every workload
// reports the same metrics.
const WorkloadDef workloadDefs[] = {
    {"a53-ubench-inorder", "cortex-a53", core::ModelFamily::InOrder,
     "ubench", "spec2017", 4},
    {"a72-ubench-ooo", "cortex-a72", core::ModelFamily::Ooo, "ubench",
     "spec2017", 2},
    {"m-firmware-interval", "cortex-m-class",
     core::ModelFamily::Interval, "firmware", "spec2017", 3},
};

unsigned
profilerFamily(core::ModelFamily family)
{
    switch (family) {
      case core::ModelFamily::InOrder: return obs::stepFamilyInOrder;
      case core::ModelFamily::Ooo: return obs::stepFamilyOoo;
      default: return obs::stepFamilyInterval;
    }
}

// --- tracing (benchmark-side only) ------------------------------------

/** Calls and nanoseconds spent inside one closure. */
struct CallTimer
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> nanos{0};

    void
    add(Clock::time_point start)
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        nanos.fetch_add(static_cast<uint64_t>(
                            std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                Clock::now() - start).count()),
                        std::memory_order_relaxed);
    }
};

/** CostEvaluator wrapper timing each racing step's evaluateMany. */
class TimedEvaluator : public tuner::CostEvaluator
{
  public:
    explicit TimedEvaluator(tuner::CostEvaluator &inner) : inner(inner) {}

    std::vector<double>
    evaluateMany(const std::vector<tuner::EvalPair> &pairs) override
    {
        auto start = Clock::now();
        std::vector<double> out = inner.evaluateMany(pairs);
        stepSeconds.push_back(secondsSince(start));
        return out;
    }

    std::vector<double> stepSeconds;

  private:
    tuner::CostEvaluator &inner;
};

// --- results ----------------------------------------------------------

uint64_t
fnv(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
uint64_t
fnvValue(uint64_t h, const T &value)
{
    return fnv(h, &value, sizeof(value));
}

uint64_t
fnvConfig(uint64_t h, const tuner::Configuration &config)
{
    h = fnvValue(h, config.size());
    for (size_t i = 0; i < config.size(); ++i)
        h = fnvValue(h, config[i]);
    return h;
}

/** Digest over every RaceResult field (doubles by bit pattern). Its own
 *  FNV-1a rather than the engine's Fingerprinter, so a change to the
 *  engine's cache-key hashing cannot change the digest that compares
 *  two commits. */
uint64_t
raceDigest(const tuner::RaceResult &r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = fnvConfig(h, r.best);
    h = fnvValue(h, r.bestMeanCost);
    h = fnvValue(h, r.bestCosts.size());
    for (double c : r.bestCosts)
        h = fnvValue(h, c);
    h = fnvValue(h, r.experimentsUsed);
    h = fnvValue(h, r.iterations);
    h = fnvValue(h, r.elites.size());
    for (const auto &[config, cost] : r.elites) {
        h = fnvConfig(h, config);
        h = fnvValue(h, cost);
    }
    return h;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** Field-by-field exact equality of two race results. */
bool
sameResult(const tuner::RaceResult &a, const tuner::RaceResult &b)
{
    if (!(a.best == b.best) || !sameBits(a.bestMeanCost, b.bestMeanCost)
        || a.bestCosts.size() != b.bestCosts.size()
        || a.experimentsUsed != b.experimentsUsed
        || a.iterations != b.iterations
        || a.elites.size() != b.elites.size())
        return false;
    for (size_t i = 0; i < a.bestCosts.size(); ++i) {
        if (!sameBits(a.bestCosts[i], b.bestCosts[i]))
            return false;
    }
    for (size_t i = 0; i < a.elites.size(); ++i) {
        if (!(a.elites[i].first == b.elites[i].first)
            || !sameBits(a.elites[i].second, b.elites[i].second))
            return false;
    }
    return true;
}

/** One race, timed from outside, with its engine-stat deltas. */
struct RaceRun
{
    tuner::RaceResult result;
    double wall = 0.0;
    double cpu = 0.0;
    uint64_t requests = 0;
    uint64_t freshEvals = 0;
    uint64_t dedup = 0;
    uint64_t insts = 0;
    /** evaluateMany latency per racing step (traced races only). */
    std::vector<double> stepSeconds;
    double evalSeconds = 0.0;

    double
    expPerSecond() const
    {
        return static_cast<double>(result.experimentsUsed) / wall;
    }
};

/** Host stamp: what a number means depends on where it was taken. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002 + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        std::string s(reinterpret_cast<const char *>(regs),
                      sizeof(regs));
        s = s.c_str();
        size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

/** @return the CPUs this thread may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

unsigned
affinityCpus()
{
    return static_cast<unsigned>(
        std::max<size_t>(1, allowedCpus().size()));
}

/** Restrict the calling thread to @p cpus (a subset of allowedCpus()). */
void
pinThread(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

// --- the benchmark ----------------------------------------------------

class Bench
{
  public:
    Bench(const WorkloadDef &def, uint64_t seed, unsigned threads,
          bool traced)
        : def(def),
          board(scenario::targetOrDie(def.board)),
          space(def.family, board.clamp),
          base(board.publicInfo()),
          threads(threads),
          traced(traced)
    {
        opts.maxExperiments = raceBudget;
        opts.seed = seed;
        seedConfig = space.encode(base);
    }

    int run(double seconds, const std::string &source_id);

  private:
    /** One set-up; leaves the engine and oracle ready to race. */
    void setUp();
    /** A fresh engine over the programs, closures wired (and timing
     *  themselves when @p timed). */
    std::unique_ptr<engine::EvalEngine> makeEngine(unsigned pool_threads,
                                                   bool timed);
    /** Run fn(i) for every program, one pool task each: per-program
     *  costs differ by 20x, so chunking would unbalance the pool. */
    void
    perProgram(ThreadPool &pool, const std::function<void(size_t)> &fn)
    {
        std::vector<std::function<void()>> tasks;
        for (size_t i = 0; i < programs.size(); ++i)
            tasks.emplace_back([&fn, i] { fn(i); });
        pool.runAll(std::move(tasks));
    }
    /** Force every recording. @return wall seconds. */
    double recordAll(engine::EvalEngine &e);
    RaceRun race(engine::EvalEngine &eng, bool timed, uint64_t seed);
    /** Account one race as an operation; it must also equal @p same
     *  when that is set. */
    void checkRace(const RaceRun &run, const char *what,
                   const tuner::RaceResult *same);
    double heldOutCheck(engine::EvalEngine &eng);
    /** Account @p ops operations that threw as attempted and failed. */
    void
    countThrow(const char *what, const std::exception &e, size_t ops)
    {
        std::printf("FAIL %s threw: %s\n", what, e.what());
        attempted += ops;
        failed += ops;
    }
    double seedError(engine::EvalEngine &eng);

    const WorkloadDef &def;
    const scenario::TargetBoard &board;
    validate::SniperParamSpace space;
    core::CoreParams base;
    unsigned threads;
    bool traced;
    tuner::RacerOptions opts;
    tuner::Configuration seedConfig;

    std::vector<isa::Program> programs; //!< tuning, then held-out
    size_t numTuning = 0;
    std::unique_ptr<validate::HardwareOracle> oracle;
    std::unique_ptr<engine::EvalEngine> eng;
    CallTimer modelTimer, costTimer;

    // Per set-up phase seconds (one entry per set-up).
    std::vector<double> buildS, measureS, recordS, setupS;
    uint64_t measuredInsts = 0;

    const tuner::RaceResult *cold = nullptr;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

std::unique_ptr<engine::EvalEngine>
Bench::makeEngine(unsigned pool_threads, bool timed)
{
    engine::EngineOptions eopts;
    eopts.threads = pool_threads;
    auto e = std::make_unique<engine::EvalEngine>(def.family, eopts);
    for (size_t i = 0; i < programs.size(); ++i) {
        if (e->addInstance(programs[i]) != i)
            fatal("perfbench: program %s is a duplicate",
                  programs[i].name.c_str());
        if (i >= numTuning)
            e->markHeldOut(i);
    }
    e->setModelFn([this, timed](const tuner::Configuration &config) {
        if (!timed)
            return space.apply(config, base);
        auto start = Clock::now();
        core::CoreParams model = space.apply(config, base);
        modelTimer.add(start);
        return model;
    });
    // The flow's cost: CPI error against the board, tagged with the
    // board's salt so boards never alias in a shared cache.
    e->setCostFn(
        [this, timed](const core::CoreStats &sim, size_t instance) {
            auto start = Clock::now();
            double hw_cpi = oracle->measure(programs[instance]).cpi();
            double err = hw_cpi > 0.0
                ? std::abs(sim.cpi() - hw_cpi) / hw_cpi : 0.0;
            if (timed)
                costTimer.add(start);
            return err;
        },
        /*cost_tag=*/1 ^ board.fingerprintSalt);
    return e;
}

double
Bench::recordAll(engine::EvalEngine &e)
{
    auto start = Clock::now();
    perProgram(e.threadPool(),
               [&e](size_t i) { e.traceBank().instCount(i); });
    return secondsSince(start);
}

void
Bench::setUp()
{
    auto start = Clock::now();
    programs.clear();
    const scenario::WorkloadSuite &tuning =
        scenario::suiteOrDie(def.tuningSuite);
    const scenario::WorkloadSuite &held =
        scenario::suiteOrDie(def.heldOutSuite);
    for (size_t i = 0; i < tuning.count(); ++i)
        programs.push_back(tuning.buildAt(i));
    numTuning = programs.size();
    for (size_t i = 0; i < held.count(); ++i)
        programs.push_back(held.buildAt(i));
    buildS.push_back(secondsSince(start));

    // Measure on the engine's pool, the only worker threads a run
    // has; the oracle memoizes, so the race's cost fn only looks up.
    auto measure_start = Clock::now();
    oracle = std::make_unique<validate::HardwareOracle>(
        hw::makeMachine(board.secret(), board.outOfOrderHw));
    eng = makeEngine(threads, traced);
    std::vector<uint64_t> insts(programs.size());
    perProgram(eng->threadPool(), [&](size_t i) {
        insts[i] = oracle->measure(programs[i]).instructions;
    });
    measureS.push_back(secondsSince(measure_start));
    measuredInsts = 0;
    for (uint64_t n : insts)
        measuredInsts += n;

    recordS.push_back(recordAll(*eng));
    setupS.push_back(secondsSince(start));
}

RaceRun
Bench::race(engine::EvalEngine &e, bool timed, uint64_t seed)
{
    TimedEvaluator wrapper(e);
    tuner::CostEvaluator &evaluator =
        timed ? static_cast<tuner::CostEvaluator &>(wrapper) : e;
    const tuner::SearchStrategyInfo *irace =
        tuner::SearchStrategyRegistry::instance().find("irace");
    tuner::RacerOptions race_opts = opts;
    race_opts.seed = seed;
    auto strategy = irace->make(space.space(), evaluator, numTuning,
                                race_opts);
    strategy->addInitialCandidate(seedConfig);

    RaceRun out;
    engine::EngineStats before = e.stats();
    double cpu0 = processCpuSeconds();
    auto start = Clock::now();
    out.result = strategy->run();
    out.wall = secondsSince(start);
    out.cpu = processCpuSeconds() - cpu0;
    engine::EngineStats after = e.stats();
    out.requests = after.requests - before.requests;
    out.freshEvals = after.evaluations - before.evaluations;
    out.dedup = after.batchDeduplicated - before.batchDeduplicated;
    out.insts = after.instsSimulated - before.instsSimulated;
    out.stepSeconds = std::move(wrapper.stepSeconds);
    for (double s : out.stepSeconds)
        out.evalSeconds += s;
    return out;
}

void
Bench::checkRace(const RaceRun &r, const char *what,
                 const tuner::RaceResult *same)
{
    ++attempted;
    bool ok = r.result.experimentsUsed <= raceBudget;
    if (!ok)
        std::printf("FAIL %s: charged %llu experiments > budget %llu\n",
                    what,
                    static_cast<unsigned long long>(
                        r.result.experimentsUsed),
                    static_cast<unsigned long long>(raceBudget));
    if (same && !sameResult(r.result, *same)) {
        std::printf("FAIL %s: RaceResult differs from the cold race "
                    "(digest %016llx vs %016llx)\n", what,
                    static_cast<unsigned long long>(
                        raceDigest(r.result)),
                    static_cast<unsigned long long>(raceDigest(*same)));
        ok = false;
    }
    if (!ok)
        ++failed;
}

double
Bench::heldOutCheck(engine::EvalEngine &e)
{
    core::CoreParams tuned = space.apply(cold->best, base);
    engine::BatchEvaluator batch(e);
    std::vector<engine::BatchEvaluator::Ticket> tickets;
    for (size_t i = numTuning; i < programs.size(); ++i)
        tickets.push_back(batch.submitModel(tuned, i));
    batch.collect();
    double sum = 0.0;
    for (size_t k = 0; k < tickets.size(); ++k) {
        ++attempted;
        double hw_cpi = oracle->measure(programs[numTuning + k]).cpi();
        double sim_cpi = batch.simCpi(tickets[k]);
        if (!(hw_cpi > 0.0) || !std::isfinite(sim_cpi)) {
            std::printf("FAIL held-out %s: hw CPI %g, sim CPI %g\n",
                        programs[numTuning + k].name.c_str(), hw_cpi,
                        sim_cpi);
            ++failed;
            continue;
        }
        sum += std::abs(sim_cpi - hw_cpi) / hw_cpi;
    }
    return sum / static_cast<double>(tickets.size());
}

double
Bench::seedError(engine::EvalEngine &e)
{
    std::vector<tuner::EvalPair> pairs;
    for (size_t i = 0; i < numTuning; ++i)
        pairs.emplace_back(seedConfig, i);
    std::vector<double> costs = e.evaluateMany(pairs);
    double sum = 0.0;
    for (double c : costs)
        sum += c;
    return sum / static_cast<double>(costs.size());
}

/** Pull one family's phase shares out of the profiler's JSON. */
std::vector<std::pair<std::string, double>>
phaseShares(unsigned family)
{
    std::string json = obs::stepProfileJson();
    std::vector<std::pair<std::string, double>> out;
    size_t at = json.find(std::string("\"")
                          + obs::stepFamilyName(family) + "\": {");
    size_t end = at == std::string::npos ? at : json.find('}', at);
    auto field = [&](const std::string &key) {
        size_t k = at == std::string::npos
            ? at : json.find("\"" + key + "\": ", at);
        if (k == std::string::npos || k > end)
            return 0.0;
        return std::strtod(json.c_str() + k + key.size() + 4, nullptr);
    };
    double total = field("total_ns");
    for (size_t p = 0; p < obs::numStepPhases; ++p) {
        std::string name =
            obs::stepPhaseName(static_cast<obs::StepPhase>(p));
        double ns = field(name + "_ns");
        out.emplace_back(name, total > 0.0 ? ns / total : 0.0);
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

int
Bench::run(double seconds, const std::string &source_id)
{
    // 1. Set-up, several times; the last set-up's engine races.
    auto setup_start = Clock::now();
    while (setupS.size() < static_cast<size_t>(minSetups)
           || secondsSince(setup_start) < minSetupSeconds)
        setUp();
    double setup_s = median(setupS);

    // 2. Cold race on the fresh engine.
    RaceRun cold_run = race(*eng, traced, opts.seed);
    uint64_t model_calls = modelTimer.calls.load();
    uint64_t model_ns = modelTimer.nanos.load();
    uint64_t cost_calls = costTimer.calls.load();
    uint64_t cost_ns = costTimer.nanos.load();
    checkRace(cold_run, "cold race", nullptr);
    cold = &cold_run.result;

    // 3. Held-out check of the tuned model.
    auto held_start = Clock::now();
    double heldout_error = 0.0;
    try {
        heldout_error = heldOutCheck(*eng);
    } catch (const std::exception &e) {
        countThrow("held-out check", e, programs.size() - numTuning);
    }
    double heldout_s = secondsSince(held_start);

    // More cold trajectories, each on a fresh engine with a racer
    // seed derived from --seed (untraced runs only).
    std::vector<RaceRun> colds{cold_run};
    std::vector<uint64_t> seeds{opts.seed};
    std::vector<std::unique_ptr<engine::EvalEngine>> engines;
    for (int k = 1; !traced && k < def.coldRaces; ++k) {
        engines.push_back(makeEngine(threads, false));
        recordAll(*engines.back());
        seeds.push_back(opts.seed + k * 0x9e3779b97f4a7c15ull);
        colds.push_back(race(*engines.back(), false, seeds.back()));
        checkRace(colds.back(), "cold race", nullptr);
    }
    auto engine_of = [&](size_t k) -> engine::EvalEngine & {
        return k ? *engines[k - 1] : *eng;
    };
    double seed_error = seedError(*eng);
    // Means over the cold races (total experiments over total wall):
    // on a shared host the race-to-race noise is broad, and over ten
    // seeds the median of three or four races spread more than this.
    double cold_exps = 0.0, cold_wall = 0.0;
    for (const RaceRun &r : colds) {
        if (r.result.bestMeanCost > seed_error) {
            std::printf("FAIL cold race: tuned error %.4f%% above the "
                        "public-info seed model's %.4f%%\n",
                        100.0 * r.result.bestMeanCost,
                        100.0 * seed_error);
            ++failed;
        }
        cold_exps += static_cast<double>(r.result.experimentsUsed);
        cold_wall += r.wall;
    }
    double time_to_model = setup_s
        + cold_wall / static_cast<double>(colds.size()) + heldout_s;

    // 4. Warm re-races: every cold race again on its own engine, in
    // turn, every request a cache hit. Like the cold cost, the warm
    // cost per request depends on the trajectory (by ~1.4x on the
    // firmware races), so each trajectory contributes one median
    // re-race to warm_exp_per_s.
    // The client thread moves to the next allowed CPU every stint: a
    // warm race is one thread's work, and on a shared host a CPU whose
    // hardware sibling is busy elsewhere runs it ~1.4x slower, which
    // split firmware runs into a fast and a slow group when the client
    // stayed wherever it started.
    std::vector<std::vector<double>> warm_walls(colds.size());
    std::vector<uint64_t> warm_requests(colds.size());
    std::vector<double> warm_rate, warm_self, warm_eval;
    const std::vector<int> client_cpus = allowedCpus();
    auto warm_start = Clock::now();
    bool warm_threw = false;
    for (int round = 0; !warm_threw
         && (round < warmStintRounds || secondsSince(warm_start) < seconds);
         ++round) {
        bool settle = round % warmStintRounds == 0;
        if (settle && !client_cpus.empty())
            pinThread({client_cpus[round / warmStintRounds
                                   % client_cpus.size()]});
        for (size_t k = 0; k < colds.size(); ++k) {
            RaceRun w;
            try {
                w = race(engine_of(k), traced, seeds[k]);
            } catch (const std::exception &e) {
                countThrow("warm re-race", e, 1);
                warm_threw = true;
                break;
            }
            checkRace(w, "warm re-race", &colds[k].result);
            if (settle)
                continue;
            warm_walls[k].push_back(w.wall);
            warm_requests[k] = w.requests;
            warm_rate.push_back(static_cast<double>(w.requests) / w.wall);
            warm_self.push_back(w.wall - w.evalSeconds);
            warm_eval.push_back(w.evalSeconds);
        }
    }
    if (!client_cpus.empty())
        pinThread(client_cpus);
    double warm_req_sum = 0.0, warm_wall_sum = 0.0;
    for (size_t k = 0; k < colds.size(); ++k) {
        warm_req_sum += static_cast<double>(warm_requests[k]);
        warm_wall_sum += median(warm_walls[k]);
    }

    uint64_t digest = raceDigest(*cold);
    std::printf("perfbench %s: seed %llu, %zu tuning + %zu held-out "
                "programs, budget %llu, pool %u threads\n", def.name,
                static_cast<unsigned long long>(opts.seed), numTuning,
                programs.size() - numTuning,
                static_cast<unsigned long long>(raceBudget), threads);
    std::printf("race digest %016llx: %llu experiments, %u iterations, "
                "tuned error %.4f%% (seed model %.4f%%), held-out "
                "%.4f%%, %zu warm re-races\n",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(
                    cold->experimentsUsed),
                cold->iterations, 100.0 * cold->bestMeanCost,
                100.0 * seed_error, 100.0 * heldout_error,
                warm_rate.size());
    std::string rates;
    for (const RaceRun &r : colds)
        rates += strprintf(" %.2f", r.expPerSecond());
    auto [warm_min, warm_max] =
        std::minmax_element(warm_rate.begin(), warm_rate.end());
    if (!warm_rate.empty())
        std::printf("cold exp/s per race:%s; warm req/s per re-race: "
                    "min %.0f median %.0f max %.0f\n", rates.c_str(),
                    *warm_min, median(warm_rate), *warm_max);
    std::printf("host: nproc %ld, affinity cpus %u, cpu \"%s\", pool "
                "threads %u, build %s, compiler %s, source %s\n",
                sysconf(_SC_NPROCESSORS_ONLN), affinityCpus(),
                cpuModel().c_str(), threads, PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, source_id.c_str());

    std::vector<Metric> metrics;
    if (!traced) {
        metrics = {
            {"cold_exp_per_s", cold_exps / cold_wall, "exp/s"},
            {"warm_exp_per_s", warm_req_sum / warm_wall_sum, "req/s"},
            {"setup_s", setup_s, "s"},
            {"time_to_model_s", time_to_model, "s"},
        };
    } else {
        // The same cold race on fresh engines: untraced on the full
        // pool (the tracing overhead and throughput reference) and on
        // one thread (the thread-scaling point).
        auto ref_eng = makeEngine(threads, false);
        recordAll(*ref_eng);
        RaceRun ref = race(*ref_eng, false, opts.seed);
        checkRace(ref, "untraced reference race", cold);
        ref_eng.reset();
        auto one_eng = makeEngine(1, false);
        recordAll(*one_eng);
        RaceRun one = race(*one_eng, false, opts.seed);
        checkRace(one, "1-thread race", cold);
        one_eng.reset();

        // 1-thread replay of every tuning instance with the tuned
        // model, bypassing the cache.
        core::CoreParams tuned = space.apply(cold->best, base);
        core::CoreStats sum;
        std::vector<double> ns_per_inst;
        for (int rep = 0; rep < replayReps; ++rep) {
            uint64_t insts = 0;
            auto start = Clock::now();
            for (size_t i = 0; i < numTuning; ++i) {
                core::CoreStats s = eng->replayRun(tuned, i);
                insts += s.instructions;
                if (rep == 0) {
                    sum.instructions += s.instructions;
                    sum.cycles += s.cycles;
                    sum.l1iMisses += s.l1iMisses;
                    sum.l1dMisses += s.l1dMisses;
                    sum.l2Misses += s.l2Misses;
                    sum.dramReads += s.dramReads;
                    sum.branch.mispredicts += s.branch.mispredicts;
                }
            }
            ns_per_inst.push_back(secondsSince(start) * 1e9
                                  / static_cast<double>(insts));
        }
        // Phase attribution from one more pass with the step profiler
        // on. It runs on one thread: on the pool, every profiled step
        // bumps one shared atomic and the race slows several-fold.
        obs::setStepProfiling(true);
        for (size_t i = 0; i < numTuning; ++i)
            eng->replayRun(tuned, i);
        obs::setStepProfiling(false);
        double kinsts = static_cast<double>(sum.instructions) / 1000.0;
        auto pki = [kinsts](uint64_t n) {
            return static_cast<double>(n) / kinsts;
        };

        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        double one_exp = one.expPerSecond();
        double cores_busy = ref.cpu / ref.wall;
        // Everything the layer timers cover (the race splits into
        // tuner self time and engine time); the rest of the traced
        // time-to-model (engine and oracle construction) is
        // unattributed.
        double attributed = median(buildS) + median(measureS)
            + median(recordS) + cold_run.wall + heldout_s;
        metrics = {
            {"tuner.cold_self_s", cold_run.wall - cold_run.evalSeconds,
             "s"},
            {"tuner.warm_self_s", median(warm_self), "s"},
            {"tuner.steps",
             static_cast<double>(cold_run.stepSeconds.size()), "count"},
            {"tuner.iterations",
             static_cast<double>(cold->iterations), "count"},
            {"tuner.step_wait_p50_ms",
             1e3 * percentile(cold_run.stepSeconds, 50), "ms"},
            {"tuner.step_wait_p90_ms",
             1e3 * percentile(cold_run.stepSeconds, 90), "ms"},
            {"engine.cold_eval_s", cold_run.evalSeconds, "s"},
            {"engine.warm_eval_s", median(warm_eval), "s"},
            {"engine.requests", static_cast<double>(cold_run.requests),
             "count"},
            {"engine.fresh_evals",
             static_cast<double>(cold_run.freshEvals), "count"},
            {"engine.cache_hit_rate",
             1.0 - static_cast<double>(cold_run.freshEvals)
                 / static_cast<double>(cold_run.requests), "ratio"},
            {"engine.dedup", static_cast<double>(cold_run.dedup),
             "count"},
            {"engine.cores_busy", cores_busy, "cores"},
            {"engine.parallel_eff", cores_busy / threads, "ratio"},
            {"engine.exp_per_s_1t", one_exp, "exp/s"},
            {"engine.scaling", ref.expPerSecond() / one_exp, "x"},
            {"engine.sim_mips",
             static_cast<double>(ref.insts) / ref.wall / 1e6, "MIPS"},
            {"validate.model_fn_us",
             model_calls ? 1e-3 * static_cast<double>(model_ns)
                     / static_cast<double>(model_calls) : 0.0, "us"},
            {"validate.model_fn_calls", static_cast<double>(model_calls),
             "count"},
            {"validate.cost_fn_us",
             cost_calls ? 1e-3 * static_cast<double>(cost_ns)
                     / static_cast<double>(cost_calls) : 0.0, "us"},
            {"validate.cost_fn_calls", static_cast<double>(cost_calls),
             "count"},
            {"bank.record_s", median(recordS), "s"},
            {"bank.recorded_insts",
             static_cast<double>(eng->stats().bank.recordedInsts),
             "count"},
            {"core.replay_ns_per_inst", median(ns_per_inst), "ns"},
        };
        for (const auto &[phase, share] :
             phaseShares(profilerFamily(def.family)))
            metrics.push_back({"core.phase." + phase + "_share", share,
                               "ratio"});
        std::vector<Metric> rest = {
            {"core.cpi", sum.cpi(), "cycles/inst"},
            {"cache.l1i_mpki", pki(sum.l1iMisses), "1/kinst"},
            {"cache.l1d_mpki", pki(sum.l1dMisses), "1/kinst"},
            {"cache.l2_mpki", pki(sum.l2Misses), "1/kinst"},
            {"cache.dram_pki", pki(sum.dramReads), "1/kinst"},
            {"branch.mpki", pki(sum.branch.mispredicts), "1/kinst"},
            {"hw.measure_s", median(measureS), "s"},
            {"hw.measured_insts", static_cast<double>(measuredInsts),
             "count"},
            {"tuned_error_pct", 100.0 * cold->bestMeanCost, "%"},
            {"heldout_error_pct", 100.0 * heldout_error, "%"},
            {"proc.peak_rss_mb",
             static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
            {"proc.cpu_s", processCpuSeconds(), "s"},
            {"trace_overhead_pct",
             100.0 * (cold_run.wall / ref.wall - 1.0), "%"},
            {"unattributed_s",
             setup_s + cold_run.wall + heldout_s - attributed, "s"},
        };
        metrics.insert(metrics.end(), rest.begin(), rest.end());
    }

    for (const Metric &m : metrics)
        std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::string json = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {", failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        json += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": "
                          "\"%s\"}", i ? ", " : "",
                          metrics[i].name.c_str(), metrics[i].value,
                          metrics[i].unit);
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(code ? stderr : stdout,
                 "usage: %s --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--source-id ID]\nworkloads:", argv0);
    for (const WorkloadDef &w : workloadDefs)
        std::fprintf(code ? stderr : stdout, " %s", w.name);
    std::fprintf(code ? stderr : stdout, "\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, source_id = "unknown";
    uint64_t seed = 20190324;
    double seconds = 5.0;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            usage(argv[0], 0);
        if (i + 1 >= argc)
            usage(argv[0], 2);
        std::string val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace")
            traced = val != "0";
        else if (arg == "--source-id")
            source_id = val;
        else
            usage(argv[0], 2);
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : workloadDefs) {
        if (workload == w.name)
            def = &w;
    }
    if (!def)
        usage(argv[0], 2);
    setQuiet(true);
    unsigned threads = std::min<unsigned>(
        affinityCpus(),
        static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN)));
    try {
        Bench bench(*def, seed, threads, traced);
        return bench.run(seconds, source_id);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
