/** @file Campaign orchestrator tests: scheduling determinism, shared
 *  engine/cache behaviour, cost domains, and checkpoint/resume. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "common/log.hh"
#include "engine/engine.hh"
#include "ubench/ubench.hh"

using namespace raceval;
using namespace raceval::campaign;

namespace
{

isa::Program
smallProgram(const char *name, uint64_t insts = 6000)
{
    const ubench::UbenchInfo *info = ubench::find(name);
    EXPECT_NE(info, nullptr);
    return info->builder(insts, true);
}

tuner::ParameterSpace
makeSpace()
{
    tuner::ParameterSpace space;
    space.addOrdinal("mispredict_penalty", {4, 8, 12, 16});
    space.addOrdinal("l1d_latency", {2, 3, 4});
    space.addFlag("forwarding");
    return space;
}

engine::ModelFn
makeModelFn(const tuner::ParameterSpace &space)
{
    return [&space](const tuner::Configuration &config) {
        core::CoreParams model = core::publicInfoA53();
        model.mispredictPenalty = static_cast<unsigned>(
            space.ordinalValue(config, "mispredict_penalty"));
        model.mem.l1d.latency = static_cast<unsigned>(
            space.ordinalValue(config, "l1d_latency"));
        model.forwarding = space.flagValue(config, "forwarding");
        return model;
    };
}

/** Engine with the four standard test instances registered. */
std::unique_ptr<engine::EvalEngine>
makeEngine()
{
    auto eng = std::make_unique<engine::EvalEngine>(core::ModelFamily::InOrder);
    for (const char *name : {"CCh", "EI", "MM", "STc"})
        eng->addInstance(smallProgram(name));
    return eng;
}

CampaignTask
makeTask(const std::string &name, const tuner::ParameterSpace &space,
         const engine::ModelFn &model_fn, std::vector<size_t> instances,
         uint64_t seed, uint64_t budget = 120, size_t domain = 0)
{
    CampaignTask task;
    task.name = name;
    task.space = &space;
    task.modelFn = model_fn;
    task.instances = std::move(instances);
    task.costDomain = domain;
    task.racer.maxExperiments = budget;
    task.racer.seed = seed;
    return task;
}

/** The four-task standard campaign (2 workload subsets x 2 seeds). */
void
addStandardTasks(CampaignRunner &runner,
                 const tuner::ParameterSpace &space,
                 const engine::ModelFn &model_fn)
{
    runner.addTask(makeTask("sub1/seed1", space, model_fn, {0, 1}, 11));
    runner.addTask(makeTask("sub1/seed2", space, model_fn, {0, 1}, 22));
    runner.addTask(makeTask("sub2/seed1", space, model_fn, {2, 3}, 11));
    runner.addTask(makeTask("sub2/seed2", space, model_fn, {2, 3}, 22));
}

/** @return a whole file's bytes ("" when unreadable). */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
expectSameRace(const tuner::RaceResult &a, const tuner::RaceResult &b)
{
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.bestMeanCost, b.bestMeanCost);
    EXPECT_EQ(a.bestCosts, b.bestCosts);
    EXPECT_EQ(a.experimentsUsed, b.experimentsUsed);
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.elites.size(), b.elites.size());
    for (size_t e = 0; e < a.elites.size(); ++e) {
        EXPECT_EQ(a.elites[e].first, b.elites[e].first);
        EXPECT_EQ(a.elites[e].second, b.elites[e].second);
    }
}

TEST(Campaign, SerialAndConcurrentBitIdentical)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);

    // Two cold engines, same campaign; only the scheduling differs.
    auto serial_engine = makeEngine();
    CampaignOptions serial_opts;
    serial_opts.concurrency = 1;
    CampaignRunner serial(*serial_engine, serial_opts);
    addStandardTasks(serial, space, model_fn);
    CampaignResult serial_result = serial.run();

    auto concurrent_engine = makeEngine();
    CampaignOptions concurrent_opts;
    concurrent_opts.concurrency = 4;
    CampaignRunner concurrent(*concurrent_engine, concurrent_opts);
    addStandardTasks(concurrent, space, model_fn);
    CampaignResult concurrent_result = concurrent.run();

    ASSERT_EQ(serial_result.tasks.size(), 4u);
    ASSERT_EQ(concurrent_result.tasks.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(serial_result.tasks[i].name,
                  concurrent_result.tasks[i].name);
        expectSameRace(serial_result.tasks[i].result,
                       concurrent_result.tasks[i].result);
    }
    EXPECT_EQ(serial_result.stats.tasksRaced, 4u);
    EXPECT_GT(serial_result.stats.experiments, 0u);
    EXPECT_GT(serial_result.stats.wallSeconds, 0.0);
    EXPECT_FALSE(serial_result.stats.summary().empty());
    EXPECT_NE(serial_result.stats.json().find("\"tasks_total\": 4"),
              std::string::npos);

    // Both campaigns shared one engine across their four tasks: the
    // trace bank recorded each program once, ever.
    EXPECT_EQ(concurrent_result.stats.engine.bank.recordings, 4u);
}

TEST(Campaign, WarmCacheAndSoloRunsKeepTrajectories)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    auto eng = makeEngine();

    CampaignRunner fleet(*eng, CampaignOptions{});
    addStandardTasks(fleet, space, model_fn);
    CampaignResult cold = fleet.run();

    // Re-running the identical campaign over the warm cache must not
    // simulate anything new and must reproduce every trajectory.
    uint64_t evals_before = eng->stats().evaluations;
    CampaignRunner warm_runner(*eng, CampaignOptions{});
    addStandardTasks(warm_runner, space, model_fn);
    CampaignResult warm = warm_runner.run();
    EXPECT_EQ(eng->stats().evaluations, evals_before);
    for (size_t i = 0; i < 4; ++i)
        expectSameRace(cold.tasks[i].result, warm.tasks[i].result);

    // Each task raced alone must match its in-fleet outcome: campaign
    // scheduling and cross-task cache sharing never change a race.
    CampaignRunner solo(*eng, CampaignOptions{});
    solo.addTask(makeTask("sub2/seed2", space, model_fn, {2, 3}, 22));
    CampaignResult alone = solo.run();
    expectSameRace(alone.tasks[0].result, cold.tasks[3].result);
}

TEST(Campaign, WarmStartPathServesEveryExperimentAndNeverWrites)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    std::string path = ::testing::TempDir() + "/campaign-warm.bin";

    auto cold_engine = makeEngine();
    CampaignRunner cold_runner(*cold_engine, CampaignOptions{});
    addStandardTasks(cold_runner, space, model_fn);
    CampaignResult cold = cold_runner.run();
    ASSERT_GT(cold_engine->saveCache(path), 0u);
    std::string saved = fileBytes(path);

    // A fresh engine warm-started from the file replays nothing and
    // reproduces every trajectory; the campaign only reads the file.
    auto warm_engine = makeEngine();
    CampaignOptions warm_opts;
    warm_opts.warmStartPath = path;
    CampaignRunner warm_runner(*warm_engine, warm_opts);
    addStandardTasks(warm_runner, space, model_fn);
    CampaignResult warm = warm_runner.run();
    for (size_t i = 0; i < 4; ++i)
        expectSameRace(cold.tasks[i].result, warm.tasks[i].result);
    EXPECT_EQ(warm_engine->stats().evaluations, 0u);
    EXPECT_EQ(fileBytes(path), saved);
    std::remove(path.c_str());
}

TEST(Campaign, CostDomainsDoNotAlias)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    auto eng = makeEngine();
    // Domain 0 stays simulated CPI; a second domain returns a
    // constant. If domain values ever aliased in the shared cache, one
    // task would observe the other's metric.
    size_t constant_domain = eng->addCostDomain(
        [](const core::CoreStats &, size_t) { return 123.0; },
        /*cost_tag=*/0xc0);
    EXPECT_EQ(eng->numCostDomains(), 2u);

    CampaignRunner runner(*eng, CampaignOptions{});
    runner.addTask(makeTask("cpi", space, model_fn, {0, 1}, 7));
    runner.addTask(makeTask("const", space, model_fn, {0, 1}, 7,
                            /*budget=*/120, constant_domain));
    CampaignResult result = runner.run();

    EXPECT_GT(result.tasks[0].result.bestMeanCost, 0.0);
    EXPECT_NE(result.tasks[0].result.bestMeanCost, 123.0);
    EXPECT_DOUBLE_EQ(result.tasks[1].result.bestMeanCost, 123.0);
    for (double cost : result.tasks[1].result.bestCosts)
        EXPECT_DOUBLE_EQ(cost, 123.0);
}

TEST(Campaign, CheckpointResumeReproducesUninterruptedRun)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    std::string path = ::testing::TempDir() + "/campaign-resume.json";
    std::remove(path.c_str());

    // Reference: the uninterrupted four-task campaign.
    auto ref_engine = makeEngine();
    CampaignRunner ref_runner(*ref_engine, CampaignOptions{});
    addStandardTasks(ref_runner, space, model_fn);
    CampaignResult reference = ref_runner.run();

    // "Interrupted" campaign: only the first two tasks complete before
    // the (simulated) kill; their results land in the checkpoint.
    auto eng = makeEngine();
    CampaignOptions copts;
    copts.checkpointPath = path;
    CampaignRunner first_half(*eng, copts);
    first_half.addTask(
        makeTask("sub1/seed1", space, model_fn, {0, 1}, 11));
    first_half.addTask(
        makeTask("sub1/seed2", space, model_fn, {0, 1}, 22));
    CampaignResult partial = first_half.run();
    EXPECT_EQ(partial.stats.tasksRaced, 2u);

    // Resume with the full task list: the finished tasks are restored
    // (not re-raced), the rest run, and every result matches the
    // uninterrupted campaign bit for bit.
    CampaignRunner resumed(*eng, copts);
    addStandardTasks(resumed, space, model_fn);
    CampaignResult result = resumed.run();
    EXPECT_EQ(result.stats.tasksFromCheckpoint, 2u);
    EXPECT_EQ(result.stats.tasksRaced, 2u);
    EXPECT_TRUE(result.tasks[0].fromCheckpoint);
    EXPECT_TRUE(result.tasks[1].fromCheckpoint);
    EXPECT_FALSE(result.tasks[2].fromCheckpoint);
    for (size_t i = 0; i < 4; ++i)
        expectSameRace(reference.tasks[i].result,
                       result.tasks[i].result);

    // A fully checkpointed campaign restores everything.
    CampaignRunner again(*eng, copts);
    addStandardTasks(again, space, model_fn);
    CampaignResult restored = again.run();
    EXPECT_EQ(restored.stats.tasksFromCheckpoint, 4u);
    EXPECT_EQ(restored.stats.tasksRaced, 0u);
    for (size_t i = 0; i < 4; ++i)
        expectSameRace(reference.tasks[i].result,
                       restored.tasks[i].result);
    std::remove(path.c_str());
}

TEST(Campaign, CheckpointIgnoresChangedTaskDefinition)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    std::string path = ::testing::TempDir() + "/campaign-stale.json";
    std::remove(path.c_str());
    auto eng = makeEngine();
    CampaignOptions copts;
    copts.checkpointPath = path;

    CampaignRunner first(*eng, copts);
    first.addTask(makeTask("task", space, model_fn, {0, 1}, 11));
    first.run();

    // Same name, different seed: the stale entry must not resurrect.
    CampaignRunner changed(*eng, copts);
    changed.addTask(makeTask("task", space, model_fn, {0, 1}, 99));
    CampaignResult result = changed.run();
    EXPECT_FALSE(result.tasks[0].fromCheckpoint);
    EXPECT_EQ(result.stats.tasksRaced, 1u);
    std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripIsExact)
{
    // Doubles chosen to stress the serialization: non-terminating
    // binary fractions, subnormal-ish magnitudes, negatives.
    CheckpointEntry entry;
    entry.name = "exact \"quoted\" \\ name";
    entry.fingerprint = 0xdeadbeefcafef00dull;
    tuner::Configuration best(3);
    best[0] = 1;
    best[1] = 65535;
    best[2] = 7;
    entry.result.best = best;
    entry.result.bestMeanCost = 1.0 / 3.0;
    entry.result.bestCosts = {0.1, 2.0 / 7.0, 1e-17, -3.75};
    entry.result.experimentsUsed = 987654;
    entry.result.iterations = 9;
    entry.result.elites.emplace_back(best, 0.30000000000000004);

    std::string path = ::testing::TempDir() + "/checkpoint-exact.json";
    EXPECT_EQ(saveCheckpoint(path, {entry}), 1u);
    std::vector<CheckpointEntry> loaded = loadCheckpoint(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].name, entry.name);
    EXPECT_EQ(loaded[0].fingerprint, entry.fingerprint);
    expectSameRace(loaded[0].result, entry.result);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingAndMalformedFilesAreFreshStarts)
{
    EXPECT_TRUE(
        loadCheckpoint(::testing::TempDir() + "/no-such-file.json")
            .empty());

    std::string path = ::testing::TempDir() + "/garbage.json";
    std::FILE *file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("{\"tasks\": \"not an array\"", file);
    std::fclose(file);
    setQuiet(true);
    EXPECT_TRUE(loadCheckpoint(path).empty());
    setQuiet(false);
    std::remove(path.c_str());
}

TEST(Campaign, MixedStrategyFleetCheckpointResume)
{
    // One fleet, three strategies. Checkpoint-resume across the mix
    // must restore each task bit-identically, whatever strategy
    // produced it.
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    std::string path = ::testing::TempDir() + "/campaign-mixed.json";
    std::remove(path.c_str());

    auto add_tasks = [&](CampaignRunner &runner) {
        CampaignTask irace = makeTask("irace", space, model_fn, {0, 1},
                                      11);
        CampaignTask random = makeTask("random", space, model_fn,
                                       {0, 1}, 11);
        random.strategy = "random";
        CampaignTask halving = makeTask("halving", space, model_fn,
                                        {2, 3}, 11);
        halving.strategy = "halving";
        runner.addTask(std::move(irace));
        runner.addTask(std::move(random));
        runner.addTask(std::move(halving));
    };

    // Reference: the uninterrupted mixed fleet.
    auto ref_engine = makeEngine();
    CampaignRunner reference_runner(*ref_engine, CampaignOptions{});
    add_tasks(reference_runner);
    CampaignResult reference = reference_runner.run();
    // Different strategies on the same task definition must actually
    // search differently (otherwise this test checks nothing).
    EXPECT_FALSE(reference.tasks[0].result.best
                     == reference.tasks[1].result.best
                 && reference.tasks[0].result.experimentsUsed
                     == reference.tasks[1].result.experimentsUsed
                 && reference.tasks[0].result.iterations
                     == reference.tasks[1].result.iterations);

    // Interrupted: the first two tasks land in the checkpoint.
    auto eng = makeEngine();
    CampaignOptions copts;
    copts.checkpointPath = path;
    CampaignRunner first_half(*eng, copts);
    CampaignTask irace = makeTask("irace", space, model_fn, {0, 1}, 11);
    CampaignTask random = makeTask("random", space, model_fn, {0, 1},
                                   11);
    random.strategy = "random";
    first_half.addTask(std::move(irace));
    first_half.addTask(std::move(random));
    first_half.run();

    // Resume with the full mixed list: restored tasks match the
    // uninterrupted fleet bit for bit, only the halving task races.
    CampaignRunner resumed(*eng, copts);
    add_tasks(resumed);
    CampaignResult result = resumed.run();
    EXPECT_EQ(result.stats.tasksFromCheckpoint, 2u);
    EXPECT_EQ(result.stats.tasksRaced, 1u);
    for (size_t i = 0; i < 3; ++i)
        expectSameRace(reference.tasks[i].result,
                       result.tasks[i].result);
    std::remove(path.c_str());
}

TEST(Campaign, CheckpointIgnoresChangedStrategy)
{
    // Same task name + definition, different strategy: the entry must
    // not resurrect (the strategy salt is in the fingerprint).
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    std::string path =
        ::testing::TempDir() + "/campaign-strategy-stale.json";
    std::remove(path.c_str());
    auto eng = makeEngine();
    CampaignOptions copts;
    copts.checkpointPath = path;

    CampaignRunner first(*eng, copts);
    first.addTask(makeTask("task", space, model_fn, {0, 1}, 11));
    first.run();

    CampaignRunner changed(*eng, copts);
    CampaignTask task = makeTask("task", space, model_fn, {0, 1}, 11);
    task.strategy = "halving";
    changed.addTask(std::move(task));
    CampaignResult result = changed.run();
    EXPECT_FALSE(result.tasks[0].fromCheckpoint);
    EXPECT_EQ(result.stats.tasksRaced, 1u);
    std::remove(path.c_str());
}

TEST(Campaign, StrategyFingerprintBackCompat)
{
    // The pre-strategy fingerprint contract: "" and an explicit
    // "irace" must fingerprint identically (so checkpoints written
    // before the strategy field existed are invalidated ONLY for
    // tasks whose definition actually changed), while any other
    // strategy must change the fingerprint.
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    auto eng = makeEngine();

    CampaignTask implicit = makeTask("t", space, model_fn, {0, 1}, 11);
    uint64_t fp = taskFingerprint(*eng, implicit);

    CampaignTask explicit_irace =
        makeTask("t", space, model_fn, {0, 1}, 11);
    explicit_irace.strategy = "irace";
    EXPECT_EQ(taskFingerprint(*eng, explicit_irace), fp);

    CampaignTask random = makeTask("t", space, model_fn, {0, 1}, 11);
    random.strategy = "random";
    uint64_t random_fp = taskFingerprint(*eng, random);
    EXPECT_NE(random_fp, fp);

    CampaignTask halving = makeTask("t", space, model_fn, {0, 1}, 11);
    halving.strategy = "halving";
    uint64_t halving_fp = taskFingerprint(*eng, halving);
    EXPECT_NE(halving_fp, fp);
    EXPECT_NE(halving_fp, random_fp);
}

TEST(Campaign, TaskFingerprintTracksDefinition)
{
    tuner::ParameterSpace space = makeSpace();
    engine::ModelFn model_fn = makeModelFn(space);
    auto eng = makeEngine();

    CampaignTask base = makeTask("t", space, model_fn, {0, 1}, 11);
    uint64_t fp = taskFingerprint(*eng, base);
    EXPECT_EQ(taskFingerprint(*eng, base), fp);

    CampaignTask seeded = makeTask("t", space, model_fn, {0, 1}, 12);
    EXPECT_NE(taskFingerprint(*eng, seeded), fp);

    CampaignTask widened = makeTask("t", space, model_fn, {0, 1, 2}, 11);
    EXPECT_NE(taskFingerprint(*eng, widened), fp);

    CampaignTask budgeted = makeTask("t", space, model_fn, {0, 1}, 11,
                                     /*budget=*/240);
    EXPECT_NE(taskFingerprint(*eng, budgeted), fp);

    // A different target preset shows up through the model-fn probes.
    engine::ModelFn other_fn = [&space](const tuner::Configuration &c) {
        core::CoreParams model = makeModelFn(space)(c);
        model.storeBufferEntries += 2;
        return model;
    };
    CampaignTask retargeted = makeTask("t", space, other_fn, {0, 1}, 11);
    EXPECT_NE(taskFingerprint(*eng, retargeted), fp);

    // The engine's timing-model kind too: CoreParams content carries
    // no in-order/OoO distinction, so the fingerprint must.
    engine::EvalEngine ooo_engine(core::ModelFamily::Ooo);
    for (const char *name : {"CCh", "EI", "MM", "STc"})
        ooo_engine.addInstance(smallProgram(name));
    EXPECT_NE(taskFingerprint(ooo_engine, base), fp);
}

} // namespace
