/** @file Packed-replay determinism tests: packed replay vs the live
 *  FunctionalCore convenience run for every timing family, the
 *  classify-once dispatch against the generic step bodies, and the v3
 *  (sorted) EvalCache file format. */

#include <gtest/gtest.h>

#include <cstdio>
#include <type_traits>
#include <unistd.h>

#include "cache/hierarchy.hh"
#include "core/inorder.hh"
#include "core/interval.hh"
#include "core/ooo.hh"
#include "core/timing_model.hh"
#include "engine/engine.hh"
#include "engine/eval_cache.hh"
#include "isa/assembler.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "vm/packed_trace.hh"

using namespace raceval;
using core::ModelFamily;

namespace
{

isa::Program
smallProgram(const char *name, uint64_t insts = 20000)
{
    const ubench::UbenchInfo *info = ubench::find(name);
    EXPECT_NE(info, nullptr);
    return info->builder(insts, true);
}

vm::PackedTrace
packProgram(const isa::Program &prog)
{
    vm::FunctionalCore live(prog);
    return vm::PackedTrace::build(live);
}

/** Require every counter of two runs to match exactly. */
void
expectBitIdentical(const core::CoreStats &a, const core::CoreStats &b,
                   const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.branch.branches, b.branch.branches) << what;
    EXPECT_EQ(a.branch.mispredicts, b.branch.mispredicts) << what;
    EXPECT_EQ(a.branch.directionMispredicts,
              b.branch.directionMispredicts) << what;
    EXPECT_EQ(a.branch.targetMispredicts, b.branch.targetMispredicts)
        << what;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << what;
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses) << what;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
}

const ModelFamily allFamilies[] = {ModelFamily::InOrder,
                                   ModelFamily::Ooo,
                                   ModelFamily::Interval};

core::CoreStats
runPacked(ModelFamily family, const core::CoreParams &params,
          const vm::PackedTrace &trace)
{
    return core::makeTimingModel(family, params)->run(trace);
}

} // namespace

// ---------------------------------------------------------- bit-identity

// The live convenience run(FunctionalCore&) packs its stream and must
// agree with a replay of a separately recorded pack.
TEST(PackedReplay, PackedSerialMatchesSourceRun)
{
    core::CoreParams params = core::publicInfoA53();
    isa::Program prog = smallProgram("MC");
    vm::PackedTrace trace = packProgram(prog);
    for (ModelFamily family : allFamilies) {
        vm::FunctionalCore live(prog);
        core::CoreStats from_source =
            core::makeTimingModel(family, params)->run(live);
        expectBitIdentical(from_source, runPacked(family, params, trace),
                           core::modelFamilyName(family));
    }
}

// The smallest program: a lone halt packs to one instruction and
// replays through every family without touching an empty event stream.
TEST(PackedReplay, HaltOnlyProgramPacksAndReplays)
{
    isa::Assembler a("empty");
    a.halt();
    vm::PackedTrace trace = packProgram(a.finish());
    EXPECT_EQ(trace.instCount(), 1u);
    vm::PackedStream stream(trace);
    ASSERT_TRUE(stream.next());
    EXPECT_EQ(stream.cls(), isa::OpClass::Halt);
    EXPECT_FALSE(stream.next());
    for (ModelFamily family : allFamilies) {
        EXPECT_EQ(runPacked(family, core::publicInfoA53(), trace)
                      .instructions,
                  1u)
            << core::modelFamilyName(family);
    }
}

// A replay starts and finishes inside run(), so nothing ever copies a
// core or its cache hierarchy; the types forbid it.
static_assert(!std::is_copy_constructible_v<core::InOrderCore>);
static_assert(!std::is_copy_constructible_v<core::OooCore>);
static_assert(!std::is_copy_constructible_v<core::IntervalCore>);
static_assert(!std::is_copy_constructible_v<cache::MemoryHierarchy>);
static_assert(!std::is_copy_assignable_v<cache::MemoryHierarchy>);

// ---------------------------------------- classify-once dispatch identity

namespace
{

/**
 * Replay through runGeneric (every instruction through the generic
 * step body, no kind-tag dispatch) and require exact agreement with
 * the tagged fast path of run(). Both replays use one core, so a
 * reset that missed any state would show here too.
 */
template <class Model>
void
fastVsGenericCheck(const core::CoreParams &params,
                   const vm::PackedTrace &trace, const std::string &what)
{
    Model model(params);
    core::CoreStats want = model.run(trace);
    expectBitIdentical(want, model.runGeneric(trace),
                       what + " generic/packed");
}

} // namespace

// Every family with a fast/generic split (in-order and interval; the
// OoO family runs one step body): the minimal plain-ALU fast path and
// the kind-tag dispatch must be pure optimizations, invisible in every
// counter. Workloads cover the
// branchy, load-dominated and store-dominated dynamic mixes so every
// stepSlow arm is exercised.
TEST(StepDispatch, FastVsGenericAllStreamsAllFamilies)
{
    core::CoreParams params = core::publicInfoA53();
    const char *benches[] = {"CCh", "MC", "STc"};
    for (const char *name : benches) {
        const ubench::UbenchInfo *info = ubench::find(name);
        if (!info)
            continue; // suite membership varies; cover what exists
        isa::Program prog = info->builder(9973, true);
        vm::PackedTrace trace = packProgram(prog);
        std::string tag(name);
        fastVsGenericCheck<core::InOrderCore>(params, trace,
                                              tag + "/inorder");
        fastVsGenericCheck<core::IntervalCore>(params, trace,
                                               tag + "/interval");
    }
}

// Golden check of the precomputed 2-bit kind tag in the packed static
// rows: a hand-assembled program pins one row per kind, and every row
// of the image must agree with opKindOf(cls) (the invariant the
// classify-once dispatch rests on).
TEST(StepDispatch, StaticRowKindTagsGolden)
{
    isa::Assembler a("kinds");
    a.loadImm(10, 0x20000);
    size_t add_at = a.here();
    a.add(1, 2, 3);
    size_t ldr_at = a.here();
    a.ldr(5, 10, 0, 8);
    size_t str_at = a.here();
    a.str(5, 10, 8, 8);
    size_t beq_at = a.here();
    a.beq(1, 1, "out"); // always taken
    a.add(6, 6, 6);     // never executed; its row stays zero (IntAlu)
    a.label("out");
    a.halt();
    isa::Program prog = a.finish();
    vm::PackedTrace trace = packProgram(prog);

    auto kindOf = [&](size_t i) {
        return static_cast<isa::OpKind>(
            (trace.staticRow(i).flags >> vm::PackedTrace::flagKindShift)
            & vm::PackedTrace::flagKindMask);
    };

    const vm::PackedStatic &add_row = trace.staticRow(add_at);
    EXPECT_EQ(kindOf(add_at), isa::OpKind::Alu);
    EXPECT_TRUE(add_row.flags & vm::PackedTrace::flagHasDst);
    EXPECT_FALSE(add_row.flags & vm::PackedTrace::flagMem);
    EXPECT_FALSE(add_row.flags & vm::PackedTrace::flagBranch);
    EXPECT_EQ(add_row.numSrcs, 2);

    const vm::PackedStatic &ldr_row = trace.staticRow(ldr_at);
    EXPECT_EQ(kindOf(ldr_at), isa::OpKind::Load);
    EXPECT_TRUE(ldr_row.flags & vm::PackedTrace::flagMem);
    EXPECT_TRUE(ldr_row.flags & vm::PackedTrace::flagHasDst);

    const vm::PackedStatic &str_row = trace.staticRow(str_at);
    EXPECT_EQ(kindOf(str_at), isa::OpKind::Store);
    EXPECT_TRUE(str_row.flags & vm::PackedTrace::flagMem);
    EXPECT_FALSE(str_row.flags & vm::PackedTrace::flagHasDst);

    const vm::PackedStatic &beq_row = trace.staticRow(beq_at);
    EXPECT_EQ(kindOf(beq_at), isa::OpKind::Branch);
    EXPECT_TRUE(beq_row.flags & vm::PackedTrace::flagBranch);
    EXPECT_FALSE(beq_row.flags & vm::PackedTrace::flagMem);

    for (size_t i = 0; i < prog.code.size(); ++i) {
        const vm::PackedStatic &row = trace.staticRow(i);
        EXPECT_EQ(kindOf(i),
                  isa::opKindOf(static_cast<isa::OpClass>(row.cls)))
            << "static row " << i;
    }
}

// ------------------------------------------------------- EvalCache v3

namespace
{

/** Fill a cache with deterministic synthetic content. */
void
fillSynthetic(engine::EvalCache &cache, size_t entries)
{
    for (size_t i = 0; i < entries; ++i) {
        // Scramble key order so the save path genuinely has to sort.
        uint64_t model = (i * 0x9e3779b97f4a7c15ull) ^ 0x5bd1e995ull;
        engine::EvalKey key{model, i % 7};
        cache.insert(key, engine::EvalValue{0.25 * i, 1.0 + 0.5 * i});
    }
}

/** A cache file header: magic (RVECACH<version>), digest, claimed
 *  record count. */
void
writeHeader(std::FILE *file, char version, uint64_t digest,
            uint64_t count)
{
    const char magic[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', version};
    ASSERT_EQ(std::fwrite(magic, 1, 8, file), 8u);
    ASSERT_EQ(std::fwrite(&digest, 8, 1, file), 1u);
    ASSERT_EQ(std::fwrite(&count, 8, 1, file), 1u);
}

/** Every whole record of a saved file, in file order. */
std::vector<engine::EvalFileRecord>
readRecords(const char *path)
{
    std::vector<engine::EvalFileRecord> records;
    std::FILE *file = std::fopen(path, "rb");
    EXPECT_NE(file, nullptr);
    if (!file)
        return records;
    EXPECT_EQ(std::fseek(file, 24, SEEK_SET), 0);
    engine::EvalFileRecord record;
    while (std::fread(&record, sizeof(record), 1, file) == 1)
        records.push_back(record);
    std::fclose(file);
    return records;
}

const char *testCachePath = "test_replay_cache.bin";

} // namespace

TEST(EvalCacheV3, SaveSortsRecordsAndLoadRoundTrips)
{
    engine::EvalCache original;
    fillSynthetic(original, 257);
    ASSERT_EQ(original.save(testCachePath, /*digest=*/7), 257u);

    // Records are sorted by (model, instance).
    std::vector<engine::EvalFileRecord> records =
        readRecords(testCachePath);
    ASSERT_EQ(records.size(), 257u);
    for (size_t i = 1; i < records.size(); ++i) {
        const engine::EvalFileRecord &a = records[i - 1];
        const engine::EvalFileRecord &b = records[i];
        EXPECT_TRUE(a.model < b.model
                    || (a.model == b.model && a.instance < b.instance))
            << "records out of order at " << i;
    }

    // Entry-for-entry: every original entry answers identically after
    // a load, and absent keys miss.
    engine::EvalCache loaded;
    bool compatible = false;
    ASSERT_EQ(loaded.load(testCachePath, 7, &compatible), 257u);
    EXPECT_TRUE(compatible);
    for (const auto &[key, value] : original.entries()) {
        engine::EvalValue out;
        ASSERT_TRUE(loaded.lookup(key, out));
        EXPECT_EQ(value.cost, out.cost);
        EXPECT_EQ(value.simCpi, out.simCpi);
    }
    engine::EvalValue out;
    EXPECT_FALSE(loaded.lookup(engine::EvalKey{1, 999}, out));

    std::remove(testCachePath);
}

TEST(EvalCacheV3, RefusesV2Files)
{
    // Hand-write a v2 header (old magic, digest 7, zero entries).
    std::FILE *file = std::fopen(testCachePath, "wb");
    ASSERT_NE(file, nullptr);
    writeHeader(file, '2', 7, 0);
    std::fclose(file);

    // The load refuses and flags incompatibility (so callers do not
    // overwrite someone else's file by accident).
    engine::EvalCache cache;
    bool compatible = true;
    EXPECT_EQ(cache.load(testCachePath, 7, &compatible), 0u);
    EXPECT_FALSE(compatible);
    EXPECT_EQ(cache.size(), 0u);

    std::remove(testCachePath);
}

TEST(EvalCacheV3, DigestMismatchLoadsNothing)
{
    engine::EvalCache original;
    fillSynthetic(original, 16);
    ASSERT_EQ(original.save(testCachePath, 7), 16u);

    engine::EvalCache cache;
    bool compatible = true;
    EXPECT_EQ(cache.load(testCachePath, 8, &compatible), 0u);
    EXPECT_FALSE(compatible);
    EXPECT_EQ(cache.size(), 0u);

    std::remove(testCachePath);
}

TEST(EvalCacheV3, FileCutMidRecordLoadsWholeRecordsBeforeCut)
{
    engine::EvalCache original;
    fillSynthetic(original, 16);
    ASSERT_EQ(original.save(testCachePath, 7), 16u);
    std::vector<engine::EvalFileRecord> records =
        readRecords(testCachePath);
    ASSERT_EQ(records.size(), 16u);

    // Header, five whole records, then a quarter of the sixth.
    ASSERT_EQ(truncate(testCachePath, 24 + 5 * 32 + 8), 0);
    engine::EvalCache cache;
    bool compatible = false;
    EXPECT_EQ(cache.load(testCachePath, 7, &compatible), 5u);
    EXPECT_TRUE(compatible);
    EXPECT_EQ(cache.size(), 5u);
    for (size_t i = 0; i < records.size(); ++i) {
        engine::EvalValue out;
        bool present = cache.lookup(
            engine::EvalKey{records[i].model, records[i].instance}, out);
        EXPECT_EQ(present, i < 5) << "record " << i;
        if (present) {
            EXPECT_EQ(out.cost, records[i].cost);
            EXPECT_EQ(out.simCpi, records[i].simCpi);
        }
    }

    std::remove(testCachePath);
}

TEST(EvalCacheV3, HugeClaimedCountLoadsOnlyRecordsPresent)
{
    // A header claiming 2^59 records followed by three: the load must
    // stop at end of file rather than trust (or allocate for) the
    // claim.
    std::FILE *file = std::fopen(testCachePath, "wb");
    ASSERT_NE(file, nullptr);
    writeHeader(file, '3', 7, uint64_t{1} << 59);
    for (uint64_t i = 0; i < 3; ++i) {
        engine::EvalFileRecord record{10 + i, i, 0.5 * i, 1.0 + i};
        ASSERT_EQ(std::fwrite(&record, sizeof(record), 1, file), 1u);
    }
    std::fclose(file);

    engine::EvalCache cache;
    EXPECT_EQ(cache.load(testCachePath, 7), 3u);
    EXPECT_EQ(cache.size(), 3u);
    engine::EvalValue out;
    ASSERT_TRUE(cache.lookup(engine::EvalKey{12, 2}, out));
    EXPECT_EQ(out.cost, 1.0);
    EXPECT_EQ(out.simCpi, 3.0);

    std::remove(testCachePath);
}

// ---------------------------------------------------- engine warm start

TEST(EngineWarmStart, ServesEvaluationsWithoutSimulating)
{
    const char *path = "test_replay_warm.bin";
    core::CoreParams model = core::publicInfoA53();
    isa::Program prog = smallProgram("MC");

    engine::EvalValue fresh_inorder, fresh_ooo;
    {
        engine::EvalEngine producer(ModelFamily::InOrder);
        size_t id = producer.addInstance(prog);
        fresh_inorder =
            producer.evaluateModel(ModelFamily::InOrder, model, id);
        fresh_ooo = producer.evaluateModel(ModelFamily::Ooo, model, id);
        ASSERT_EQ(producer.saveCache(path), 2u);
    }

    engine::EvalEngine consumer(ModelFamily::InOrder);
    size_t id = consumer.addInstance(prog);
    ASSERT_EQ(consumer.loadCache(path), 2u);
    EXPECT_FALSE(consumer.warmStartRefused());

    engine::EvalValue warm_inorder =
        consumer.evaluateModel(ModelFamily::InOrder, model, id);
    engine::EvalValue warm_ooo =
        consumer.evaluateModel(ModelFamily::Ooo, model, id);

    // Family-salted keys: each family gets its own value back (no
    // cross-family aliasing through the shared file) ...
    EXPECT_EQ(warm_inorder.cost, fresh_inorder.cost);
    EXPECT_EQ(warm_inorder.simCpi, fresh_inorder.simCpi);
    EXPECT_EQ(warm_ooo.cost, fresh_ooo.cost);
    EXPECT_EQ(warm_ooo.simCpi, fresh_ooo.simCpi);
    EXPECT_NE(warm_inorder.simCpi, warm_ooo.simCpi);

    // ... and no simulation ran in the consumer.
    engine::EngineStats stats = consumer.stats();
    EXPECT_EQ(stats.cache.hits, 2u);
    EXPECT_EQ(stats.evaluations, 0u);

    std::remove(path);
}

TEST(EngineWarmStart, MissingFileRacesCold)
{
    engine::EvalEngine engine(ModelFamily::InOrder);
    EXPECT_EQ(engine.loadCache("no_such_warm_file.bin"), 0u);
    EXPECT_FALSE(engine.warmStartRefused());

    // Evaluation still works (cold).
    size_t id = engine.addInstance(smallProgram("MC", 2000));
    engine::EvalValue value =
        engine.evaluateModel(core::publicInfoA53(), id);
    EXPECT_GT(value.simCpi, 0.0);
    EXPECT_EQ(engine.stats().evaluations, 1u);
}
