/** @file Packed-replay determinism tests: packed replay vs the live
 *  TraceSource convenience run for every timing family, mid-run
 *  copy/resume of the segment interface, the classify-once dispatch,
 *  and the v3 (sorted, mmap-able) EvalCache file format. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <unistd.h>

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
    return vm::PackedTrace::build(prog, live);
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

// The live convenience run(TraceSource&) packs its source and must
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

// Drive the segment API directly (beginRun / runSegment / copy /
// finishRun) at a deliberately awkward split, catching any state a
// family's copy constructor forgets to carry.
template <class Model>
static void
directSeamCheck(const core::CoreParams &params,
                const vm::PackedTrace &trace, const char *what)
{
    core::CoreStats want = Model(params).run(trace);

    Model first(params);
    first.beginRun();
    vm::PackedStream stream(trace);
    uint64_t split = trace.instCount() / 3 + 1;
    first.runSegment(stream, split);
    Model second(first); // the seam handoff
    second.runSegment(stream, ~uint64_t{0});
    expectBitIdentical(want, second.finishRun(), what);
}

TEST(PackedReplay, DirectSeamHandoffMatchesSerial)
{
    core::CoreParams params = core::publicInfoA53();
    isa::Program prog = smallProgram("CCh", 10007);
    vm::PackedTrace trace = packProgram(prog);
    directSeamCheck<core::InOrderCore>(params, trace, "inorder");
    directSeamCheck<core::OooCore>(params, trace, "ooo");
    directSeamCheck<core::IntervalCore>(params, trace, "interval");
}

// ---------------------------------------- classify-once dispatch identity

namespace
{

/**
 * Drive runSegmentGeneric (every instruction through the generic step
 * body, no kind-tag dispatch) and require exact agreement with the
 * tagged fast path, including across manual seam handoffs at awkward
 * splits.
 */
template <class Model>
void
fastVsGenericCheck(const core::CoreParams &params,
                   const vm::PackedTrace &trace, const std::string &what)
{
    core::CoreStats want = Model(params).run(trace);

    {
        Model m(params);
        m.beginRun();
        vm::PackedStream s(trace);
        m.runSegmentGeneric(s, ~uint64_t{0});
        expectBitIdentical(want, m.finishRun(),
                           what + " generic/packed");
    }
    {
        // Generic segments with mid-run copies must agree with the
        // fast single-pass entry point.
        Model a(params);
        a.beginRun();
        vm::PackedStream s(trace);
        uint64_t split = trace.instCount() / 3 + 1;
        a.runSegmentGeneric(s, split);
        Model b(a); // the seam handoff
        b.runSegmentGeneric(s, split);
        Model c(b);
        c.runSegmentGeneric(s, ~uint64_t{0});
        expectBitIdentical(want, c.finishRun(),
                           what + " generic copies vs fast");
    }
}

} // namespace

// Every family with a fast/generic split (in-order and interval; the
// OoO family runs one step body) x seam handoffs: the minimal
// plain-ALU fast path and the kind-tag dispatch must be pure
// optimizations, invisible in every counter. Workloads cover the
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

/** Deterministic synthetic cache content. */
engine::EvalCache
syntheticCache(size_t entries)
{
    engine::EvalCache cache(4);
    for (size_t i = 0; i < entries; ++i) {
        // Scramble key order so the save path genuinely has to sort.
        uint64_t model = (i * 0x9e3779b97f4a7c15ull) ^ 0x5bd1e995ull;
        engine::EvalKey key{model, i % 7};
        cache.insert(key, engine::EvalValue{0.25 * i, 1.0 + 0.5 * i});
    }
    return cache;
}

const char *testCachePath = "test_replay_cache.bin";

} // namespace

TEST(EvalCacheV3, MappedLoadEqualsHeapLoadEntryForEntry)
{
    engine::EvalCache original = syntheticCache(257);
    ASSERT_EQ(original.save(testCachePath, /*digest=*/7), 257u);

    engine::EvalCache heap(4);
    bool compatible = false;
    ASSERT_EQ(heap.load(testCachePath, 7, &compatible), 257u);
    EXPECT_TRUE(compatible);

    std::string error;
    auto mapped = engine::MappedEvalFile::open(testCachePath, 7, &error);
    ASSERT_NE(mapped, nullptr) << error;
    ASSERT_EQ(mapped->size(), 257u);

    // Records are sorted by (model, instance) -- the binary-search
    // precondition.
    for (size_t i = 1; i < mapped->size(); ++i) {
        const engine::EvalFileRecord &a = mapped->record(i - 1);
        const engine::EvalFileRecord &b = mapped->record(i);
        EXPECT_TRUE(a.model < b.model
                    || (a.model == b.model && a.instance < b.instance))
            << "records out of order at " << i;
    }

    // Entry-for-entry: every original entry answers identically from
    // the heap load and the mapping.
    for (const auto &[key, value] : original.entries()) {
        engine::EvalValue from_heap, from_map;
        ASSERT_TRUE(heap.lookup(key, from_heap));
        ASSERT_TRUE(mapped->lookup(key, from_map));
        EXPECT_EQ(value.cost, from_heap.cost);
        EXPECT_EQ(value.simCpi, from_heap.simCpi);
        EXPECT_EQ(value.cost, from_map.cost);
        EXPECT_EQ(value.simCpi, from_map.simCpi);
    }

    // Absent keys miss instead of aliasing into a neighbor.
    engine::EvalValue out;
    EXPECT_FALSE(mapped->lookup(engine::EvalKey{1, 999}, out));

    std::remove(testCachePath);
}

TEST(EvalCacheV3, RefusesV2FilesWithClearError)
{
    // Hand-write a v2 header (old magic, digest 7, zero entries).
    std::FILE *file = std::fopen(testCachePath, "wb");
    ASSERT_NE(file, nullptr);
    const char v2magic[8] = {'R', 'V', 'E', 'C', 'A', 'C', 'H', '2'};
    uint64_t digest = 7, count = 0;
    ASSERT_EQ(std::fwrite(v2magic, 1, 8, file), 8u);
    ASSERT_EQ(std::fwrite(&digest, 8, 1, file), 1u);
    ASSERT_EQ(std::fwrite(&count, 8, 1, file), 1u);
    std::fclose(file);

    // Heap load refuses and flags incompatibility (so callers do not
    // overwrite someone else's file by accident).
    engine::EvalCache cache;
    bool compatible = true;
    EXPECT_EQ(cache.load(testCachePath, 7, &compatible), 0u);
    EXPECT_FALSE(compatible);
    EXPECT_EQ(cache.size(), 0u);

    // The mapper refuses with an error that names the v2 format.
    std::string error;
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 7, &error),
              nullptr);
    EXPECT_NE(error.find("v2"), std::string::npos) << error;

    std::remove(testCachePath);
}

TEST(EvalCacheV3, MapperRejectsDigestMismatchAndTruncation)
{
    engine::EvalCache original = syntheticCache(16);
    ASSERT_EQ(original.save(testCachePath, 7), 16u);

    std::string error;
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 8, &error),
              nullptr);
    EXPECT_NE(error.find("digest"), std::string::npos) << error;

    // Truncate mid-records: refused rather than read out of bounds.
    std::FILE *file = std::fopen(testCachePath, "rb+");
    ASSERT_NE(file, nullptr);
    std::fclose(file);
    ASSERT_EQ(truncate(testCachePath, 24 + 5 * 32 + 8), 0);
    EXPECT_EQ(engine::MappedEvalFile::open(testCachePath, 7, &error),
              nullptr);
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    std::remove(testCachePath);
}

TEST(EvalCacheV3, ConcurrentReadersSeeIdenticalHits)
{
    engine::EvalCache original = syntheticCache(512);
    ASSERT_EQ(original.save(testCachePath, 3), 512u);
    auto mapped = engine::MappedEvalFile::open(testCachePath, 3);
    ASSERT_NE(mapped, nullptr);
    auto expected = original.entries();

    // Two readers share one mapping (lock-free lookups) and a third
    // opens its own; all must agree on every entry.
    auto readAll = [&](const engine::MappedEvalFile &file,
                       size_t &hits) {
        for (const auto &[key, value] : expected) {
            engine::EvalValue out;
            if (file.lookup(key, out) && out.cost == value.cost
                && out.simCpi == value.simCpi)
                ++hits;
        }
    };
    size_t hits_a = 0, hits_b = 0, hits_c = 0;
    auto own = engine::MappedEvalFile::open(testCachePath, 3);
    ASSERT_NE(own, nullptr);
    std::thread a([&] { readAll(*mapped, hits_a); });
    std::thread b([&] { readAll(*mapped, hits_b); });
    std::thread c([&] { readAll(*own, hits_c); });
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(hits_a, expected.size());
    EXPECT_EQ(hits_b, expected.size());
    EXPECT_EQ(hits_c, expected.size());

    std::remove(testCachePath);
}

// ------------------------------------------------- engine warm mapping

TEST(EngineWarmFile, ServesEvaluationsWithoutSimulating)
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
    ASSERT_EQ(consumer.mapWarmFile(path), 2u);
    ASSERT_NE(consumer.warmFile(), nullptr);

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
    EXPECT_EQ(stats.warmFileHits, 2u);
    EXPECT_EQ(stats.evaluations, 0u);

    std::remove(path);
}

TEST(EngineWarmFile, MissingFileWarnsAndRacesCold)
{
    engine::EvalEngine engine(ModelFamily::InOrder);
    EXPECT_EQ(engine.mapWarmFile("no_such_warm_file.bin"), 0u);
    EXPECT_EQ(engine.warmFile(), nullptr);

    // Evaluation still works (cold).
    size_t id = engine.addInstance(smallProgram("MC", 2000));
    engine::EvalValue value =
        engine.evaluateModel(core::publicInfoA53(), id);
    EXPECT_GT(value.simCpi, 0.0);
    EXPECT_EQ(engine.stats().evaluations, 1u);
}
