/** @file
 * Cross-cutting property tests: instruction-mix characteristics of
 * the workload stand-ins, disassembler golden strings and cache
 * geometry sweeps.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "cache/cache.hh"
#include "isa/assembler.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"
#include "workload/workload.hh"

using namespace raceval;

namespace
{

/** Fraction of dynamic instructions per timing class. */
std::array<double, isa::numOpClasses>
classMix(const isa::Program &prog)
{
    std::array<uint64_t, isa::numOpClasses> counts{};
    vm::FunctionalCore core(prog);
    vm::DynInst dyn;
    uint64_t total = 0;
    while (core.next(dyn)) {
        ++counts[static_cast<size_t>(dyn.inst.cls)];
        ++total;
    }
    std::array<double, isa::numOpClasses> mix{};
    for (size_t i = 0; i < mix.size(); ++i)
        mix[i] = static_cast<double>(counts[i])
            / static_cast<double>(total);
    return mix;
}

double
fpFraction(const std::array<double, isa::numOpClasses> &mix)
{
    double fp = 0.0;
    for (size_t i = 0; i < mix.size(); ++i) {
        if (isa::isFpClass(static_cast<isa::OpClass>(i)))
            fp += mix[i];
    }
    return fp;
}

double
classFrac(const std::array<double, isa::numOpClasses> &mix,
          isa::OpClass cls)
{
    return mix[static_cast<size_t>(cls)];
}

} // namespace

TEST(WorkloadMix, FpBenchesAreFpHeavy)
{
    auto povray = classMix(workload::build(*workload::find("povray")));
    auto deepsjeng =
        classMix(workload::build(*workload::find("deepsjeng")));
    EXPECT_GT(fpFraction(povray), 0.3);
    EXPECT_LT(fpFraction(deepsjeng), 0.02);
}

TEST(WorkloadMix, X264UsesSimd)
{
    auto x264 = classMix(workload::build(*workload::find("x264")));
    double simd = classFrac(x264, isa::OpClass::SimdAdd)
        + classFrac(x264, isa::OpClass::SimdMul);
    EXPECT_GT(simd, 0.15);
}

TEST(WorkloadMix, XalancbmkIsIndirectBranchHeavy)
{
    auto xal = classMix(workload::build(*workload::find("xalancbmk")));
    EXPECT_GT(classFrac(xal, isa::OpClass::BranchIndirect), 0.02);
    auto mcf = classMix(workload::build(*workload::find("mcf")));
    EXPECT_LT(classFrac(mcf, isa::OpClass::BranchIndirect), 0.001);
}

TEST(WorkloadMix, EveryWorkloadTouchesMemory)
{
    for (const auto &info : workload::all()) {
        auto mix = classMix(workload::build(info));
        EXPECT_GT(classFrac(mix, isa::OpClass::Load), 0.01)
            << info.name;
    }
}

TEST(UbenchMix, CategoriesMatchContent)
{
    // Store-intensive benches are dominated by stores; control
    // benches by branches; data-parallel by FP/SIMD.
    auto stc = classMix(ubench::build(*ubench::find("STc")));
    EXPECT_GT(classFrac(stc, isa::OpClass::Store), 0.5);
    auto cch = classMix(ubench::build(*ubench::find("CCh")));
    EXPECT_GT(classFrac(cch, isa::OpClass::BranchCond), 0.15);
    auto dp = classMix(ubench::build(*ubench::find("DP1d")));
    EXPECT_GT(fpFraction(dp), 0.15);
    auto ed1 = classMix(ubench::build(*ubench::find("ED1")));
    EXPECT_GT(classFrac(ed1, isa::OpClass::FpAdd), 0.7);
}

TEST(Disassembler, GoldenStrings)
{
    EXPECT_EQ(isa::disassemble(isa::encodeR(isa::Opcode::Add, 1, 2, 3)),
              "add x1, x2, x3");
    EXPECT_EQ(isa::disassemble(
                  isa::encodeI(isa::Opcode::Addi, 4, 5, -7)),
              "addi x4, x5, #-7");
    EXPECT_EQ(isa::disassemble(isa::encodeR(isa::Opcode::Fadd, 1, 2, 3)),
              "fadd d1, d2, d3");
    EXPECT_EQ(isa::disassemble(isa::encodeNone(isa::Opcode::Halt)),
              "halt");
    EXPECT_EQ(isa::disassemble(0xffffffffu).substr(0, 5), ".word");
}

// Associativity sweep: higher associativity can only reduce conflict
// misses on a same-set stream.
class AssocSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AssocSweep, ConflictMissesShrinkWithWays)
{
    cache::CacheParams p;
    p.name = "sweep";
    p.sizeBytes = 8 * KiB;
    p.assoc = GetParam();
    p.lineBytes = 64;
    p.latency = 1;
    cache::Cache cache(p);
    unsigned sets = p.numSets();
    // 8 lines in one set, round-robin, twice.
    for (int round = 0; round < 2; ++round) {
        for (uint64_t k = 0; k < 8; ++k) {
            if (!cache.lookup(k * sets, false).hit)
                cache.fill(k * sets, false, false);
        }
    }
    if (p.assoc >= 8) {
        // Second round must be all hits.
        EXPECT_EQ(cache.stats().misses, 8u);
    } else {
        EXPECT_GT(cache.stats().misses, 8u);
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, AssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(Program, DataSegmentsLoadIntoMemory)
{
    isa::Assembler a("data");
    a.loadImm(1, 0x5000);
    a.ldr(2, 1, 0, 8);
    a.halt();
    isa::Program prog = a.finish();
    prog.addData(0x5000, {0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0});
    vm::FunctionalCore core(prog);
    core.run();
    EXPECT_EQ(core.regs().x[2], 0xdeadbeefu);
}
