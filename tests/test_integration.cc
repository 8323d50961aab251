/** @file Cross-module integration tests. */

#include <gtest/gtest.h>

#include "core/inorder.hh"
#include "isa/assembler.hh"
#include "core/ooo.hh"
#include "hw/machine.hh"
#include "ubench/ubench.hh"
#include "validate/flow.hh"
#include "vm/functional.hh"
#include "workload/workload.hh"

using namespace raceval;

TEST(Integration, DecoderBugChangesTimingNotExecution)
{
    // The Capstone-bug scenario from SS IV-B: a decoder that drops the
    // MADD accumulator dependency corrupts the *timing model's* view
    // while the dynamic stream stays architecturally identical.
    isa::Assembler a("maddchain");
    a.loadImm(19, 3000);
    a.movz(1, 3);
    a.label("loop");
    for (int i = 0; i < 6; ++i)
        a.madd(0, 1, 1, 0); // accumulator chain
    a.subi(19, 19, 1);
    a.cbnz(19, "loop");
    a.halt();
    isa::Program prog = a.finish();

    isa::DecoderOptions buggy;
    buggy.dropAccumulatorDep = true;
    vm::FunctionalCore clean_src(prog);
    vm::FunctionalCore buggy_src(prog, buggy);
    EXPECT_EQ(clean_src.run(), buggy_src.run()); // same execution
    clean_src.reset();
    buggy_src.reset();

    core::InOrderCore sim(core::publicInfoA53());
    double clean_cpi = sim.run(clean_src).cpi();
    double buggy_cpi = sim.run(buggy_src).cpi();
    // Dropping the dependency makes the chain look parallel: the model
    // underestimates CPI, which is exactly the bug class the paper's
    // validation caught.
    EXPECT_LT(buggy_cpi, 0.7 * clean_cpi);
}

TEST(Integration, UntunedModelsShowLargeError)
{
    // Fig. 4's premise in miniature: public-information models are
    // far off on targeted micro-benchmarks.
    auto board = hw::makeMachine(hw::secretA53(), false);
    core::InOrderCore sim(core::publicInfoA53());
    double worst = 0.0;
    for (const char *name : {"MC", "MIP", "CCe"}) {
        isa::Program prog = ubench::find(name)->builder(30000, true);
        vm::FunctionalCore src(prog);
        double hw_cpi = board->measure(src).cpi();
        double sim_cpi = sim.run(src).cpi();
        worst = std::max(worst, std::abs(sim_cpi - hw_cpi) / hw_cpi);
    }
    EXPECT_GT(worst, 0.5);
}

TEST(Integration, SecretConfigInAbstractModelTracksHardware)
{
    // Upper bound on tunability: running the abstract model *with the
    // secret parameters* must track the board closely on most
    // benches; what remains is the abstraction gap.
    auto board = hw::makeMachine(hw::secretA53(), false);
    core::CoreParams secret = hw::secretA53().core;
    secret.mem.timedPrefetch = true;
    core::InOrderCore sim(secret);
    std::vector<double> errors;
    for (const char *name : {"EI", "ED1", "CCl", "DP1d", "CCh"}) {
        isa::Program prog = ubench::find(name)->builder(30000, true);
        vm::FunctionalCore src(prog);
        double hw_cpi = board->measure(src).cpi();
        double sim_cpi = sim.run(src).cpi();
        errors.push_back(std::abs(sim_cpi - hw_cpi) / hw_cpi);
    }
    for (double err : errors)
        EXPECT_LT(err, 0.25);
}

TEST(Integration, WorkloadsRunOnAllFourModels)
{
    isa::Program prog = workload::build(*workload::find("xalancbmk"));
    vm::FunctionalCore src(prog);

    core::InOrderCore in_order(core::publicInfoA53());
    EXPECT_GT(in_order.run(src).cycles, 0u);
    core::OooCore ooo(core::publicInfoA72());
    EXPECT_GT(ooo.run(src).cycles, 0u);
    auto little = hw::makeMachine(hw::secretA53(), false);
    EXPECT_GT(little->rawRun(src).cycles, 0u);
    auto big = hw::makeMachine(hw::secretA72(), true);
    EXPECT_GT(big->rawRun(src).cycles, 0u);
}

TEST(Integration, OooBoardFasterThanInOrderBoardOnSpec)
{
    // The 'big' A72 stand-in must beat the 'little' A53 stand-in on
    // compute-heavy SPEC workloads (sanity of the two machines).
    isa::Program prog = workload::build(*workload::find("deepsjeng"));
    vm::FunctionalCore s1(prog), s2(prog);
    auto little = hw::makeMachine(hw::secretA53(), false);
    auto big = hw::makeMachine(hw::secretA72(), true);
    EXPECT_LT(big->rawRun(s2).cpi(), little->rawRun(s1).cpi());
}
