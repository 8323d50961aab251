/**
 * @file
 * Simulator throughput (paper SS II-B): Sniper's value proposition is
 * near-cycle-accurate results at much higher simulation speed. This
 * google-benchmark binary measures simulated MIPS of the abstract
 * models against the detailed cycle-by-cycle machines on the same
 * trace, plus the engine's trace-replay front-end against live
 * functional execution. Shape checks: abstract >= ~5x faster than
 * detailed, replay faster than re-execution.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "core/inorder.hh"
#include "core/ooo.hh"
#include "engine/trace_bank.hh"
#include "hw/machine.hh"
#include "ubench/ubench.hh"
#include "vm/functional.hh"

using namespace raceval;

namespace
{

double liveInOrderMips = 0.0;
double replayInOrderMips = 0.0;

const isa::Program &
trace()
{
    static isa::Program prog = ubench::build(*ubench::find("CCh"));
    return prog;
}

engine::TraceBank &
bank()
{
    static engine::TraceBank instance;
    return instance;
}

double
mips(uint64_t insts, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(insts) / 1e6 / seconds
                         : 0.0;
}

void
BM_FunctionalOnly(benchmark::State &state)
{
    vm::FunctionalCore core(trace());
    uint64_t insts = 0;
    for (auto _ : state) {
        core.reset();
        insts += core.run();
    }
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_AbstractInOrder(benchmark::State &state)
{
    core::InOrderCore sim(core::publicInfoA53());
    vm::FunctionalCore source(trace());
    uint64_t insts = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state)
        insts += sim.run(source).instructions;
    liveInOrderMips = mips(insts, std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count());
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_AbstractInOrderReplay(benchmark::State &state)
{
    // The engine's hot path: the same timing model fed by a recorded
    // packed trace instead of live functional execution.
    core::InOrderCore sim(core::publicInfoA53());
    size_t id = bank().add(trace());
    uint64_t insts = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state)
        insts += sim.run(*bank().packed(id)).instructions;
    replayInOrderMips = mips(insts, std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count());
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_AbstractOoO(benchmark::State &state)
{
    core::OooCore sim(core::publicInfoA72());
    vm::FunctionalCore source(trace());
    uint64_t insts = 0;
    for (auto _ : state)
        insts += sim.run(source).instructions;
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_DetailedInOrder(benchmark::State &state)
{
    auto machine = hw::makeMachine(hw::secretA53(), false);
    vm::FunctionalCore source(trace());
    uint64_t insts = 0;
    for (auto _ : state)
        insts += machine->rawRun(source).instructions;
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

void
BM_DetailedOoO(benchmark::State &state)
{
    auto machine = hw::makeMachine(hw::secretA72(), true);
    vm::FunctionalCore source(trace());
    uint64_t insts = 0;
    for (auto _ : state)
        insts += machine->rawRun(source).instructions;
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts) / 1e6, benchmark::Counter::kIsRate);
}

BENCHMARK(BM_FunctionalOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AbstractInOrder)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AbstractInOrderReplay)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AbstractOoO)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DetailedInOrder)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DetailedOoO)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::parseGbenchArgs(argc, argv,
                           "Simulated MIPS: functional, abstract "
                           "(live and trace replay), and detailed "
                           "models on one trace.");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (liveInOrderMips > 0.0 && replayInOrderMips > 0.0) {
        std::printf("\nin-order timing model: %.1f MIPS live vs %.1f "
                    "MIPS trace replay (%.2fx)\n", liveInOrderMips,
                    replayInOrderMips,
                    replayInOrderMips / liveInOrderMips);
        bench::jsonMetric("inorder_live_mips", liveInOrderMips);
        bench::jsonMetric("inorder_replay_mips", replayInOrderMips);
    }
    bench::writeJson();
    return 0;
}
