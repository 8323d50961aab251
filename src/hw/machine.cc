#include "hw/machine.hh"

#include "common/rng.hh"
#include "hw/detailed_inorder.hh"
#include "hw/detailed_ooo.hh"
#include "vm/functional.hh"

namespace raceval::hw
{

namespace
{

/** FNV-1a over the benchmark name, for per-benchmark noise streams. */
uint64_t
hashName(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

PerfCounters
HwMachine::measure(vm::FunctionalCore &source)
{
    core::CoreStats stats = rawRun(source);

    PerfCounters perf;
    perf.benchmark = source.name();
    perf.instructions = stats.instructions;
    perf.branchMisses = stats.branch.mispredicts;
    perf.l1dMisses = stats.l1dMisses;
    perf.l2Misses = stats.l2Misses;

    // Deterministic per-benchmark multiplicative noise: the same
    // benchmark always measures the same (one stable board), different
    // benchmarks perturb independently.
    Rng rng(hparams.noiseSeed ^ hashName(source.name()));
    double factor = 1.0 + hparams.noiseStdDev * rng.nextGaussian();
    if (factor < 0.5)
        factor = 0.5;
    perf.cycles = static_cast<uint64_t>(
        static_cast<double>(stats.cycles) * factor + 0.5);
    return perf;
}

std::unique_ptr<HwMachine>
makeMachine(const HwParams &params, bool out_of_order)
{
    if (out_of_order)
        return std::make_unique<DetailedOoO>(params);
    return std::make_unique<DetailedInOrder>(params);
}

} // namespace raceval::hw
