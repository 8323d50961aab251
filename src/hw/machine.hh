/**
 * @file
 * The "real hardware" stand-in (DESIGN.md section 2).
 *
 * The paper validates against a physical Firefly RK3399 board measured
 * with Linux perf. This reproduction replaces the board with detailed
 * cycle-by-cycle machine models whose configurations are *hidden* from
 * the tuner (hw::secretA53 / hw::secretA72) and which model effects the
 * abstract Sniper-like models do not (first-touch page cost, zero-page
 * reads of uninitialized memory, store-buffer port contention, timed
 * prefetch, measurement noise). That gives the validation flow both a
 * specification gap to close and an abstraction gap it cannot close --
 * the same two error sources the paper studies.
 */

#ifndef RACEVAL_HW_MACHINE_HH
#define RACEVAL_HW_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/params.hh"
#include "core/stats.hh"

namespace raceval::vm
{
class FunctionalCore;
} // namespace raceval::vm

namespace raceval::hw
{

/** Hardware-model parameters: a core config plus hw-only effects. */
struct HwParams
{
    core::CoreParams core;

    /**
     * Reads of OS pages that were never written read the shared zero
     * page and hit in the cache after first touch (the paper's
     * uninitialized-array anecdote, §IV-B).
     */
    bool zeroPageReads = true;
    /** First touch of any data page costs a page-walk penalty. */
    unsigned pageWalkPenalty = 24;
    /** Loads partially overlapping an in-flight store stall+replay. */
    unsigned partialForwardPenalty = 6;
    /** Relative stddev of multiplicative measurement noise. */
    double noiseStdDev = 0.012;
    /** Base seed for per-benchmark deterministic noise. */
    uint64_t noiseSeed = 0x5eedf00d;
};

/** What Linux perf reports for one region run (paper §V). */
struct PerfCounters
{
    std::string benchmark;
    uint64_t instructions = 0;
    uint64_t cycles = 0;      //!< noise applied
    uint64_t branchMisses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Misses = 0;

    /** @return measured cycles-per-instruction. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles)
            / static_cast<double>(instructions) : 0.0;
    }
};

/**
 * A machine that can be "measured": the common interface of the two
 * detailed models. measure() adds deterministic per-benchmark noise so
 * that repeated measurements of the same benchmark agree (one stable
 * ground truth, like a quiesced board), while different benchmarks see
 * independent perturbations.
 */
class HwMachine
{
  public:
    explicit HwMachine(const HwParams &params) : hparams(params) {}
    virtual ~HwMachine() = default;

    /** Run the trace on the detailed model, no noise. */
    virtual core::CoreStats rawRun(vm::FunctionalCore &source) = 0;

    /** Run and report noisy perf counters. */
    PerfCounters measure(vm::FunctionalCore &source);

    /** @return active parameters. */
    const HwParams &params() const { return hparams; }

  protected:
    HwParams hparams;
};

/**
 * Build the right detailed model for a config.
 *
 * @param params hardware parameters.
 * @param out_of_order false builds the in-order (A53-class) machine.
 */
std::unique_ptr<HwMachine> makeMachine(const HwParams &params,
                                       bool out_of_order);

/** The hidden ground-truth Cortex-A53 stand-in configuration. */
HwParams secretA53();

/** The hidden ground-truth Cortex-A72 stand-in configuration. */
HwParams secretA72();

/**
 * The hidden ground-truth Cortex-M-class stand-in: single-issue
 * in-order, short pipeline, no L2 (TCM-like flat memory), tiny BTB,
 * no MMU (no page walks, no zero-page trick).
 */
HwParams secretCortexM();

} // namespace raceval::hw

#endif // RACEVAL_HW_MACHINE_HH
