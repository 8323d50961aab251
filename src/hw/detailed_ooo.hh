/**
 * @file
 * Detailed cycle-by-cycle out-of-order machine (the Cortex-A72
 * stand-in): explicit ROB, issue-queue wakeup/select each cycle,
 * per-port issue, post-retire store drain through a shared L1D port,
 * MSHR-limited memory-level parallelism, page walks, zero-page reads
 * and partial-forward replays -- the detail the abstract core::OooCore
 * abstracts away.
 */

#ifndef RACEVAL_HW_DETAILED_OOO_HH
#define RACEVAL_HW_DETAILED_OOO_HH

#include "hw/machine.hh"

namespace raceval::hw
{

/** Cycle-by-cycle out-of-order machine. */
class DetailedOoO : public HwMachine
{
  public:
    explicit DetailedOoO(const HwParams &params)
        : HwMachine(params)
    {
        hparams.core.validate();
    }

    core::CoreStats rawRun(vm::FunctionalCore &source) override;
};

} // namespace raceval::hw

#endif // RACEVAL_HW_DETAILED_OOO_HH
