/**
 * @file
 * Detailed cycle-by-cycle in-order machine (the Cortex-A53 stand-in).
 *
 * Unlike the abstract core::InOrderCore cycle-accounting model, this
 * model advances one cycle at a time and arbitrates every shared
 * resource explicitly: the dual-issue slots, the single L1D port that
 * loads and store-buffer drains fight over, MSHRs that block issue
 * entirely when exhausted (head-of-line blocking, as a real in-order
 * pipe does), first-touch page walks, zero-page reads and
 * partial-store-overlap replays. These extra effects are the
 * *abstraction gap* the validation methodology cannot tune away.
 */

#ifndef RACEVAL_HW_DETAILED_INORDER_HH
#define RACEVAL_HW_DETAILED_INORDER_HH

#include "hw/machine.hh"

namespace raceval::hw
{

/** Cycle-by-cycle dual-issue in-order machine. */
class DetailedInOrder : public HwMachine
{
  public:
    explicit DetailedInOrder(const HwParams &params)
        : HwMachine(params)
    {
        hparams.core.validate();
    }

    core::CoreStats rawRun(vm::FunctionalCore &source) override;
};

} // namespace raceval::hw

#endif // RACEVAL_HW_DETAILED_INORDER_HH
