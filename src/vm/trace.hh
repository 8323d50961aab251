/**
 * @file
 * One dynamic instruction as the functional core emits it: the unit
 * vm::PackedTrace::build packs and the detailed hardware models step.
 */

#ifndef RACEVAL_VM_TRACE_HH
#define RACEVAL_VM_TRACE_HH

#include <cstdint>

#include "isa/decoder.hh"

namespace raceval::vm
{

/**
 * One dynamically executed instruction: static decode plus the dynamic
 * facts (effective address, branch outcome) the timing models need.
 */
struct DynInst
{
    uint64_t pc = 0;
    isa::DecodedInst inst;
    /** Effective address for loads/stores (undefined otherwise). */
    uint64_t memAddr = 0;
    /** Address of the next executed instruction. */
    uint64_t nextPc = 0;
    /** For branches: true when redirected away from pc + 4. */
    bool taken = false;
};

} // namespace raceval::vm

#endif // RACEVAL_VM_TRACE_HH
