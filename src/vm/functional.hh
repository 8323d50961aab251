/**
 * @file
 * Functional (timing-free) execution of AArch64-lite programs.
 *
 * Plays the role of the DynamoRIO-based front-end in Sniper-ARM: it
 * runs the program and feeds the timing models a dynamic instruction
 * stream. Semantics always use a correct decode; the DecoderOptions
 * fault-injection only corrupts the *exposed* decode embedded in the
 * stream, exactly like a buggy Capstone corrupts Sniper's dependency
 * information while the real hardware still executes correctly.
 */

#ifndef RACEVAL_VM_FUNCTIONAL_HH
#define RACEVAL_VM_FUNCTIONAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "vm/mem.hh"
#include "vm/trace.hh"

namespace raceval::vm
{

/** Architectural register state. */
struct RegFile
{
    uint64_t x[isa::numIntRegs] = {};
    double d[isa::numFpRegs] = {};

    /** Read an integer register (x31 reads zero). */
    uint64_t
    readX(uint8_t reg) const
    {
        return reg == isa::regZero ? 0 : x[reg];
    }

    /** Write an integer register (writes to x31 are discarded). */
    void
    writeX(uint8_t reg, uint64_t value)
    {
        if (reg != isa::regZero)
            x[reg] = value;
    }
};

/**
 * Functional core: executes a Program and emits its dynamic
 * instruction stream, the one stream every timing model consumes
 * (packed into a vm::PackedTrace, or stepped live by the detailed
 * hardware models).
 *
 * The program image is borrowed; it must outlive the core. reset()
 * restores registers and memory to the initial image so a single core
 * can regenerate the identical stream any number of times.
 */
class FunctionalCore
{
  public:
    /**
     * @param program the image to execute (borrowed).
     * @param exposed_decoder_options fault injection for the decode
     *        embedded in the emitted stream (not for semantics).
     * @param max_insts safety valve against non-terminating programs.
     */
    explicit FunctionalCore(const isa::Program &program,
                            isa::DecoderOptions exposed_decoder_options = {},
                            uint64_t max_insts = 1ull << 32);

    /**
     * Execute and emit the next instruction.
     *
     * @param[out] out next dynamic instruction.
     * @return false once the program has halted or hit max_insts.
     */
    bool next(DynInst &out);

    /** Rewind to the initial image. */
    void reset();

    /** @return the program's (benchmark's) name. */
    const std::string &name() const { return prog.name; }

    /** @return the program being executed. */
    const isa::Program &program() const { return prog; }

    /** @return dynamic instructions emitted since the last reset. */
    uint64_t instsExecuted() const { return instCount; }

    /** @return architectural registers (for tests). */
    const RegFile &regs() const { return regFile; }

    /** @return simulated memory (for tests and result checking). */
    SparseMemory &memory() { return mem; }

    /**
     * Convenience: run to completion, discarding the stream.
     *
     * @return the dynamic instruction count.
     */
    uint64_t run();

  private:
    const isa::Program &prog;
    /** Semantic decode (always correct). */
    std::vector<isa::DecodedInst> semantic;
    /** Exposed decode (possibly fault-injected), embedded in DynInsts. */
    std::vector<isa::DecodedInst> exposed;

    RegFile regFile;
    SparseMemory mem;
    uint64_t pc;
    uint64_t instCount;
    uint64_t maxInsts;
    bool halted;

    void loadImage();
};

} // namespace raceval::vm

#endif // RACEVAL_VM_FUNCTIONAL_HH
