/**
 * @file
 * AArch64-lite instruction set: opcodes, timing classes and register
 * conventions.
 *
 * This is the reproduction's stand-in for the ARM AArch64 ISA (see
 * DESIGN.md section 2): a fixed-width 32-bit RISC encoding that is rich
 * enough to express every behaviour the paper's micro-benchmarks and
 * workloads stress (dependency chains, int/FP/SIMD mixes, branch
 * patterns including indirect branches and returns, and byte- to
 * dword-sized memory accesses), while staying small enough to decode
 * and functionally execute from scratch.
 */

#ifndef RACEVAL_ISA_OPCODES_HH
#define RACEVAL_ISA_OPCODES_HH

#include <cstdint>
#include <string>

namespace raceval::isa
{

/**
 * Architectural opcodes. The numeric value is the 6-bit field in bits
 * [31:26] of the instruction word.
 */
enum class Opcode : uint8_t
{
    // Integer register-register ALU.
    Add, Sub, And, Orr, Eor, Lsl, Lsr, Asr,
    // Integer multiply / divide.
    Mul, Madd, Udiv, Sdiv,
    // Integer immediate ALU.
    Addi, Subi, Andi, Orri, Eori, Lsli, Lsri, Asri,
    // Wide immediate construction.
    Movz, Movk,
    // Memory. Ldr/Str use base+imm14 addressing; Ldx/Stx use base+reg.
    // Ldrf/Strf move floating-point registers.
    Ldr, Str, Ldx, Stx, Ldrf, Strf,
    // Control flow.
    B, Bl, Ret, Br, Cbz, Cbnz, Beq, Bne, Blt, Bge,
    // Scalar floating point.
    Fadd, Fsub, Fmul, Fdiv, Fsqrt, Fmadd, Fcvt, Fmov, Fclt,
    // SIMD (operates on the FP register file with vector semantics).
    Vadd, Vmul, Vfma,
    // Misc.
    Nop, Halt,

    NumOpcodes
};

/** Number of defined opcodes. */
constexpr size_t numOpcodes = static_cast<size_t>(Opcode::NumOpcodes);

/**
 * Timing classes consumed by the contention/latency models. Each opcode
 * maps to exactly one class; the timing models never look at opcodes.
 */
enum class OpClass : uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    FpSqrt,
    FpCvt,
    FpMov,
    SimdAdd,
    SimdMul,
    Load,
    Store,
    BranchCond,
    BranchUncond,
    BranchIndirect,
    BranchCall,
    BranchRet,
    Nop,
    Halt,

    NumClasses
};

/** Number of timing classes. */
constexpr size_t numOpClasses = static_cast<size_t>(OpClass::NumClasses);

/**
 * Coarse replay-dispatch kind: which step() machinery an instruction
 * needs. Precomputed per static word into the packed trace rows
 * (vm::PackedStatic) so the timing models branch once on a 2-bit tag
 * instead of re-deriving OpClass comparisons, isBranch() and memory
 * checks per dynamic instruction. Alu covers everything that is
 * neither memory nor control flow -- all int/FP/SIMD compute classes
 * plus Nop/Halt -- which is the dominant case in every workload.
 */
enum class OpKind : uint8_t
{
    Alu = 0,
    Load = 1,
    Store = 2,
    Branch = 3,
};

/** Number of dispatch kinds (the tag is 2 bits by construction). */
constexpr size_t numOpKinds = 4;

/**
 * @return the dispatch kind of a timing class.
 *
 * Evaluated once per static word when a trace is packed; replay reads
 * the precomputed tag from the packed row. Must stay consistent with the decoder's isLoad / isStore /
 * isBranch flags: the decoder derives those from the same class
 * mapping (isLoad iff cls == Load, etc.), and the static-row tag
 * golden test in tests/test_replay.cc locks the agreement in.
 */
constexpr OpKind
opKindOf(OpClass cls)
{
    switch (cls) {
      case OpClass::Load:
        return OpKind::Load;
      case OpClass::Store:
        return OpKind::Store;
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::BranchIndirect:
      case OpClass::BranchCall:
      case OpClass::BranchRet:
        return OpKind::Branch;
      default:
        return OpKind::Alu;
    }
}

/** Encoding formats (determines field layout of the low 26 bits). */
enum class Format : uint8_t
{
    R,      //!< rd, rn, rm, ra      (register ALU, FMADD)
    I,      //!< rd, rn, imm16      (immediate ALU)
    Wide,   //!< rd, hw, imm16      (MOVZ / MOVK)
    MemImm, //!< rt, rn, size, imm14 (LDR / STR / LDRF / STRF)
    MemReg, //!< rt, rn, rm, size   (LDX / STX)
    B26,    //!< imm26              (B / BL)
    CB,     //!< ra, rb, imm16      (compare-and-branch)
    RJump,  //!< rn                 (BR / RET)
    None    //!< no operands        (NOP / HALT)
};

/**
 * Register-file conventions. Dependency tracking uses a unified flat
 * register id space: integer registers are ids [0, 32), floating-point
 * registers are ids [32, 64).
 */
constexpr uint8_t numIntRegs = 32;
constexpr uint8_t numFpRegs = 32;
constexpr uint8_t fpRegBase = numIntRegs;
/** x31 always reads zero and discards writes (like AArch64 xzr). */
constexpr uint8_t regZero = 31;
/** x30 is the link register written by BL and read by RET. */
constexpr uint8_t regLink = 30;
/** Flat id meaning "no register". */
constexpr uint8_t noReg = 0xff;

/** @return the timing class of an opcode. */
OpClass opClassOf(Opcode op);

/** @return the encoding format of an opcode. */
Format formatOf(Opcode op);

/** @return lower-case mnemonic, e.g. "madd". */
const char *opcodeName(Opcode op);

/** @return timing-class name, e.g. "IntMul". */
const char *opClassName(OpClass cls);

/** @return dispatch-kind name, e.g. "load". */
const char *opKindName(OpKind kind);

/** @return true for any of the five branch classes. */
bool isBranchClass(OpClass cls);

/** @return true when the class executes on the FP/SIMD pipes. */
bool isFpClass(OpClass cls);

/** Pretty name for a flat register id ("x7", "d3", "xzr"). */
std::string regName(uint8_t flat_reg);

} // namespace raceval::isa

#endif // RACEVAL_ISA_OPCODES_HH
