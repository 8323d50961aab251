#include "vm/packed_trace.hh"

#include "common/log.hh"
#include "vm/functional.hh"

namespace raceval::vm
{

namespace
{

/** @return true when @p delta is representable in a narrow slot
 *  (wideSentinel itself is reserved). */
bool
fitsNarrow(int64_t delta)
{
    return delta > std::numeric_limits<int32_t>::min()
        && delta <= std::numeric_limits<int32_t>::max();
}

} // namespace

PackedTrace
PackedTrace::build(FunctionalCore &core)
{
    const isa::Program &prog = core.program();
    PackedTrace out;
    out.prog = prog;
    out.statics.resize(prog.code.size());
    std::vector<uint8_t> seen(prog.code.size(), 0);

    core.reset();
    DynInst dyn;
    uint64_t prev_mem = 0;
    uint64_t branches = 0;
    while (core.next(dyn)) {
        ++out.count;
        const isa::DecodedInst &inst = dyn.inst;
        size_t index = static_cast<size_t>((dyn.pc - prog.codeBase) / 4);
        RV_ASSERT(index < prog.code.size(),
                  "packed trace: pc 0x%llx outside '%s'",
                  static_cast<unsigned long long>(dyn.pc),
                  prog.name.c_str());
        // Every dynamic instance of a word carries the same decode, so
        // its row is written on first execution only.
        if (!seen[index]) {
            seen[index] = 1;
            PackedStatic &row = out.statics[index];
            row.cls = static_cast<uint8_t>(inst.cls);
            row.dst = inst.dst;
            row.numSrcs = inst.numSrcs;
            for (unsigned s = 0; s < 3; ++s)
                row.src[s] = inst.src[s];
            row.memSize = inst.memSize;
            row.flags = (inst.hasDst() ? flagHasDst : 0)
                | (inst.isBranch ? flagBranch : 0)
                | (inst.isLoad || inst.isStore ? flagMem : 0)
                | static_cast<uint8_t>(
                      static_cast<uint8_t>(isa::opKindOf(inst.cls))
                      << flagKindShift);
        }
        if (inst.isLoad || inst.isStore) {
            int64_t delta = static_cast<int64_t>(dyn.memAddr)
                - static_cast<int64_t>(prev_mem);
            if (fitsNarrow(delta)) {
                out.memDelta.push_back(static_cast<int32_t>(delta));
            } else {
                out.memDelta.push_back(wideSentinel);
                out.memWide.push_back(dyn.memAddr);
            }
            prev_mem = dyn.memAddr;
        } else if (inst.isBranch) {
            if ((branches & 63) == 0)
                out.takenBits.push_back(0);
            if (dyn.taken) {
                out.takenBits.back() |= uint64_t{1} << (branches & 63);
                int64_t delta = (static_cast<int64_t>(dyn.nextPc)
                                 - static_cast<int64_t>(dyn.pc))
                    / 4;
                if (fitsNarrow(delta)) {
                    out.targetDelta.push_back(
                        static_cast<int32_t>(delta));
                } else {
                    out.targetDelta.push_back(wideSentinel);
                    out.targetWide.push_back(dyn.nextPc);
                }
            }
            ++branches;
        }
    }
    return out;
}

size_t
PackedTrace::packedBytes() const
{
    return statics.size() * sizeof(PackedStatic)
        + memDelta.size() * sizeof(int32_t)
        + memWide.size() * sizeof(uint64_t)
        + takenBits.size() * sizeof(uint64_t)
        + targetDelta.size() * sizeof(int32_t)
        + targetWide.size() * sizeof(uint64_t);
}

} // namespace raceval::vm
