#include "core/inorder.hh"

#include "common/log.hh"
#include "obs/step_profiler.hh"

namespace raceval::core
{

using isa::OpClass;
using isa::OpKind;

InOrderCore::InOrderCore(const CoreParams &params)
    : cparams(params), mem(params.mem), bp(params.bp),
      contention(params)
{
    cparams.validate();
    regReady.assign(isa::numIntRegs + isa::numFpRegs, 0);
    mshrFree.assign(cparams.mem.l1d.mshrs, 0);
    storeBufFree.assign(cparams.storeBufferEntries, 0);
    pendingStores.assign(cparams.storeForwardWindowFor(8),
                         PendingStore{});
    resetState();
}

void
InOrderCore::resetState()
{
    mem.reset();
    bp.reset();
    contention.reset();
    frontend.reset();
    std::fill(regReady.begin(), regReady.end(), 0);
    std::fill(mshrFree.begin(), mshrFree.end(), 0);
    std::fill(storeBufFree.begin(), storeBufFree.end(), 0);
    std::fill(pendingStores.begin(), pendingStores.end(), PendingStore{});

    st = StepState{};
    st.pendingStoreSize = static_cast<uint32_t>(pendingStores.size());
    st.dispatchWidth = cparams.dispatchWidth;
    st.mispredictPenalty = cparams.mispredictPenalty;
    st.takenBranchBubble = cparams.takenBranchBubble;
    st.forwardLatency = cparams.forwardLatency;
    st.forwarding = cparams.forwarding ? 1 : 0;
}

void
InOrderCore::stallUntil(uint64_t target)
{
    if (target > st.cycle) {
        st.cycle = target;
        st.issuedThisCycle = 0;
    }
}

void
InOrderCore::advanceSlot()
{
    if (++st.issuedThisCycle >= st.dispatchWidth) {
        ++st.cycle;
        st.issuedThisCycle = 0;
    }
}

bool
InOrderCore::forwardedFromStore(uint64_t addr, unsigned size,
                                uint64_t now) const
{
    if (st.pendingStoreMaxDrain <= now)
        return false; // every buffered store already drained
    for (size_t i = 0; i < st.pendingStoreLive; ++i) {
        const PendingStore &ps = pendingStores[i];
        if (ps.size == 0 || ps.drainAt <= now)
            continue; // empty slot or already drained to the cache
        if (addr >= ps.addr && addr + size <= ps.addr + ps.size)
            return true;
    }
    return false;
}

void
InOrderCore::beginRun()
{
    resetState();
    runStats = CoreStats{};
}

/**
 * Plain-ALU fast path: the old switch default case only -- fetch,
 * readiness, FU reservation, writeback. No memory or predictor
 * machinery is reachable for kind == Alu.
 */
template <bool Profiled>
void
InOrderCore::stepAlu(const vm::PackedStream &s)
{
    obs::StepTimer<Profiled> timer(obs::stepFamilyInOrder);

    ++runStats.instructions;
    timer.phase(obs::StepPhase::Fetch);
    frontend.fetch(mem, cparams, s.pc(), st.cycle);

    OpClass cls = s.cls();

    // Operand readiness (in-order: also bounded by the front end).
    timer.phase(obs::StepPhase::Issue);
    uint64_t ready =
        st.cycle > frontend.readyAt ? st.cycle : frontend.readyAt;
    for (unsigned i = 0; i < s.srcCount(); ++i) {
        uint64_t at = regReady[s.srcReg(i)];
        if (at > ready)
            ready = at;
    }

    // Structural hazard: wait for a unit of the right pool.
    uint64_t start = contention.reserve(cls, ready);
    stallUntil(start);

    uint64_t done = st.cycle + contention.latencyOf(cls);

    timer.phase(obs::StepPhase::Retire);
    if (s.hasDst())
        regReady[s.dstReg()] = done;
    if (done > st.maxDone)
        st.maxDone = done;
    advanceSlot();
}

template <bool Profiled>
void
InOrderCore::stepSlow(const vm::PackedStream &s, OpKind kind)
{
    obs::StepTimer<Profiled> timer(obs::stepFamilyInOrder);

    ++runStats.instructions;
    timer.phase(obs::StepPhase::Fetch);
    frontend.fetch(mem, cparams, s.pc(), st.cycle);

    OpClass cls = s.cls();

    // Operand readiness (in-order: also bounded by the front end).
    timer.phase(obs::StepPhase::Issue);
    uint64_t ready =
        st.cycle > frontend.readyAt ? st.cycle : frontend.readyAt;
    for (unsigned i = 0; i < s.srcCount(); ++i) {
        uint64_t at = regReady[s.srcReg(i)];
        if (at > ready)
            ready = at;
    }

    // Structural hazard: wait for a unit of the right pool.
    uint64_t start = contention.reserve(cls, ready);
    stallUntil(start);

    uint64_t done = st.cycle + contention.latencyOf(cls);

    switch (kind) {
      case OpKind::Load: {
        timer.phase(obs::StepPhase::Mem);
        unsigned lat;
        if (st.forwarding
            && forwardedFromStore(s.memAddr(), s.memSize(),
                                  st.cycle)) {
            lat = st.forwardLatency;
            // The cache still sees the access (tag energy, MSHR
            // pressure are not modeled for forwarded hits).
            mem.access(s.pc(), s.memAddr(), false, false, st.cycle);
        } else {
            // An L1 miss needs an MSHR before it can leave the
            // core, which also spaces out DRAM arrivals (limited
            // hit-under-miss).
            uint64_t access_at = st.cycle;
            size_t slot = mshrFree.size();
            if (!mem.l1d().probe(s.memAddr() / mem.lineBytes())) {
                slot = 0;
                for (size_t i = 1; i < mshrFree.size(); ++i) {
                    if (mshrFree[i] < mshrFree[slot])
                        slot = i;
                }
                if (mshrFree[slot] > access_at)
                    access_at = mshrFree[slot];
            }
            cache::AccessResult res =
                mem.access(s.pc(), s.memAddr(), false, false,
                           access_at);
            lat = static_cast<unsigned>(access_at - st.cycle)
                + res.latency;
            if (slot != mshrFree.size())
                mshrFree[slot] = access_at + res.latency;
        }
        done = st.cycle + lat;
        break;
      }

      case OpKind::Store: {
        timer.phase(obs::StepPhase::Mem);
        // Claim a store buffer slot; a full buffer stalls issue.
        size_t slot = 0;
        for (size_t i = 1; i < storeBufFree.size(); ++i) {
            if (storeBufFree[i] < storeBufFree[slot])
                slot = i;
        }
        stallUntil(storeBufFree[slot]);
        cache::AccessResult res =
            mem.access(s.pc(), s.memAddr(), true, false, st.cycle);
        uint64_t drain_start =
            st.cycle > st.lastDrain ? st.cycle : st.lastDrain;
        uint64_t drain_done = drain_start + res.latency;
        st.lastDrain = drain_done;
        storeBufFree[slot] = drain_done;
        pendingStores[st.pendingStoreHead] =
            PendingStore{s.memAddr(), s.memSize(), drain_done};
        if (st.pendingStoreLive <= st.pendingStoreHead)
            st.pendingStoreLive = st.pendingStoreHead + 1;
        if (drain_done > st.pendingStoreMaxDrain)
            st.pendingStoreMaxDrain = drain_done;
        if (++st.pendingStoreHead == st.pendingStoreSize)
            st.pendingStoreHead = 0;
        done = st.cycle + contention.latencyOf(cls);
        break;
      }

      case OpKind::Branch: {
        timer.phase(obs::StepPhase::Branch);
        bool mispredict =
            bp.predict(s.pc(), cls, s.taken(), s.nextPc());
        if (mispredict)
            frontend.redirect(done + st.mispredictPenalty);
        else if (s.taken() && st.takenBranchBubble)
            frontend.stallUntil(st.cycle + st.takenBranchBubble);
        break;
      }

      default:
        break;
    }

    timer.phase(obs::StepPhase::Retire);
    if (s.hasDst())
        regReady[s.dstReg()] = done;
    if (done > st.maxDone)
        st.maxDone = done;
    advanceSlot();
}

template <bool Profiled>
void
InOrderCore::step(const vm::PackedStream &s)
{
    OpKind kind = s.kind();
    if (kind == OpKind::Alu) [[likely]] {
        stepAlu<Profiled>(s);
        return;
    }
    stepSlow<Profiled>(s, kind);
}

template <bool Profiled>
uint64_t
InOrderCore::runSegmentImpl(vm::PackedStream &s, uint64_t max_insts)
{
    uint64_t consumed = 0;
    while (consumed < max_insts && s.next()) {
        ++consumed;
        step<Profiled>(s);
    }
    return consumed;
}

uint64_t
InOrderCore::runSegment(vm::PackedStream &s, uint64_t max_insts)
{
    if (obs::stepProfilingEnabled())
        return runSegmentImpl<true>(s, max_insts);
    return runSegmentImpl<false>(s, max_insts);
}

uint64_t
InOrderCore::runSegmentGeneric(vm::PackedStream &s, uint64_t max_insts)
{
    uint64_t consumed = 0;
    while (consumed < max_insts && s.next()) {
        ++consumed;
        stepSlow<false>(s, s.kind());
    }
    return consumed;
}

CoreStats
InOrderCore::finishRun()
{
    uint64_t end = st.cycle > st.maxDone ? st.cycle : st.maxDone;
    if (st.lastDrain > end)
        end = st.lastDrain;
    runStats.cycles = end;
    runStats.branch = bp.stats();
    runStats.l1iMisses = mem.l1i().stats().misses;
    runStats.l1dAccesses = mem.l1d().stats().accesses;
    runStats.l1dMisses = mem.l1d().stats().misses;
    runStats.l2Misses = mem.l2().stats().misses;
    runStats.dramReads = mem.dram().readCount();
    return runStats;
}

CoreStats
InOrderCore::run(const vm::PackedTrace &trace)
{
    beginRun();
    vm::PackedStream stream(trace);
    runSegment(stream, ~uint64_t{0});
    return finishRun();
}

} // namespace raceval::core
