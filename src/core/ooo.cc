#include "core/ooo.hh"

#include "common/log.hh"
#include "obs/step_profiler.hh"

namespace raceval::core
{

using isa::OpClass;
using isa::OpKind;

OooCore::OooCore(const CoreParams &params)
    : cparams(params), mem(params.mem), bp(params.bp), contention(params)
{
    cparams.validate();
    regReady.assign(isa::numIntRegs + isa::numFpRegs, 0);
    robFreeAt.assign(cparams.robEntries, 0);
    iqFreeAt.assign(cparams.iqEntries, 0);
    lqFreeAt.assign(cparams.lqEntries, 0);
    sqFreeAt.assign(cparams.sqEntries, 0);
    retireRing.assign(cparams.commitWidth, 0);
    mshrFree.assign(cparams.mem.l1d.mshrs, 0);
    pendingStores.assign(cparams.storeForwardWindowFor(16),
                         PendingStore{});
    resetState();
}

void
OooCore::resetState()
{
    mem.reset();
    bp.reset();
    contention.reset();
    frontend.reset();
    std::fill(regReady.begin(), regReady.end(), 0);
    std::fill(robFreeAt.begin(), robFreeAt.end(), 0);
    std::fill(iqFreeAt.begin(), iqFreeAt.end(), 0);
    std::fill(lqFreeAt.begin(), lqFreeAt.end(), 0);
    std::fill(sqFreeAt.begin(), sqFreeAt.end(), 0);
    std::fill(retireRing.begin(), retireRing.end(), 0);
    std::fill(mshrFree.begin(), mshrFree.end(), 0);
    std::fill(pendingStores.begin(), pendingStores.end(), PendingStore{});

    st = StepState{};
    st.robSize = static_cast<uint32_t>(robFreeAt.size());
    st.iqSize = static_cast<uint32_t>(iqFreeAt.size());
    st.lqSize = static_cast<uint32_t>(lqFreeAt.size());
    st.sqSize = static_cast<uint32_t>(sqFreeAt.size());
    st.retireSize = static_cast<uint32_t>(retireRing.size());
    st.pendingStoreSize = static_cast<uint32_t>(pendingStores.size());
    st.dispatchWidth = cparams.dispatchWidth;
    st.mispredictPenalty = cparams.mispredictPenalty;
    st.takenBranchBubble = cparams.takenBranchBubble;
    st.forwardLatency = cparams.forwardLatency;
    st.forwarding = cparams.forwarding ? 1 : 0;
}

bool
OooCore::forwardedFromStore(uint64_t addr, unsigned size,
                            uint64_t now) const
{
    if (st.pendingStoreMaxDrain <= now)
        return false; // every buffered store already drained
    for (size_t i = 0; i < st.pendingStoreLive; ++i) {
        const PendingStore &ps = pendingStores[i];
        if (ps.size == 0 || ps.drainAt <= now)
            continue;
        if (addr >= ps.addr && addr + size <= ps.addr + ps.size)
            return true;
    }
    return false;
}

void
OooCore::beginRun()
{
    resetState();
    runStats = CoreStats{};
}

template <bool Profiled>
void
OooCore::step(const vm::PackedStream &s)
{
    obs::StepTimer<Profiled> timer(obs::stepFamilyOoo);

    ++runStats.instructions;
    timer.phase(obs::StepPhase::Fetch);
    frontend.fetch(mem, cparams, s.pc(), st.dispatchCycle);

    OpClass cls = s.cls();
    OpKind kind = s.kind();
    bool is_load = kind == OpKind::Load;
    bool is_store = kind == OpKind::Store;

    // --- dispatch: in-order, gated by window resources -----------------
    timer.phase(obs::StepPhase::Dispatch);
    uint64_t dready = st.dispatchCycle > frontend.readyAt
        ? st.dispatchCycle : frontend.readyAt;
    uint64_t rob_free = robFreeAt[st.robCur];
    if (rob_free > dready)
        dready = rob_free;
    uint64_t iq_free = iqFreeAt[st.iqCur];
    if (iq_free > dready)
        dready = iq_free;
    if (is_load) {
        uint64_t lq_free = lqFreeAt[st.lqCur];
        if (lq_free > dready)
            dready = lq_free;
    }
    if (is_store) {
        uint64_t sq_free = sqFreeAt[st.sqCur];
        if (sq_free > dready)
            dready = sq_free;
    }
    if (dready > st.dispatchCycle) {
        st.dispatchCycle = dready;
        st.dispatchedThisCycle = 0;
    }

    // --- issue: out-of-order on operand readiness + FU -----------------
    timer.phase(obs::StepPhase::Issue);
    uint64_t ready = st.dispatchCycle;
    for (unsigned i = 0; i < s.srcCount(); ++i) {
        uint64_t at = regReady[s.srcReg(i)];
        if (at > ready)
            ready = at;
    }
    uint64_t start = contention.reserve(cls, ready);
    uint64_t complete = start + contention.latencyOf(cls);

    if (is_load) {
        timer.phase(obs::StepPhase::Mem);
        unsigned lat;
        if (st.forwarding
            && forwardedFromStore(s.memAddr(), s.memSize(), start)) {
            lat = st.forwardLatency;
            mem.access(s.pc(), s.memAddr(), false, false, start);
        } else {
            // Memory-level parallelism is capped by the MSHRs: a
            // miss leaves the core only when an MSHR frees up,
            // which also spaces out its DRAM arrival time.
            uint64_t access_at = start;
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
            lat = static_cast<unsigned>(access_at - start)
                + res.latency;
            if (slot != mshrFree.size())
                mshrFree[slot] = access_at + res.latency;
        }
        complete = start + lat;
    }

    if (kind == OpKind::Branch) {
        timer.phase(obs::StepPhase::Branch);
        if (bp.predict(s.pc(), cls, s.taken(), s.nextPc())) {
            // The front end restarts only once the branch resolves.
            frontend.redirect(complete + st.mispredictPenalty);
        } else if (s.taken() && st.takenBranchBubble) {
            frontend.stallUntil(st.dispatchCycle
                                + st.takenBranchBubble);
        }
    }

    // --- retire: in-order, commitWidth per cycle ------------------------
    timer.phase(obs::StepPhase::Retire);
    uint64_t retire = complete;
    uint64_t window = retireRing[st.retireCur] + 1;
    if (window > retire)
        retire = window;
    if (st.lastRetire > retire)
        retire = st.lastRetire;
    retireRing[st.retireCur] = retire;
    if (++st.retireCur == st.retireSize)
        st.retireCur = 0;
    st.lastRetire = retire;

    if (is_store) {
        timer.phase(obs::StepPhase::Mem);
        // Stores drain to the cache after retiring; the SQ entry is
        // pinned until the drain completes.
        cache::AccessResult res =
            mem.access(s.pc(), s.memAddr(), true, false, retire);
        uint64_t drain_start =
            retire > st.lastDrain ? retire : st.lastDrain;
        uint64_t drain_done = drain_start + res.latency;
        st.lastDrain = drain_done;
        sqFreeAt[st.sqCur] = drain_done;
        if (++st.sqCur == st.sqSize)
            st.sqCur = 0;
        pendingStores[st.pendingStoreHead] =
            PendingStore{s.memAddr(), s.memSize(), drain_done};
        if (st.pendingStoreLive <= st.pendingStoreHead)
            st.pendingStoreLive = st.pendingStoreHead + 1;
        if (drain_done > st.pendingStoreMaxDrain)
            st.pendingStoreMaxDrain = drain_done;
        if (++st.pendingStoreHead == st.pendingStoreSize)
            st.pendingStoreHead = 0;
        timer.phase(obs::StepPhase::Retire);
    }
    if (is_load) {
        lqFreeAt[st.lqCur] = retire;
        if (++st.lqCur == st.lqSize)
            st.lqCur = 0;
    }

    if (s.hasDst())
        regReady[s.dstReg()] = complete;
    robFreeAt[st.robCur] = retire;
    if (++st.robCur == st.robSize)
        st.robCur = 0;
    iqFreeAt[st.iqCur] = start;
    if (++st.iqCur == st.iqSize)
        st.iqCur = 0;

    if (++st.dispatchedThisCycle >= st.dispatchWidth) {
        ++st.dispatchCycle;
        st.dispatchedThisCycle = 0;
    }
}

template <bool Profiled>
uint64_t
OooCore::runSegmentImpl(vm::PackedStream &s, uint64_t max_insts)
{
    uint64_t consumed = 0;
    while (consumed < max_insts && s.next()) {
        ++consumed;
        step<Profiled>(s);
    }
    return consumed;
}

uint64_t
OooCore::runSegment(vm::PackedStream &s, uint64_t max_insts)
{
    if (obs::stepProfilingEnabled())
        return runSegmentImpl<true>(s, max_insts);
    return runSegmentImpl<false>(s, max_insts);
}

CoreStats
OooCore::finishRun()
{
    uint64_t end = st.lastRetire > st.dispatchCycle ? st.lastRetire
                                                    : st.dispatchCycle;
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
OooCore::run(const vm::PackedTrace &trace)
{
    beginRun();
    vm::PackedStream stream(trace);
    runSegment(stream, ~uint64_t{0});
    return finishRun();
}

} // namespace raceval::core
