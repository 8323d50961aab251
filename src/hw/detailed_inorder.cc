#include "hw/detailed_inorder.hh"

#include <deque>
#include <unordered_set>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "core/contention.hh"
#include "vm/functional.hh"

namespace raceval::hw
{

using isa::OpClass;

namespace
{

constexpr uint64_t pageShift = 12;

/** A store sitting in (or draining from) the store buffer. */
struct StoreEntry
{
    uint64_t addr = 0;
    unsigned size = 0;
    uint64_t readyAt = 0;   //!< earliest drain start (issue cycle + 1)
    uint64_t drainDone = 0; //!< 0 while not yet draining
};

} // namespace

core::CoreStats
DetailedInOrder::rawRun(vm::FunctionalCore &source)
{
    const core::CoreParams &cp = hparams.core;

    // The hardware models memory with timed prefetch and bandwidth-
    // consuming prefetch fills -- detail the abstract model elides.
    cache::HierarchyParams hier = cp.mem;
    hier.timedPrefetch = true;
    hier.prefetchConsumesBandwidth = true;
    cache::MemoryHierarchy mem(hier, /*rng_seed=*/4242);
    branch::BranchUnit bp(cp.bp);
    core::ContentionModel fus(cp);

    source.reset();

    // --- machine state ----------------------------------------------------
    uint64_t cycle = 0;
    uint64_t fetch_stall_until = 0;
    uint64_t last_fetch_line = ~0ull;
    uint64_t max_event = 0;
    std::vector<uint64_t> reg_ready(isa::numIntRegs + isa::numFpRegs, 0);
    std::vector<uint64_t> mshr_busy(cp.mem.l1d.mshrs, 0);
    std::deque<StoreEntry> store_buffer;
    uint64_t drain_busy_until = 0;
    std::unordered_set<uint64_t> touched_pages;
    std::unordered_set<uint64_t> stored_pages;
    std::unordered_set<uint64_t> zero_pages;
    std::unordered_set<uint64_t> init_pages;

    for (const auto &segment : source.program().data) {
        uint64_t first = segment.base >> pageShift;
        uint64_t last = (segment.base + segment.bytes.size())
            >> pageShift;
        for (uint64_t page = first; page <= last; ++page)
            init_pages.insert(page);
    }

    core::CoreStats stats;
    vm::DynInst pending;
    bool have_pending = source.next(pending);
    // Per-pending earliest-issue bound (front end, MSHR retry), computed
    // lazily once per instruction.
    uint64_t pending_ready_at = 0;
    bool pending_seen = false;

    auto compute_fetch = [&](const vm::DynInst &dyn) {
        uint64_t line = dyn.pc / mem.lineBytes();
        uint64_t ready = fetch_stall_until;
        if (line != last_fetch_line) {
            last_fetch_line = line;
            cache::AccessResult fetch =
                mem.access(dyn.pc, dyn.pc, false, true, cycle);
            if (fetch.servedBy != cache::ServedBy::L1) {
                uint64_t bubble = fetch.latency - cp.mem.l1i.latency;
                if (cycle + bubble > ready)
                    ready = cycle + bubble;
            }
        }
        return ready;
    };

    // Drain one store per free-port cycle, serialized at the L1D.
    auto drain_stores = [&](bool port_free) {
        // Retire fully drained entries.
        while (!store_buffer.empty()
               && store_buffer.front().drainDone != 0
               && store_buffer.front().drainDone <= cycle) {
            if (store_buffer.front().drainDone > max_event)
                max_event = store_buffer.front().drainDone;
            store_buffer.pop_front();
        }
        if (!port_free || store_buffer.empty())
            return;
        StoreEntry &head = store_buffer.front();
        if (head.drainDone != 0 || head.readyAt > cycle
            || drain_busy_until > cycle)
            return;
        cache::AccessResult res =
            mem.access(head.addr, head.addr, true, false, cycle);
        head.drainDone = cycle + res.latency;
        drain_busy_until = head.drainDone;
    };

    while (have_pending || !store_buffer.empty()) {
        bool l1d_port_used = false;
        unsigned issued = 0;

        while (have_pending && issued < cp.dispatchWidth) {
            const vm::DynInst &dyn = pending;
            const isa::DecodedInst &inst = dyn.inst;
            OpClass cls = inst.cls;

            if (!pending_seen) {
                pending_ready_at = compute_fetch(dyn);
                pending_seen = true;
            }
            if (pending_ready_at > cycle)
                break; // front end has not delivered it yet

            // In-order stall-on-use: operands must be ready now.
            bool ready = true;
            for (unsigned i = 0; i < inst.numSrcs && ready; ++i)
                ready = reg_ready[inst.src[i]] <= cycle;
            if (!ready)
                break;

            // Structural hazard: a unit of the pool must be free now
            // (peek before reserving so a stalled retry does not book
            // the unit twice).
            if (!fus.canStartAt(cls, cycle))
                break;

            uint64_t done = cycle + fus.latencyOf(cls);

            if (cls == OpClass::Load) {
                uint64_t page = dyn.memAddr >> pageShift;
                unsigned lat = 0;
                bool blocked = false;

                // Store-buffer interactions first.
                bool forwarded = false;
                uint64_t overlap_wait = 0;
                for (const StoreEntry &st : store_buffer) {
                    if (dyn.memAddr + inst.memSize <= st.addr
                        || st.addr + st.size <= dyn.memAddr)
                        continue; // disjoint
                    if (dyn.memAddr >= st.addr
                        && dyn.memAddr + inst.memSize
                           <= st.addr + st.size) {
                        forwarded = true;
                    } else {
                        // Partial overlap: wait for the drain, replay.
                        uint64_t done_at = st.drainDone ? st.drainDone
                            : cycle + 1; // not draining yet: retry later
                        if (st.drainDone == 0)
                            blocked = true;
                        if (done_at > overlap_wait)
                            overlap_wait = done_at;
                    }
                }
                if (blocked)
                    break; // re-attempt next cycle

                if (forwarded && overlap_wait == 0) {
                    lat = 1; // store-buffer bypass
                } else if (hparams.zeroPageReads && !init_pages.count(page)
                           && !stored_pages.count(page)) {
                    // Read of an OS page never written: the zero page.
                    if (zero_pages.insert(page).second)
                        lat = cp.mem.l1d.latency + hparams.pageWalkPenalty;
                    else
                        lat = cp.mem.l1d.latency;
                } else {
                    // MSHR availability must be checked *before* the
                    // access mutates cache state; a blocked load retries
                    // the whole lookup next cycle.
                    bool will_miss = !mem.l1d().probe(
                        dyn.memAddr / mem.lineBytes());
                    size_t slot = 0;
                    for (size_t i = 1; i < mshr_busy.size(); ++i) {
                        if (mshr_busy[i] < mshr_busy[slot])
                            slot = i;
                    }
                    if (will_miss && mshr_busy[slot] > cycle) {
                        pending_ready_at = mshr_busy[slot];
                        break; // pipe blocks: all MSHRs in use
                    }
                    unsigned walk = 0;
                    if (touched_pages.insert(page).second)
                        walk = hparams.pageWalkPenalty;
                    cache::AccessResult res =
                        mem.access(dyn.pc, dyn.memAddr, false, false,
                                   cycle);
                    lat = res.latency + walk;
                    if (res.servedBy != cache::ServedBy::L1)
                        mshr_busy[slot] = cycle + lat;
                    if (overlap_wait > cycle)
                        lat += static_cast<unsigned>(overlap_wait - cycle)
                            + hparams.partialForwardPenalty;
                }
                done = cycle + lat;
                l1d_port_used = true;
                fus.reserve(cls, cycle);
            } else if (cls == OpClass::Store) {
                if (store_buffer.size() >= cp.storeBufferEntries)
                    break; // buffer full: stall issue
                fus.reserve(cls, cycle);
                store_buffer.push_back(
                    StoreEntry{dyn.memAddr, inst.memSize, cycle + 1, 0});
                stored_pages.insert(dyn.memAddr >> pageShift);
                touched_pages.insert(dyn.memAddr >> pageShift);
            } else if (inst.isBranch) {
                fus.reserve(cls, cycle);
                bool mispredict = bp.predict(dyn);
                if (mispredict) {
                    uint64_t redirect = done + cp.mispredictPenalty;
                    if (redirect > fetch_stall_until)
                        fetch_stall_until = redirect;
                    last_fetch_line = ~0ull;
                } else if (dyn.taken && cp.takenBranchBubble) {
                    uint64_t bubble = cycle + cp.takenBranchBubble;
                    if (bubble > fetch_stall_until)
                        fetch_stall_until = bubble;
                }
            } else {
                fus.reserve(cls, cycle);
            }

            if (inst.hasDst())
                reg_ready[inst.dst] = done;
            if (done > max_event)
                max_event = done;
            ++stats.instructions;
            ++issued;

            have_pending = source.next(pending);
            pending_seen = false;

            if (inst.isBranch)
                break; // at most one branch per issue group
        }

        drain_stores(!l1d_port_used);
        ++cycle;
    }

    uint64_t end = cycle > max_event ? cycle : max_event;
    if (drain_busy_until > end)
        end = drain_busy_until;
    stats.cycles = end;
    stats.branch = bp.stats();
    stats.l1iMisses = mem.l1i().stats().misses;
    stats.l1dAccesses = mem.l1d().stats().accesses;
    stats.l1dMisses = mem.l1d().stats().misses;
    stats.l2Misses = mem.l2().stats().misses;
    stats.dramReads = mem.dram().readCount();
    return stats;
}

} // namespace raceval::hw
