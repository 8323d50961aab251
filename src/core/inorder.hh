/**
 * @file
 * Abstract in-order core timing model (the "Sniper-ARM in-order model"
 * validated against the Cortex-A53 in the paper).
 *
 * Like Sniper, this is cycle *accounting*, not cycle-by-cycle
 * simulation: the model walks the dynamic instruction stream once,
 * carrying per-register readiness, functional-unit reservations, store
 * buffer and MSHR occupancy, and front-end (icache / branch) stall
 * state. That keeps it an order of magnitude faster than the detailed
 * hardware model while modeling every first-order contention effect.
 */

#ifndef RACEVAL_CORE_INORDER_HH
#define RACEVAL_CORE_INORDER_HH

#include <cstdint>
#include <vector>

#include "core/contention.hh"
#include "core/replay_core.hh"

namespace raceval::core
{

/**
 * Dual-issue (configurable width) in-order, stall-on-use pipeline model
 * with a store buffer, limited hit-under-miss (MSHRs) and
 * store-to-load forwarding.
 */
class InOrderCore : public ReplayCore<InOrderCore>
{
  public:
    explicit InOrderCore(const CoreParams &params);

    /**
     * Test seam: run() with every instruction -- including plain ALU
     * -- routed through the generic step body, so bit-identity of the
     * tagged fast path is directly checkable against the
     * un-specialized accounting.
     */
    CoreStats runGeneric(const vm::PackedTrace &trace);

  private:
    friend class ReplayCore<InOrderCore>;

    ContentionModel contention;

    // --- per-run scoreboard state ---------------------------------------
    /**
     * Flat per-run pipeline cursors plus hoisted loop invariants (see
     * OooCore::StepState for the full rationale): the forwarding ring
     * cursor wraps on increment instead of a modulo, and the
     * CoreParams fields the per-instruction loop reads are copied in
     * by resetState().
     */
    struct StepState
    {
        uint64_t cycle = 0;
        uint64_t maxDone = 0;
        uint64_t lastDrain = 0;
        /** Latest drainAt of any buffered store; once <= now the
         *  whole forwarding scan is dead work and is skipped. */
        uint64_t pendingStoreMaxDrain = 0;
        uint32_t issuedThisCycle = 0;
        uint32_t pendingStoreHead = 0;
        /** How many ring slots have ever been written this run; the
         *  forwarding scan only visits [0, pendingStoreLive). */
        uint32_t pendingStoreLive = 0;
        // loop invariants hoisted from CoreParams / ring sizes
        uint32_t pendingStoreSize = 1;
        uint32_t dispatchWidth = 1;
        uint32_t mispredictPenalty = 0;
        uint32_t takenBranchBubble = 0;
        uint32_t forwardLatency = 0;
        uint8_t forwarding = 0;
    };
    StepState st;

    std::vector<uint64_t> regReady;
    std::vector<uint64_t> mshrFree;
    std::vector<uint64_t> storeBufFree;

    /** Recent stores for forwarding checks. */
    struct PendingStore
    {
        uint64_t addr = 0;
        unsigned size = 0;
        uint64_t drainAt = 0;
    };
    std::vector<PendingStore> pendingStores;

    void resetState();
    uint64_t endCycle() const;
    void advanceSlot();

    /**
     * Per-instruction accounting behind run(): classify once on the
     * precomputed 2-bit kind tag, then either take the minimal
     * plain-ALU fast path (never touches MSHR / store-buffer /
     * pending-store / predictor machinery) or the generic body.
     * @tparam Profiled selects the step-cost-profiler instantiation.
     */
    template <bool Profiled>
    void step(const vm::PackedStream &s);

    /** Dominant-case fast path: kind == OpKind::Alu only. */
    template <bool Profiled>
    void stepAlu(const vm::PackedStream &s);

    /** Generic body handling every kind. */
    template <bool Profiled>
    void stepSlow(const vm::PackedStream &s, isa::OpKind kind);

    /** Stall issue until at least target (resets the slot counter). */
    void stallUntil(uint64_t target);

    /** @return forwarding hit for a load fully covered by a store
     *  still sitting in the store buffer at cycle now. */
    bool forwardedFromStore(uint64_t addr, unsigned size,
                            uint64_t now) const;
};

extern template class ReplayCore<InOrderCore>;

} // namespace raceval::core

#endif // RACEVAL_CORE_INORDER_HH
