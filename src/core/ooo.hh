/**
 * @file
 * Abstract out-of-order core timing model (the "Sniper-ARM
 * out-of-order model" validated against the Cortex-A72 in the paper).
 *
 * Interval-style cycle accounting: a single in-order walk over the
 * dynamic stream carrying the reorder-buffer / issue-queue / load-
 * store-queue occupancy as rings of event times, register readiness
 * for true dependencies (renaming removes the false ones), functional
 * unit reservations and front-end stalls. Dispatch is the in-order
 * bottleneck; everything downstream floats on event times, which is
 * what gives the model out-of-order overlap without a cycle loop.
 */

#ifndef RACEVAL_CORE_OOO_HH
#define RACEVAL_CORE_OOO_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/contention.hh"
#include "core/frontend.hh"
#include "core/params.hh"
#include "core/stats.hh"
#include "core/timing_model.hh"
#include "vm/packed_trace.hh"

namespace raceval::core
{

/** Out-of-order core model (ROB + IQ + LQ/SQ + FU contention). */
class OooCore : public TimingModel
{
  public:
    explicit OooCore(const CoreParams &params);

    using TimingModel::run;

    /** Packed replay: one PackedStream pass through runSegment. */
    CoreStats run(const vm::PackedTrace &trace) override;

    /// @name Segment interface
    /// @{
    /** Reset machine state and start a fresh accounting run. */
    void beginRun();

    /**
     * Replay up to @p max_insts instructions from @p stream. May be
     * called repeatedly; a copy of the core mid-run continues from the
     * same state.
     *
     * @return instructions consumed.
     */
    uint64_t runSegment(vm::PackedStream &stream, uint64_t max_insts);

    /** Close accounting (drains, end cycle) and return the stats. */
    CoreStats finishRun();
    /// @}

    /** @return the active configuration. */
    const CoreParams &params() const override { return cparams; }

  private:
    CoreParams cparams;
    cache::MemoryHierarchy mem;
    branch::BranchUnit bp;
    ContentionModel contention;

    // --- per-run scoreboard state ---------------------------------------
    CoreStats runStats;
    FetchFrontEnd frontend;

    /**
     * Flat per-run scoreboard cursors plus hoisted loop invariants:
     * the one POD the step() hot path reads and writes instead of
     * scattered wide members and `seq % ring.size()` divisions.
     *
     * Every ring below is visited strictly cyclically (the old seq /
     * loadSeq / storeSeq counters started at 0 and only ever
     * incremented by one), so a wrap-on-increment cursor produces the
     * identical index sequence with no division. The trailing fields
     * are copies of CoreParams/ring sizes refreshed by resetState(),
     * keeping the per-instruction loop free of cold-struct loads.
     * Plain members with default copy, so a mid-run copy of the core
     * carries this state verbatim.
     */
    struct StepState
    {
        uint64_t dispatchCycle = 0;
        uint64_t lastRetire = 0;
        uint64_t lastDrain = 0;
        /** Latest drainAt of any buffered store; once <= now the
         *  whole forwarding scan is dead work and is skipped. */
        uint64_t pendingStoreMaxDrain = 0;
        uint32_t dispatchedThisCycle = 0;
        // ring cursors (wrap on increment)
        uint32_t robCur = 0;
        uint32_t iqCur = 0;
        uint32_t lqCur = 0;
        uint32_t sqCur = 0;
        uint32_t retireCur = 0;
        uint32_t pendingStoreHead = 0;
        /** How many ring slots have ever been written this run; the
         *  forwarding scan only visits [0, pendingStoreLive). */
        uint32_t pendingStoreLive = 0;
        // loop invariants hoisted from CoreParams / ring sizes
        uint32_t robSize = 1;
        uint32_t iqSize = 1;
        uint32_t lqSize = 1;
        uint32_t sqSize = 1;
        uint32_t retireSize = 1;
        uint32_t pendingStoreSize = 1;
        uint32_t dispatchWidth = 1;
        uint32_t mispredictPenalty = 0;
        uint32_t takenBranchBubble = 0;
        uint32_t forwardLatency = 0;
        uint8_t forwarding = 0;
    };
    StepState st;

    std::vector<uint64_t> regReady;
    std::vector<uint64_t> robFreeAt;    //!< retire time ring, robEntries
    std::vector<uint64_t> iqFreeAt;     //!< issue time ring, iqEntries
    std::vector<uint64_t> lqFreeAt;     //!< load retire ring
    std::vector<uint64_t> sqFreeAt;     //!< store drain ring
    std::vector<uint64_t> retireRing;   //!< last commitWidth retires
    std::vector<uint64_t> mshrFree;

    struct PendingStore
    {
        uint64_t addr = 0;
        unsigned size = 0;
        uint64_t drainAt = 0;
    };
    std::vector<PendingStore> pendingStores;

    void resetState();

    /**
     * Per-instruction accounting behind runSegment: one body for every
     * kind (the precomputed tag gates the LSQ / MSHR / predictor
     * blocks). @tparam Profiled selects the step-cost-profiler
     * instantiation (obs/step_profiler.hh); the segment loop picks it
     * once per segment.
     */
    template <bool Profiled>
    void step(const vm::PackedStream &s);

    template <bool Profiled>
    uint64_t runSegmentImpl(vm::PackedStream &stream,
                            uint64_t max_insts);

    bool forwardedFromStore(uint64_t addr, unsigned size,
                            uint64_t now) const;
};

} // namespace raceval::core

#endif // RACEVAL_CORE_OOO_HH
