/**
 * @file
 * The one replay loop every abstract core family runs.
 *
 * A family is a cycle-accounting walk over a packed trace: reset the
 * machine, step once per dynamic instruction, then read the end cycle
 * and the component counters off the models. Only the middle step and
 * the family's own scoreboard differ between the in-order, OoO and
 * interval cores, so ReplayCore owns the rest once: the members every
 * family shares (configuration, cache hierarchy, branch unit, fetch
 * front end, the run's stats), the reset, the step loop with its
 * profiler dispatch hoisted out of the per-instruction path, and the
 * CoreStats component tail.
 *
 * A family derives as `class F : public ReplayCore<F>` and supplies:
 *
 *   - `void resetState()` -- clear its own scoreboard for a new run;
 *   - `template <bool Profiled> void step(const vm::PackedStream &)`;
 *   - `uint64_t endCycle() const` -- the run's last cycle.
 *
 * The family's .cc explicitly instantiates `ReplayCore<F>` after its
 * step bodies, and its header declares that instantiation `extern`,
 * so the loop is compiled (and its step bodies inlined) in one place.
 * Cores are not copyable: a run starts and finishes inside run().
 */

#ifndef RACEVAL_CORE_REPLAY_CORE_HH
#define RACEVAL_CORE_REPLAY_CORE_HH

#include <cstdint>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/frontend.hh"
#include "core/params.hh"
#include "core/stats.hh"
#include "core/timing_model.hh"
#include "obs/step_profiler.hh"
#include "vm/packed_trace.hh"

namespace raceval::core
{

template <class Family>
class ReplayCore : public TimingModel
{
  public:
    ReplayCore(const ReplayCore &) = delete;
    ReplayCore &operator=(const ReplayCore &) = delete;

    using TimingModel::run;

    /** Replay @p trace from a clean machine state. */
    CoreStats run(const vm::PackedTrace &trace) final;

    /** @return the active configuration. */
    const CoreParams &params() const final { return cparams; }

  protected:
    explicit ReplayCore(const CoreParams &params)
        : cparams(params), mem(params.mem), bp(params.bp)
    {
        cparams.validate();
    }

    /**
     * Reset, call @p step_fn once per instruction of @p trace, and
     * close the run's accounting. run() passes the family's step;
     * families with a generic step body pass that for their runGeneric
     * test seam.
     */
    template <class StepFn>
    CoreStats
    replay(const vm::PackedTrace &trace, StepFn &&step_fn)
    {
        mem.reset();
        bp.reset();
        frontend.reset();
        runStats = CoreStats{};
        self().resetState();
        vm::PackedStream stream(trace);
        while (stream.next())
            step_fn(stream);
        return finish();
    }

    CoreParams cparams;
    cache::MemoryHierarchy mem;
    branch::BranchUnit bp;
    FetchFrontEnd frontend;
    CoreStats runStats;

  private:
    Family &self() { return static_cast<Family &>(*this); }

    /** The CoreStats tail: end cycle and component counters. */
    CoreStats finish();
};

template <class Family>
CoreStats
ReplayCore<Family>::run(const vm::PackedTrace &trace)
{
    // The profiler branch is taken once per run; the un-profiled step
    // instantiation carries no timer code at all.
    Family &core = self();
    if (obs::stepProfilingEnabled()) {
        return replay(trace, [&core](const vm::PackedStream &s) {
            core.template step<true>(s);
        });
    }
    return replay(trace, [&core](const vm::PackedStream &s) {
        core.template step<false>(s);
    });
}

template <class Family>
CoreStats
ReplayCore<Family>::finish()
{
    runStats.cycles = self().endCycle();
    runStats.branch = bp.stats();
    runStats.l1iMisses = mem.l1i().stats().misses;
    runStats.l1dAccesses = mem.l1d().stats().accesses;
    runStats.l1dMisses = mem.l1d().stats().misses;
    runStats.l2Misses = mem.l2().stats().misses;
    runStats.dramReads = mem.dram().readCount();
    return runStats;
}

} // namespace raceval::core

#endif // RACEVAL_CORE_REPLAY_CORE_HH
