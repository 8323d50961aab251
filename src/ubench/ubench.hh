/**
 * @file
 * The targeted micro-benchmark suite (paper Table I).
 *
 * All 40 micro-benchmarks of the suite the paper tunes with
 * (VerticalResearchGroup microbench [30]) are re-implemented as
 * AArch64-lite programs in the same five categories. Each stresses one
 * processor component so that high CPI error isolates the mis-modeled
 * component (paper §III-B). Dynamic instruction counts follow Table I,
 * scaled per the policy in DESIGN.md section 7.
 */

#ifndef RACEVAL_UBENCH_UBENCH_HH
#define RACEVAL_UBENCH_UBENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace raceval::ubench
{

/** Micro-benchmark categories (paper Table I groups). */
enum class Category : uint8_t
{
    Memory,       //!< memory hierarchy
    Control,      //!< control flow
    DataParallel, //!< data-parallel / FP
    Execution,    //!< execution / dependency chains
    Store,        //!< store intensive
};

/** @return category display name. */
const char *categoryName(Category cat);

/** One suite entry. */
struct UbenchInfo
{
    const char *name;          //!< paper name, e.g. "ML2_BW_ld"
    Category category;
    uint64_t paperDynInsts;    //!< Table I dynamic AArch64 count
    /**
     * Program builder.
     *
     * @param target_insts approximate dynamic instruction target.
     * @param init_arrays pre-touch data arrays (the paper's fix for
     *        the uninitialized-array anecdote); false reproduces the
     *        original buggy behaviour.
     */
    isa::Program (*builder)(uint64_t target_insts, bool init_arrays);
};

/**
 * Scale a Table I count into tuning-friendly range: halve until
 * <= cap (relative ordering is preserved as far as possible). The
 * default cap matches the Table I tuning suite; long-loop firmware
 * workloads pass a larger cap so their traces stay >= 1 M
 * instructions, the length of a firmware run, instead of being
 * silently halved to tuning-suite size.
 */
uint64_t scaledCount(uint64_t paper_count, uint64_t cap = 260'000);

/** @return the full 40-entry suite in Table I order. */
const std::vector<UbenchInfo> &all();

/** @return suite entry by name, or nullptr. */
const UbenchInfo *find(const std::string &name);

/** Build a suite program at its scaled instruction count. */
isa::Program build(const UbenchInfo &info, bool init_arrays = true);

} // namespace raceval::ubench

#endif // RACEVAL_UBENCH_UBENCH_HH
