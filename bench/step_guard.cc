/**
 * @file
 * Perf-regression guard for the flattened per-instruction hot path,
 * over the step_cost smoke blob.
 *
 * Reads bench-json/BENCH_step_cost.json (produced by the
 * smoke_step_cost ctest fixture) and fails when either pillar of the
 * hot-path contract regressed:
 *
 *   - step_bit_identical must be 1: the in-order and interval fast
 *     paths matched their generic step bodies, and the OoO step
 *     matched the frozen pre-flattening baseline, in exactly the same
 *     CoreStats on every workload class;
 *   - step_speedup must stay >= minSpeedup: the OoO step (one body for
 *     every kind) against the bench-local frozen step (per-instruction
 *     classification + modulo scoreboard indexing) keeps a real
 *     margin. 1.1 leaves room for memory-dominated workloads (where
 *     the cache model, shared by both sides, bounds the win) and
 *     contended CI runners, while still tripping if the step decays
 *     back to per-step divides.
 *
 * Run as a plain binary: `step_guard <path-to-json>`. Not a bench
 * driver (no --smoke/--json protocol): it is the ctest check that
 * locks the hot-path flattening in.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

/** Floor on the OoO frozen-baseline speedup (see file comment). */
constexpr double minSpeedup = 1.1;

/** Extract `"key": <number>` from a JSON blob (flat search; the bench
 *  blobs never nest a duplicate metric name). */
bool
findNumber(const std::string &text, const std::string &key, double &out)
{
    std::string needle = "\"" + key + "\":";
    size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    return std::sscanf(text.c_str() + pos + needle.size(), " %lf",
                       &out) == 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <BENCH_step_cost.json>\n"
                 "fails when step_bit_identical != 1 or "
                 "step_speedup < %.2f\n",
                 argv0, minSpeedup);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--help") == 0) {
        usage(argv[0]);
        return 0;
    }
    if (argc != 2)
        return usage(argv[0]);

    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr,
                     "step_guard: cannot read '%s' (run the "
                     "smoke_step_cost test first)\n", argv[1]);
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();

    double bit_identical = 0.0, speedup = 0.0;
    if (!findNumber(text, "step_bit_identical", bit_identical)
        || !findNumber(text, "step_speedup", speedup)) {
        std::fprintf(stderr,
                     "step_guard: '%s' is missing step_bit_identical "
                     "/ step_speedup metrics\n", argv[1]);
        return 2;
    }

    int failures = 0;
    if (bit_identical != 1.0) {
        std::fprintf(stderr,
                     "step_guard: FAIL step_bit_identical = %g "
                     "(expected 1): a step diverged from its generic "
                     "body or the frozen baseline\n",
                     bit_identical);
        ++failures;
    }
    if (speedup < minSpeedup) {
        std::fprintf(stderr,
                     "step_guard: FAIL step_speedup = %.3f (< %.2f): "
                     "the flattened OoO step lost its margin over the "
                     "pre-flattening baseline\n", speedup, minSpeedup);
        ++failures;
    }
    if (failures)
        return 1;
    std::printf("step_guard: OK (step_bit_identical = 1, "
                "step_speedup = %.3f)\n", speedup);
    return 0;
}
