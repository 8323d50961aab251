/**
 * @file
 * Perf-regression guard over a bench smoke blob.
 *
 * Reads a --json blob written by a bench driver and fails unless both
 * pillars of the contract that driver measures hold:
 *
 *   - <identity-key> must be 1: the A-B sides of the in-process
 *     measurement produced identical results;
 *   - <metric-key> must stay on the right side of <bound>: at least it
 *     for `min`, at most it for `max`.
 *
 * Run as a plain binary:
 *   perf_guard <blob> <identity-key> <metric-key> <min|max> <bound>
 * Exit 0 when both hold, 1 when either fails, 2 when the blob or a key
 * is missing or the arguments are malformed. Not a bench driver (no
 * --smoke/--json protocol): the perf_*_guard ctest entries run it on
 * the blobs of their smoke fixtures.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

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
                 "usage: %s <blob> <identity-key> <metric-key> "
                 "<min|max> <bound>\n"
                 "fails when <identity-key> != 1, or when <metric-key> "
                 "is under <bound> (min) or over it (max)\n",
                 argv0);
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
    if (argc != 6)
        return usage(argv[0]);
    const char *path = argv[1];
    const std::string identity_key = argv[2];
    const std::string metric_key = argv[3];
    const std::string sense = argv[4];
    char *bound_end = nullptr;
    const double bound = std::strtod(argv[5], &bound_end);
    if ((sense != "min" && sense != "max") || bound_end == argv[5]
        || *bound_end != '\0')
        return usage(argv[0]);

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "perf_guard: cannot read '%s' (run its smoke "
                     "fixture first)\n", path);
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();

    double identity = 0.0, metric = 0.0;
    if (!findNumber(text, identity_key, identity)
        || !findNumber(text, metric_key, metric)) {
        std::fprintf(stderr,
                     "perf_guard: '%s' is missing %s / %s\n", path,
                     identity_key.c_str(), metric_key.c_str());
        return 2;
    }

    int failures = 0;
    if (identity != 1.0) {
        std::fprintf(stderr,
                     "perf_guard: FAIL %s = %g (expected 1): the A-B "
                     "sides diverged\n", identity_key.c_str(), identity);
        ++failures;
    }
    const bool crossed = sense == "min" ? metric < bound : metric > bound;
    if (crossed) {
        std::fprintf(stderr, "perf_guard: FAIL %s = %.3f (%s %g)\n",
                     metric_key.c_str(), metric,
                     sense == "min" ? "<" : ">", bound);
        ++failures;
    }
    if (failures)
        return 1;
    std::printf("perf_guard: OK (%s = 1, %s = %.3f, %s %g)\n",
                identity_key.c_str(), metric_key.c_str(), metric,
                sense == "min" ? ">=" : "<=", bound);
    return 0;
}
