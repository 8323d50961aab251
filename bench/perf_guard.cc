/**
 * @file
 * Perf-regression guard over a bench smoke blob.
 *
 * Reads a --json blob written by a bench driver and fails unless one
 * of its metrics stays on the right side of a bound: at least it for
 * `min`, at most it for `max`, exactly it for `eq`. Each in-process
 * A-B a driver measures gets two checks: its identity key `eq 1` (the
 * A-B sides produced identical results) and its timing metric against
 * a bound. Only the second reads the speed of the build, so only it
 * is labeled `timing` in ctest.
 *
 * Run as a plain binary:
 *   perf_guard <blob> <key> <min|max|eq> <bound>
 * Exit 0 when the bound holds, 1 when it fails, 2 when the blob or the
 * key is missing or the arguments are malformed. Not a bench driver
 * (no --smoke/--json protocol): the perf_* ctest entries run it on
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
                 "usage: %s <blob> <key> <min|max|eq> <bound>\n"
                 "fails when <key> is under <bound> (min), over it "
                 "(max) or not equal to it (eq)\n",
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
    if (argc != 5)
        return usage(argv[0]);
    const char *path = argv[1];
    const std::string key = argv[2];
    const std::string sense = argv[3];
    char *bound_end = nullptr;
    const double bound = std::strtod(argv[4], &bound_end);
    if ((sense != "min" && sense != "max" && sense != "eq")
        || bound_end == argv[4] || *bound_end != '\0')
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

    double value = 0.0;
    if (!findNumber(text, key, value)) {
        std::fprintf(stderr, "perf_guard: '%s' is missing %s\n", path,
                     key.c_str());
        return 2;
    }

    const bool holds = sense == "min" ? value >= bound
        : sense == "max"              ? value <= bound
                                      : value == bound;
    const char *relation = sense == "min" ? ">="
        : sense == "max"                  ? "<="
                                          : "==";
    if (!holds) {
        std::fprintf(stderr, "perf_guard: FAIL %s = %.3f (want %s %g)\n",
                     key.c_str(), value, relation, bound);
        return 1;
    }
    std::printf("perf_guard: OK (%s = %.3f, %s %g)\n", key.c_str(),
                value, relation, bound);
    return 0;
}
