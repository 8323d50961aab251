#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload a53-ubench-inorder --seed 1 \\
        --seconds 5 --trace 0

Without --workload every workload runs in turn. The first run builds
the harness and the library from the checkout's sources into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. Build output goes to stderr. The harness's report goes to
stdout, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}, checked here against the
metric names BENCHMARK.json declares before it is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["a53-ubench-inorder", "a72-ubench-ooo", "m-firmware-interval"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then build incrementally; returns the binary."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} next to perfbench/: not a raceval checkout")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", out, "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when the checkout has git metadata, else a digest of
    the sources the harness builds from (documentation excluded)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return "git:" + ref
        ref_file = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return "git:" + f.read().strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            if name.endswith(".md"):
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        fail(f"{workload}: harness exited {done.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics {got} differ from BENCHMARK.json {want}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=20190324,
                    help="racer seed (default: the drivers' 20190324)")
    ap.add_argument("--seconds", type=float, default=5,
                    help="warm re-race measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer traced run")
    args = ap.parse_args()
    binary = build()
    for workload in [args.workload] if args.workload else WORKLOADS:
        run_one(binary, workload, args)


if __name__ == "__main__":
    main()
