#!/usr/bin/env python3
"""Build and run the ftnoc benchmark (see nocbench/README.md).

    python3 nocbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 nocbench/run.py --selftest
    python3 nocbench/run.py --record --seeds FIRST-LAST

Run from the repository root. ftnoc_bench is built from source with CMake
into $CARGO_TARGET_DIR/nocbench (default .bench_build/nocbench); build
output goes to stderr. The last stdout line of a run is ftnoc_bench's JSON
result. Traced runs (--trace 1) write a Chrome trace-event file to
.bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.txt")


def fail(msg):
    print(f"nocbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ftnoc sources under {ROOT}/src; run from a full checkout")
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "nocbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "ftnoc_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ftnoc_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="append pinned digests for --seeds to digests.txt")
    ap.add_argument("--seeds", help="FIRST-LAST, with --record")
    args = ap.parse_args()

    if args.selftest:
        cmd = [build(), "--selftest"]
    elif args.record:
        if not args.seeds:
            ap.error("--record needs --seeds FIRST-LAST")
        cmd = [build(), "--record", DIGESTS, "--seeds", args.seeds]
    else:
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds < 0:
            ap.error("--seed and --seconds must be non-negative")
        cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--digests", DIGESTS]
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
