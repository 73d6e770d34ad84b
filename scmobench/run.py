#!/usr/bin/env python3
"""Build the SCMO benchmark from source and run it.

    python3 scmobench/run.py --workload cmo-mem4 --seed 1 --seconds 20 --trace 0
    python3 scmobench/run.py --self-test

Run from anywhere inside a checkout. The benchmark is built with CMake into
.bench_build/scmobench at the checkout root (build output goes to stderr);
records, traces and scratch files go to .bench_out. The last line of
standard output is the run's JSON result. See scmobench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scmobench")
OUT = os.path.join(ROOT, ".bench_out")


def fail(msg):
    print("scmobench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    session = os.path.join(ROOT, "src", "driver", "CompilerSession.h")
    if not os.path.isfile(session):
        fail("no SCMO source tree at " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "scmobench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "scmobench")


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "scmobench", "CMakeLists.txt"):
        top = os.path.join(ROOT, top)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    cmd = [binary, "--out", OUT]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace,
                "--rev", revision()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
