#!/usr/bin/env python3
"""Builds and runs the ADSynth end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estate_pipeline --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the libraries under
src/) in Release mode inside the build directory, `$CARGO_TARGET_DIR` or
`.bench_build` when unset; later calls only rebuild what changed.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Scratch files and result records stay under the build directory.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def source_revision():
    """The git revision, or a digest of the sources when not in a git tree."""
    try:
        # The ceiling keeps git from adopting a repository above ROOT.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ADSynth sources under %s/src" % ROOT)
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "adsynth_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "adsynth_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["estate_pipeline", "defender_whatif",
                                 "bloodhound_serving"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--work-dir", os.path.join(build_dir, "work"),
           "--out-dir", os.path.join(build_dir, "results")]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PERFBENCH_GIT_REV=source_revision())
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
