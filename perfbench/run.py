#!/usr/bin/env python3
"""Build and run the frame -> fix benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tour|crowd|lost --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the VisualPrint libraries from src/. It is configured and
built in Release under $CARGO_TARGET_DIR (default .bench_build) on the
first run and rebuilt incrementally on later ones; build output goes to
stderr. The benchmark binary's stdout is passed through unchanged, so its
last line is the run's JSON result. Exits nonzero when the build fails,
a check fails, or the run overruns its time limit.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-cmake"), os.path.join(target, "perfbench-out")


def run_quiet(cmd):
    """Run a build step, sending its output to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def configured_for_here(bdir):
    """True when bdir holds a CMake cache configured from this directory."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build(bdir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not configured_for_here(bdir):
        # No cache, or one configured from another checkout: start over.
        shutil.rmtree(bdir, ignore_errors=True)
        if run_quiet(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    return run_quiet(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]) == 0


def main():
    bdir, out_dir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(bdir, "perfbench")
    args = sys.argv[1:]
    if "--self-test" not in args and "--out" not in args:
        args += ["--out", out_dir]
    proc = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
