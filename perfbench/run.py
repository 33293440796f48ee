#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload stream_deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The library and the benchmark binary are
built with CMake into `.bench_build/` (Release); later runs only rebuild what
changed.  The binary's last line of standard output is the result: one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Build output and
progress go to standard error.  `--selftest` runs every workload in short mode
(small inputs, each check still made) and fails unless all checks pass.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("stream_deep", "fleet_wide", "dashboard")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def run(args):
    """Runs the binary, echoes its output, and returns (exit code, result)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1, None
    return 0, result


def selftest():
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                                "--trace", trace, "--short"])
            good = code == 0 and result["correct"] and result["failed"] == 0
            print(f"perfbench selftest: {workload} trace={trace}: {'ok' if good else 'FAILED'}",
                  file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    if argv == ["--selftest"]:
        return selftest()
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
