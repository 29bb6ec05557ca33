#!/usr/bin/env python3
"""Build the pp library from this checkout's src/ and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The library and the harness are built
from source into .bench_build/perfbench (never build/ or an installed
binary).  Each run gets a fresh JIT kernel cache and temporary directory
under .bench_build that are removed when the run ends; traced runs leave
their span dump in .bench_build/traces.  The last line of stdout is the
JSON result.  Without the program's sources the build fails and the
command exits non-zero before printing any result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile_flow", "batch_eval", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "platform", "compiler.h")):
        fail("no program sources under %s/src; nothing to measure" % ROOT)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    tmp = os.path.join(work, "tmp")  # the host compiler's temporary files
    os.makedirs(tmp)
    env = dict(os.environ, PP_JIT_CACHE=os.path.join(work, "jit-default"),
               TMPDIR=tmp)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("harness exited %d without a result line" % proc.returncode)
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
