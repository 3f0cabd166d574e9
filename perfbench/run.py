#!/usr/bin/env python3
"""Builds and runs the BlobSeer end-to-end benchmark (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each call configures and builds perfbench/ (a standalone CMake project that
compiles ../src) in .bench_build/ under the current directory; only the
first call compiles everything, later ones rebuild what changed. A
single-workload run prints the binary's output, whose last line is the
result JSON. `--workload all` runs every workload in turn, prints each one's
metrics by name and unit, and exits non-zero if any run failed verification.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["append_shared", "read_cold", "mixed_versioned"]
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_LOG = os.path.join(".bench_build", "build.log")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the perfbench target (Release only); both steps
    are quick no-ops once the tree is up to date."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    with open(BUILD_LOG, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = "error: %s" % e
            if rc != 0:
                with open(BUILD_LOG) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s); tail of %s:\n%s" % (rc, BUILD_LOG,
                                                            tail))


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    data_dir = os.path.join(".bench_build", "data",
                            "%s-%d" % (workload, os.getpid()))
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data_dir]
    if trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.tsv" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        out = ""
        print("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return proc.returncode, out


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")

    build()

    if args.workload != "all":
        rc, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        result = last_json(out)
        if rc != 0 or result is None:
            fail("%s exited with %s" % (args.workload, rc), rc or 1)
        return 0

    summary = {}
    bad = []
    for w in WORKLOADS:
        rc, out = run_one(w, args.seed, args.seconds, args.trace)
        result = last_json(out)
        if rc != 0 or result is None or not result.get("correct"):
            bad.append(w)
            sys.stdout.write(out)
            continue
        # Human-readable lines carry the metrics the JSON cannot (the
        # read/update split, fail_ratio); print them all.
        for line in out.splitlines()[:-1]:
            print("%-16s %s" % (w, line))
        summary[w] = result
    print(json.dumps({"workloads": summary, "failed_workloads": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
