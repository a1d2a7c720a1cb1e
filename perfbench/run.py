#!/usr/bin/env python3
"""Build and run one workload of the k-LSM benchmark.

    python3 perfbench/run.py --workload mix|sssp|des --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/ (and the
library in src/) in Release into $CARGO_TARGET_DIR or .bench_build,
refuses a Debug or sanitizer build, prints the build's provenance, and
runs the workload in a fresh process.  The workload prints every metric
with its unit, the attempted and failed operation counts, and as the
last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when the build is valid and every check passed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mix", "sssp", "des")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("command failed: " + " ".join(cmd))
    return p.stdout


def build():
    """Configure and build in Release; return (binary, cache entries)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "klsm", "k_lsm.hpp")):
        fail("no k-LSM sources under ./src; run from a checkout's root")
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    out = os.path.join(ROOT, out) if not os.path.isabs(out) else out
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, 600)
    run_quiet(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)], 900)
    entries = {}
    with open(cache) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                entries[m.group(1)] = m.group(2)
    return os.path.join(out, "klsm_perf"), entries


def provenance(entries):
    build_type = entries.get("CMAKE_BUILD_TYPE", "")
    cfg = build_type.upper()
    flags = " ".join(entries.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + cfg,
                      "CMAKE_EXE_LINKER_FLAGS")).split()
    if build_type not in ("Release", "RelWithDebInfo"):
        fail("refusing a %r build: timings need Release" % build_type, 3)
    if any(f.startswith("-fsanitize") for f in flags):
        fail("refusing a sanitizer build", 3)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    print("provenance: build_type=%s compiler=%s %s flags=%r nproc=%d "
          "git_commit=%s source_sha256=%s" % (
              build_type, entries.get("CMAKE_CXX_COMPILER", "?"),
              compiler_version(entries.get("CMAKE_CXX_COMPILER", "")),
              " ".join(flags), os.cpu_count() or 0,
              commit or "none (not a git checkout)",
              digest.hexdigest()[:16]))


def compiler_version(cxx):
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        return out.splitlines()[0] if out else "?"
    except (OSError, subprocess.SubprocessError):
        return "?"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")

    binary, entries = build()
    provenance(entries)
    sys.stdout.flush()
    try:
        p = subprocess.run([binary, "--workload", a.workload, "--seed",
                            str(a.seed), "--seconds", str(a.seconds),
                            "--trace", str(a.trace)],
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s ran past %d s" % (a.workload, RUN_TIMEOUT_S), 1)
    lines = p.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("workload %s printed nothing (exit %d)" % (a.workload,
                                                        p.returncode), 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1][:200], 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys: %s" % sorted(result), 1)
    print(json.dumps(result))
    sys.exit(0 if p.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
