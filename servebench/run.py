#!/usr/bin/env python3
"""Serving benchmark: builds the servebench binary and runs its workloads.

    python3 servebench/run.py                    # every workload, seed 1
    python3 servebench/run.py --workload long_doc_decode --seed 7 \
        --seconds 10 --trace 1

Each workload runs in its own process (so peak RSS is per workload).  The
binary's last stdout line is the run's JSON result; build output goes to
stderr.  The build lives in .bench_build/servebench and traced runs write
spans to .bench_out/, both under the repository root.  Exit status is the
binary's: 0 ok, 1 a clean-workload output check failed, 2 could not run.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("chat_shared_prefix", "long_doc_decode", "faulty_mixed")
RUN_TIMEOUT_S = 175


def build():
    """Configure (a no-op when cached), then build the binary."""
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench",
                    "-j", "4"], stdout=log, stderr=log, check=True)
    return os.path.join(BUILD, "servebench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the library sources and root build file, path-sorted."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        if not os.path.isfile(path):
            return "unknown"
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 2
    meta = ["--out-dir", OUT, "--commit", commit(), "--src-digest",
            src_digest()]
    status = 0
    for w in [args.workload] if args.workload else WORKLOADS:
        cmd = [binary, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        try:
            rc = subprocess.run(cmd + meta, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"servebench: {w} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            rc = 2
        status = max(status, rc)
    return status


if __name__ == "__main__":
    sys.exit(main())
