#!/usr/bin/env python3
"""A/B the serving benchmark between two checkouts in alternating pairs.

    python3 scripts/servebench_ab.py PARENT CHANGE [--pairs 10] [--seconds 8]
        [--json runs.json]

Each pair runs `python3 servebench/run.py --seconds S` once in each checkout
(every workload, one process per workload, builds from that checkout's
sources), alternating which side goes first so slow drift on a shared host
does not favour one side.  For every workload and end-to-end metric of
CHANGE's BENCHMARK.json it prints

  * the median over pairs of the change/parent ratio, and in how many pairs
    the change was better (its metric's "better" direction);
  * the parent's spread, IQR / median over its runs; a metric whose spread
    exceeds its bound is marked "unresolved" — its noise alone could cross
    the bound, so the ratio does not decide anything;
  * the change's spread, its IQR over the *parent's* median; a metric whose
    change spread exceeds the bound is marked "change unsteady" — a faster
    build carries the same relative noise at a larger absolute value;

then each run's `passes N` line, because servebench repeats passes until it
has S seconds of timed work and keeps every pass's model alive: a faster
build serves more passes, and peak RSS moves with the pass count.
Exit status: 0 when every run was correct, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def run_once(checkout, seconds):
    """One run.py invocation: {workload: {"metrics", "passes", "ok", ...}}."""
    r = subprocess.run(
        [sys.executable, "servebench/run.py", "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    out, workload = {}, None
    for line in r.stdout.splitlines():
        if line.startswith("servebench ") and "(trace" in line:
            workload = line.split()[1]
            out[workload] = {"passes": None, "metrics": {}, "ok": False}
        elif workload and line.startswith("passes "):
            out[workload]["passes"] = line.strip()
        elif workload and line.startswith('{"correct"'):
            res = json.loads(line)
            out[workload].update(
                ok=res["correct"], attempted=res["attempted"],
                failed=res["failed"],
                metrics={k: v["value"] for k, v in res["metrics"].items()})
    if r.returncode != 0:
        print(f"  {checkout}: run.py exited {r.returncode}", file=sys.stderr)
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--json", help="write every run's raw results here")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            res = run_once(getattr(args, side), args.seconds)
            runs[side].append(res)
            passes = "; ".join(f"{w}: {res.get(w, {}).get('passes')}"
                               for w in workloads)
            print(f"pair {i} {side}: {passes}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    all_ok = True
    print(f"\n{args.pairs} pairs, --seconds {args.seconds:g}; ratio = "
          "change/parent, median over pairs; spread = parent IQR / "
          "change IQR, each over the parent median")
    for w in workloads:
        print(f"\n{w}")
        for side in ("parent", "change"):
            bad = [i for i, r in enumerate(runs[side])
                   if not r.get(w, {}).get("ok")]
            failed = sum(r.get(w, {}).get("failed", 0) for r in runs[side])
            attempted = sum(r.get(w, {}).get("attempted", 0)
                            for r in runs[side])
            print(f"  {side}: {attempted} requests, {failed} failed, "
                  f"incorrect runs {bad or 'none'}")
            all_ok &= not bad
        for m in metrics:
            name, bound = m["name"], m["bound"]
            pairs = [(p[w]["metrics"][name], c[w]["metrics"][name])
                     for p, c in zip(runs["parent"], runs["change"])
                     if name in p.get(w, {}).get("metrics", {})
                     and name in c.get(w, {}).get("metrics", {})]
            if not pairs:
                print(f"  {name:14s} no samples")
                continue
            ratios = [c / p for p, c in pairs if p]
            better = sum((c < p) if m["better"] == "lower" else (c > p)
                         for p, c in pairs)
            q1, med, q3 = quartiles([p for p, _ in pairs])
            spread = (q3 - q1) / med if med else 0.0
            cq1, cmed, cq3 = quartiles([c for _, c in pairs])
            cspread = (cq3 - cq1) / med if med else 0.0
            note = "  unresolved (spread > bound)" if spread > bound else ""
            if cspread > bound:
                note += "  change unsteady (spread > bound)"
            print(f"  {name:14s} ratio {statistics.median(ratios):7.3f}  "
                  f"better {better:2d}/{len(pairs)}  parent {med:10.4g}  "
                  f"change {cmed:10.4g} {m['unit']:6s} spread {spread:5.2f} "
                  f"/ {cspread:5.2f} (bound {bound}){note}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
