#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared against
the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Set A uses seeds 1..runs, set B seeds runs+1..2*runs. For every workload and end-to-end metric it prints
each set's median and quartiles, the quartile spread as a share of the
median, and the shift of B's median from A's, against the metric's bound.
It also compares the share of failed operations between the sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
    print(f"   seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    return result


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    ok = True
    for w in a.workloads.split(","):
        print(f"== {w}", flush=True)
        sets = []
        for k in range(2):
            sets.append([run(w, k * a.runs + s + 1, a.seconds) for s in range(a.runs)])
        shares = [sorted({r["failed"] / r["attempted"] for r in rs}) for rs in sets]
        print(f"   failed share per set: {shares}")
        ok &= all(len(s) == 1 for s in shares) and all(s == shares[0] for s in shares)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = [stats([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            shift = (rows[-1][1] - rows[0][1]) / rows[0][1] if rows[0][1] else 0.0
            if m["better"] == "higher":
                shift = -shift
            steady = all(r[3] <= bound / 3 for r in rows)
            flag = "ok" if steady and shift <= bound else "UNSTEADY"
            ok &= flag == "ok"
            sets_txt = "  ".join(f"[{q1:.4g} {med:.4g} {q3:.4g}] spread {sp:.3f}" for q1, med, q3, sp in rows)
            print(f"   {name:12s} bound {bound:.3f}  {sets_txt}  shift {shift:+.3f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
