#!/usr/bin/env python3
"""Steadiness check for the pdx end-to-end benchmark.

    python3 perfbench/steady.py --runs 10            # every workload
    python3 perfbench/steady.py --runs 5 --workloads serve_small

Runs every workload N times, interleaving the workloads (run i of every
workload uses seed base + i), then prints for each end-to-end metric its
median, quartiles, quartile spread and max/min spread against the bound in
BENCHMARK.json, the share of failed jobs, and the trisolve strategy each
tenant locked in on each run, so a calibration-race flip shows. The
quartile spread of every metric but setup_s must stay within its bound; the
target while tuning is a third of it. Raw results go to --out as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.stderr.write(proc.stdout[-4000:])
    lines = proc.stdout.strip().splitlines()
    tenants = {}
    for line in lines:
        if line.startswith("TENANTS "):
            tenants = json.loads(line[len("TENANTS "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, tenants, elapsed


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", help="write every run's result here (JSON)")
    a = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: [] for w in a.workloads}
    for i in range(a.runs):
        for w in a.workloads:
            rc, res, tenants, elapsed = run_once(w, a.seed_base + i, a.seconds, 0)
            runs[w].append({"seed": a.seed_base + i, "status": rc, "result": res,
                            "tenants": tenants, "elapsed_s": elapsed})
            summary = " ".join("%s=%.6g" % (k, v["value"])
                               for k, v in (res or {}).get("metrics", {}).items())
            print("run %d %s seed %d: exit %d, %.1f s  %s" %
                  (i, w, a.seed_base + i, rc, elapsed, summary), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(runs, f, indent=1)

    ok = True
    for w in a.workloads:
        good = [r for r in runs[w] if r["status"] == 0 and r["result"]]
        print("\n== %s: %d of %d runs passed" % (w, len(good), len(runs[w])))
        if len(good) < len(runs[w]):
            ok = False
        if not good:
            continue
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in good})
        print("  failed share per run: %s" % shares)
        print("  %-16s %12s %12s %12s %8s %8s %6s" %
              ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name, m in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in good]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                if iqr > m["bound"]:
                    flag, ok = "OVER BOUND", False
                elif iqr > m["bound"] / 3:
                    flag = "over bound/3"
            print("  %-16s %12.6g %12.6g %12.6g %8.3f %8.3f %6.2f %s" %
                  (name, med, q1, q3, iqr, rng, m["bound"], flag))
        print("  locked-in strategies:")
        for r in good:
            print("    seed %d: %s" % (r["seed"], json.dumps(r["tenants"])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
