#!/usr/bin/env python3
"""Build and run the pdx end-to-end benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick          # every workload, tiny sizes

Run from the root of a checkout. The first run configures and builds
perfbench/ (the pdx library from src/ plus pdx_perfbench.cpp) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild only what changed. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. Extra options (--width N,
--strategy NAME) are passed to pdx_perfbench; see README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_small", "solve_large", "timestep"]
# A run must end within this many seconds after the build.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(bdir):
    """Configure and build (both incremental); returns the program's path."""
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=log, stderr=log)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(bdir, "pdx_perfbench")


def run_bench(exe, args, trace_dir):
    """Run one benchmark; relays its output and returns its exit status."""
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe] + args + ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark killed after %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode if proc.returncode >= 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload at tiny sizes, untraced and traced, "
                         "1 s each, with every check")
    ap.add_argument("--width", type=int, help="pool width (default nproc - 1)")
    ap.add_argument("--strategy", help="pin the trisolve strategy (default auto)")
    a = ap.parse_args()
    if not a.quick and not a.workload:
        ap.error("--workload is required (or --quick)")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 1

    extra = []
    if a.width:
        extra += ["--width", str(a.width)]
    if a.strategy:
        extra += ["--strategy", a.strategy]
    trace_dir = os.path.join(bdir, "traces")
    if not a.quick:
        return run_bench(exe, ["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", repr(a.seconds),
                                "--trace", str(a.trace)] + extra, trace_dir)
    status = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            rc = run_bench(exe, ["--workload", w, "--seed", str(a.seed),
                                  "--seconds", "1", "--trace", str(trace),
                                  "--quick"] + extra, trace_dir)
            print("quick %s trace %d: %s" % (w, trace, "ok" if rc == 0 else "FAILED"))
            status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
