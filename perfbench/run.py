"""Benchmark of the qba workbench: one workload per call, or all of them.

    python3 perfbench/run.py --workload enumerate|congruences|desk|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; qba is imported from ./src. A run
shares whole passes of the workload's jobs out over up to WORKERS fresh
worker processes, one after another; each sets up, then runs its passes
one job at a time (a closed loop with one client). The number of full
passes is the one that fills ``--seconds`` at the speed the benchmark was
calibrated on, so every run of a workload measures the same jobs and its
percentiles rest on the same samples.

With ``--trace 0`` the run also starts SETUP_PROBES workers that stop at
READY, and ``setup_s`` is the median of all the set-up times. Set-up and
job times are counted at the reference speed of metrics.Runner. With
``--trace 1`` one worker alternates untraced and traced passes and the
metrics are the per-layer ones. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import REFERENCE_S, reference_time, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "qba"
OUT = HERE / "out"

WORKLOADS = ("enumerate", "congruences", "desk")
# Seconds one full pass and the light passes after it took on the
# calibration machine (2 shared cores, Python 3.11), with the seed program,
# reference slices and checks included, rounded up.
NOMINAL_PASS_S = {"enumerate": 2.5, "congruences": 15.0, "desk": 7.0}
SETUP_PROBES = 8
WORKERS = 4
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"items_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def start_worker(args: list[str], deadline: float):
    """Start a worker and wait for READY. Returns (process, set-up seconds
    counted at the reference speed, watchdog); the watchdog kills the
    worker at the deadline."""
    before = reference_time()
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    setup *= 2 * REFERENCE_S / (before + reference_time())  # see metrics.Runner
    if line.strip() != "READY":
        finish(proc, watchdog)
        raise RuntimeError(f"worker {' '.join(args)} did not set up (exit {proc.returncode})")
    return proc, setup, watchdog


def finish(proc, watchdog) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return out


def metadata(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_qba_lines": lines,
            "python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    proc, setup, watchdog = start_worker(args, deadline)
    out = finish(proc, watchdog)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    passes = passes_for(workload, seconds)
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        passes = math.ceil(passes / 2)  # each is one untraced and one traced pass
        res, setup = run_worker(base + ["--passes", str(passes), "--trace", "1"], deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        res.update(workload=workload, passes=passes, traced=True, setup_samples=[setup])
        return {"correct": res["failed"] == 0, "attempted": res["attempted"],
                "failed": res["failed"], "metrics": metrics, "detail": res}
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup, watchdog = start_worker(base + ["--setup-only"], deadline)
        finish(proc, watchdog)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        setups.append(setup)
    # The passes are shared out over fresh workers, each with its own job
    # order, so that one process's memory layout does not set the figures.
    workers = min(WORKERS, passes)
    states = []
    for i in range(workers):
        share = passes // workers + (i < passes % workers)
        res, setup = run_worker(base + ["--passes", str(share), "--order", str(i)], deadline)
        states.append(res)
        setups.append(setup)
    res = dict(summary(states), setup_s=statistics.median(setups),
               peak_rss_mb=max(st["peak_rss_mb"] for st in states),
               failures=[f for st in states for f in st["failures"]][:20],
               known_defects={k: v for st in states for k, v in st["known_defects"].items()},
               workload=workload, passes=passes, workers=workers, traced=False,
               setup_samples=setups)
    metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "detail": res}


def report(result: dict, meta: dict) -> None:
    d = result["detail"]
    n = d["passes"]
    passes = (f"{n} untraced and {n} traced full passes" if d["traced"]
              else f"{n} full passes over {d['workers']} workers, each followed by light ones")
    print(f"# workload {d['workload']}: {passes}, {d['attempted']} jobs, {d['failed']} failed")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        extra = ""
        if name == "job_tail_ms":
            extra = (f"  (p{d['tail_percentile']:.2f} of {d['samples']} samples, "
                     f"{d['tail_beyond']} beyond)")
        print(f"# {name:44s} {m['value']:.6g} {m['unit']}{extra}")
    for key, what in d.get("known_defects", {}).items():
        print(f"# known defect {key}: {what}")
    for failure in d.get("failures", []):
        print(f"# FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"no qba sources at {SRC}; run from the root of a qba checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    meta = metadata(args.seed)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        (OUT / f"last-{workload}-trace{args.trace}.json").write_text(
            json.dumps(dict(result, meta=meta), indent=1), "utf-8")
        report(result, meta)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
