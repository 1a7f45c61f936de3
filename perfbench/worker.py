"""One workload process: set up, print READY, run the passes, print results.

Started by run.py, which times set-up from process start to the READY
line. The last line of standard output is a JSON object with the job
counts and, untraced, each job key's time samples, which run.py pools
over the workers of a run; traced, the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--order", type=int, default=0,
                    help="draws the job order of the passes; the inputs come from --seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qba
    import qba.cli  # noqa: F401  (the desk workload's entry point)
    if not Path(qba.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qba was imported from {qba.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from metrics import Runner
    from spans import SpanRecorder, layer_metrics
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{args.seed}-{'setup' if args.setup_only else 'run'}"
    try:
        workload = WORKLOADS[args.workload](qba, random.Random(args.seed), workdir)
        workload.rng.seed(f"{args.seed}.{args.order}")
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            recorder = SpanRecorder()
            plain, traced = Runner(), Runner(tracer=recorder)
            for _ in range(args.passes):
                workload.run_pass(plain)
                recorder.install()
                try:
                    workload.run_pass(traced)
                finally:
                    recorder.uninstall()
            recorder.write(OUT / f"trace-{args.workload}.tsv.gz")
            result = {
                "attempted": plain.attempted + traced.attempted,
                "failed": plain.failed + traced.failed,
                "failures": (plain.failures + traced.failures)[:20],
                "known_defects": {**plain.known_defects, **traced.known_defects},
                "layers": {k: list(v) for k, v in layer_metrics(
                    recorder, traced.busy, plain.busy).items()},
            }
        else:
            runner = Runner(reference=workload.REFERENCE)
            for _ in range(args.passes):
                workload.run_pass(runner)
                for _ in range(workload.LIGHT_PASSES):
                    workload.run_pass(runner, light=True)
            result = dict(runner.state(), failures=runner.failures[:20],
                          known_defects=runner.known_defects)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
