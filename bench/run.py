"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload rank2_modules --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It times set-up in several fresh
interpreters (bench/worker.py --setup-only) and then runs the workload in
one more fresh interpreter, which drives the library's CLI in a closed
loop.  Every time is reported in reference seconds (hostspeed.py): scaled
by the host's speed, sampled around it and, for items, during it.  The
last line of stdout is

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1.  Raw results, and the spans of traced runs, go
to bench/results/.  Exits non-zero, printing no result, when the library
cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 7  # --setup-only interpreters timed from start to ready
SETUP_CAL_S = 0.1  # host-speed sample before and after each of them
RUN_DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _start(args):
    """Start a worker; return (process, seconds until it printed "ready")."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args,
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line != "ready\n":
        proc.stdout.close()
        proc.wait()
        raise RunError(f"worker did not set up (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline):
    """Wait for the worker's result line; kill it past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setup_wall, setup = [], []
    sampler = hostspeed.Sampler()
    before = sampler.mark()
    sampler.sample(SETUP_CAL_S)
    for _ in range(SETUP_SAMPLES):
        proc, ready = _start(base + ["--setup-only"])
        _finish(proc, deadline)
        after = sampler.mark()
        sampler.sample(SETUP_CAL_S)
        setup_wall.append(ready)
        setup.append(hostspeed.reference_seconds(
            ready, sampler.rep_seconds(before)))
        before = after
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")
    extra = ["--trace", str(trace), "--seconds", str(seconds)]
    if trace:
        extra += ["--trace-out", stem + "-spans.json.gz"]
    proc, _ = _start(base + extra)
    raw = json.loads(_finish(proc, deadline).splitlines()[-1])

    latencies = [hostspeed.reference_seconds(wall, rep) for wall, rep
                 in zip(raw["latencies"], raw["rep_seconds"])]
    failed = len(raw["failures"])
    if trace:
        metrics = raw["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "items_per_s": {"value": (len(latencies) - failed) / sum(latencies),
                            "unit": "1/s"},
            "item_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not any(f["kind"] == "wrong" for f in raw["failures"]),
              "attempted": len(latencies), "failed": failed,
              "metrics": metrics}
    for failure in raw["failures"]:
        print(f"{failure['kind']}: {failure['label']}: {failure['message']}",
              file=sys.stderr)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "setup_wall": setup_wall, "setup_samples": setup,
                   "reference_latencies": latencies, **raw,
                   "result": result}, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
