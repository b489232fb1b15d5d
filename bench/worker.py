"""One benchmark run in a fresh interpreter (started by run.py).

Protocol on stdout: the line "ready" once set-up is done, then, unless
--setup-only, one JSON line with the run's raw results.  Set-up imports the
library from this checkout's src/ and runs one warm-up item, so it includes
the library's lazy first-use imports.

A single thread then drives a closed loop: items run one after another,
each through `drinfeld.cli.main` with its argv and stdin, in whole rounds
of the workload until --seconds have passed.  Before each item every
module-level cache of the library is emptied, so each item starts as cold
as a fresh CLI process.  Right before and after each item, and every
SAMPLE_INTERVAL_S during it (not in traced runs, whose spans would count
them), the host's speed is sampled with hostspeed.py; the item's time
leaves out the samples taken during it, and run.py reports it in
reference seconds.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import checks  # noqa: E402  (HERE is on sys.path: this file runs as a script)
import hostspeed  # noqa: E402
import workloads  # noqa: E402

# Host-speed samples: CAL_S before and after each item, and one kernel
# repetition (2.5-3 ms) every SAMPLE_INTERVAL_S during it.
CAL_S = 0.01
SAMPLE_INTERVAL_S = 0.025


def load_library():
    """Import drinfeld from this checkout, never from anywhere else."""
    sys.path.insert(0, SRC)
    import drinfeld.cli

    where = os.path.abspath(drinfeld.cli.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"drinfeld was imported from {where}, not {SRC}")
    return drinfeld.cli


def clear_caches():
    """Empty the library's module-level caches, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name != "drinfeld" and not name.startswith("drinfeld."):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.upper().endswith("_CACHE") and hasattr(value, "clear"):
                value.clear()
    gc.collect()


def run_item(cli, item, sampler=None):
    """(seconds, None) on success, or (seconds, (kind, message)) on failure.

    kind is "failed" when the item raised or exited with the wrong code and
    "wrong" when it answered and the answer disagrees with the checker.
    The seconds leave out the host-speed samples taken during the item.
    """
    out = io.StringIO()
    sampled = sampler.busy if sampler is not None else 0.0
    start = time.perf_counter()
    try:
        code = cli.main(item["argv"], io.StringIO(item["stdin"]), out)
    except (Exception, SystemExit) as exc:  # the item fails, the run goes on
        code, error = None, ("failed", repr(exc))
    elapsed = time.perf_counter() - start
    if sampler is not None:
        elapsed -= sampler.busy - sampled
    if code is None:
        return elapsed, error
    try:
        checks.check(item, code, out.getvalue())
    except checks.OperationFailed as exc:
        return elapsed, ("failed", str(exc))
    except checks.CheckFailed as exc:
        return elapsed, ("wrong", str(exc))
    return elapsed, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the spans here (traced runs)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr  # nothing the library prints can reach protocol
    cli = load_library()
    _, warm_error = run_item(cli, workloads.WARMUP)
    if warm_error is not None:
        raise SystemExit(f"warm-up item failed: {warm_error}")
    protocol.write("ready\n")
    protocol.flush()
    if args.setup_only:
        return

    items = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    sampler = hostspeed.Sampler()
    latencies, speeds, failures = [], [], []
    rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < args.seconds:
        for item in items:
            clear_caches()
            if tracer is not None:
                tracer.forget_objects()
            mark = sampler.mark()
            sampler.sample(CAL_S)
            if tracer is None:
                sampler.start(SAMPLE_INTERVAL_S)
            elapsed, failure = run_item(cli, item, sampler)
            sampler.stop()
            sampler.sample(CAL_S)
            latencies.append(elapsed)
            speeds.append(sampler.rep_seconds(mark))
            if failure is not None:
                failures.append({"label": item["label"], "kind": failure[0],
                                 "message": failure[1][:500]})
        rounds += 1

    result = {
        "rounds": rounds,
        "labels": [item["label"] for item in items],
        "latencies": latencies,
        "rep_seconds": speeds,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(rounds)
        if args.trace_out:
            tracer.dump(args.trace_out)
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()


if __name__ == "__main__":
    main()
