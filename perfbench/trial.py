"""One benchmark trial, in a fresh interpreter.

Imports rhopi from the checkout's ``src``, builds one workload's inputs,
runs every item to its verdicts and prints one JSON object on stdout.
Times are ``time.monotonic()`` readings; on Linux that clock is shared by
all processes, so the parent can take set-up time from the moment it
started this interpreter.

An untraced trial starts a ``speed.SpeedMeter`` before anything else and
reports, besides the wall times, every span on the meter's reference scale:
set-up as ``(loop seconds, rate)`` for the parent to finish, since only the
parent knows when the interpreter started; each item and the verdict span
as scaled seconds.  A traced trial runs no meter, so that its spans hold
only the program's time.

    python3 perfbench/trial.py --workload criteria --seed 3 [--trace]
"""

from __future__ import annotations

import atexit
import sys

import speed

METER = None if "--trace" in sys.argv else speed.SpeedMeter()
if METER is not None:
    METER.start()
    atexit.register(METER.stop)  # a tick after the handler is gone would kill the process

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rhopi.cli  # noqa: E402,F401  (what a rhopi invocation imports; part of set-up)

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_item(item) -> list:
    """The item's (check, verdict, expected) triples; an exception raised by
    rhopi is one failed check."""
    try:
        return [list(o) for o in item.run()]
    except Exception as exc:  # a crash in the program under test is a result
        return [[item.name, f"error: {type(exc).__name__}: {exc}"[:200], "no error"]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--criteria-seeds", default=",".join(map(str, workloads.CRITERIA_SEEDS)))
    args = ap.parse_args()
    criteria_seeds = [int(s) for s in args.criteria_seeds.split(",")]

    def mark() -> int:
        return METER.mark() if METER is not None else 0

    tracer = missing = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    items = workloads.prepare(args.workload, args.seed, criteria_seeds)
    t_ready = time.monotonic()
    m_ready = mark()

    results = []
    for item in items:
        m0, t0 = mark(), time.perf_counter()
        outcomes = run_item(item)
        seconds, m1 = time.perf_counter() - t0, mark()
        results.append({"name": item.name, "text": item.text, "wall_s": seconds,
                        "seconds": METER.scaled(seconds, m0, m1) if METER else None,
                        "outcomes": outcomes})
    t_done = time.monotonic()
    m_done = mark()

    out = {
        "t_ready": t_ready,
        "t_done": t_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
    }
    if METER is not None:
        METER.stop()
        out["setup_loops_s"] = METER.loops_s(0, m_ready)
        out["setup_rate"] = METER.rate(0, m_ready)
        out["verdict_loops_s"] = METER.loops_s(m_ready, m_done)
        out["verdict_s"] = METER.scaled(t_done - t_ready, m_ready, m_done)
    if tracer is not None:
        out["missing"] = missing
        out["layers"] = tracing.layer_metrics(tracer, missing)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
