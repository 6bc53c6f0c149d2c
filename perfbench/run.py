"""The rhopi benchmark: cold-process verdict times, end to end and per layer.

    python3 perfbench/run.py --workload {repro,criteria,bisim} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each trial is a fresh, single-threaded
interpreter (``trial.py``) that imports rhopi, builds the workload's inputs
and runs them to their verdicts, one trial after another, for about
``--seconds`` seconds.  Cold caches are what every ``rhopi`` invocation
pays, so no trial reuses another's process.

With ``--trace 0`` every trial is untraced, and its times are put on the
reference scale of ``speed.py``, which takes the shared machine's changing
speed out of them.  The end-to-end metrics are medians over the trials; the
per-item percentiles are taken over each item's median.  With ``--trace 1``
traced and untraced trials alternate; the per-layer metrics come from the
traced ones (times are wall-clock medians, counts must be equal in every
traced trial) and ``trace.overhead_ratio`` compares the median wall times of
the two kinds.

Every verdict is checked against its known answer (see ``workloads.py``).
A failed operation is an exception, an Unknown or a wrong verdict.  The
result is ``correct`` when every trial gave the same verdicts, nothing
raised, and every wrong verdict is a known defect listed in
``workloads.KNOWN_WRONG``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only; rhopi is imported by trials)

MIN_TRIALS = 3
# Trials import rhopi from bytecode written by the warm-up, as an installed
# package does, whatever the caller's environment says about writing it.
TRIAL_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "term_p50_s": "s",
    "term_p90_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a trial crashed."""


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_trial(args, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "trial.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--criteria-seeds", args.criteria_seeds]
    if traced:
        cmd.append("--trace")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=TRIAL_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"trial did not finish within {timeout:.0f} s") from exc
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise BenchError(f"trial exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    trial = json.loads(proc.stdout.strip().splitlines()[-1])
    trial["traced"] = traced
    trial["wall_s"] = wall
    trial["wall_setup_s"] = trial["t_ready"] - t_spawn
    trial["wall_verdict_s"] = trial["t_done"] - trial["t_ready"]
    if not traced:
        trial["setup_s"] = (trial["wall_setup_s"] - trial["setup_loops_s"]) * trial["setup_rate"]
    return trial


def run_trials(args) -> list:
    """Trials until --seconds is used up: at least MIN_TRIALS, and with
    --trace 1 traced and untraced alternating, starting traced."""
    # Importing the trial module compiles rhopi and the benchmark's own
    # modules once, so that no timed trial pays for writing bytecode;
    # ``--help`` exits right after the imports.
    subprocess.run([sys.executable, str(HERE / "trial.py"), "--help"], cwd=ROOT, env=TRIAL_ENV,
                   stdout=subprocess.DEVNULL, check=True, timeout=RUN_LIMIT_S)
    start = time.monotonic()
    trials: list = []
    while True:
        elapsed = time.monotonic() - start
        if len(trials) >= MIN_TRIALS:
            typical = statistics.median(t["wall_s"] for t in trials)
            if elapsed + typical > min(args.seconds, RUN_LIMIT_S):
                break
        traced = args.trace == 1 and len(trials) % 2 == 0
        trials.append(run_trial(args, traced, RUN_LIMIT_S - elapsed))
    return trials


def classify(workload: str, trial: dict) -> dict:
    """Count one trial's outcomes; ``notes`` describes every check that
    did not give its expected verdict."""
    tally = {"attempted": 0, "right": 0, "unknown": 0, "errors": 0,
             "wrong": 0, "unlisted": 0, "notes": []}
    for item in trial["items"]:
        for check, verdict, expected in item["outcomes"]:
            tally["attempted"] += 1
            if verdict == expected:
                tally["right"] += 1
                continue
            note = f"{item['name']} {check}: {verdict} (expected {expected})"
            if verdict.startswith("error: "):
                tally["errors"] += 1
            elif verdict in workloads.UNDECIDED:
                tally["unknown"] += 1
            else:
                tally["wrong"] += 1
                known = workloads.KNOWN_WRONG.get((workload, item["text"], check))
                if known is None:
                    tally["unlisted"] += 1
                    note += " UNEXPECTED"
                else:
                    note += f" known defect: {known}"
            tally["notes"].append(note)
    return tally


def signature(trial: dict) -> list:
    return [(i["name"], o[0], o[1]) for i in trial["items"] for o in i["outcomes"]]


def end_to_end(trials: list, tally: dict) -> dict:
    """Each metric's value and its spread over the untraced trials."""
    plain = [t for t in trials if not t["traced"]]
    per_trial = {
        "setup_s": [t["setup_s"] for t in plain],
        "verdict_s": [t["verdict_s"] for t in plain],
        "peak_rss_mb": [t["peak_rss_mb"] for t in plain],
    }
    out = {name: (statistics.median(v), spread(v)) for name, v in per_trial.items()}
    # every trial runs the same items in the same order
    per_item = [statistics.median(t["items"][i]["seconds"] for t in plain)
                for i in range(len(plain[0]["items"]))]
    for name, q in (("term_p50_s", 0.5), ("term_p90_s", 0.9)):
        out[name] = (percentile(per_item, q),
                     spread([percentile([i["seconds"] for i in t["items"]], q) for t in plain]))
    decided = tally["right"] + tally["wrong"]
    out["decided_ratio"] = (decided / tally["attempted"], 0.0)
    return out


def wall_clock(trials: list) -> dict:
    """Median wall times of the untraced trials, before scaling, with the
    meter's loops taken out of the verdict span."""
    plain = [t for t in trials if not t["traced"]]
    return {"setup_s": statistics.median(t["wall_setup_s"] for t in plain),
            "verdict_s": statistics.median(t["wall_verdict_s"] - t["verdict_loops_s"]
                                           for t in plain)}


def per_layer(trials: list) -> tuple:
    """Per-layer metrics from the traced trials and whether their counts
    repeat exactly."""
    traced = [t["layers"] for t in trials if t["traced"]]
    out = {}
    repeat = True
    for name, (value, unit) in traced[0].items():
        values = [layers[name][0] for layers in traced]
        if unit in ("count", "ratio"):
            repeat &= len(set(values)) == 1
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    ratio = (statistics.median(t["wall_verdict_s"] for t in trials if t["traced"])
             / wall_clock(trials)["verdict_s"])
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--criteria-seeds", default=",".join(map(str, workloads.CRITERIA_SEEDS)),
                    help="corpus seeds of the criteria workload, comma-separated")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rhopi" / "__init__.py").is_file():
        print(f"error: no rhopi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        trials = run_trials(args)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tallies = [classify(args.workload, t) for t in trials]
    same_verdicts = all(signature(t) == signature(trials[0]) for t in trials)
    correct = same_verdicts and not any(t["errors"] or t["unlisted"] for t in tallies)

    n_traced = sum(t["traced"] for t in trials)
    print(f"workload {args.workload}  seed {args.seed}  trials {len(trials)} "
          f"({n_traced} traced)  python {sys.version.split()[0]}")
    first = tallies[0]
    print(f"per trial: {first['attempted']} checks, {first['right']} right, "
          f"{first['wrong']} wrong_verdicts, {first['unknown']} unknown, "
          f"{first['errors']} errors")
    for note in first["notes"]:
        print(f"  {note}")
    if not same_verdicts:
        print("NOT DETERMINISTIC: verdicts differ between trials")

    if args.trace:
        metrics, repeat = per_layer(trials)
        correct = correct and repeat
        metrics["wrong_verdicts"] = (first["wrong"], "count")
        if not repeat:
            print("NOT DETERMINISTIC: per-layer counts differ between traced trials")
        first_traced = next(t for t in trials if t["traced"])
        if first_traced["missing"]:
            print(f"not traced (missing in rhopi): {', '.join(first_traced['missing'])}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:26s} {value:14.6g} {unit}")
    else:
        e2e = end_to_end(trials, first)
        metrics = {}
        for name, unit in END_TO_END.items():
            value, iqr = e2e[name]
            metrics[name] = (value, unit)
            print(f"  {name:14s} {value:12.6g} {unit:5s}  spread over trials {iqr:.1%}")
        wall = wall_clock(trials)
        print(f"  wall clock, unscaled: setup {wall['setup_s']:.4g} s, "
              f"verdict {wall['verdict_s']:.4g} s (medians)")

    result = {
        "correct": correct,
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["attempted"] - t["right"] for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
