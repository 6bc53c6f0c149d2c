"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads repro,criteria,bisim --seeds 1-10 \
        [--seconds 20] [--trace] [--repeat 11-20] [--out perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed, one run after another,
and prints each end-to-end metric's median, quartiles and quartile spread
(the distance between the quartiles as a share of the median), the same
figure the benchmark's bounds are checked against.  With ``--trace`` it adds
one traced run per workload for the per-layer table.  ``--repeat`` then runs
a second set with other seeds and compares the two sets against the bounds
in ``BENCHMARK.json``.  ``--out`` writes all of it, with the Python version
and processor count, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import spread  # noqa: E402  (the formula the bounds are read against)


def seed_list(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread(values), "values": values}


def run_set(workloads: list, seeds: list, seconds: int, trace: bool) -> dict:
    out = {}
    for workload in workloads:
        runs = {seed: bench(workload, seed, seconds, 0) for seed in seeds}
        entry = {"seeds": seeds, "correct": all(r["correct"] for r in runs.values()),
                 "attempted": [r["attempted"] for r in runs.values()],
                 "failed": [r["failed"] for r in runs.values()], "end_to_end": {}}
        print(f"{workload}: correct {entry['correct']}  failed/attempted "
              f"{entry['failed'][0]}/{entry['attempted'][0]} (first run)")
        for name, m in next(iter(runs.values()))["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs.values()])
            s["unit"] = m["unit"]
            entry["end_to_end"][name] = s
            print(f"  {name:14s} median {s['median']:10.6g} {m['unit']:5s} "
                  f"q1 {s['q1']:10.6g} q3 {s['q3']:10.6g} spread {s['spread']:.1%}")
        if trace:
            traced = bench(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        out[workload] = entry
        sys.stdout.flush()
    return out


def compare(a: dict, b: dict, bounds: dict) -> dict:
    """Per workload and metric: both spreads, how far the second median moved
    from the first, and a status against the metric's bound."""
    out = {}
    for workload, entry in a.items():
        rows = out[workload] = {}
        for name, sa in entry["end_to_end"].items():
            sb = b[workload]["end_to_end"][name]
            shift = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            worst = max(sa["spread"], sb["spread"], abs(shift))
            bound = bounds[name]
            status = ("steady" if worst < bound / 3 else
                      "within bound" if worst <= bound else "unresolved")
            rows[name] = {"bound": bound, "spread_a": round(sa["spread"], 4),
                          "spread_b": round(sb["spread"], 4),
                          "median_shift_b_vs_a": round(shift, 4), "status": status}
            print(f"{workload:9s} {name:14s} spreads {sa['spread']:6.1%} {sb['spread']:6.1%}  "
                  f"median moved {shift:+6.1%}  {status}")
    return out


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="repro,criteria,bisim")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=config["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--repeat", help="seeds of a second set, e.g. 11-20")
    ap.add_argument("--out")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": args.seconds,
              "workloads": run_set(workloads, seed_list(args.seeds), args.seconds, args.trace)}
    if args.repeat:
        second = run_set(workloads, seed_list(args.repeat), args.seconds, False)
        report["repeat"] = {"seeds": args.repeat, "workloads": second}
        bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
        report["comparison"] = {
            "note": f"set A (seeds {args.seeds}) then set B (seeds {args.repeat}), back to "
                    "back, same code. steady: both spreads and the shift of the median under a "
                    "third of the bound; within bound: under the bound; unresolved: a spread or "
                    "the shift above the bound.",
            "workloads": compare(report["workloads"], second, bounds),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
