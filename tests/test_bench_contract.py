"""The benchmark's output contract, checked against the package.

``perfbench/tracing.py`` wraps rhopi functions by name and reads module
tables by name; a metric whose functions or tables are all gone is dropped
from the traced output without an error.  These tests read the tracing
module and ``BENCHMARK.json`` (never editing either) and fail when a rename
or deletion in rhopi would make a declared per-layer metric disappear, or
when a traced function is no longer called through the module attribute
that tracing rebinds.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer metrics that tracing derives from other metrics, or that the
# trial runner computes from the verdicts rather than from a traced function
DERIVED = {
    "rhoreduce.useful_ratio",
    "lts.states_per_s",
    "trace.overhead_ratio",
    "wrong_verdicts",
}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(target: str) -> bool:
    module, _, attr = target.rpartition(".")
    return getattr(importlib.import_module(module), attr, None) is not None


def test_every_traced_metric_wraps_a_function_that_exists():
    dropped = [
        name
        for name, (_, _, sources) in _tracing().METRICS.items()
        if not any(map(_resolves, sources))
    ]
    assert dropped == []


def test_every_table_metric_names_a_table_that_exists():
    dropped = [
        name
        for name, (module, tables) in _tracing().TABLES.items()
        if not any(hasattr(importlib.import_module(module), t) for t in tables)
    ]
    assert dropped == []


def test_every_declared_per_layer_metric_is_produced():
    tracing = _tracing()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unknown = [
        m["name"]
        for m in declared
        if m["name"] not in tracing.METRICS
        and m["name"] not in tracing.TABLES
        and m["name"] not in DERIVED
    ]
    assert unknown == []


# Run in a fresh interpreter: ``install`` rebinds module attributes for the
# whole process.
_TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
for item in workloads.prepare("criteria", 0)[:1] + workloads.prepare("bisim", 0):
    item.run()
print(json.dumps(tracer.per_function()[0]))
"""


def test_traced_paths_are_reached():
    """A function table built at import on a traced path would hold the
    untraced functions and hide their calls from every per-layer metric."""
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT)],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    calls = json.loads(out.splitlines()[-1])
    reached = [
        "rhopi.equiv.rho_weak_barb_set",
        "rhopi.equiv.pi_weak_barb_set",
        "rhopi.piterm.pi_step",
        "rhopi.rhoreduce.step",
    ]
    assert [f for f in reached if not calls.get(f)] == []
