"""Per-layer tracing of rhopi from outside the package.

``install`` wraps the public functions listed in ``TARGETS`` and rebinds
each wrapper in every ``rhopi`` module that holds the original under any
name (``harness`` holds ``rhoreduce.step`` as ``rho_step``, ``equiv`` holds
``lts.explore`` as ``explore``), so calls between layers are seen too.

Every call is a span: function, parent span, start and end.  Spans are kept
in memory in flat arrays and reduced to per-layer metrics when the trial
ends.  A span's self time is its duration minus the durations of its direct
child spans, so time spent in a nested layer is charged to that layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# wrapped function -> counters it adds from its result
_HOOKS = {
    "rhopi.rhoreduce.redexes": lambda r, c: c.update(redexes=len(r)),
    "rhopi.rhoreduce.step": lambda r, c: c.update(rho_successors=len(r)),
    "rhopi.piterm.pi_step": lambda r, c: c.update(pi_successors=len(r)),
    "rhopi.lts.explore": lambda r, c: c.update(
        states=len(r.states), edges=sum(map(len, r.edges)), truncated=int(r.truncated)
    ),
    "rhopi.lts.weak_barb_search": lambda r, c: c.update(
        search_states=r.explored, truncated=int(r.truncated)
    ),
    "rhopi.equiv.barbed_bisim": lambda r, c: c.update(
        bisim_states=sum(r.states), blocks=r.blocks or 0
    ),
}


def _fns(module: str, *names: str) -> list:
    return [f"rhopi.{module}.{n}" for n in names]


PARSE = _fns("cli", "parse_pi", "parse_rho")
RHO_CANON = _fns("rhoterm", "canon_proc", "canon_name")
RHO_SUBST = _fns("rhoterm", "subst_syn", "subst_sem", "subst_marker")
RHO_STEP = _fns("rhoreduce", "step")
RHO_REDEXES = _fns("rhoreduce", "redexes")
RHO_APPLY = _fns("rhoreduce", "apply_redex")
RHO_BARBS = _fns("rhoreduce", "barbs")
PI_CANON = _fns("piterm", "pi_canon")
PI_STEP = _fns("piterm", "pi_step")
PI_BARBS = _fns("piterm", "pi_barbs")
ENCODE = _fns("encode", "encode_ns", "encode_mr")
PARAMS = _fns("encode", "make_encoding_params")
EXPLORE = _fns("lts", "explore")
SEARCH = _fns("lts", "weak_barb_search")
BISIM = _fns("equiv", "barbed_bisim")
DIVERGE = _fns("equiv", "divergence_probe", "pi_divergence")
WEAKOBS = _fns("equiv", "restricted_weak_obs", "rho_weak_barb_set", "pi_weak_barb_set")
HARNESS = _fns(
    "harness",
    "make_corpus",
    "check_criteria",
    "repro_separation_witness",
    "repro_cex1",
    "repro_cex2",
)

TARGETS = (
    PARSE + RHO_CANON + RHO_SUBST + RHO_STEP + RHO_REDEXES + RHO_APPLY + RHO_BARBS
    + PI_CANON + PI_STEP + PI_BARBS + ENCODE + PARAMS + EXPLORE + SEARCH + BISIM
    + DIVERGE + WEAKOBS + HARNESS
)

# per-layer metric -> (unit, how it is computed, wrapped functions it reads)
SELF_S = "self_s"
CALLS = "calls"
COUNTER = "counter"
METRICS = {
    "cli.parse_s": ("s", SELF_S, PARSE),
    "cli.parse_calls": ("count", CALLS, PARSE),
    "rhoterm.canon_s": ("s", SELF_S, RHO_CANON),
    "rhoterm.canon_calls": ("count", CALLS, RHO_CANON),
    "rhoterm.subst_s": ("s", SELF_S, RHO_SUBST),
    "rhoterm.subst_calls": ("count", CALLS, RHO_SUBST),
    "rhoreduce.step_s": ("s", SELF_S, RHO_STEP + RHO_REDEXES),
    "rhoreduce.step_calls": ("count", CALLS, RHO_STEP),
    "rhoreduce.apply_s": ("s", SELF_S, RHO_APPLY),
    "rhoreduce.redexes": ("count", (COUNTER, "redexes"), RHO_REDEXES),
    "rhoreduce.successors": ("count", (COUNTER, "rho_successors"), RHO_STEP),
    "rhoreduce.barbs_s": ("s", SELF_S, RHO_BARBS),
    "rhoreduce.barbs_calls": ("count", CALLS, RHO_BARBS),
    "piterm.canon_s": ("s", SELF_S, PI_CANON),
    "piterm.canon_calls": ("count", CALLS, PI_CANON),
    "piterm.step_s": ("s", SELF_S, PI_STEP),
    "piterm.step_calls": ("count", CALLS, PI_STEP),
    "piterm.successors": ("count", (COUNTER, "pi_successors"), PI_STEP),
    "piterm.barbs_s": ("s", SELF_S, PI_BARBS),
    "piterm.barbs_calls": ("count", CALLS, PI_BARBS),
    "encode.encode_s": ("s", SELF_S, ENCODE),
    "encode.encodings": ("count", CALLS, ENCODE),
    "encode.params_s": ("s", SELF_S, PARAMS),
    "encode.params_calls": ("count", CALLS, PARAMS),
    "lts.explore_s": ("s", SELF_S, EXPLORE),
    "lts.explorations": ("count", CALLS, EXPLORE),
    "lts.states": ("count", (COUNTER, "states"), EXPLORE),
    "lts.edges": ("count", (COUNTER, "edges"), EXPLORE),
    "lts.search_s": ("s", SELF_S, SEARCH),
    "lts.search_states": ("count", (COUNTER, "search_states"), SEARCH),
    "lts.truncated": ("count", (COUNTER, "truncated"), EXPLORE + SEARCH),
    "equiv.bisim_s": ("s", SELF_S, BISIM),
    "equiv.bisim_calls": ("count", CALLS, BISIM),
    "equiv.bisim_states": ("count", (COUNTER, "bisim_states"), BISIM),
    "equiv.blocks": ("count", (COUNTER, "blocks"), BISIM),
    "equiv.diverge_s": ("s", SELF_S, DIVERGE),
    "equiv.weakobs_s": ("s", SELF_S, WEAKOBS),
    "harness.self_s": ("s", SELF_S, HARNESS),
}

# table-size metric -> (module, module-level tables summed)
TABLES = {
    "rhoterm.intern_nodes": ("rhopi.rhoterm", ("_INTERN",)),
    "rhoterm.cache_entries": ("rhopi.rhoterm", ("_CANON_PROC", "_CANON_NAME", "_FREE", "_QDEPTH")),
    "piterm.intern_nodes": ("rhopi.piterm", ("_PINTERN",)),
    "piterm.cache_entries": ("rhopi.piterm", ("_PI_CANON",)),
}


class Tracer:
    """Span recorder.  Span i ran function ``fn[i]`` from ``start[i]`` to
    ``end[i]`` inside span ``parent[i]`` (-1 at the top)."""

    def __init__(self) -> None:
        self.names: list = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._open = [-1]

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        fns, parent, start, end = self.fn, self.parent, self.start, self.end
        open_spans, counters, clock = self._open, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(fid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()
            if hook is not None:
                hook(result, counters)
            return result

        return functools.update_wrapper(traced, fn)

    def per_function(self) -> tuple:
        """(calls, self seconds, inclusive seconds) per wrapped function name."""
        n = len(self.fn)
        child = [0.0] * n
        fns, parent, start, end = self.fn, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        for i in range(n):
            name = self.names[fns[i]]
            dur = end[i] - start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            incl_s[name] += dur
        return calls, self_s, incl_s


def install(tracer: Tracer) -> list:
    """Wrap every function in TARGETS; returns the names that are missing."""
    import rhopi.cli  # noqa: F401  (load every rhopi module before rebinding)

    modules = [m for n, m in sys.modules.items() if n == "rhopi" or n.startswith("rhopi.")]
    missing = []
    for target in TARGETS:
        module, _, attr = target.rpartition(".")
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            missing.append(target)
            continue
        wrapped = tracer.wrap(target, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    return missing


def layer_metrics(tracer: Tracer, missing: list) -> dict:
    """Per-layer metrics of one traced trial, as {name: (value, unit)}.

    A metric whose functions or tables are all missing is left out, so a
    rename in rhopi drops the metric instead of stopping the benchmark."""
    calls, self_s, incl_s = tracer.per_function()
    out = {}
    for name, (unit, how, sources) in METRICS.items():
        present = [s for s in sources if s not in missing]
        if not present:
            continue
        if how == SELF_S:
            value = float(sum(self_s[s] for s in present))
        elif how == CALLS:
            value = sum(calls[s] for s in present)
        else:
            value = tracer.counters[how[1]]
        out[name] = (value, unit)

    if "rhoreduce.redexes" in out and "rhoreduce.successors" in out:
        redexes = out["rhoreduce.redexes"][0]
        useful = out["rhoreduce.successors"][0] / redexes if redexes else 0.0
        out["rhoreduce.useful_ratio"] = (useful, "ratio")
    if "lts.states" in out:
        busy = sum(incl_s[s] for s in EXPLORE)
        out["lts.states_per_s"] = (out["lts.states"][0] / busy if busy else 0.0, "1/s")

    for name, (module, tables) in TABLES.items():
        sizes = [getattr(sys.modules.get(module), t, None) for t in tables]
        sizes = [len(s) for s in sizes if s is not None]
        if sizes:
            out[name] = (sum(sizes), "count")
    return out
