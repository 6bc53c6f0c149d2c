"""Bounded breadth-first exploration of reduction graphs.

Works over any calculus: states are opaque hashable canonical values and a
step function maps a state to its successor states.  Exploration is bounded
by a state budget and a depth budget; the result records whether either bound
actually cut something off (``truncated``), which downstream verdicts use to
distinguish "No" from "Unknown".

A state sitting at the depth bound is still expanded — edges to states
already in the graph are kept (so cycles crossing the frontier are seen) and
only genuinely new states are dropped, which is the one case information is
lost.  A search (below) reads no edges: once its graph is truncated, it
does not expand a state at the depth bound, which admits no new state, and
leaves it with no edges.  A graph's edges are what its step function
yielded, so a step made for one search (``rhoreduce.search_step``) may
leave out successors the search provably holds already.

An optional ``stop`` predicate turns the exploration into a search: the
first state it accepts, tested as the state is dequeued and before it is
expanded, ends the run early and is recorded as ``Lts.hit``; since states
are dequeued in breadth-first order, ``trace_to(hit)`` is a shortest
witness.  ``weak_barb_search`` reads a three-valued verdict off such a run.
"""

from __future__ import annotations

import functools
import gc
from enum import Enum
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, NamedTuple, Optional

__all__ = ["Lts", "explore", "Verdict", "BarbSearch", "weak_barb_search"]

DEFAULT_MAX_STATES = 100_000
DEFAULT_MAX_DEPTH = 200


def collector_paused(fn):
    """fn, run with the cyclic collector off: interned terms form an acyclic
    DAG, so a collection inside a verdict scans them and frees nothing.  It
    is re-enabled when fn returns or raises, unless the caller had disabled
    it; a nested call then costs one ``gc.isenabled()``, as in ``timeit``.
    For the entry points of ``harness`` and ``equiv`` that return a verdict
    record, not for steps or ``explore``, which hot loops call."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class Lts(NamedTuple):
    """A bounded reduction graph.

    states are in discovery order (states[0] is the root); edges[i] lists
    successor indices of state i in first-seen order, deduplicated;
    parents[i] is the index state i was first discovered from (None for the
    root), giving shortest traces back to the root.  hit is the index of the
    state that satisfied explore's stop predicate, if any; the exploration
    ended there, so states discovered but not yet expanded have no edges;
    nor do the depth-bound states a truncated search skipped (see explore).
    index maps each state to its position in states.  ``equiv`` hands a
    bisim check's graphs to the next check (see its docs), so no caller may
    mutate a graph: assigning to a field raises, and its lists and index
    stay as built.
    """

    states: list
    edges: list
    depths: list
    parents: list
    truncated: bool
    truncated_reason: Optional[str] = None
    hit: Optional[int] = None
    index: dict = MappingProxyType({})  # read-only, so one shared default is safe

    def trace_to(self, i: int) -> list:
        """States along the BFS tree path from the root to state i."""
        path = []
        cur: Optional[int] = i
        while cur is not None:
            path.append(self.states[cur])
            cur = self.parents[cur]
        path.reverse()
        return path


def explore(
    root: Hashable,
    step_fn: Callable[[Hashable], Iterable],
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    stop: Optional[Callable[[Hashable], bool]] = None,
) -> Lts:
    """Breadth-first reduction graph from root under step_fn, bounded by
    max_states (total distinct states kept) and max_depth (tree depth at
    which new states are no longer admitted).  The run ends at the first
    dequeued state satisfying stop, if given (see ``Lts.hit``); a truncated
    search stop-tests but does not expand states at the depth bound.  Those
    come last and admit nothing, so the cut's reason cannot change."""
    states = [root]
    index = {root: 0}
    edges: list = [[]]
    depths = [0]
    parents: list = [None]
    truncated = False
    reason: Optional[str] = None
    hit: Optional[int] = None

    head = 0
    while head < len(states):
        i = head
        head += 1
        if stop is not None and stop(states[i]):
            hit = i
            break
        if stop is not None and truncated and depths[i] >= max_depth:
            continue
        seen_targets = set()
        for succ in step_fn(states[i]):
            j = index.get(succ)
            if j is None:
                if len(states) >= max_states:
                    truncated, reason = True, "max_states"
                    continue
                if depths[i] >= max_depth:
                    truncated, reason = True, "max_depth"
                    continue
                j = len(states)
                index[succ] = j
                states.append(succ)
                edges.append([])
                depths.append(depths[i] + 1)
                parents.append(i)
            if j not in seen_targets:
                seen_targets.add(j)
                edges[i].append(j)

    return Lts(states, edges, depths, parents, truncated, reason, hit, index)


class Verdict(Enum):
    """Three-valued answer for bounded reachability questions."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class BarbSearch(NamedTuple):
    """Result of a bounded weak-observation search.

    verdict YES comes with the depth of the first witnessing state and the
    trace to it; NO is only claimed when the exploration was exhaustive
    (untruncated); otherwise UNKNOWN.
    """

    verdict: Verdict
    depth: Optional[int] = None
    trace: Optional[list] = None
    explored: int = 0
    truncated: bool = False
    truncated_reason: Optional[str] = None  # the budget that cut the search


def weak_barb_search(
    root: Hashable,
    step_fn: Callable[[Hashable], Iterable],
    pred: Callable[[Hashable], bool],
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> BarbSearch:
    """Does some reduct of root (including root itself) satisfy pred?

    Breadth-first with early exit, so a YES also carries a shortest witness
    trace.  NO requires the bounded exploration to have been exhaustive.
    """
    g = explore(root, step_fn, max_states=max_states, max_depth=max_depth, stop=pred)
    n, cut, reason = len(g.states), g.truncated, g.truncated_reason
    if g.hit is not None:
        return BarbSearch(Verdict.YES, g.depths[g.hit], g.trace_to(g.hit), n, cut, reason)
    if cut:
        return BarbSearch(Verdict.UNKNOWN, None, None, n, True, reason)
    return BarbSearch(Verdict.NO, None, None, n, False)
