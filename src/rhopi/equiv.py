"""Bounded equivalence checking over reduction graphs.

``barbed_bisim`` decides barbed bisimilarity of the roots of two explored
graphs (``Lts``) under a barb observation: states are related when their
(weak) barb sets agree and every move of one can be matched by the other,
weakly through any number of reductions.  The checker runs partition
refinement over the union of the two graphs; in the weak case it refines on
the strongly-connected-component condensation, where each round gives every
component the set of blocks it reaches, so a state's reachable set is built
only to name a witness of a NOT_BISIMILAR verdict.  A truncated
graph yields Unknown unless a definite distinction survives truncation (a
barb one side exhibits and the other side provably never reaches).
``bisim_blocks`` runs the same refinement over any number of graphs and
returns the blocks, so a caller can ask which states of one graph match a
state of another without exploring either again.  The rho_/pi_ entry points
take terms: they short-circuit identical canonical roots to Bisimilar and
otherwise explore both graphs, sharing one body with the calculus'
canonical form, step and barbs plugged in.  ``weak_observations`` gives
each state of an explored graph its weak barbs, and ``graph_barbs`` the
union over a whole graph; ``rho_weak_barb_set`` / ``pi_weak_barb_set``
explore a term and return that union with the budget that cut the
exploration off (``None`` when it completed).  The rho_/pi_ bisim checks
keep the two graphs of their last call, so a check of the same terms at the
same budget run next (the weak check after the strong one) explores neither
again; ``rhopi.clear_caches()`` drops them.

``graph_divergence`` reads the sound divergence verdicts off an explored
graph: a reachable cycle is Diverges, a fully explored acyclic graph is
Terminates, anything else Unknown; ``pi_divergence`` is just that rule.
``rho_graph_divergence`` applies it to an explored reflective graph and
``divergence_probe`` to a reflective term; heuristics never touch either
sound verdict.  Only when the exploration was cut off do two
replay heuristics inspect the partial graph for evidence of unbounded growth:
a state containing a breadth-first ancestor as a strict sub-multiset of
parallel components (the ancestor's whole future can be replayed beside the
surplus, since reduction is closed under parallel composition); and a chain
of two states each matching its ancestor under an injective renaming of
whole names where every moved name gets strictly deeper and an output body
may additionally wrap the ancestor's body under extra output guards — the
signature of a machine re-running itself each round on self-quoted,
ever-growing fuel.  Anything else is Unknown.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional

from .lts import Lts, collector_paused, explore
from .piterm import PiTerm, pi_barbs, pi_canon, pi_step
from .rhoreduce import barbs as rho_barbs
from .rhoreduce import components as rho_components
from .rhoreduce import step as rho_step
from .rhoterm import (
    BoundMarker,
    Drop,
    Input,
    Lift,
    Nil,
    RhoProc,
    canon_proc,
    quote_depth,
)

__all__ = [
    "BisimVerdict",
    "BisimReport",
    "barbed_bisim",
    "bisim_blocks",
    "rho_barbed_bisim",
    "pi_barbed_bisim",
    "DivergenceVerdict",
    "DivergenceReport",
    "graph_divergence",
    "divergence_probe",
    "rho_graph_divergence",
    "pi_divergence",
    "weak_observations",
    "graph_barbs",
    "rho_weak_barb_set",
    "pi_weak_barb_set",
]


# ---------------------------------------------------------------------------
# Graph utilities: SCCs, reachability, cycles
# ---------------------------------------------------------------------------


def _sccs(n: int, edges: list) -> tuple:
    """Iterative Tarjan.  Returns (comp_of, comps) with comps in completion
    order: every component's successors appear before it."""
    UNVISITED = -1
    index = [UNVISITED] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    comp_of = [-1] * n
    comps: list = []
    counter = 0

    for s0 in range(n):
        if index[s0] != UNVISITED:
            continue
        work = [(s0, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(edges[v])):
                w = edges[v][i]
                if index[w] == UNVISITED:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(members)
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp_of, comps


def _reach_sets(n: int, edges: list, sccs: Optional[tuple] = None) -> list:
    """Reflexive-transitive reachability per state, shared across SCCs;
    sccs, when given, is ``_sccs(n, edges)`` computed by the caller."""
    comp_of, comps = sccs or _sccs(n, edges)
    comp_reach: list = []
    for ci, members in enumerate(comps):
        r = set(members)
        for u in members:
            for v in edges[u]:
                cj = comp_of[v]
                if cj != ci:
                    r |= comp_reach[cj]
        comp_reach.append(r)
    return [comp_reach[comp_of[i]] for i in range(n)]


def _find_cycle(n: int, edges: list) -> Optional[list]:
    """Some states lying on a reachable cycle, or None if the graph is a DAG."""
    comp_of, comps = _sccs(n, edges)
    for members in comps:
        if len(members) > 1:
            return sorted(members)
        v = members[0]
        if v in edges[v]:
            return [v]
    return None


# ---------------------------------------------------------------------------
# Barbed bisimulation
# ---------------------------------------------------------------------------


class BisimVerdict(Enum):
    BISIMILAR = "bisimilar"
    NOT_BISIMILAR = "not-bisimilar"
    UNKNOWN = "unknown"


class BisimReport(NamedTuple):
    verdict: BisimVerdict
    weak: bool
    states: tuple  # (explored in graph 1, explored in graph 2)
    truncated: bool
    witness: Optional[dict] = None
    blocks: Optional[int] = None
    truncated_reason: Optional[str] = None  # the budget a truncated graph hit


def barbed_bisim(
    g1: Lts,
    g2: Lts,
    barb_fn: Callable,
    weak: bool = True,
) -> BisimReport:
    """Bounded barbed bisimilarity of the roots of two explored graphs
    (strong or weak).

    barb_fn maps a state to its barb set (restrict it upstream if needed).
    A truncated graph decides only what truncation cannot change: strongly,
    a difference in root barbs; weakly, a barb one graph shows somewhere and
    the other, fully explored, never shows.
    """
    states = (len(g1.states), len(g2.states))
    if g1.truncated or g2.truncated:
        witness = None
        if not weak:
            b1, b2 = barb_fn(g1.states[0]), barb_fn(g2.states[0])
            if b1 != b2:
                witness = {"reason": "barb", "only": _barb_diff(b1, b2)}
        else:
            obs1, obs2 = graph_barbs(g1, barb_fn), graph_barbs(g2, barb_fn)
            if not g1.truncated and obs2 - obs1:
                witness = {"reason": "barb", "only": ("right", sorted(obs2 - obs1, key=repr))}
            elif not g2.truncated and obs1 - obs2:
                witness = {"reason": "barb", "only": ("left", sorted(obs1 - obs2, key=repr))}
        verdict = BisimVerdict.NOT_BISIMILAR if witness else BisimVerdict.UNKNOWN
        cut = g1.truncated_reason or g2.truncated_reason
        return BisimReport(verdict, weak, states, True, witness, truncated_reason=cut)

    all_states, edges, (_, n1) = _union([g1, g2])
    block_of, barb_sig, sccs = _refine(all_states, edges, barb_fn, weak)
    nblocks = len(set(block_of))
    if block_of[0] == block_of[n1]:
        return BisimReport(BisimVerdict.BISIMILAR, weak, states, False, None, nblocks)
    witness = _bisim_witness(all_states, n1, block_of, barb_sig, weak, edges, sccs)
    return BisimReport(BisimVerdict.NOT_BISIMILAR, weak, states, False, witness, nblocks)


def bisim_blocks(graphs: list, barb_fn: Callable, weak: bool = True) -> list:
    """Partition refinement over the disjoint union of explored graphs: per
    graph, the block of each of its states.  Two states share a block
    exactly when they are (weakly) barbed bisimilar within the union, which
    is their bisimilarity outright when no graph is truncated."""
    states, edges, offsets = _union(graphs)
    block_of = _refine(states, edges, barb_fn, weak)[0]
    return [block_of[o : o + len(g.states)] for o, g in zip(offsets, graphs)]


def _union(graphs: list) -> tuple:
    """States, successor lists and per-graph index offsets of the disjoint
    union of graphs."""
    states: list = []
    edges: list = []
    offsets = []
    for g in graphs:
        off = len(states)
        offsets.append(off)
        states += g.states
        edges += [[t + off for t in row] for row in g.edges]
    return states, edges, offsets


def _refine(states: list, edges: list, barb_fn: Callable, weak: bool) -> tuple:
    """Coarsest partition of a graph's states that agrees on (weak) barbs and
    is stable under (weak) moves: (block of each state, the barb signature
    used, the SCCs ``(comp_of, comps)`` when weak, else ``None``).

    Each round gives state i the signature (its block, the blocks it moves
    to) and numbers the signatures by first occurrence.  A strong move is an
    edge.  A weak move reaches any state of i's reflexive-transitive
    closure, and that set is never built: the members of one SCC share
    their closure, hence their weak barbs and their first block, and if
    they share a block they share their signature, hence their next block.
    So each round gives a component, in completion order, the union of its
    own block and the reached-block sets of the components it steps to,
    which is the set of blocks its closure meets.  Refinement only splits
    blocks, so an unchanged block count is the fixed point."""
    sccs = None
    if weak:
        sccs = comp_of, comps = _sccs(len(states), edges)
        barb_sig = _observe(states, edges, barb_fn, sccs)
        comp_succ = []
        for ci, members in enumerate(comps):
            succ = {comp_of[v] for u in members for v in edges[u]}
            succ.discard(ci)
            comp_succ.append(succ)
    else:
        barb_sig = [barb_fn(st) for st in states]
    block_of, nblocks = _regroup(barb_sig)
    while True:
        if weak:
            reach: list = []
            get = reach.__getitem__
            for members, succ in zip(comps, comp_succ):
                reach.append(frozenset((block_of[members[0]],)).union(*map(get, succ)))
            moves = map(get, comp_of)
        else:
            get = block_of.__getitem__
            moves = [frozenset(map(get, row)) for row in edges]
        block_of, count = _regroup(zip(block_of, moves))
        if count == nblocks:
            return block_of, barb_sig, sccs
        nblocks = count


def _regroup(sigs: Iterable) -> tuple:
    """First-occurrence numbers of sigs, and how many distinct ones there are."""
    ids: dict = {}
    return [ids.setdefault(s, len(ids)) for s in sigs], len(ids)


def _barb_diff(b1: frozenset, b2: frozenset) -> tuple:
    if b1 - b2:
        return ("left", sorted(b1 - b2, key=repr))
    return ("right", sorted(b2 - b1, key=repr))


def _bisim_witness(states, n1, block_of, barb_sig, weak, edges, sccs) -> dict:
    r1, r2 = 0, n1
    if barb_sig[r1] != barb_sig[r2]:
        return {
            "reason": "barb",
            "kind": "weak" if weak else "strong",
            "only": _barb_diff(barb_sig[r1], barb_sig[r2]),
        }
    # the moves as sets: which state a witness names follows their order
    succ_rel = _reach_sets(len(states), edges, sccs) if weak else [set(row) for row in edges]
    blocks1 = {block_of[j] for j in succ_rel[r1]}
    blocks2 = {block_of[j] for j in succ_rel[r2]}
    for side, r, only in (("left", r1, blocks1 - blocks2), ("right", r2, blocks2 - blocks1)):
        if only:
            # a weak closure holds r itself, a zero-step move: name another
            # state of the first block that has one (first in move order)
            first = {block_of[j]: j for j in reversed(list(succ_rel[r])) if j != r}
            j = next((first[b] for b in only if b in first), r)
            return {"reason": "move", "side": side, "to_state": states[j]}
    return {"reason": "refinement", "note": "roots separated below the first move"}


# the two graphs of the last _calculus_bisim call that explored, keyed
# (canonical root, step function, max_states, max_depth)
_GRAPHS: dict = {}

#: this module's derived memo tables, as ``rhopi.cache_stats`` reports them
DERIVED_CACHES = {"graphs": _GRAPHS}


@collector_paused
def _calculus_bisim(canon, step_fn, barbs, p, q, weak, restrict, max_states, max_depth):
    """barbed_bisim of two terms of one calculus: canon brings a term to its
    canonical form, step_fn and barbs are the calculus' reduction and
    observation (barbs takes the state and the allowed subjects).
    Identical canonical roots are Bisimilar without exploring.  A graph the
    previous call explored at the same budget is reused; _GRAPHS then keeps
    this call's two graphs only."""
    r1, r2 = canon(p), canon(q)
    if r1 == r2:
        return BisimReport(BisimVerdict.BISIMILAR, weak, (1, 1), False, None)
    graphs = {}
    for key in ((r1, step_fn, max_states, max_depth), (r2, step_fn, max_states, max_depth)):
        g = _GRAPHS.get(key)
        graphs[key] = g if g is not None else explore(*key)
    _GRAPHS.clear()
    _GRAPHS.update(graphs)
    allowed = None if restrict is None else list(restrict)
    return barbed_bisim(*graphs.values(), lambda s: barbs(s, allowed), weak=weak)


# Entry points pass their calculus' functions at call time, not through a
# table built at import, so rebinding a module attribute (as perfbench's
# per-layer tracing does) reaches every caller.


def rho_barbed_bisim(
    p: RhoProc,
    q: RhoProc,
    weak: bool = True,
    restrict: Optional[Iterable] = None,
    max_states: int = 2000,
    max_depth: int = 200,
) -> BisimReport:
    return _calculus_bisim(
        canon_proc, rho_step, rho_barbs, p, q, weak, restrict, max_states, max_depth
    )


def pi_barbed_bisim(
    p: PiTerm,
    q: PiTerm,
    weak: bool = True,
    restrict: Optional[Iterable] = None,
    max_states: int = 2000,
    max_depth: int = 200,
) -> BisimReport:
    return _calculus_bisim(
        pi_canon, pi_step, pi_barbs, p, q, weak, restrict, max_states, max_depth
    )


# ---------------------------------------------------------------------------
# Weak observation
# ---------------------------------------------------------------------------


def weak_observations(states: list, edges: list, barb_fn: Callable) -> list:
    """Per state of a graph (states and successor lists, as in ``Lts``), the
    union of barb_fn over every state it reaches, itself included."""
    return _observe(states, edges, barb_fn, _sccs(len(states), edges))


def _observe(states: list, edges: list, barb_fn: Callable, sccs: tuple) -> list:
    """``weak_observations`` over the graph's SCCs, ``(comp_of, comps)``."""
    comp_of, comps = sccs
    comp_obs: list = []
    for ci, members in enumerate(comps):
        acc: set = set()
        for u in members:
            acc |= barb_fn(states[u])
            for v in edges[u]:
                if comp_of[v] != ci:
                    acc |= comp_obs[comp_of[v]]
        comp_obs.append(frozenset(acc))
    return [comp_obs[c] for c in comp_of]


def graph_barbs(g: Lts, barb_fn: Callable) -> frozenset:
    """The union of barb_fn over every state of an explored graph."""
    return frozenset().union(*map(barb_fn, g.states))


def _weak_barb_set(canon, step_fn, barbs, t, subjects, max_states, max_depth) -> tuple:
    allowed = None if subjects is None else list(subjects)
    g = explore(canon(t), step_fn, max_states=max_states, max_depth=max_depth)
    return graph_barbs(g, lambda s: barbs(s, allowed)), g.truncated_reason


def rho_weak_barb_set(
    p: RhoProc,
    subjects: Optional[Iterable] = None,
    max_states: int = 2000,
    max_depth: int = 200,
) -> tuple:
    """All barbs observable from p or any reduct (restricted to subjects if
    given), plus the budget that cut the exploration off (``"max_states"``
    or ``"max_depth"``; ``None`` when it completed)."""
    return _weak_barb_set(canon_proc, rho_step, rho_barbs, p, subjects, max_states, max_depth)


def pi_weak_barb_set(
    t: PiTerm,
    subjects: Optional[Iterable] = None,
    max_states: int = 2000,
    max_depth: int = 200,
) -> tuple:
    """The name-passing counterpart of rho_weak_barb_set."""
    return _weak_barb_set(pi_canon, pi_step, pi_barbs, t, subjects, max_states, max_depth)


# ---------------------------------------------------------------------------
# Divergence probing
# ---------------------------------------------------------------------------


class DivergenceVerdict(Enum):
    DIVERGES = "diverges"
    TERMINATES = "terminates"
    UNKNOWN = "unknown"


class _DivergenceFields(NamedTuple):
    verdict: DivergenceVerdict
    rule: Optional[str]  # "cycle" | "growth" | "replay"
    evidence: dict
    states: int
    truncated: bool
    truncated_reason: Optional[str]  # the budget a truncated graph hit


class DivergenceReport(_DivergenceFields):
    __slots__ = ()  # a fresh evidence dict per report, see __new__

    def __new__(cls, verdict, rule=None, evidence=None, states=0, truncated=False, truncated_reason=None):
        evidence = {} if evidence is None else evidence
        return super().__new__(cls, verdict, rule, evidence, states, truncated, truncated_reason)


_ANCESTOR_SCAN_LIMIT = 64  # ancestors inspected per state by the heuristics
_REPLAY_NODE_BUDGET = 500_000  # total matcher steps per probe


def graph_divergence(g: Lts) -> DivergenceReport:
    """The verdict an explored graph settles by itself: a reachable cycle
    diverges, a fully explored acyclic graph terminates, anything else is
    Unknown."""
    n = len(g.states)
    cyc = _find_cycle(n, g.edges)
    if cyc is not None:
        return DivergenceReport(
            DivergenceVerdict.DIVERGES,
            "cycle",
            {"cycle_states": cyc, "example": g.states[cyc[0]]},
            n,
            g.truncated,
            g.truncated_reason,
        )
    if not g.truncated:
        return DivergenceReport(DivergenceVerdict.TERMINATES, None, {}, n, False)
    return DivergenceReport(DivergenceVerdict.UNKNOWN, None, {}, n, True, g.truncated_reason)


@collector_paused
def divergence_probe(
    p: RhoProc, max_states: int = 400, max_depth: int = 120
) -> DivergenceReport:
    """Bounded divergence analysis of a reflective term (see module docs for
    the verdict rules)."""
    return rho_graph_divergence(
        explore(canon_proc(p), rho_step, max_states=max_states, max_depth=max_depth)
    )


def rho_graph_divergence(g: Lts) -> DivergenceReport:
    """graph_divergence of an explored reflective graph, and when that is
    Unknown, the growth and replay rules over its ancestor chains."""
    settled = graph_divergence(g)
    if settled.verdict is not DivergenceVerdict.UNKNOWN:
        return settled
    n = len(g.states)

    # The run was cut off: look for replayable growth along ancestor chains.
    comp_counters = [Counter(rho_components(s)) for s in g.states]
    budget = [_REPLAY_NODE_BUDGET]
    replay_memo: dict = {}

    def replays(anc: int, state: int) -> bool:
        key = (anc, state)
        hit = replay_memo.get(key)
        if hit is None:
            hit = _replay_match(g.states[anc], g.states[state], budget)
            replay_memo[key] = hit
        return hit

    for i in range(1, n):
        j = g.parents[i]
        hops = 0
        while j is not None and hops < _ANCESTOR_SCAN_LIMIT:
            if _submultiset(comp_counters[j], comp_counters[i]):
                return DivergenceReport(
                    DivergenceVerdict.DIVERGES,
                    "growth",
                    {"ancestor": g.states[j], "state": g.states[i]},
                    n,
                    True,
                    g.truncated_reason,
                )
            if budget[0] > 0 and replays(j, i):
                # confirm with a second hit further up the same chain
                k = g.parents[j]
                khops = 0
                while k is not None and khops < _ANCESTOR_SCAN_LIMIT:
                    if budget[0] > 0 and replays(k, j):
                        return DivergenceReport(
                            DivergenceVerdict.DIVERGES,
                            "replay",
                            {
                                "ancestor": g.states[k],
                                "middle": g.states[j],
                                "state": g.states[i],
                            },
                            n,
                            True,
                            g.truncated_reason,
                        )
                    k = g.parents[k]
                    khops += 1
            j = g.parents[j]
            hops += 1

    return settled


@collector_paused
def pi_divergence(
    t: PiTerm, max_states: int = 2000, max_depth: int = 200
) -> DivergenceReport:
    """Divergence of a pi term by bounded exploration alone (graph_divergence:
    no growth heuristics)."""
    return graph_divergence(
        explore(pi_canon(t), pi_step, max_states=max_states, max_depth=max_depth)
    )


def _submultiset(small: Counter, big: Counter) -> bool:
    return all(big[k] >= v for k, v in small.items())


# --- replay matching: injective deepening renaming plus output wrapping -----


def _group_key(p: RhoProc):
    """Coarse shape class used to pair parallel children before backtracking.
    Bound markers must line up exactly, so input binders join the key."""
    if isinstance(p, Nil):
        return (0,)
    if isinstance(p, Drop):
        return (1,)
    if isinstance(p, Lift):
        return (2,)
    if isinstance(p, Input):
        return (3, p.binder.index)
    return (4, len(p.children))


def _replay_match(a: RhoProc, s: RhoProc, budget: list) -> bool:
    """Does s replay a?  s must equal a up to (i) an injective renaming of
    whole names where every moved name is strictly deeper and (ii) output
    bodies in s wrapping the corresponding body of a under extra output
    guards.  Bound markers are fixed points.  Parallel children are matched
    as multisets with backtracking; ``budget`` is a one-element list of
    remaining matcher steps, decremented in place (exhaustion fails the
    match, conservatively)."""
    return _Replay(budget).walk(a, s)


class _Replay:
    """One _replay_match: the renaming both ways, the trail of bindings to
    undo, and the step budget.  Methods, not nested recursive closures, so a
    match leaves no reference cycle for the collector."""

    __slots__ = ("fwd", "bwd", "trail", "budget")

    def __init__(self, budget: list) -> None:
        self.fwd: dict = {}
        self.bwd: dict = {}
        self.trail: list = []
        self.budget = budget

    def bind(self, x, y) -> bool:
        if isinstance(x, BoundMarker) or isinstance(y, BoundMarker):
            return x is y
        prev = self.fwd.get(x)
        if prev is not None:
            return prev is y
        if y in self.bwd:
            return False
        if x is not y and quote_depth(y) <= quote_depth(x):
            return False
        self.fwd[x] = y
        self.bwd[y] = x
        self.trail.append((x, y))
        return True

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            x, y = trail.pop()
            del self.fwd[x]
            del self.bwd[y]

    def walk(self, p, q) -> bool:
        budget = self.budget
        budget[0] -= 1
        if budget[0] < 0:
            return False
        if type(p) is not type(q):
            return False
        if isinstance(p, Nil):
            return True
        if isinstance(p, Drop):
            return self.bind(p.name, q.name)
        if isinstance(p, Lift):
            if not self.bind(p.subject, q.subject):
                return False
            mark = len(self.trail)
            body = q.body
            while True:
                if self.walk(p.body, body):
                    return True
                self.undo(mark)
                if isinstance(body, Lift):
                    body = body.body  # peel one wrapping output guard
                else:
                    return False
        if isinstance(p, Input):
            return (
                p.binder is q.binder
                and self.bind(p.subject, q.subject)
                and self.walk(p.body, q.body)
            )
        if len(p.children) != len(q.children):
            return False
        groups_p: dict = {}
        groups_q: dict = {}
        for c in p.children:
            groups_p.setdefault(_group_key(c), []).append(c)
        for c in q.children:
            groups_q.setdefault(_group_key(c), []).append(c)
        if set(groups_p) != set(groups_q):
            return False
        for k in groups_p:
            if len(groups_p[k]) != len(groups_q[k]):
                return False
        pairs = [(groups_p[k], groups_q[k]) for k in sorted(groups_p)]
        return self.match_groups(pairs, 0)

    def match_groups(self, pairs: list, gi: int) -> bool:
        if gi == len(pairs):
            return True
        return self.match_items(pairs, gi, [False] * len(pairs[gi][1]), 0)

    def match_items(self, pairs: list, gi: int, used: list, li: int) -> bool:
        left, right = pairs[gi]
        if li == len(left):
            return self.match_groups(pairs, gi + 1)
        for ri in range(len(right)):
            if used[ri]:
                continue
            mark = len(self.trail)
            if self.walk(left[li], right[ri]):
                used[ri] = True
                if self.match_items(pairs, gi, used, li + 1):
                    return True
                used[ri] = False
            self.undo(mark)
        return False
