"""Reduction and observation for reflective process terms.

Communication is the only reduction rule: an input and a lift running in
parallel whose subjects are equivalent names exchange the lift's body as a
quoted name,

    x1?(y).P | x2!(Q)   -->   P{@Q / y}      when x1 and x2 are equivalent,

where the substitution is the semantic one (name positions get @Q, a dropped
y becomes Q itself).  Reduction is closed under parallel composition and
structural congruence; working on canonical forms makes both closures free:
redexes are pairs of top-level parallel components with identical canonical
subjects.

The continuation P{@Q / y} depends only on the interned pair of input and
lift nodes, never on the rest of the state, so its canonical components are
computed once per pair and memoised.  A successor is then the rest of the
state plus those components, sorted and interned as a canonical Par; it is
never canonicalized again, and as nothing sorts a whole state, its own key
is built only if something reads it.  The sort compares ranks, not keys:
every component a successor is built from gets a float rank, strictly
increasing with its key, the first time a sort meets it unranked, so
ordering by rank is canonical order without comparing nested key
tuples.  Unlike a pure memo table, the rank table is rewritten in place, so
reduction must not run in several threads at once.  Canonical order puts
equal components next to each other, so ``step`` leaves out of its redex
search every component that is the same node as its left neighbour: its
pairs repeat the neighbour's.  A search (``explore`` with a stop predicate)
reads states, not edges, so ``search_step`` also skips each commuting redex
whose reduct the search already holds, and finds the same states.  It
records, for each reduct, the input and the continuation that made it.
The one pass that pairs a reduct's inputs and lifts reads off that record
which redexes are awake: an end in the continuation, or an input ranked at
or above the recorded one.  The search's stop predicate reads the flag off
it too: the reduct's parent was expanded, so the predicate refused it, and
removing the consumed input and lift adds no lift, so the reduct outputs on
the searched subject exactly when its continuation does.  That predicate is
valid only as the stop predicate of the same ``explore`` run.

Observations (barbs) are the commitments visible at the surface: a top-level
lift is an output barb on its subject, a top-level input an input barb on
its subject, in both cases up to name equivalence.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .rhoterm import (
    Input,
    Lift,
    Nil,
    Par,
    RhoName,
    RhoProc,
    canon_name,
    canon_proc,
    canon_sorted_par,
    quote,
    subst_marker,
)

__all__ = [
    "components",
    "Redex",
    "redexes",
    "apply_redex",
    "step",
    "search_step",
    "FlagSearch",
    "barbs",
    "OUT",
    "IN",
]

OUT = "out"
IN = "in"


def components(p: RhoProc) -> tuple:
    """Top-level parallel components of the canonical form of p."""
    return _parts(canon_proc(p))


def _parts(cp: RhoProc) -> tuple:
    """Top-level parallel components of the canonical process cp."""
    if isinstance(cp, Par):
        return cp.children
    if isinstance(cp, Nil):
        return ()
    return (cp,)


class Redex(NamedTuple):
    """A communication opportunity between two top-level components:
    components[input_index] is an input and components[lift_index] a lift on
    an equivalent subject."""

    input_index: int
    lift_index: int
    subject: RhoName


def _pairs(comps: tuple, distinct: bool = False, top: Optional[float] = None, cont: tuple = ()) -> list:
    """(i, j) for every input comps[i] and lift comps[j] on the same
    canonical subject, in (input position, lift position) order.  With
    distinct, a component that is the same node as its left neighbour is
    left out: its pairs repeat the neighbour's.  With a sleep bound top (a
    rank) and a continuation cont, a pair is kept only if one end is awake:
    an input ranked at or above top (an unranked one is) or in cont, or a
    lift in cont (see ``search_step``)."""
    ins = []
    lifts: dict = {}
    prev = None
    rank = _RANK.get
    for k, c in enumerate(comps):
        if c is prev and distinct:
            continue
        prev = c
        if isinstance(c, Input):
            ins.append((k, top is None or not rank(c, top) < top or c in cont))
        elif isinstance(c, Lift):
            lifts.setdefault(c.subject, []).append(k)
    # canonical names: identity is equivalence
    return [
        (i, j)
        for i, awake in ins
        for j in lifts.get(comps[i].subject, ())
        if awake or comps[j] in cont
    ]


def redexes(p: RhoProc) -> list:
    """All communication redexes of p, in (input position, lift position)
    order over the canonical component list."""
    comps = components(p)
    return [Redex(i, j, comps[i].subject) for i, j in _pairs(comps)]


# every component a successor is sorted from, in key order, and its rank: a
# float strictly increasing with the key
_ORDER: list = []
_RANK: dict = {}
_BY_KEY = attrgetter("key")

# (input node, lift node) -> (input node, canonical components of their
# continuation); a search records this one tuple for every reduct of the pair
_CONTINUATION: dict = {}

#: this module's derived memo tables, as ``rhopi.cache_stats`` reports them;
#: ``rhopi.clear_caches`` empties the rank table's two halves together
DERIVED_CACHES = {"continuation": _CONTINUATION, "rank": _RANK, "rank_order": _ORDER}


def _rank(comps: Iterable[RhoProc]) -> None:
    """Rank every component of comps that has no rank yet, each at the
    midpoint of its neighbours' ranks in key order (one above the last, or
    half the first); renumber every rank once a gap is spent."""
    for c in comps:
        if c not in _RANK:  # checked per component: comps may repeat one
            at = bisect.bisect_left(_ORDER, c.key, key=_BY_KEY)
            lo = _RANK[_ORDER[at - 1]] if at else 0.0
            hi = _RANK[_ORDER[at]] if at < len(_ORDER) else lo + 2.0
            rank = (lo + hi) / 2
            _ORDER.insert(at, c)
            if lo < rank < hi:
                _RANK[c] = rank
            else:
                _RANK.update((d, float(r)) for r, d in enumerate(_ORDER, 1))


def _successors(comps: tuple, pairs: list, first: Optional[dict] = None) -> list:
    """The canonical reducts of the state whose canonical components are
    comps by the communication of input comps[i] with lift comps[j], for
    each (i, j) in pairs, deduplicated, in that order: the one place a
    successor is built.  With first given, each reduct's input node and
    continuation are recorded there unless the reduct already has an entry."""
    out: list = []
    seen = set()
    rank = _RANK.__getitem__
    for i, j in pairs:
        pair = inode, onode = comps[i], comps[j]
        known = _CONTINUATION.get(pair)
        if known is None:
            # the payload quote is passed uncollapsed: name positions take its
            # canonical name, a dropped binder becomes the lifted body as written
            q = subst_marker(inode.body, quote(onode.body), inode.binder.index)
            known = _CONTINUATION[pair] = (inode, _parts(q))
        continuation = known[1]
        kids = list(comps)
        lo, hi = (i, j) if i < j else (j, i)
        del kids[hi], kids[lo]
        kids += continuation
        # ranks are strictly monotone in the key: this is canonical order
        try:
            kids.sort(key=rank)
        except KeyError:
            _rank(kids)
            kids.sort(key=rank)
        q = canon_sorted_par(kids)
        if q not in seen:
            seen.add(q)
            out.append(q)
            if first is not None:
                first.setdefault(q, known)
    return out


def apply_redex(p: RhoProc, redex: Redex) -> RhoProc:
    """The canonical reduct of p by the given redex."""
    return _successors(components(p), [(redex.input_index, redex.lift_index)])[0]


def step(p: RhoProc) -> list:
    """Canonical one-step reducts of p, deduplicated, in redex order.  A
    component that is the same node as its left neighbour is left out of
    the redex search: its pairs repeat the neighbour's, so their reducts
    are already listed.  A component is ranked when a sort first meets it."""
    comps = components(p)
    return _successors(comps, _pairs(comps, distinct=True))


class FlagSearch(NamedTuple):
    """One flag search: ``explore(root, fs.step, stop=fs.flagged)``, or
    ``weak_barb_search(root, fs.step, fs.flagged, ...)``.  The predicate
    reads the step's record of where each reduct came from, so it is valid
    only as the stop predicate of the run that calls that step (see
    ``search_step``)."""

    step: Callable[[RhoProc], list]
    flagged: Callable[[RhoProc], bool]


def search_step(subject: RhoName) -> FlagSearch:
    """A fresh step and stop predicate for one search for a lift on the
    canonical name subject: the step is ``step`` less the commuting redexes
    whose reducts the search already holds (Godefroid's sleep sets, LNCS
    1032), and the predicate reads the flag off each reduct's continuation.

    A reduct t records the input node it and the continuation C of the pair
    (it, lt) that first produced it in this search, from its parent p: t is
    p less it and lt, plus C.  Expanding t, the step leaves out each pair
    (i, l) of t with neither i nor l in C and i ranked below it (an unranked
    node never is).  Then i and l stand in p besides it and lt, so
    t·(i, l) = (p·(i, l))·(it, lt), as multisets of components.  p pairs its
    inputs in rank order, so it met (i, l) before (it, lt): s = p·(i, l) is
    not t (that earlier pair would be recorded), and p's step yields s
    before t or leaves s out as held.  So explore holds s before t, as a cut
    that refused s would have refused t.  s is dequeued first, and its step
    yields t·(i, l) or leaves it out by the same rule.  By induction on
    dequeue order, every reduct left out of t's step is held by the time t
    is expanded, or was refused as new earlier: by max_states, which would
    refuse it again for the same reason, or by max_depth, after which a
    search does not expand t, whose depth is at least s's.  So explore
    admits the same states in the same order, at the same depths from the
    same parents, and ends with the same hit, truncated and
    truncated_reason; only the graph's edges shrink.  A graph (no stop)
    needs every edge and expands its depth-bound states: use ``step``.

    The flag: explore expands p only after the predicate refused it, so p
    has no lift on subject, and removing it and lt adds none; so t has one
    exactly when C has one.  Only a state with no record (the root) is
    scanned in full.  A record is written only by the step, so the
    predicate is valid as the stop predicate of the explore run that calls
    this step, not on its own."""
    first: dict = {}

    def flagged(t: RhoProc) -> bool:
        origin = first.get(t)
        for c in components(t) if origin is None else origin[1]:
            if isinstance(c, Lift) and c.subject is subject:
                return True
        return False

    def search(t: RhoProc) -> list:
        # t is expanded once, so its entry goes: the map holds the frontier
        origin = first.pop(t, None)
        if origin is None:
            comps, top, cont = components(t), None, ()
        else:  # a canon_sorted_par result: canonical already
            comps, top, cont = _parts(t), _RANK.get(origin[0]), origin[1]
        return _successors(comps, _pairs(comps, True, top, cont), first)

    return FlagSearch(search, flagged)


def barbs(p: RhoProc, restrict: Optional[Iterable[RhoName]] = None) -> frozenset:
    """Observable commitments of p: pairs (direction, subject) with direction
    "out" for a top-level lift and "in" for a top-level input, subjects
    canonical.  With restrict given, only subjects equivalent to a member of
    restrict are reported."""
    allowed = None if restrict is None else {canon_name(x) for x in restrict}
    found = set()
    for c in components(p):
        if isinstance(c, Lift):
            pair = (OUT, c.subject)
        elif isinstance(c, Input):
            pair = (IN, c.subject)
        else:
            continue
        if allowed is None or pair[1] in allowed:
            found.add(pair)
    return frozenset(found)
