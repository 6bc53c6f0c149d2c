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
lift nodes, never on the rest of the state, so it is computed once per pair
and memoised.  A successor is then built by inserting that canonical
continuation's components into a copy of the already-sorted canonical rest
of the state (``canon_par_into``), never by canonicalizing the whole state
again.  Canonical order puts equal components next to each other, so a
redex whose input or lift is the same node as its left neighbour repeats an
earlier (input, lift) pair and is skipped.

Observations (barbs) are the commitments visible at the surface: a top-level
lift is an output barb on its subject, a top-level input an input barb on
its subject, in both cases up to name equivalence.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .rhoterm import (
    Input,
    Lift,
    Nil,
    Par,
    RhoName,
    RhoProc,
    canon_name,
    canon_par_into,
    canon_proc,
    quote,
    subst_marker,
)

__all__ = [
    "components",
    "Redex",
    "redexes",
    "apply_redex",
    "step",
    "barbs",
    "OUT",
    "IN",
]

OUT = "out"
IN = "in"


def components(p: RhoProc) -> tuple:
    """Top-level parallel components of the canonical form of p."""
    cp = canon_proc(p)
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


def redexes(p: RhoProc) -> list:
    """All communication redexes of p, in (input position, lift position)
    order over the canonical component list."""
    comps = components(p)
    ins = [(i, c) for i, c in enumerate(comps) if isinstance(c, Input)]
    outs = [(j, c) for j, c in enumerate(comps) if isinstance(c, Lift)]
    found = []
    for i, inode in ins:
        for j, onode in outs:
            if inode.subject is onode.subject:  # canonical names: identity is equivalence
                found.append(Redex(i, j, inode.subject))
    return found


# (input node, lift node) -> canonical continuation of their communication
_CONTINUATION: dict = {}

#: this module's derived memo tables, as ``rhopi.cache_stats`` reports them
DERIVED_CACHES = {"continuation": _CONTINUATION}


def _reduct(comps: tuple, i: int, j: int) -> RhoProc:
    """The canonical reduct of the state whose canonical components are comps
    by the communication of input comps[i] with lift comps[j]."""
    inode = comps[i]
    onode = comps[j]
    pair = (inode, onode)
    continuation = _CONTINUATION.get(pair)
    if continuation is None:
        # the payload quote is passed uncollapsed: name positions take its
        # canonical name, a dropped binder becomes the lifted body as written
        continuation = subst_marker(inode.body, quote(onode.body), inode.binder.index)
        _CONTINUATION[pair] = continuation
    lo, hi = (i, j) if i < j else (j, i)
    return canon_par_into(comps[:lo] + comps[lo + 1 : hi] + comps[hi + 1 :], continuation)


def apply_redex(p: RhoProc, redex: Redex) -> RhoProc:
    """The canonical reduct of p by the given redex."""
    return _reduct(components(p), redex.input_index, redex.lift_index)


def step(p: RhoProc) -> list:
    """Canonical one-step reducts of p, deduplicated, in redex order.  A redex
    on the same (input, lift) pair as an earlier one is skipped: it can only
    give the same reduct.  Equal components are adjacent in canonical order,
    so the pair is a repeat exactly when the input or the lift is its left
    neighbour."""
    comps = components(p)
    out: list = []
    seen = set()
    for i, j, _ in redexes(p):
        if (i and comps[i - 1] is comps[i]) or (j and comps[j - 1] is comps[j]):
            continue
        q = _reduct(comps, i, j)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


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
