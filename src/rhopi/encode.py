"""Translations from the asynchronous choice-free pi-calculus into
reflective process terms.

Two translations are provided:

* ``encode_ns`` — the corrected translation.  A translated term runs beside a
  name-server process; each restriction sends a request carrying its private
  return channel and receives a globally fresh name (the server hands out the
  left-increment tower over its root, one name per request).  Replication
  must be input-guarded and is implemented with a copier.
* ``encode_mr`` — the legacy translation it replaces.  Restriction mints its
  "fresh" name from the translation parameters themselves and replication
  re-binds the parameter names round by round, which is exactly what the
  counter-example harness exploits.

Both translations are parameterized by machine names threaded through the
recursion: parallel composition splits its parameter into a left and a right
increment, restriction and replication move to a composed parameter.  Source
atoms are mapped to reflective names by a renaming policy (the left-increment
tower over @0, in first-occurrence order), kept injective and shared across
comparisons.

Translation operates on the source term exactly as written — it is not
canonicalized first, since the translation is not invariant under source
congruence (that failure is the point of the counter-examples).
"""

from __future__ import annotations

import bisect
from typing import Iterable, NamedTuple, Optional

from .piterm import PIn, PNew, PNil, POut, PPar, PRepl, PiTerm, pi_free_names, ppar
from .rhoterm import (
    NIL,
    NULL_NAME,
    RhoName,
    RhoProc,
    canon_name,
    canon_proc,
    drop,
    gen_fresh,
    gen_fresh_sorted,
    inp,
    lift,
    lincr,
    ncomp,
    nil,
    par,
    peel,
    quote,
    rincr,
)

__all__ = [
    "EncodingError",
    "RenamingPolicy",
    "copier",
    "name_server",
    "EncodingParams",
    "make_encoding_params",
    "derivable",
    "translate_ns",
    "translate_mr",
    "NsEncoding",
    "MrEncoding",
    "encode_ns",
    "encode_mr",
    "default_mr_params",
]


class EncodingError(ValueError):
    """Raised when a source term falls outside the translatable fragment."""


# ---------------------------------------------------------------------------
# Source-name renaming
# ---------------------------------------------------------------------------


class RenamingPolicy:
    """Injective map from source atoms to reflective names.

    Atoms are assigned, in first-request order, the successive names of the
    left-increment tower over @0: the first atom gets @0, the next
    @(@0!(0)), and so on.  One policy object can be shared by several
    encodings so that related comparisons agree on the image of every atom.
    """

    def __init__(self) -> None:
        self._map: dict = {}
        self._next = NULL_NAME

    def name_for(self, atom: str) -> RhoName:
        got = self._map.get(atom)
        if got is None:
            got = self._next
            self._map[atom] = got
            self._next = lincr(got)
        return got

    def scan(self, term: PiTerm) -> None:
        """Assign names to every atom of term (free and binding) in
        syntactic first-occurrence order.  Walks with an explicit stack, so
        a wide parallel does not recurse."""
        todo = [term]
        while todo:
            t = todo.pop()
            if isinstance(t, PPar):
                todo.extend(reversed(t.children))
                continue
            if isinstance(t, POut):
                names = (t.subject, t.obj)
            elif isinstance(t, PIn):
                names = (t.subject, t.binder)
            elif isinstance(t, PNew):
                names = (t.binder,)
            else:
                names = ()
            for n in names:
                if isinstance(n, str):
                    self.name_for(n)
            if isinstance(t, (PIn, PNew, PRepl)):
                todo.append(t.body)

    def image(self) -> frozenset:
        return frozenset(self._map.values())

    def known_atoms(self) -> tuple:
        return tuple(self._map)


# ---------------------------------------------------------------------------
# Machinery processes
# ---------------------------------------------------------------------------

# Both memos below are keyed on everything their function reads, so a hit
# returns exactly the terms a fresh computation would build.
# (policy image, canonical others) -> the chosen EncodingParams
_PARAMS: dict = {}
# EncodingParams -> its name-server process
_SERVERS: dict = {}

#: this module's derived memo tables, as ``rhopi.cache_stats`` reports them
DERIVED_CACHES = {"params": _PARAMS, "name_server": _SERVERS}

_MAX_TRIES = 64  # candidates per machine name before the choice gives up


def copier(x: RhoName) -> RhoProc:
    """The copier on channel x: receives a name and re-emits both the process
    it quotes and a fresh lift of it on x, so one lifted payload becomes a
    persistent supply."""
    y = gen_fresh([x])
    return inp(x, y, par(drop(y), lift(x, drop(y))))


def name_server(params: "EncodingParams") -> RhoProc:
    """The fresh-name server.

    Serves, on request, the successive names of the left-increment tower over
    its root s: a client sends v!(*ret) and receives ret!(*fresh).  The
    serving loop keeps its own state as a lift on z (the next name to hand
    out, advanced by quoting) and regenerates itself through the copier on x.
    """
    server = _SERVERS.get(params)
    if server is not None:
        return server
    x, z, v, s = params.x, params.z, params.v, params.s
    a = gen_fresh([x, z, v, s])
    r = gen_fresh([x, z, v, s, a])
    serve = inp(
        z,
        a,
        inp(
            v,
            r,
            par(
                copier(x),
                lift(r, drop(a)),
                lift(z, lift(a, nil())),
            ),
        ),
    )
    server = _SERVERS[params] = par(copier(x), lift(x, serve), lift(z, drop(s)))
    return server


class EncodingParams(NamedTuple):
    """Machine names for the server-based encoding: n seeds the translation
    parameters, v is the public request channel, and x, z, s belong to the
    name server (copier channel, state channel, tower root)."""

    n: RhoName
    v: RhoName
    x: RhoName
    z: RhoName
    s: RhoName

    def all_names(self) -> tuple:
        return (self.n, self.v, self.x, self.z, self.s)


# ---------------------------------------------------------------------------
# Namespace derivability and parameter construction
# ---------------------------------------------------------------------------


def derivable(sources: Iterable[RhoName], target: RhoName) -> bool:
    """Can target be built from the source names by the three quoting
    templates (left increment, right increment, composition), in any mixture?
    Sources themselves are derivable.  Composition requires both component
    positions to be derivable."""
    srcs = {canon_name(s) for s in sources}
    todo = [canon_name(target)]
    while todo:
        c = todo.pop()
        if c not in srcs:
            got = peel(c)
            if got is None:
                return False
            todo.extend(got[1])
    return True


def make_encoding_params(policy: RenamingPolicy, others: Iterable[RhoName] = ()) -> EncodingParams:
    """Choose the five machine names, mutually underivable and clear of the
    source-name image.

    The avoid set is seeded with the policy image plus the right increment of
    @0, which keeps the generated bases off the pure left-increment tower the
    policy draws from (so no machine name, nor anything derived from one, can
    collide with the image of a later atom).  Each candidate is rejected,
    and the base recomputed, if it lies in the namespace generated by an
    already-chosen name or vice versa.

    The choice depends only on the policy image and the canonical others, and
    is memoised on them.
    """
    image = policy.image()
    others = tuple(canon_name(o) for o in others)
    params = _PARAMS.get((image, others))
    if params is None:
        params = _PARAMS[(image, others)] = _choose_params(image, others)
    return params


def _choose_params(image: frozenset, others: tuple) -> EncodingParams:
    """Choose each name as ``gen_fresh`` would, sorting the avoid set once."""
    avoid = set(image) | {rincr(NULL_NAME)} | set(others)
    ordered = sorted(avoid, key=lambda n: n.key)
    chosen: list = []
    # The null name is a permanent guard: a candidate whose quoted body
    # collapses to a bare increment would otherwise sit inside the namespace
    # every source image is drawn from.
    guards = [NULL_NAME, *others]
    while len(chosen) < 5:
        for _ in range(_MAX_TRIES):
            cand = gen_fresh_sorted(ordered, avoid)
            avoid.add(cand)
            bisect.insort(ordered, cand, key=lambda n: n.key)
            if not any(derivable([c], cand) or derivable([cand], c) for c in chosen + guards):
                break
        else:  # pragma: no cover - the retry loop converges immediately in practice
            raise EncodingError("could not choose mutually underivable machine names")
        chosen.append(cand)
    params = EncodingParams(*chosen)
    assert not derivable([NULL_NAME], params.n) or params.n is NULL_NAME
    return params


# ---------------------------------------------------------------------------
# The corrected (server-based) translation
# ---------------------------------------------------------------------------


def translate_ns(
    term: PiTerm,
    n: RhoName,
    v: RhoName,
    policy: RenamingPolicy,
    derivations: Optional[dict] = None,
    _path: tuple = (),
) -> RhoProc:
    """Translate a source term at machine parameter n with request channel v.

    derivations, when given, records the parameter name used at each
    derivation path (root (), then 'L'/'R' for the two sides of a parallel
    split and 'C' for the composed parameter of restriction and replication
    bodies) — the distinctness audit for these is a correctness criterion.
    The parallel spine is walked with an explicit stack, left side first,
    so a wide parallel does not recurse; only prefixes do.
    """
    if derivations is not None and _path not in derivations:
        derivations[_path] = canon_name(n)

    if isinstance(term, PNil):
        return nil()
    if isinstance(term, POut):
        _need_atoms(term.subject, term.obj)
        return lift(policy.name_for(term.subject), drop(policy.name_for(term.obj)))
    if isinstance(term, PIn):
        _need_atoms(term.subject, term.binder)
        return inp(
            policy.name_for(term.subject),
            policy.name_for(term.binder),
            translate_ns(term.body, n, v, policy, derivations, _path),
        )
    if isinstance(term, PPar):
        done: list = []  # translated sides, each split's left below its right
        todo: list = [(term, n, _path)]
        while todo:
            item = todo.pop()
            if item is None:  # both sides of a split are done
                right = done.pop()
                done[-1] = par(done[-1], right)
                continue
            t, m, path = item
            if not isinstance(t, PPar):
                done.append(translate_ns(t, m, v, policy, derivations, path))
                continue
            if derivations is not None and path not in derivations:
                derivations[path] = canon_name(m)
            todo.append(None)
            todo.append((ppar(*t.children[1:]), rincr(m), path + ("R",)))
            todo.append((t.children[0], lincr(m), path + ("L",)))
        return done[0]
    if isinstance(term, PNew):
        _need_atoms(term.binder)
        body = translate_ns(
            term.body, ncomp(n, n), v, policy, derivations, _path + ("C",)
        )
        return par(lift(v, drop(n)), inp(n, policy.name_for(term.binder), body))
    if isinstance(term, PRepl):
        inner = term.body
        if not isinstance(inner, PIn):
            raise EncodingError(
                "the server-based translation accepts input-guarded replication only"
            )
        _need_atoms(inner.subject, inner.binder)
        body = translate_ns(
            inner.body, ncomp(n, n), v, policy, derivations, _path + ("C",)
        )
        trigger = inp(
            policy.name_for(inner.subject),
            policy.name_for(inner.binder),
            par(copier(n), body),
        )
        return par(copier(n), lift(n, trigger))
    raise EncodingError(f"untranslatable term: {term!r}")


def _need_atoms(*names) -> None:
    for x in names:
        if not isinstance(x, str):
            raise EncodingError(
                "translation needs a named source term (bound markers present); "
                "render binders to atoms first"
            )


# ---------------------------------------------------------------------------
# The legacy translation
# ---------------------------------------------------------------------------


def translate_mr(
    term: PiTerm,
    n: RhoName,
    p: RhoName,
    policy: RenamingPolicy,
) -> RhoProc:
    """The legacy translation at machine parameters (n, p).

    Restriction takes its fresh name from the parameters themselves
    (p?(x).[...] | p!(*n)); replication builds an unfolding machine that
    re-binds the parameter names round by round from two supply channels.
    Names derived from the parameters sit under quotes, so the re-binding
    leaves them frozen at their original values — the aliasing the
    counter-example harness exhibits comes from exactly this.  The parallel
    spine is walked with an explicit stack, as in ``translate_ns``.
    """
    if isinstance(term, PNil):
        return nil()
    if isinstance(term, POut):
        _need_atoms(term.subject, term.obj)
        return lift(policy.name_for(term.subject), drop(policy.name_for(term.obj)))
    if isinstance(term, PIn):
        _need_atoms(term.subject, term.binder)
        return inp(
            policy.name_for(term.subject),
            policy.name_for(term.binder),
            translate_mr(term.body, n, p, policy),
        )
    if isinstance(term, PPar):
        done: list = []  # translated sides, each split's left below its right
        todo: list = [(term, n, p)]
        while todo:
            item = todo.pop()
            if item is None:  # both sides of a split are done
                right = done.pop()
                done[-1] = par(done[-1], right)
            elif isinstance(item[0], PPar):
                t, m, q = item
                rest = (ppar(*t.children[1:]), rincr(m), rincr(q))
                todo += (None, rest, (t.children[0], lincr(m), lincr(q)))
            else:
                done.append(translate_mr(*item, policy))
        return done[0]
    if isinstance(term, PNew):
        _need_atoms(term.binder)
        body = translate_mr(term.body, lincr(n), lincr(p), policy)
        return par(
            inp(p, policy.name_for(term.binder), body),
            lift(p, drop(n)),
        )
    if isinstance(term, PRepl):
        a = ncomp(n, p)
        round_body = par(
            translate_mr(term.body, n, p, policy),
            copier(a),
            lift(rincr(n), lift(n, drop(n))),
            lift(rincr(p), lift(p, drop(p))),
        )
        machine_body = inp(rincr(n), n, inp(rincr(p), p, round_body))
        return par(
            lift(a, machine_body),
            copier(a),
            lift(rincr(n), drop(lincr(n))),
            lift(rincr(p), drop(lincr(p))),
        )
    raise EncodingError(f"untranslatable term: {term!r}")


# ---------------------------------------------------------------------------
# Whole-encoding entry points
# ---------------------------------------------------------------------------


class NsEncoding(NamedTuple):
    """A source term translated against a running name server."""

    source: PiTerm
    policy: RenamingPolicy
    params: EncodingParams
    translation: RhoProc  # the term's translation alone (raw)
    server: RhoProc  # the name-server process (raw)
    derivations: dict  # derivation path -> machine parameter name

    @property
    def state(self) -> RhoProc:
        return canon_proc(par(self.translation, self.server))


class MrEncoding(NamedTuple):
    """A source term translated by the legacy encoding (self-contained)."""

    source: PiTerm
    policy: RenamingPolicy
    n: RhoName
    p: RhoName
    translation: RhoProc

    @property
    def state(self) -> RhoProc:
        return canon_proc(self.translation)


def encode_ns(
    term: PiTerm,
    policy: Optional[RenamingPolicy] = None,
    params: Optional[EncodingParams] = None,
) -> NsEncoding:
    """Translate term with the corrected encoding and put it beside a fresh
    name server; machine names are chosen clear of the source-name image."""
    policy = policy or RenamingPolicy()
    policy.scan(term)
    params = params or make_encoding_params(policy)
    derivations: dict = {}
    translation = translate_ns(term, params.n, params.v, policy, derivations)
    return NsEncoding(term, policy, params, translation, name_server(params), derivations)


def default_mr_params(term: PiTerm, policy: RenamingPolicy) -> tuple:
    """The legacy translation's default parameters: quotes of the parallel
    products of outputs (for n) and inputs (for p) over the images of the
    term's free atoms; increments of @0 when there are none."""
    atoms = sorted(pi_free_names(term))
    if not atoms:
        return (lincr(NULL_NAME), rincr(NULL_NAME))
    images = [policy.name_for(a) for a in atoms]
    n0 = canon_name(quote(par(*(lift(img, NIL) for img in images))))
    p0 = canon_name(quote(par(*(inp(img, NULL_NAME, NIL) for img in images))))
    return (n0, p0)


def encode_mr(
    term: PiTerm,
    policy: Optional[RenamingPolicy] = None,
    n: Optional[RhoName] = None,
    p: Optional[RhoName] = None,
) -> MrEncoding:
    """Translate term with the legacy encoding at its default parameters
    (or the given ones)."""
    policy = policy or RenamingPolicy()
    policy.scan(term)
    if n is None or p is None:
        dn, dp = default_mr_params(term, policy)
        n = n if n is not None else dn
        p = p if p is not None else dp
    translation = translate_mr(term, n, p, policy)
    return MrEncoding(term, policy, canon_name(n), canon_name(p), translation)
