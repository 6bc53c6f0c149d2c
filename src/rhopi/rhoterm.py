"""Reflective process terms: processes whose names are quoted processes.

Grammar (two mutually recursive sorts):

    P ::= 0            inert process
        | P1 | P2      parallel composition
        | x!(P)        lift: output the process P on channel x
        | x?(y).P      input: receive a name on x, bind it to y in P
        | *x           drop: run the process whose quote is x
    x ::= @P           quote: the name of process P

There is no separate supply of atomic names and no restriction operator:
every name is the quote of a process, and lifting is the only way new names
come into existence at runtime.

Two equivalences are decided here, each by reduction to a canonical form:

* name equivalence ``name_eq``: the least relation closing structural
  congruence under quoting (@P1 and @P2 are equivalent when P1 and P2 are
  congruent) and collapsing a quoted drop (@(*x) is equivalent to x).
* structural congruence ``struct_eq``: alpha-equivalence plus the abelian
  monoid laws of parallel composition with 0 as unit, with subjects and
  binders compared up to name equivalence.

Canonicalization flattens and sorts parallel children (a multiset — duplicate
children are kept), erases 0 children, rewrites each bound name to a
``BoundMarker`` indexed by binder nesting depth (outermost first), collapses
@(*x) to x at name positions, and orders children by a total term order
(Nil < Drop < Lift < Input < Par, Quote < BoundMarker, then lexicographically
on children).  The drop of a quote, ``*(@P)``, is deliberately NOT rewritten
to P: the collapse is a law of names, not of processes.

All nodes are interned: equal trees are the same Python object, so identity
is equality and the hash (both inherited from ``object``), and canonical-form
comparison is a pointer check.  The intern table keys each node on its own
fields, with no class tag (sorts keep the classes apart, see ``_INTERN``),
and the canonical-form memo keys a top-level process on the node itself.
These tables behave as thread-safe pure caches (they only ever map a key to
one value; concurrent insertion is benign).

Substitution never recurses into a quoted process: a name position whose
whole name is equivalent to the target is replaced, anything strictly inside
a quote is untouched.  ``subst_syn`` replaces name positions only;
``subst_marker``, which communication uses, replaces a consumed input's
binder marker and also splices the payload process in place of a matching
drop.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "RhoTerm",
    "RhoProc",
    "RhoName",
    "Nil",
    "Par",
    "Lift",
    "Input",
    "Drop",
    "Quote",
    "BoundMarker",
    "NIL",
    "NULL_NAME",
    "nil",
    "par",
    "lift",
    "inp",
    "drop",
    "quote",
    "marker",
    "canon_proc",
    "canon_name",
    "canon_sorted_par",
    "struct_eq",
    "name_eq",
    "free_names",
    "subst_syn",
    "quote_depth",
    "quote_depth_proc",
    "lincr",
    "rincr",
    "ncomp",
    "NamespaceScheme",
    "peel",
    "gen_fresh",
    "gen_fresh_sorted",
    "proc_size",
    "name_size",
    "show_proc",
    "show_name",
]


# ---------------------------------------------------------------------------
# Term representation (interned, immutable)
# ---------------------------------------------------------------------------


class RhoTerm:
    """Base class for interned term nodes.

    Construct only through the module factories (``nil``, ``par``, ``lift``,
    ``inp``, ``drop``, ``quote``, ``marker``); they intern every node, so
    structurally equal trees are the same object, and ``object``'s identity
    ``==`` and ``hash`` are the term's.  ``key`` is a nested tuple realizing
    the total term order used for sorting parallel children, built at
    construction, except for a state built by ``canon_sorted_par``: ``Par``
    overrides ``key`` with a property that builds an unset key when first
    read and stores it in this class's slot.
    """

    __slots__ = ("key",)


# the slot descriptor of ``RhoTerm.key``, which ``Par.key`` reads and writes
_KEY = RhoTerm.__dict__["key"]


class RhoProc(RhoTerm):
    __slots__ = ()

    def __repr__(self) -> str:
        return show_proc(self)


class RhoName(RhoTerm):
    __slots__ = ()

    def __repr__(self) -> str:
        return show_name(self)


class Nil(RhoProc):
    __slots__ = ()


class Par(RhoProc):
    __slots__ = ("children",)
    children: tuple[RhoProc, ...]

    def _key(self) -> tuple:
        # unset on a canon_sorted_par state until read: no child is a Par
        try:
            return _KEY.__get__(self)
        except AttributeError:
            key = (4, *(c.key for c in self.children))
            _KEY.__set__(self, key)
            return key

    key = property(_key, _KEY.__set__)


class Lift(RhoProc):
    __slots__ = ("subject", "body")
    subject: "RhoName"
    body: RhoProc


class Input(RhoProc):
    __slots__ = ("subject", "binder", "body")
    subject: "RhoName"
    binder: "RhoName"
    body: RhoProc


class Drop(RhoProc):
    __slots__ = ("name",)
    name: "RhoName"


class Quote(RhoName):
    __slots__ = ("body",)
    body: RhoProc


class BoundMarker(RhoName):
    __slots__ = ("index",)
    index: int


#: one entry per node, keyed on its own fields: a Par on its children tuple,
#: a Quote on its body, a Drop on its name, a BoundMarker on its int index, a
#: Lift or an Input on its field tuple, 0 on ``()``.  Sorts keep two classes'
#: keys apart: a name is never a process, a Lift's or an Input's key starts
#: with a name where a Par's starts with a process, and a Par has 2+ children.
_INTERN: dict = {}


def _mk(cls, ident, fields: tuple, key: tuple):
    """Intern a node of class cls with the given fields and sort key under
    ident; the caller found no entry for ident in ``_INTERN``.  Most nodes a
    reduction builds are interned already, so each factory looks ident up
    first and builds the sort key only on a miss."""
    node = cls.__new__(cls)
    for slot, value in zip(cls.__slots__, fields):
        setattr(node, slot, value)
    node.key = key
    return _INTERN.setdefault(ident, node)


_NIL_NODE = _mk(Nil, (), (), (0,))
NIL: RhoProc = _NIL_NODE


def nil() -> RhoProc:
    """The inert process 0."""
    return _NIL_NODE


def par(*children: RhoProc) -> RhoProc:
    """Parallel composition of the given processes, as written (no sorting).

    Zero children give 0 and a single child is returned unchanged; otherwise
    the node keeps the children in the given order and nesting.
    """
    if len(children) == 1 and not isinstance(children[0], RhoProc):
        children = tuple(children[0])  # accept a single iterable
    if not children:
        return _NIL_NODE
    if len(children) == 1:
        return children[0]
    return _INTERN.get(children) or _mk(Par, children, (children,), (4, *(c.key for c in children)))


def lift(subject: RhoName, body: RhoProc) -> RhoProc:
    """The output ``subject!(body)``."""
    fields = (subject, body)
    return _INTERN.get(fields) or _mk(Lift, fields, fields, (2, subject.key, body.key))


def inp(subject: RhoName, binder: RhoName, body: RhoProc) -> RhoProc:
    """The input ``subject?(binder).body``."""
    fields = (subject, binder, body)
    return _INTERN.get(fields) or _mk(Input, fields, fields, (3, subject.key, binder.key, body.key))


def drop(name: RhoName) -> RhoProc:
    """The drop ``*name``."""
    return _INTERN.get(name) or _mk(Drop, name, (name,), (1, name.key))


def quote(body: RhoProc) -> RhoName:
    """The name ``@body``."""
    return _INTERN.get(body) or _mk(Quote, body, (body,), (0, body.key))


def marker(index: int) -> RhoName:
    """Bound-name marker for binder nesting level ``index`` (internal).

    Markers appear in canonical and internal forms only; user-built terms use
    real (quoted) names as binders.
    """
    return _INTERN.get(index) or _mk(BoundMarker, index, (index,), (1, index))


NULL_NAME: RhoName = quote(NIL)  # @0, the simplest name


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

_CANON_NAME: dict = {}
#: keyed on the process itself at top level, on ``(p, env)`` under binders
_CANON_PROC: dict = {}


def canon_name(x: RhoName) -> RhoName:
    """Canonical representative of a name; ``is`` on results decides name_eq.

    Quoted bodies are canonicalized in a fresh scope (a quote never refers to
    an enclosing binder as a whole name), and a canonical quote of a drop is
    collapsed to the dropped name.
    """
    if isinstance(x, BoundMarker):
        return x
    cached = _CANON_NAME.get(x)
    if cached is None:
        body = _canon(x.body, ())
        cached = body.name if isinstance(body, Drop) else quote(body)
        _CANON_NAME[x] = cached
        _CANON_NAME[cached] = cached
    return cached


def canon_proc(p: RhoProc) -> RhoProc:
    """Canonical representative of a process; ``is`` on results decides
    struct_eq."""
    return _canon(p, ())


def _canon_occ(n: RhoName, env: tuple) -> RhoName:
    """Canonicalize a name occurrence under the binders listed in env
    (outermost first); occurrences of a binder become its marker, innermost
    binding winning when several binders share a name."""
    c = canon_name(n)
    for lvl in range(len(env) - 1, -1, -1):
        if env[lvl] is c:
            return marker(lvl)
    return c


def _canon(p: RhoProc, env: tuple) -> RhoProc:
    cache_key = (p, env) if env else p
    cached = _CANON_PROC.get(cache_key)
    if cached is not None:
        return cached

    if isinstance(p, Nil):
        out = p
    elif isinstance(p, Drop):
        out = drop(_canon_occ(p.name, env))
    elif isinstance(p, Lift):
        out = lift(_canon_occ(p.subject, env), _canon(p.body, env))
    elif isinstance(p, Input):
        subj = _canon_occ(p.subject, env)
        bound = canon_name(p.binder)
        body = _canon(p.body, env + (bound,))
        out = inp(subj, marker(len(env)), body)
    elif isinstance(p, Par):
        kids: list[RhoProc] = []
        for child in p.children:
            cc = _canon(child, env)
            if isinstance(cc, Nil):
                continue
            if isinstance(cc, Par):
                kids.extend(cc.children)
            else:
                kids.append(cc)
        if not kids:
            out = _NIL_NODE
        elif len(kids) == 1:
            out = kids[0]
        else:
            kids.sort(key=lambda t: t.key)
            out = par(*kids)
    else:  # pragma: no cover - exhaustive over the grammar
        raise TypeError(f"not a process: {p!r}")

    _CANON_PROC[cache_key] = out
    # out is its own form under env only when env's binders are real names;
    # under markers (subst_marker's re-canonicalization) it renumbers them
    if not any(isinstance(b, BoundMarker) for b in env):
        _CANON_PROC[(out, env) if env else out] = out
    return out


def canon_sorted_par(kids: Sequence[RhoProc]) -> RhoProc:
    """Canonical form of ``par(*kids)`` when kids is a key-sorted sequence of
    canonical top-level components (no 0, no Par): 0 for none, the child
    itself for one, else their interned Par: one lookup if it is known, else
    built and recorded once as its own canonical form (a Par that ``par``
    interned is only a memo miss; ``_canon`` finds it itself).  A Par built
    here builds its key when first read, from its children's keys."""
    if not kids:
        return _NIL_NODE
    if len(kids) == 1:
        return kids[0]
    kids = tuple(kids)
    out = _INTERN.get(kids)
    if out is None:
        out = Par.__new__(Par)
        out.children = kids
        out = _INTERN.setdefault(kids, out)
        _CANON_PROC[out] = out
    return out


def struct_eq(p: RhoProc, q: RhoProc) -> bool:
    """Structural congruence: alpha conversion + the parallel monoid laws,
    with subjects and binders matched up to name equivalence."""
    return canon_proc(p) is canon_proc(q)


def name_eq(x: RhoName, y: RhoName) -> bool:
    """Name equivalence: structural congruence under quotes plus the collapse
    of a quoted drop (@(*x) is the same name as x)."""
    return canon_name(x) is canon_name(y)


# ---------------------------------------------------------------------------
# Free names, freshness
# ---------------------------------------------------------------------------


def free_names(p: RhoProc) -> frozenset:
    """Free names of p, as canonical names.

    A name position contributes the whole name standing there; names strictly
    inside a quote are part of that name's structure, not separate
    occurrences.  Bound occurrences (positions matching an enclosing binder)
    are excluded.
    """
    acc: set = set()
    _collect_free(canon_proc(p), acc)
    return frozenset(acc)


def _collect_free(p: RhoProc, acc: set) -> None:
    if isinstance(p, Nil):
        return
    if isinstance(p, Drop):
        if isinstance(p.name, Quote):
            acc.add(p.name)
        return
    if isinstance(p, Lift):
        if isinstance(p.subject, Quote):
            acc.add(p.subject)
        _collect_free(p.body, acc)
        return
    if isinstance(p, Input):
        if isinstance(p.subject, Quote):
            acc.add(p.subject)
        _collect_free(p.body, acc)
        return
    for child in p.children:
        _collect_free(child, acc)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def _replace(p: RhoProc, old: RhoName, new: RhoName, splice: Optional[RhoProc]) -> RhoProc:
    """Replace name positions equal to old (canonical identity) in canonical
    p.  When splice is given, a matching drop becomes that process instead of
    a drop of the new name (the semantic variant used by communication)."""
    if isinstance(p, Nil):
        return p
    if isinstance(p, Drop):
        if p.name is old:
            return splice if splice is not None else drop(new)
        return p
    if isinstance(p, Lift):
        subj = new if p.subject is old else p.subject
        return lift(subj, _replace(p.body, old, new, splice))
    if isinstance(p, Input):
        subj = new if p.subject is old else p.subject
        return inp(subj, p.binder, _replace(p.body, old, new, splice))
    return par(*(_replace(c, old, new, splice) for c in p.children))


def subst_syn(p: RhoProc, new: RhoName, old: RhoName) -> RhoProc:
    """Syntactic substitution of new for old: every free name position whose
    whole name is equivalent to old becomes new.  Never recurses into quoted
    processes.  Capture cannot occur: binders are normalized to markers
    before replacement.  Returns a canonical process."""
    cp = canon_proc(p)
    co = canon_name(old)
    cn = canon_name(new)
    return canon_proc(_replace(cp, co, cn, None))


def _splice_of(payload: RhoName) -> RhoProc:
    """The process a matching drop becomes under semantic substitution of
    payload: the process under the quote as given.  The payload name itself
    may canonically collapse (@(*s) is the name s), but the dropped process
    is @'s body as written (*s there, never s's own body), so the splice is
    taken before collapsing."""
    if isinstance(payload, Quote):
        return canon_proc(payload.body)
    c = canon_name(payload)
    return c.body if isinstance(c, Quote) else drop(c)


def subst_marker(body: RhoProc, payload: RhoName, level: int) -> RhoProc:
    """Semantic substitution for a binder marker (internal: communication on
    canonical forms, where the consumed input's binder is marker(level))."""
    splice = _splice_of(payload)
    return canon_proc(_replace(body, marker(level), canon_name(payload), splice))


# ---------------------------------------------------------------------------
# Quote depth
# ---------------------------------------------------------------------------

_QDEPTH: dict = {}

#: this module's derived memo tables, as ``rhopi.cache_stats`` reports them;
#: the intern table is not one (``rhopi.clear_caches`` says why)
DERIVED_CACHES = {
    "canon_proc": _CANON_PROC,
    "canon_name": _CANON_NAME,
    "quote_depth": _QDEPTH,
}


def quote_depth(x: RhoName) -> int:
    """Nesting depth of quotes in a name, invariant under name equivalence:
    the depth of @P is the depth of x when P is congruent to *x, else
    1 + the depth of P.  The free names of each quoted body are filled in
    with an explicit stack, so a deep name does not recurse."""
    cx = canon_name(x)
    if isinstance(cx, BoundMarker):
        return 0
    todo = [cx]
    while todo:
        y = todo[-1]
        if y in _QDEPTH:
            todo.pop()
            continue
        fns = [z for z in map(canon_name, free_names(y.body)) if not isinstance(z, BoundMarker)]
        missing = [z for z in fns if z not in _QDEPTH]
        if missing:
            todo += missing
        else:
            _QDEPTH[todo.pop()] = 1 + max(map(_QDEPTH.__getitem__, fns), default=0)
    return _QDEPTH[cx]


def quote_depth_proc(p: RhoProc) -> int:
    """Depth of a process: the maximum depth of its free names (0 if none)."""
    fns = free_names(p)
    if not fns:
        return 0
    return max(quote_depth(x) for x in fns)


# ---------------------------------------------------------------------------
# Static quoting combinators and namespaces
# ---------------------------------------------------------------------------


def lincr(x: RhoName) -> RhoName:
    """Left increment of x: the name @(x!(0))."""
    return canon_name(quote(lift(x, _NIL_NODE)))


def rincr(x: RhoName) -> RhoName:
    """Right increment of x: the name @(x?(@0).0)."""
    return canon_name(quote(inp(x, NULL_NAME, _NIL_NODE)))


def ncomp(x: RhoName, y: RhoName) -> RhoName:
    """Composition of x and y: the name @(x!(0) | y?(@0).0)."""
    return canon_name(quote(par(lift(x, _NIL_NODE), inp(y, NULL_NAME, _NIL_NODE))))


class NamespaceScheme(Enum):
    """The three name-generation templates built from a root name."""

    LEFT_INCREMENT = "left-increment"
    RIGHT_INCREMENT = "right-increment"
    COMPOSITION = "composition"


def peel(x: RhoName) -> Optional[tuple]:
    """Undo one quoting template on a canonical name: (LEFT_INCREMENT, (y,))
    for lincr(y), (RIGHT_INCREMENT, (y,)) for rincr(y), (COMPOSITION, (y, z))
    for ncomp(y, z), and None for any other name."""
    if not isinstance(x, Quote):
        return None
    body = x.body
    if isinstance(body, Lift) and isinstance(body.body, Nil):
        return (NamespaceScheme.LEFT_INCREMENT, (body.subject,))
    if isinstance(body, Input) and isinstance(body.body, Nil):
        return (NamespaceScheme.RIGHT_INCREMENT, (body.subject,))
    if not (isinstance(body, Par) and len(body.children) == 2):
        return None
    out_part, in_part = body.children  # canonical order puts the lift first
    if not (isinstance(out_part, Lift) and isinstance(out_part.body, Nil)):
        return None
    if not (isinstance(in_part, Input) and isinstance(in_part.body, Nil)):
        return None
    return (NamespaceScheme.COMPOSITION, (out_part.subject, in_part.subject))


def gen_fresh(avoid: Iterable[RhoName]) -> RhoName:
    """Deterministic fresh-name generator: quote the parallel composition of
    x!(0) over the canonical avoid set, then left-increment until the
    candidate is not equivalent to any avoided name (``gen_fresh_sorted``)."""
    avoid_set = frozenset(canon_name(a) for a in avoid)
    return gen_fresh_sorted(sorted(avoid_set, key=lambda n: n.key), avoid_set)


def gen_fresh_sorted(ordered: Sequence[RhoName], avoid_set: set | frozenset) -> RhoName:
    """``gen_fresh`` of a set of canonical names that ordered lists in key
    order, so a caller that grows the set sorts it once (each x!(0) of a
    canonical x is canonical, and sorts as its x).  The quote reads the
    key of the Par, so the Par gets its key at once."""
    candidate = canon_name(quote(canon_sorted_par([lift(a, _NIL_NODE) for a in ordered])))
    while candidate in avoid_set:
        candidate = lincr(candidate)
    return candidate


# ---------------------------------------------------------------------------
# Sizes and printing
# ---------------------------------------------------------------------------


def proc_size(p: RhoProc) -> int:
    """Node count of a process, names included."""
    if isinstance(p, Nil):
        return 1
    if isinstance(p, Drop):
        return 1 + name_size(p.name)
    if isinstance(p, Lift):
        return 1 + name_size(p.subject) + proc_size(p.body)
    if isinstance(p, Input):
        return 1 + name_size(p.subject) + name_size(p.binder) + proc_size(p.body)
    return 1 + sum(proc_size(c) for c in p.children)


def name_size(x: RhoName) -> int:
    if isinstance(x, BoundMarker):
        return 1
    return 1 + proc_size(x.body)


def show_name(x: RhoName) -> str:
    """Concrete syntax for a name: @P (parenthesized unless P is 0), or the
    synthesized identifier of a bound-name marker."""
    if isinstance(x, BoundMarker):
        return f"y{x.index}"
    if isinstance(x.body, Nil):
        return "@0"
    return f"@({show_proc(x.body)})"


def show_proc(p: RhoProc, name: Callable[[RhoName], str] = show_name) -> str:
    """Concrete syntax for a process; parses back to the same canonical term.
    name renders each name position (binders included), left to right.  A
    parallel without parallel children prints in one join; a nested
    parallel spine is walked with an explicit stack, so a wide parallel
    does not recurse."""
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Drop):
        return f"*{name(p.name)}"
    if isinstance(p, Lift):
        return f"{name(p.subject)}!({show_proc(p.body, name)})"
    if isinstance(p, Input):
        body = show_proc(p.body, name)
        if isinstance(p.body, Par):
            body = f"({body})"
        return f"{name(p.subject)}?({name(p.binder)}).{body}"
    if not isinstance(p, Par):
        raise TypeError(f"not a process: {p!r}")
    if Par not in map(type, p.children):
        return " | ".join([show_proc(c, name) for c in p.children])
    out, todo = [], [p]  # todo: nodes and literal text, last first
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, Par):
            kids = x.children
            for k in range(len(kids) - 1, -1, -1):
                todo += (")", kids[k], "(") if isinstance(kids[k], Par) else (kids[k],)
                if k:
                    todo.append(" | ")
        else:
            out.append(show_proc(x, name))
    return "".join(out)
