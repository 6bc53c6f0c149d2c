"""Asynchronous, choice-free pi-calculus terms and their semantics.

Grammar:

    P ::= 0 | P1 | P2 | x!y | x?(y).P | new x. P | !P

with atomic names drawn from identifiers.  Output carries exactly one name
and has no continuation; there is no sum.  Replication is a first-class
constructor (never unfolded by canonicalization, only by reduction).

Structural congruence — alpha conversion, the parallel monoid laws, erasure
of a restriction whose name is unused (which subsumes ``new x.0 = 0``),
reordering of adjacent restrictions, and restriction scope mobility across
parallel components that do not mention the name — is decided by reduction to
a canonical form: binders become depth-indexed markers (one depth counter for
both binder kinds), each restriction is narrowed to the smallest group of
parallel components mentioning its name, adjacent restriction blocks take the
order minimizing the term, and parallel children are flattened and sorted
(multiset semantics; duplicates kept).

Reduction is communication ``x?(y).P | x!z --> P{z/y}``, closed under
parallel, restriction, and congruence, plus unfolding of replication.  A step
computation unfolds each replicated component exactly once: two cooperating
copies of the same replica need two steps, one to materialize each copy.

A successor is built from the top-level children its redex touches, not
from the whole state.  A canonical state is a key-sorted parallel of
children, each a free guard or a restriction block over one connected
group; children share no bound names and each is canonical on its own, so
the canonical form of a composition is the key-sorted merge of its parts'
children.  Each child's named decomposition (binders, items, one unfolded
copy of each replica) is memoised; a redex rebuilds only the one or two
children it consumes from, named apart, canonicalizes that small body with
the continuation and merges the result into the untouched children.  Every
child names its binders from the same reserved atoms, so two children meet
only on a free subject.

That rebuilt part depends only on the interned input and output children
and the origins of the two items in them, never on the untouched children,
so it is memoised per redex, as the reflective side memoises continuations.
Each child's memoised decomposition also lists its inputs and outputs with
their subjects; a step indexes the outputs of its children by subject from
these tables, so an input meets only the outputs on its subject.  Equal
children are adjacent in key order, so a redex that only repeats an earlier
one on an equal copy (its input in a later copy, or its output in a later
copy that is not the input's right neighbour) is skipped, as the reflective
side skips a repeated (input, lift) pair.

Barbs are memoised per child too: a bound subject is a marker, never an
atom, so a child's barbs do not depend on its siblings.

Like the reflective-term module, nodes are interned so canonical-form
equality is object identity, and the intern table keys each node on its own
fields, with no class tag (see ``_PINTERN``).
"""

from __future__ import annotations

from bisect import insort
from itertools import permutations
from operator import attrgetter
from typing import Iterable, Optional, Union

__all__ = [
    "PiTerm",
    "PNil",
    "PPar",
    "POut",
    "PIn",
    "PNew",
    "PRepl",
    "PiMarker",
    "PiName",
    "pnil",
    "ppar",
    "pout",
    "pin",
    "pnew",
    "prepl",
    "pimarker",
    "named",
    "pi_canon",
    "pi_eq",
    "pi_free_names",
    "pi_step",
    "pi_barbs",
    "rename_atom",
    "subst_atom",
    "show_pi",
]


class PiTerm:
    """Base class for interned pi terms; construct via the factories.  Equal
    trees are the same object, so ``object``'s identity ``==`` and ``hash``
    are the term's.  ``key`` is the sort key of the total term order, built
    at construction, except for a state built by ``_canon_sorted_ppar``:
    ``PPar`` overrides ``key`` with a property that builds an unset key
    when first read and stores it in this class's slot."""

    __slots__ = ("key",)

    def __repr__(self) -> str:
        return show_pi(self)


# the slot descriptor of ``PiTerm.key``, which ``PPar.key`` reads and writes
_KEY = PiTerm.__dict__["key"]


class PNil(PiTerm):
    __slots__ = ()


class PPar(PiTerm):
    __slots__ = ("children",)
    children: tuple

    def _key(self) -> tuple:
        # unset on a _canon_sorted_ppar state until read: no child is a PPar
        try:
            return _KEY.__get__(self)
        except AttributeError:
            key = (5, *(c.key for c in self.children))
            _KEY.__set__(self, key)
            return key

    key = property(_key, _KEY.__set__)


class POut(PiTerm):
    __slots__ = ("subject", "obj")


class PIn(PiTerm):
    __slots__ = ("subject", "binder", "body")


class PNew(PiTerm):
    __slots__ = ("binder", "body")


class PRepl(PiTerm):
    __slots__ = ("body",)


class PiMarker:
    """Canonical bound name: the nesting depth of its binder (input and
    restriction binders share one depth counter along each path)."""

    __slots__ = ("index", "key")

    def __repr__(self) -> str:
        return f"<bound {self.index}>"


#: A pi name is an atom (identifier string) or a canonical bound marker.
PiName = Union[str, PiMarker]

#: one entry per node, keyed as ``rhoterm._INTERN`` keys: a PPar on its
#: children, a PRepl on its body node, a PiMarker on its int index, POut, PIn
#: and PNew on their field tuples, and 0 on ``()``.  Sorts keep the classes
#: apart: a PiMarker is not a PiTerm, and a name (atom or marker) is never a
#: term, so POut's key ends with a name where PNew's ends with a term, and
#: PNew's and PIn's start with a name where a PPar's starts with a term.
_PINTERN: dict = {}


def _pmk(cls, ident, fields: tuple, key: tuple):
    """Intern a node of class cls with the given fields and sort key under
    ident; the caller found no entry for ident in ``_PINTERN`` (each factory
    looks ident up first, as ``rhoterm``'s do)."""
    node = cls.__new__(cls)
    for slot, value in zip(cls.__slots__, fields):
        setattr(node, slot, value)
    node.key = key
    return _PINTERN.setdefault(ident, node)


def _name_key(n: PiName) -> tuple:
    if isinstance(n, PiMarker):
        return (1, n.index)
    return (0, n)


def pimarker(index: int) -> PiMarker:
    return _PINTERN.get(index) or _pmk(PiMarker, index, (index,), (1, index))


_PNIL = _pmk(PNil, (), (), (0,))


def pnil() -> PiTerm:
    return _PNIL


def pout(subject: PiName, obj: PiName) -> PiTerm:
    fields = (subject, obj)
    return _PINTERN.get(fields) or _pmk(POut, fields, fields, (1, _name_key(subject), _name_key(obj)))


def pin(subject: PiName, binder: PiName, body: PiTerm) -> PiTerm:
    fields = (subject, binder, body)
    return _PINTERN.get(fields) or _pmk(
        PIn, fields, fields, (2, _name_key(subject), _name_key(binder), body.key)
    )


def prepl(body: PiTerm) -> PiTerm:
    return _PINTERN.get(body) or _pmk(PRepl, body, (body,), (3, body.key))


def pnew(binder: PiName, body: PiTerm) -> PiTerm:
    fields = (binder, body)
    return _PINTERN.get(fields) or _pmk(PNew, fields, fields, (4, _name_key(binder), body.key))


def ppar(*children: PiTerm) -> PiTerm:
    if len(children) == 1 and not isinstance(children[0], PiTerm):
        children = tuple(children[0])
    if not children:
        return _PNIL
    if len(children) == 1:
        return children[0]
    return _PINTERN.get(children) or _pmk(PPar, children, (children,), (5, *(c.key for c in children)))


def _canon_sorted_ppar(kids: list) -> PiTerm:
    """``ppar(*kids)`` of key-sorted canonical top-level children (no 0, no
    PPar); as in ``rhoterm.canon_sorted_par``, a new PPar builds its key on read."""
    kids = tuple(kids)
    if len(kids) < 2:
        return ppar(*kids)
    out = _PINTERN.get(kids)
    if out is None:
        out = PPar.__new__(PPar)
        out.children = kids
        out = _PINTERN.setdefault(kids, out)
    return out


def _par_fold(t: PPar, leaf, node):
    """Fold t's nested parallel spine with an explicit stack, so a parser's
    left-nested ``|`` of any width does not recurse: ``leaf(x)`` for each
    other node on it, left to right, ``node(p, values)`` for each PPar p."""
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):  # every child of x[0] has its value
            n = len(x[0].children)
            out[-n:] = [node(x[0], out[-n:])]
        elif isinstance(x, PPar):
            todo.append((x,))
            todo.extend(reversed(x.children))
        else:
            out.append(leaf(x))
    return out[0]


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

_RESERVED_PREFIX = "~"  # never produced by the parser; safe for machine names


class _Gensym:
    __slots__ = ("n", "tag")

    def __init__(self, tag: str):
        self.n = 0
        self.tag = tag

    def __call__(self) -> str:
        s = f"{_RESERVED_PREFIX}{self.tag}{self.n}"
        self.n += 1
        return s


def named(t: PiTerm, tag: str = "s") -> PiTerm:
    """A congruent term whose binders are distinct reserved atoms
    ``~<tag>0``, ``~<tag>1``, ... in preorder; occurrences resolve to the
    innermost binder.  Accepts string or marker binders (and free atoms), so
    it both separates the binders of a term as written and turns a canonical
    term's markers back into names reductions can use."""
    return _named(t, {}, _Gensym(tag))


def _named(t: PiTerm, env: dict, gen: _Gensym) -> PiTerm:
    # env maps each binder in scope to its reserved atom; markers are
    # interned and compare by identity, atoms by value, so one lookup
    # serves both
    if isinstance(t, PNil):
        return t
    if isinstance(t, POut):
        return pout(env.get(t.subject, t.subject), env.get(t.obj, t.obj))
    if isinstance(t, PIn):
        fresh = gen()
        body = _named(t.body, {**env, t.binder: fresh}, gen)
        return pin(env.get(t.subject, t.subject), fresh, body)
    if isinstance(t, PNew):
        fresh = gen()
        return pnew(fresh, _named(t.body, {**env, t.binder: fresh}, gen))
    if isinstance(t, PRepl):
        return prepl(_named(t.body, env, gen))
    return _par_fold(t, lambda c: _named(c, env, gen), lambda p, kids: ppar(*kids))


def _fn_named(t: PiTerm) -> frozenset:
    """Free atoms of a term; a marker is never an atom, so this serves named
    and canonical terms alike."""
    if isinstance(t, PNil):
        return frozenset()
    if isinstance(t, POut):
        return frozenset(n for n in (t.subject, t.obj) if isinstance(n, str))
    if isinstance(t, PIn):
        base = _fn_named(t.body) - {t.binder}
        if isinstance(t.subject, str):
            base |= {t.subject}
        return base
    if isinstance(t, PNew):
        return _fn_named(t.body) - {t.binder}
    if isinstance(t, PRepl):
        return _fn_named(t.body)
    out: frozenset = frozenset()
    for c in t.children:
        out |= _fn_named(c)
    return out


def _simp(t: PiTerm) -> PiTerm:
    """Erase unused restrictions and give every restriction a scope that
    depends only on which parallel items use its name (never on how the
    restrictions were ordered or nested in the input), bottom-up, on a
    uniquified named term."""
    if isinstance(t, (PNil, POut)):
        return t
    if isinstance(t, PIn):
        return pin(t.subject, t.binder, _simp(t.body))
    if isinstance(t, PRepl):
        return prepl(_simp(t.body))
    # a hoisted item is a guard, which _simp never turns into a Par, New or 0
    binders, items = _hoist(t)
    return _scope_split(binders, [_simp(it) for it in items])


def _hoist(t: PiTerm) -> tuple:
    """Split a named term into (restricted atoms, parallel items), hoisting
    restrictions through parallel composition only (never past a guard)."""
    binders: list = []
    items: list = []
    todo = [t]
    while todo:
        x = todo.pop()
        if isinstance(x, PNew):
            binders.append(x.binder)
            todo.append(x.body)
        elif isinstance(x, PPar):
            todo.extend(reversed(x.children))
        elif not isinstance(x, PNil):
            items.append(x)
    return (binders, items)


def _scope_split(binders: list, items: list) -> PiTerm:
    """Reassemble a hoisted region: unused binders are erased, items sharing
    a binder stay under one scope, and within a connected group the binders
    of set-maximal reach form its outer restriction block (narrower ones
    recurse inside).  The result is the same for any input scope order."""
    fns = [_fn_named(it) for it in items]
    reach = {}
    for b in binders:
        at = frozenset(i for i, f in enumerate(fns) if b in f)
        if at:
            reach[b] = at
    return ppar(*_scope_parts(reach, range(len(items)), items))


def _scope_parts(reach: dict, idxs: Iterable[int], items: list) -> list:
    """The parts of ``_scope_split`` for the items at idxs under the binders
    that reach maps to the indices of the items they occur in, all in idxs."""
    unseen = set().union(*reach.values())
    parts = [items[i] for i in idxs if i not in unseen]
    while unseen:
        # the connected group of the smallest unseen item: grow to a fixpoint
        comp, grown = set(), {min(unseen)}
        while grown != comp:
            comp = grown
            grown = comp.union(*(u for u in reach.values() if u & comp))
        unseen -= comp
        comp_bs = [b for b, u in reach.items() if u & comp]
        maximal = [b for b in comp_bs if not any(reach[b] < reach[c] for c in comp_bs)]
        inner = {b: reach[b] for b in comp_bs if b not in maximal}
        node = ppar(*_scope_parts(inner, sorted(comp), items))
        for b in reversed(maximal):
            node = pnew(b, node)
        parts.append(node)
    return parts


_MAX_BLOCK_PERMS = 6  # restriction blocks larger than this keep written order


def _mcanon(t: PiTerm, env: tuple) -> PiTerm:
    """Final canonical pass on a simplified named term: binders to markers,
    parallel children sorted, adjacent restriction blocks ordered to minimize
    the term."""

    def occ(n: PiName) -> PiName:
        for lvl in range(len(env) - 1, -1, -1):
            if env[lvl] == n:
                return pimarker(lvl)
        return n

    if isinstance(t, PNil):
        return t
    if isinstance(t, POut):
        return pout(occ(t.subject), occ(t.obj))
    if isinstance(t, PIn):
        return pin(occ(t.subject), pimarker(len(env)), _mcanon(t.body, env + (t.binder,)))
    if isinstance(t, PRepl):
        return prepl(_mcanon(t.body, env))
    if isinstance(t, PPar):
        kids = [_mcanon(c, env) for c in t.children]
        kids.sort(key=lambda c: c.key)
        return ppar(*kids)
    # PNew: gather the maximal block of directly nested restrictions
    binders = [t.binder]
    core = t.body
    while isinstance(core, PNew):
        binders.append(core.binder)
        core = core.body

    def build(order: tuple) -> PiTerm:
        body = _mcanon(core, env + order)
        lvl = len(env) + len(order)
        for _ in order:
            lvl -= 1
            body = pnew(pimarker(lvl), body)
        return body

    if len(binders) == 1 or len(binders) > _MAX_BLOCK_PERMS:
        return build(tuple(binders))
    return min((build(p) for p in permutations(binders)), key=lambda x: x.key)


_PI_CANON: dict = {}


def pi_canon(t: PiTerm) -> PiTerm:
    """Canonical representative of a term up to structural congruence;
    ``is`` on results decides congruence."""
    cached = _PI_CANON.get(t)
    if cached is not None:
        return cached
    cur = named(t, "b")
    prev = None
    while cur is not prev:
        prev = cur
        cur = _simp(cur)
    out = _mcanon(cur, ())
    _PI_CANON[t] = out
    _PI_CANON[out] = out
    return out


def pi_eq(a: PiTerm, b: PiTerm) -> bool:
    """Structural congruence of pi terms."""
    return pi_canon(a) is pi_canon(b)


def pi_free_names(t: PiTerm) -> frozenset:
    """Free atoms of t (bound names never leak: they are markers after
    canonicalization)."""
    return _fn_named(pi_canon(t))


def subst_atom(t: PiTerm, new: str, old: str) -> PiTerm:
    """Capture-free substitution of the atom new for free occurrences of the
    atom old; returns a canonical term."""
    return pi_canon(rename_atom(pi_canon(t), new, old))


def rename_atom(t: PiTerm, new: str, old: str) -> PiTerm:
    """Replace the free occurrences of the atom old by new, without
    canonicalizing.  A binder named old shadows it below; new must not be the
    name of a binder over an occurrence (canonical markers, the reserved
    atoms of ``named`` and a fresh atom never are)."""
    if isinstance(t, PNil):
        return t
    if isinstance(t, POut):
        return pout(new if t.subject == old else t.subject, new if t.obj == old else t.obj)
    if isinstance(t, PIn):
        subject = new if t.subject == old else t.subject
        body = t.body if t.binder == old else rename_atom(t.body, new, old)
        return pin(subject, t.binder, body)
    if isinstance(t, PNew):
        return t if t.binder == old else pnew(t.binder, rename_atom(t.body, new, old))
    if isinstance(t, PRepl):
        return prepl(rename_atom(t.body, new, old))
    return _par_fold(t, lambda c: rename_atom(c, new, old), lambda p, kids: ppar(*kids))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


# (canonical top-level child, naming tag) -> its hoisted named decomposition
_GROUPS: dict = {}

# (input's child, input origin, output's child or None, output origin) ->
# the canonical children its touched children turn into
_REDEX: dict = {}

# canonical top-level child -> its barbs on free atoms
_BARBS: dict = {}

# canonical state -> the union of its children's barbs, unrestricted
_STATE_BARBS: dict = {}

#: this module's derived memo tables, as ``rhopi.cache_stats`` reports them;
#: the intern table is not one (``rhopi.clear_caches`` says why)
DERIVED_CACHES = {
    "pi_canon": _PI_CANON,
    "groups": _GROUPS,
    "redex": _REDEX,
    "barbs": _BARBS,
    "state_barbs": _STATE_BARBS,
}


def _children(c: PiTerm) -> tuple:
    """The top-level parallel children of a canonical term."""
    return c.children if isinstance(c, PPar) else () if isinstance(c, PNil) else (c,)


def _group(child: PiTerm, tag: str) -> tuple:
    """The hoisted named decomposition of one canonical top-level child,
    memoised: (binders, items, instances, inputs, outputs).  ``instances``
    maps the index of each replicated item to the (binders, items) of one
    unfolded copy.  Every item a redex can use has an origin: its index, or
    ``(replica index, k)`` for an instance item.  ``inputs`` lists
    (origin, subject) for each input and ``outputs`` (subject, origin) for
    each output, items before the instance items of their replica."""
    entry = _GROUPS.get((child, tag))
    if entry is None:
        binders, items = _hoist(named(child, tag))
        instances: dict = {}
        inputs: list = []
        outputs: list = []

        def table(origin, item: PiTerm) -> None:
            if isinstance(item, PIn):
                inputs.append((origin, item.subject))
            elif isinstance(item, POut):
                outputs.append((item.subject, origin))

        for idx, item in enumerate(items):
            table(idx, item)
            if isinstance(item, PRepl):
                instances[idx] = _hoist(item.body)
                for k, sub in enumerate(instances[idx][1]):
                    table((idx, k), sub)
        entry = (binders, items, instances, inputs, outputs)
        _GROUPS[(child, tag)] = entry
    return entry


def _soup_item(group: tuple, origin) -> PiTerm:
    if isinstance(origin, tuple):
        return group[2][origin[0]][1][origin[1]]
    return group[1][origin]


_BY_KEY = attrgetter("key")


def pi_step(t: PiTerm) -> list:
    """Canonical one-step reducts of t, deduplicated.

    Every replicated parallel component is unfolded exactly once for the step
    computation; an unfolded copy materializes in the successor only when the
    step consumed part of it (reductions needing two copies of the same
    replica take two steps).

    Each child's inputs and outputs come from its memoised group table; an
    input meets only the outputs on its subject, from an index kept in child
    then item order.  Equal children are adjacent in key order, and a redex
    whose input is in a later equal copy, or whose output is in a later
    equal copy that is not the right neighbour of the input's child, gives
    the successor of an earlier redex: it is skipped, and the list and its
    order stay the same.  What a redex turns its touched children into is
    memoised per ``(input child, input origin, output child or None, output
    origin)``; a successor is the untouched children plus that part, merged
    by key.
    """
    children = _children(pi_canon(t))
    groups = [_group(child, "s") for child in children]
    # every child names its binders from ~s0, so equal reserved atoms in two
    # children are two different names: only a free subject links children
    outputs: dict = {}
    for g, group in enumerate(groups):
        repeat = g > 0 and children[g - 1] is children[g]
        for subject, o in group[4]:
            outputs.setdefault(subject, []).append((g, o, repeat))

    # Repeated redexes.  Equal children are adjacent in key order and share
    # one group, so the same origins name the same items in each.  A
    # successor depends only on the redex key and on the untouched children,
    # and neither changes when a touched child is exchanged for an equal
    # one.  Iteration runs over gi, the input, gj, then the output; a redex
    # is skipped when an equal copy gives an earlier redex with the same
    # successor:
    # - any redex whose input is in child gi equal to child gi - 1: the same
    #   input in gi - 1, with the output moved from gi to gi - 1 (an inner
    #   redex stays inner), from gi - 1 to gi, or left in any other child,
    #   has the same key and untouched children, and gi - 1 comes first;
    # - a redex between two children whose output is in child gj equal to
    #   child gj - 1, when gj - 1 is not gi: the same input with the same
    #   output in gj - 1 has the same key and untouched children, and comes
    #   earlier in the subject's output list.  When gj - 1 is gi, moving the
    #   output would make the redex inner to gi, a different key, so it is
    #   kept.
    # By induction on iteration order every skipped successor equals that
    # of an earlier redex that was not skipped, so it is already listed:
    # the successors and their order are those without the skip.
    successors: list = []
    seen = set()
    for gi, group in enumerate(groups):
        if gi and children[gi - 1] is children[gi]:
            continue
        for oi, subject in group[3]:
            bound = subject.startswith(_RESERVED_PREFIX)
            for gj, oj, repeat in outputs.get(subject, ()):
                if gi != gj and (bound or (repeat and gj - 1 != gi)):
                    continue
                key = (children[gi], oi, None if gi == gj else children[gj], oj)
                part = _REDEX.get(key)
                if part is None:
                    part = _REDEX[key] = _reduct(children, groups, gi, oi, gj, oj)
                # the untouched children stay in key order; the part's
                # children go in by binary insertion
                kids = list(children)
                del kids[max(gi, gj)]
                if gi != gj:
                    del kids[min(gi, gj)]
                for x in part:
                    insort(kids, x, key=_BY_KEY)
                succ = _canon_sorted_ppar(kids)
                if succ not in seen:
                    _PI_CANON[succ] = succ
                    seen.add(succ)
                    successors.append(succ)
    return successors


def _reduct(children: tuple, groups: list, gi: int, oi, gj: int, oj) -> tuple:
    """The canonical children that the communication of input ``oi`` of
    child ``gi`` with output ``oj`` of child ``gj`` turns its touched
    children into: they are canonicalized together, less the consumed items
    and plus the continuation and the rest of every unfolded instance."""
    ini = _soup_item(groups[gi], oi)
    if gi == gj:
        outj = _soup_item(groups[gi], oj)
        touched = [(gi, groups[gi], {oi, oj})]
    else:
        # the sender's child is renamed apart so that an extruded binder
        # cannot meet a binder of the receiver's child
        other = _group(children[gj], "t")
        outj = _soup_item(other, oj)
        touched = sorted([(gi, groups[gi], {oi}), (gj, other, {oj})])
    binders: list = []
    kept: list = [rename_atom(ini.body, outj.obj, ini.binder)]
    for _, (g_binders, items, *_), consumed in touched:
        binders.extend(g_binders)
        kept.extend(item for idx, item in enumerate(items) if idx not in consumed)
    for _, (_, _, instances, *_), consumed in touched:
        for idx in sorted({o[0] for o in consumed if isinstance(o, tuple)}):
            i_binders, i_items = instances[idx]
            binders.extend(i_binders)
            kept.extend(sub for k, sub in enumerate(i_items) if (idx, k) not in consumed)
    body = ppar(*kept)
    for b in reversed(binders):
        body = pnew(b, body)
    return _children(pi_canon(body))


def pi_barbs(t: PiTerm, restrict: Optional[Iterable[str]] = None) -> frozenset:
    """Observable commitments: ("out", x) for an unguarded output and
    ("in", x) for an unguarded input on a free (unrestricted) atom x,
    including under replication and restriction.

    In canonical form a bound subject is a marker, never an atom, so a
    child's barbs do not depend on its siblings: they are memoised per
    top-level child, their union per state, and restrict filters that union."""
    c = pi_canon(t)
    acc = _STATE_BARBS.get(c)
    if acc is None:
        acc = _STATE_BARBS[c] = frozenset().union(*map(_child_barbs, _children(c)))
    if restrict is None:
        return acc
    allowed = set(restrict)
    return frozenset(b for b in acc if b[1] in allowed)


def _child_barbs(child: PiTerm) -> frozenset:
    """The barbs of one canonical child on free atoms, memoised."""
    found = _BARBS.get(child)
    if found is not None:
        return found
    acc: set = set()
    todo = [child]
    while todo:
        x = todo.pop()
        if isinstance(x, POut):
            if isinstance(x.subject, str):
                acc.add(("out", x.subject))
        elif isinstance(x, PIn):
            if isinstance(x.subject, str):
                acc.add(("in", x.subject))
        elif isinstance(x, (PNew, PRepl)):
            todo.append(x.body)
        elif isinstance(x, PPar):
            todo.extend(x.children)
    found = _BARBS[child] = frozenset(acc)
    return found


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def show_pi(t: PiTerm) -> str:
    """Concrete syntax; parses back to a congruent term.  A marker (a
    canonical binder) of index i shows as ``u<i>``, with ``_`` appended
    until the name is not free in t."""
    return _show(t, pi_free_names(t))


def _show_name(n: PiName, free: frozenset) -> str:
    if not isinstance(n, PiMarker):
        return n
    shown = f"u{n.index}"
    while shown in free:
        shown += "_"
    return shown


# a replicated body and a parallel child are bracketed unless atomic
_COMPOUND = (PPar, PNew, PIn)


def _bracketed(x: PiTerm, free: frozenset, kinds) -> str:
    """x shown, in brackets if it is one of kinds."""
    s = _show(x, free)
    return f"({s})" if isinstance(x, kinds) else s


def _show(x: PiTerm, free: frozenset) -> str:
    if isinstance(x, PNil):
        return "0"
    if isinstance(x, POut):
        return f"{_show_name(x.subject, free)}!{_show_name(x.obj, free)}"
    if isinstance(x, PIn):
        subject, binder = _show_name(x.subject, free), _show_name(x.binder, free)
        return f"{subject}?({binder}).{_bracketed(x.body, free, PPar)}"
    if isinstance(x, PNew):
        return f"new {_show_name(x.binder, free)}.{_bracketed(x.body, free, PPar)}"
    if isinstance(x, PRepl):
        return f"!{_bracketed(x.body, free, _COMPOUND)}"
    return _par_fold(
        x,
        lambda c: _bracketed(c, free, _COMPOUND),
        lambda p, shown: " | ".join(f"({s})" if isinstance(c, PPar) else s for c, s in zip(p.children, shown)),
    )

