"""Independent oracles the test suite checks the package against.

Terms here are plain nested tuples, deliberately sharing no code with the
package:

    proc ::= ("nil",)
            | ("par", proc, proc)            (binary, unnormalized)
            | ("lift", name, proc)
            | ("in", name, ident, proc)
            | ("drop", name)
    name ::= ("quote", proc) | ("var", ident)

Identifiers are meaningful only under an enclosing ("in", _, ident, _), and
a quoted process opens a fresh scope: a variable inside a quote can only
refer to a binder inside that same quote.

Process identity is the closure of a bidirectional rewrite system applied
at every position (including under quotes and inside names):

    parallel: commutativity, associativity, unit introduction/elimination
    alpha:    capture-avoiding binder renaming over a small identifier pool
    names:    quote-of-drop cancellation, both directions

Two terms are equivalent iff their bounded rewrite closures (breadth-first,
size-capped, saturated) intersect.  Equivalent terms always share their
minimal forms — the shrinking rules only ever remove parallel units and
cancel quote-drop pairs, and the remaining rules are size-preserving — so
a small size allowance over the larger side is enough for the closures of
equivalent terms to meet, while soundness of every individual rewrite rules
out false positives.
"""

from __future__ import annotations

import random
from functools import lru_cache

NIL = ("nil",)
IDENTS = ("y", "z", "w")  # the third exists so alpha never gets stuck


# ---------------------------------------------------------------------------
# Size, well-formedness helpers
# ---------------------------------------------------------------------------


def proc_size(t) -> int:
    k = t[0]
    if k == "nil":
        return 1
    if k == "par":
        return 1 + proc_size(t[1]) + proc_size(t[2])
    if k == "lift":
        return 1 + name_size(t[1]) + proc_size(t[2])
    if k == "in":
        return 2 + name_size(t[1]) + proc_size(t[3])
    return 1 + name_size(t[1])  # drop


def name_size(n) -> int:
    return 1 if n[0] == "var" else 1 + proc_size(n[1])


def _free_idents_proc(t, stop_at_quotes: bool = True) -> frozenset:
    k = t[0]
    if k == "nil":
        return frozenset()
    if k == "par":
        return _free_idents_proc(t[1]) | _free_idents_proc(t[2])
    if k == "lift":
        return _free_idents_name(t[1]) | _free_idents_proc(t[2])
    if k == "in":
        return _free_idents_name(t[1]) | (_free_idents_proc(t[3]) - {t[2]})
    return _free_idents_name(t[1])


def _free_idents_name(n) -> frozenset:
    if n[0] == "var":
        return frozenset({n[1]})
    return frozenset()  # a quote opens a fresh scope


def _occurs_proc(t, ident: str) -> bool:
    """Does ident occur at all (free, bound, or as a binder), quotes aside?"""
    k = t[0]
    if k == "nil":
        return False
    if k == "par":
        return _occurs_proc(t[1], ident) or _occurs_proc(t[2], ident)
    if k == "lift":
        return _occurs_name(t[1], ident) or _occurs_proc(t[2], ident)
    if k == "in":
        return (
            _occurs_name(t[1], ident)
            or t[2] == ident
            or _occurs_proc(t[3], ident)
        )
    return _occurs_name(t[1], ident)


def _occurs_name(n, ident: str) -> bool:
    return n[0] == "var" and n[1] == ident


def _rename_proc(t, old: str, new: str):
    """Rename free occurrences of old to new; stops at shadowing binders and
    at quote boundaries (well-formed terms have no cross-quote references)."""
    k = t[0]
    if k == "nil":
        return t
    if k == "par":
        return ("par", _rename_proc(t[1], old, new), _rename_proc(t[2], old, new))
    if k == "lift":
        return ("lift", _rename_name(t[1], old, new), _rename_proc(t[2], old, new))
    if k == "in":
        body = t[3] if t[2] == old else _rename_proc(t[3], old, new)
        return ("in", _rename_name(t[1], old, new), t[2], body)
    return ("drop", _rename_name(t[1], old, new))


def _rename_name(n, old: str, new: str):
    if n[0] == "var":
        return ("var", new) if n[1] == old else n
    return n


# ---------------------------------------------------------------------------
# One-step rewrites, applied at every position
# ---------------------------------------------------------------------------


def _local_proc_rewrites(t) -> list:
    out = []
    k = t[0]
    if k == "par":
        _, a, b = t
        out.append(("par", b, a))
        if a[0] == "par":
            out.append(("par", a[1], ("par", a[2], b)))
        if b[0] == "par":
            out.append(("par", ("par", a, b[1]), b[2]))
        if a == NIL:
            out.append(b)
        if b == NIL:
            out.append(a)
    if k == "in":
        _, subj, ident, body = t
        for cand in IDENTS:
            if cand != ident and not _occurs_proc(body, cand):
                out.append(("in", subj, cand, _rename_proc(body, ident, cand)))
    out.append(("par", t, NIL))
    return out


def _local_name_rewrites(n) -> list:
    out = [("quote", ("drop", n))]
    if n[0] == "quote" and n[1][0] == "drop":
        out.append(n[1][1])
    return out


def proc_neighbors(t) -> list:
    """All terms one rewrite away, any position."""
    out = list(_local_proc_rewrites(t))
    k = t[0]
    if k == "par":
        out.extend(("par", a, t[2]) for a in proc_neighbors(t[1]))
        out.extend(("par", t[1], b) for b in proc_neighbors(t[2]))
    elif k == "lift":
        out.extend(("lift", nn, t[2]) for nn in name_neighbors(t[1]))
        out.extend(("lift", t[1], b) for b in proc_neighbors(t[2]))
    elif k == "in":
        out.extend(("in", nn, t[2], t[3]) for nn in name_neighbors(t[1]))
        out.extend(("in", t[1], t[2], b) for b in proc_neighbors(t[3]))
    elif k == "drop":
        out.extend(("drop", nn) for nn in name_neighbors(t[1]))
    return out


def name_neighbors(n) -> list:
    out = list(_local_name_rewrites(n))
    if n[0] == "quote":
        out.extend(("quote", b) for b in proc_neighbors(n[1]))
    return out


# ---------------------------------------------------------------------------
# Saturated closures and the equivalence oracle
# ---------------------------------------------------------------------------


def rewrite_closure(t, slack: int = 2, budget: int = 60_000) -> frozenset:
    """Breadth-first saturation of the rewrite relation, keeping terms no
    larger than size(t) + slack."""
    is_name = t[0] in ("quote", "var")
    size = name_size(t) if is_name else proc_size(t)
    neigh = name_neighbors if is_name else proc_neighbors
    measure = name_size if is_name else proc_size
    cap = size + slack
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for cand in neigh(cur):
                if cand not in seen and measure(cand) <= cap:
                    seen.add(cand)
                    nxt.append(cand)
                    if len(seen) > budget:
                        raise RuntimeError(f"closure budget exceeded for {t!r}")
        frontier = nxt
    return frozenset(seen)


def closure_partition(terms: list, slack: int = 2) -> list:
    """Partition terms into equivalence classes: two terms are equivalent
    iff their closures intersect.  Returns a class index per term."""
    rep: dict = {}
    out = []
    for i, t in enumerate(terms):
        cls = None
        closure = rewrite_closure(t, slack=slack)
        for member in closure:
            got = rep.get(member)
            if got is not None:
                cls = got
                break
        if cls is None:
            cls = i
        for member in closure:
            rep.setdefault(member, cls)
        out.append(cls)
    return out


def oracle_struct_eq(a, b, slack: int = 2) -> bool:
    return bool(rewrite_closure(a, slack) & rewrite_closure(b, slack))


oracle_name_eq = oracle_struct_eq  # names rewrite with the same engine


# ---------------------------------------------------------------------------
# Exhaustive enumeration of closed terms by size
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _procs(size: int, scope: tuple) -> tuple:
    """All well-formed procs of exactly this size, given visible binders."""
    if size < 1:
        return ()
    out = []
    if size == 1:
        out.append(NIL)
    for nm in _names(size - 1, scope):
        out.append(("drop", nm))
    for nsz in range(1, size - 1):
        for nm in _names(nsz, scope):
            for body in _procs(size - 1 - nsz, scope):
                out.append(("lift", nm, body))
    for nsz in range(1, size - 2):
        for nm in _names(nsz, scope):
            for ident in IDENTS[:2]:
                inner = tuple(sorted(set(scope) | {ident}))
                for body in _procs(size - 2 - nsz, inner):
                    out.append(("in", nm, ident, body))
    for lsz in range(1, size - 1):
        for left in _procs(lsz, scope):
            for right in _procs(size - 1 - lsz, scope):
                out.append(("par", left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def _names(size: int, scope: tuple) -> tuple:
    out = []
    if size == 1:
        out.extend(("var", s) for s in scope)
    if size >= 2:
        out.extend(("quote", p) for p in _procs(size - 1, ()))
    return tuple(out)


def enumerate_procs(max_size: int) -> list:
    out = []
    for s in range(1, max_size + 1):
        out.extend(_procs(s, ()))
    return out


def enumerate_names(max_size: int) -> list:
    out = []
    for s in range(1, max_size + 1):
        out.extend(_names(s, ()))
    return out


# ---------------------------------------------------------------------------
# Random generation (closed terms) and congruent variants
# ---------------------------------------------------------------------------


def random_proc(rng: random.Random, size: int, scope: tuple = ()) -> tuple:
    if size <= 1:
        choices = [NIL] + [("drop", ("var", s)) for s in scope]
        return rng.choice(choices)
    kind = rng.choice(("par", "lift", "in", "drop", "quote_heavy"))
    if kind == "par" and size >= 3:
        lsz = rng.randint(1, size - 2)
        return (
            "par",
            random_proc(rng, lsz, scope),
            random_proc(rng, size - 1 - lsz, scope),
        )
    if kind == "in" and size >= 5:
        ident = rng.choice(IDENTS[:2])
        nsz = rng.randint(1, max(1, size - 4))
        inner = tuple(sorted(set(scope) | {ident}))
        return (
            "in",
            random_name(rng, nsz, scope),
            ident,
            random_proc(rng, size - 2 - nsz, inner),
        )
    if kind in ("lift", "quote_heavy") and size >= 4:
        nsz = rng.randint(1, size - 3)
        return (
            "lift",
            random_name(rng, nsz, scope),
            random_proc(rng, size - 1 - nsz, scope),
        )
    return ("drop", random_name(rng, size - 1, scope))


def random_name(rng: random.Random, size: int, scope: tuple = ()) -> tuple:
    if size <= 1:
        if scope and rng.random() < 0.7:
            return ("var", rng.choice(scope))
        return ("quote", NIL)
    return ("quote", random_proc(rng, size - 1, ()))


def is_well_formed(t, scope: frozenset = frozenset()) -> bool:
    """Every variable is bound by an enclosing input in the same quote scope."""
    k = t[0]
    if k == "nil":
        return True
    if k == "par":
        return is_well_formed(t[1], scope) and is_well_formed(t[2], scope)
    if k == "lift":
        return _name_well_formed(t[1], scope) and is_well_formed(t[2], scope)
    if k == "in":
        return _name_well_formed(t[1], scope) and is_well_formed(
            t[3], scope | {t[2]}
        )
    if k == "drop":
        return _name_well_formed(t[1], scope)
    return _name_well_formed(t, scope)  # called on a name


def _name_well_formed(n, scope: frozenset) -> bool:
    if n[0] == "var":
        return n[1] in scope
    return is_well_formed(n[1], frozenset())


def congruent_variant(rng: random.Random, t, moves: int = 4):
    """Apply a few random rewrites: the result is equivalent by construction
    and stays well-formed (convertible to a package term)."""
    cur = t
    for _ in range(moves):
        neigh = [
            n
            for n in (
                name_neighbors(cur)
                if cur[0] in ("quote", "var")
                else proc_neighbors(cur)
            )
            if is_well_formed(n)
        ]
        if not neigh:
            break
        cur = rng.choice(neigh)
    return cur


# ---------------------------------------------------------------------------
# Conversion into package terms
# ---------------------------------------------------------------------------


def to_pkg_proc(t, env: dict | None = None, depth: int = 0):
    from rhopi.rhoterm import drop, inp, lift, marker, nil, par

    env = env or {}
    k = t[0]
    if k == "nil":
        return nil()
    if k == "par":
        return par(to_pkg_proc(t[1], env, depth), to_pkg_proc(t[2], env, depth))
    if k == "lift":
        return lift(to_pkg_name(t[1], env), to_pkg_proc(t[2], env, depth))
    if k == "in":
        binder = marker(depth)
        inner = dict(env)
        inner[t[2]] = binder
        return inp(to_pkg_name(t[1], env), binder, to_pkg_proc(t[3], inner, depth + 1))
    return drop(to_pkg_name(t[1], env))


def to_pkg_name(n, env: dict | None = None):
    from rhopi.rhoterm import quote

    env = env or {}
    if n[0] == "var":
        return env[n[1]]
    return quote(to_pkg_proc(n[1], {}, 0))


# ---------------------------------------------------------------------------
# Name-passing reduction on the whole state
# ---------------------------------------------------------------------------


def _pi_hoist(t) -> tuple:
    """(restricted atoms, parallel items) of a named pi term, hoisting
    restrictions through parallel composition only (never past a guard)."""
    from rhopi.piterm import PNew, PNil, PPar

    if isinstance(t, PNil):
        return ([], [])
    if isinstance(t, PNew):
        binders, items = _pi_hoist(t.body)
        return ([t.binder] + binders, items)
    if isinstance(t, PPar):
        binders, items = [], []
        for c in t.children:
            b, i = _pi_hoist(c)
            binders.extend(b)
            items.extend(i)
        return (binders, items)
    return ([], [t])


def _pi_rename(t, new: str, old: str):
    """Replace every occurrence of the atom old by new in a named pi term
    (its binders are distinct reserved atoms, so nothing is captured)."""
    from rhopi.piterm import PIn, PNew, PNil, POut, PRepl, pin, pnew, pout, ppar, prepl

    def nm(n):
        return new if n == old else n

    if isinstance(t, PNil):
        return t
    if isinstance(t, POut):
        return pout(nm(t.subject), nm(t.obj))
    if isinstance(t, PIn):
        return pin(nm(t.subject), t.binder, _pi_rename(t.body, new, old))
    if isinstance(t, PNew):
        return pnew(t.binder, _pi_rename(t.body, new, old))
    if isinstance(t, PRepl):
        return prepl(_pi_rename(t.body, new, old))
    return ppar(*(_pi_rename(c, new, old) for c in t.children))


def reference_pi_step(t) -> list:
    """Canonical one-step reducts of a pi term, deduplicated, in the order
    ``pi_step`` lists them: name every binder of the canonical state apart,
    hoist its restrictions, unfold each replica once beside it, and for each
    input/output pair on one subject (inputs in item order, then outputs in
    item order) rebuild the whole state and canonicalize it."""
    from rhopi.piterm import PIn, POut, PRepl, named, pi_canon, pnew, ppar

    top_binders, plain_items = _pi_hoist(named(pi_canon(t)))

    # soup: (origin, item); origin is ("plain", idx) or ("inst", repl_idx, k)
    soup = []
    inst_binders = {}
    inst_items = {}
    for idx, item in enumerate(plain_items):
        soup.append((("plain", idx), item))
        if isinstance(item, PRepl):
            inst_binders[idx], inst_items[idx] = _pi_hoist(item.body)
            for k, sub in enumerate(inst_items[idx]):
                soup.append((("inst", idx, k), sub))

    successors = []
    seen = set()
    for oi, ini in soup:
        if not isinstance(ini, PIn):
            continue
        for oj, outj in soup:
            if not isinstance(outj, POut) or ini.subject != outj.subject:
                continue
            consumed = {oi, oj}
            used_insts = sorted({o[1] for o in consumed if o[0] == "inst"})
            kept = [_pi_rename(ini.body, outj.obj, ini.binder)]
            kept += [item for idx, item in enumerate(plain_items) if ("plain", idx) not in consumed]
            for idx in used_insts:
                kept += [
                    sub for k, sub in enumerate(inst_items[idx]) if ("inst", idx, k) not in consumed
                ]
            body = ppar(*kept)
            for b in reversed(top_binders + [x for idx in used_insts for x in inst_binders[idx]]):
                body = pnew(b, body)
            succ = pi_canon(body)
            if succ not in seen:
                seen.add(succ)
                successors.append(succ)
    return successors


def reference_pi_free_names(t) -> frozenset:
    """Free atoms of a pi term, read off its canonical form, where every
    bound name is a marker: each atom in a subject or object position."""
    from rhopi.piterm import PIn, PNew, PNil, POut, PRepl, pi_canon

    acc = set()

    def walk(x) -> None:
        if isinstance(x, PNil):
            return
        if isinstance(x, POut):
            acc.update(n for n in (x.subject, x.obj) if isinstance(n, str))
        elif isinstance(x, PIn):
            if isinstance(x.subject, str):
                acc.add(x.subject)
            walk(x.body)
        elif isinstance(x, (PNew, PRepl)):
            walk(x.body)
        else:
            for ch in x.children:
                walk(ch)

    walk(pi_canon(t))
    return frozenset(acc)


def reference_pi_barbs(t, restrict=None) -> frozenset:
    """Barbs of a pi term by one walk of the whole term that tracks the
    binders in scope: ("out", x) / ("in", x) for an unguarded output /
    input whose subject x no enclosing restriction or input binds (an input
    binds only in its body), restricted to the atoms in restrict if given."""
    from rhopi.piterm import PIn, PNew, PNil, POut, PRepl

    acc = set()

    def walk(x, bound: frozenset) -> None:
        if isinstance(x, PNil):
            return
        if isinstance(x, (POut, PIn)):
            if x.subject not in bound:
                acc.add(("out" if isinstance(x, POut) else "in", x.subject))
        elif isinstance(x, PNew):
            walk(x.body, bound | {x.binder})
        elif isinstance(x, PRepl):
            walk(x.body, bound)
        else:
            for ch in x.children:
                walk(ch, bound)

    walk(t, frozenset())
    if restrict is not None:
        acc = {b for b in acc if b[1] in set(restrict)}
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Barbed bisimulation blocks on a plain graph
# ---------------------------------------------------------------------------


def reference_reach(n: int, edges: list) -> list:
    """Per state, the set of states it reaches in zero or more steps, each
    found by its own depth-first search."""
    out = []
    for i in range(n):
        seen = {i}
        todo = [i]
        while todo:
            for j in edges[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        out.append(seen)
    return out


def reference_blocks(n: int, edges: list, barbs: list, weak: bool) -> list:
    """Coarsest (weak) barbed bisimulation on a graph of n states with
    successor lists edges and per-state barb sets barbs: the block of each
    state, blocks numbered by first occurrence.  Weakly, a state observes
    the union of the barbs it reaches and moves to any state it reaches
    (itself included); strongly, it observes its own barbs and moves along
    its edges.  Each round splits by (block, frozenset of blocks moved to)
    until the partition stops changing."""
    if weak:
        moves = reference_reach(n, edges)
        seen = [frozenset().union(*(barbs[j] for j in moves[i])) for i in range(n)]
    else:
        moves = [set(row) for row in edges]
        seen = [frozenset(b) for b in barbs]

    def renumber(sigs: list) -> list:
        first: dict = {}
        for s in sigs:
            if s not in first:
                first[s] = len(first)
        return [first[s] for s in sigs]

    blocks = renumber(seen)
    while True:
        nxt = renumber([(blocks[i], frozenset(blocks[j] for j in moves[i])) for i in range(n)])
        if nxt == blocks:
            return blocks
        blocks = nxt


# ---------------------------------------------------------------------------
# Redex pairs of a search state, with sleeping pairs dropped
# ---------------------------------------------------------------------------


def reference_sleep_pairs(comps: list, top=None) -> list:
    """Redex pairs of a state in two passes: pair, then drop sleeping pairs.

    comps lists the state's components in order, each a record (ident, kind,
    subject, rank, in_cont): kind "in", "lift" or anything else; rank a
    number or None; in_cont whether it lies in the continuation that made
    the state.  A component whose ident equals its left neighbour's is left
    out.  First every (i, j) with comps[i] an input and comps[j] a lift on
    the same subject, in (i, j) order; then, given top, a pair whose input
    has a rank below top and whose input and lift both lie outside the
    continuation is dropped."""
    pairs = []
    for i, (ident, kind, subject, _, _) in enumerate(comps):
        if kind != "in" or (i and comps[i - 1][0] == ident):
            continue
        for j, (ident_j, kind_j, subject_j, _, _) in enumerate(comps):
            if kind_j == "lift" and subject_j == subject and not (j and comps[j - 1][0] == ident_j):
                pairs.append((i, j))
    if top is None:
        return pairs
    return [
        (i, j)
        for i, j in pairs
        if comps[i][3] is None or comps[i][3] >= top or comps[i][4] or comps[j][4]
    ]
