"""Reflective-calculus term tests: canonical forms, the two-layer
equivalence (structural congruence on processes, name equivalence with
drop-collapse on names), substitution, quote depth, namespaces, and the
deterministic fresh-name generator."""

import functools
import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rhopi
from rhopi import equiv, harness, lts, piterm, rhoreduce, rhoterm
from rhopi.piterm import (
    _PINTERN,
    PiMarker,
    PIn,
    PiTerm,
    PNew,
    PNil,
    POut,
    PPar,
    PRepl,
    pimarker,
    pnil,
    pout,
    ppar,
    prepl,
)
from rhopi.rhoreduce import components
from rhopi.rhoterm import (
    _CANON_PROC,
    _INTERN,
    NULL_NAME,
    BoundMarker,
    Drop,
    Input,
    Lift,
    NamespaceScheme,
    Nil,
    Par,
    Quote,
    RhoTerm,
    canon_name,
    canon_proc,
    canon_sorted_par,
    drop,
    free_names,
    gen_fresh,
    inp,
    lift,
    lincr,
    marker,
    name_eq,
    ncomp,
    ncomp_power,
    nil,
    ns_member,
    par,
    peel,
    proc_size,
    quote,
    quote_depth,
    quote_depth_proc,
    rincr,
    show_proc,
    struct_eq,
    subst_sem,
    subst_syn,
)

xn = NULL_NAME
yn = gen_fresh([xn])
zn = gen_fresh([xn, yn])


# ---------------------------------------------------------------------------
# Parallel composition is a commutative monoid on multisets
# ---------------------------------------------------------------------------


def test_par_unit_is_absorbed():
    p = lift(xn, nil())
    assert canon_proc(par(p, nil())) is canon_proc(p)
    assert canon_proc(par(nil(), p)) is canon_proc(p)
    assert canon_proc(par()) is canon_proc(nil())
    assert canon_proc(par(p)) is canon_proc(p)


def test_par_is_associative_and_commutative():
    p = lift(xn, nil())
    q = lift(yn, nil())
    r = inp(zn, yn, nil())
    assert struct_eq(par(par(p, q), r), par(p, par(q, r)))
    assert struct_eq(par(p, q), par(q, p))
    assert struct_eq(par(p, q, r), par(r, q, p))


def test_par_counts_copies():
    p = lift(xn, nil())
    assert not struct_eq(par(p, p), p)
    assert not struct_eq(par(p, p, p), par(p, p))
    assert struct_eq(par(p, p), par(p, nil(), p))


# ---------------------------------------------------------------------------
# Name equivalence: drop-collapse plus congruence under quotes
# ---------------------------------------------------------------------------


def test_quote_of_drop_collapses_to_the_name():
    assert name_eq(quote(drop(xn)), xn)
    assert name_eq(quote(drop(quote(drop(yn)))), yn)
    assert canon_name(quote(drop(xn))) is canon_name(xn)


def test_congruence_reaches_under_quotes():
    assert name_eq(quote(par(nil(), nil())), NULL_NAME)
    a = quote(par(lift(xn, nil()), lift(yn, nil())))
    b = quote(par(lift(yn, nil()), lift(xn, nil())))
    assert name_eq(a, b)


def test_distinct_names_stay_distinct():
    assert not name_eq(xn, yn)
    assert not name_eq(lincr(xn), rincr(xn))
    assert not name_eq(quote(lift(xn, nil())), quote(inp(xn, yn, nil())))


# ---------------------------------------------------------------------------
# Binders: alpha-irrelevance and shadowing
# ---------------------------------------------------------------------------


def test_binder_identity_is_irrelevant():
    p1 = inp(xn, yn, drop(yn))
    p2 = inp(xn, zn, drop(zn))
    assert struct_eq(p1, p2)
    c = canon_proc(p1)
    assert isinstance(c.binder, BoundMarker)


def test_inner_binder_shadows_outer():
    shadowed = inp(xn, yn, inp(xn, yn, drop(yn)))
    c = canon_proc(shadowed)
    # the drop refers to the inner binder: marker level 1, not 0
    assert c.body.body.name is marker(1)


def test_free_names_ignore_bound_markers():
    p = inp(xn, yn, par(drop(yn), lift(zn, nil())))
    assert free_names(p) == frozenset({canon_name(xn), canon_name(zn)})


# ---------------------------------------------------------------------------
# Substitution: names are replaced whole; quotes freeze their contents
# ---------------------------------------------------------------------------


def test_syntactic_substitution_replaces_whole_names_only():
    p = par(lift(xn, nil()), drop(xn))
    q = subst_syn(p, yn, xn)
    assert struct_eq(q, par(lift(yn, nil()), drop(yn)))


def test_substitution_never_rewrites_under_a_quote():
    # the subject lincr(xn) mentions xn inside its quote but is itself a
    # different name, so it survives a substitution aimed at xn
    p = lift(lincr(xn), drop(xn))
    q = subst_syn(p, yn, xn)
    assert struct_eq(q, lift(lincr(xn), drop(yn)))


def test_semantic_substitution_splices_the_payload_as_written():
    # a drop of the placeholder becomes the process under the payload quote —
    # for payload @(*s) that is *s itself, not s's own body
    payload = quote(drop(zn))
    spliced = subst_sem(drop(xn), payload, xn)
    assert struct_eq(spliced, drop(zn))
    # name positions take the collapsed payload name instead
    renamed = subst_sem(lift(xn, nil()), payload, xn)
    assert struct_eq(renamed, lift(zn, nil()))


def test_semantic_substitution_matches_equivalent_names():
    alias = quote(drop(xn))  # equivalent to xn
    out = subst_sem(lift(alias, nil()), quote(nil()), xn)
    assert struct_eq(out, lift(NULL_NAME, nil()))


# ---------------------------------------------------------------------------
# Quote depth
# ---------------------------------------------------------------------------


def test_quote_depth_examples():
    assert quote_depth(NULL_NAME) == 1
    assert quote_depth(lincr(NULL_NAME)) == 2
    assert quote_depth(quote(drop(NULL_NAME))) == 1  # collapses first
    assert quote_depth_proc(nil()) == 0
    assert quote_depth_proc(lift(lincr(NULL_NAME), nil())) == 2


def test_quote_depth_invariant_under_name_equivalence():
    a = quote(par(lift(xn, nil()), nil()))
    b = quote(lift(quote(drop(xn)), nil()))
    assert name_eq(a, b)
    assert quote_depth(a) == quote_depth(b)


# ---------------------------------------------------------------------------
# Static quoting combinators and namespace membership
# ---------------------------------------------------------------------------


def test_increment_combinators_build_distinct_towers():
    tower = [xn, lincr(xn), lincr(lincr(xn)), rincr(xn), ncomp(xn, yn)]
    for i, a in enumerate(tower):
        for b in tower[i + 1 :]:
            assert not name_eq(a, b)
    assert quote_depth(lincr(lincr(xn))) == quote_depth(xn) + 2


def test_namespace_membership_left_and_right():
    s = yn
    for member in (s, lincr(s), lincr(lincr(s))):
        assert ns_member(s, NamespaceScheme.LEFT_INCREMENT, member)
    assert not ns_member(s, NamespaceScheme.LEFT_INCREMENT, rincr(s))
    assert ns_member(s, NamespaceScheme.RIGHT_INCREMENT, rincr(rincr(s)))
    assert not ns_member(s, NamespaceScheme.RIGHT_INCREMENT, lincr(s))


def test_namespace_membership_composition():
    s = yn
    assert ns_member(s, NamespaceScheme.COMPOSITION, ncomp(s, s))
    assert ns_member(s, NamespaceScheme.COMPOSITION, ncomp(ncomp(s, s), s))
    assert not ns_member(s, NamespaceScheme.COMPOSITION, ncomp(s, zn))
    for k in (1, 2, 3):
        assert ns_member(s, NamespaceScheme.COMPOSITION, ncomp_power(s, k))


def test_peel_undoes_one_template():
    assert peel(lincr(yn)) == (NamespaceScheme.LEFT_INCREMENT, (yn,))
    assert peel(rincr(yn)) == (NamespaceScheme.RIGHT_INCREMENT, (yn,))
    assert peel(ncomp(yn, zn)) == (NamespaceScheme.COMPOSITION, (yn, zn))
    assert peel(lincr(rincr(yn))) == (NamespaceScheme.LEFT_INCREMENT, (rincr(yn),))
    assert peel(NULL_NAME) is None
    assert peel(canon_name(quote(lift(yn, drop(zn))))) is None


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------


def test_gen_fresh_avoids_and_is_deterministic():
    avoid = [xn, yn, zn, lincr(xn)]
    f = gen_fresh(avoid)
    assert all(not name_eq(f, a) for a in avoid)
    assert gen_fresh(list(reversed(avoid))) is f  # order-independent


def test_gen_fresh_chains_are_pairwise_distinct():
    names = [xn]
    for _ in range(6):
        names.append(gen_fresh(names))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not name_eq(a, b)


# ---------------------------------------------------------------------------
# Interning: a Par is looked up first, its key and hash built only on a miss;
# a state from a successor kernel builds its key only when it is read
# ---------------------------------------------------------------------------


def _reachable(roots, base):
    """Every node of type base reachable from roots through child fields."""
    found = {}
    todo = list(roots)
    while todo:
        node = todo.pop()
        if id(node) in found:
            continue
        found[id(node)] = node
        for slot in type(node).__slots__:
            value = getattr(node, slot)
            todo.extend(v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, base))
    return list(found.values())


def _key_is_set(node) -> bool:
    """Whether node's key slot holds a key; the slot descriptor reads it
    without building it, where ``hasattr`` would build a missing one."""
    slot = (RhoTerm if isinstance(node, RhoTerm) else PiTerm).__dict__["key"]
    try:
        slot.__get__(node)
    except AttributeError:
        return False
    return True


def test_interned_pars_carry_their_key_once_read(monkeypatch):
    states = []

    def recording(step):
        def recorded(p):
            states.append(p)
            return step(p)

        return recorded

    monkeypatch.setattr(harness, "rho_step", recording(harness.rho_step))
    monkeypatch.setattr(equiv, "rho_step", recording(equiv.rho_step))
    monkeypatch.setattr(harness, "pi_step", recording(harness.pi_step))
    harness.repro_cex1()
    for base, cls, tag, table in (
        (RhoTerm, Par, 4, _INTERN),
        (PiTerm, PPar, 5, _PINTERN),
    ):
        nodes = [n for n in _reachable([s for s in states if isinstance(s, base)], base) if type(n) is cls]
        assert nodes
        for n in nodes:
            assert n.key == (tag, *(c.key for c in n.children))
            assert table[n.children] is n


def test_kernel_states_leave_their_key_unset_until_it_is_read(monkeypatch):
    built = {}

    def recording(kids):
        state = canon_sorted_par(kids)
        built[id(state)] = state
        return state

    monkeypatch.setattr(rhoreduce, "canon_sorted_par", recording)
    harness.repro_cex2()
    pars = [n for n in built.values() if type(n) is Par]
    unkeyed = [n for n in pars if not _key_is_set(n)]
    assert len(unkeyed) > len(pars) / 2
    for n in unkeyed:
        assert n.key == (4, *(c.key for c in n.children))
        assert _key_is_set(n)


def test_sorted_and_written_constructors_give_one_node_whichever_comes_first():
    for k, lazy_first in enumerate((True, False)):
        m = marker(920_000 + k)
        kids = (drop(m), lift(m, nil()))  # key order: a drop sorts before a lift
        pkids = (pout(f"sorted{k}", "a"), pout(f"sorted{k}", "b"))
        for lazy, written, args, tag in (
            (canon_sorted_par, par, kids, 4),
            (piterm._canon_sorted_ppar, ppar, pkids, 5),
        ):
            assert args not in _INTERN and args not in _PINTERN
            if lazy_first:
                node = lazy(list(args))
                assert not _key_is_set(node)
                assert written(*args) is node and not _key_is_set(node)
            else:
                node = written(*args)
                assert _key_is_set(node)
                assert lazy(list(args)) is node
            assert node.key == (tag, *(c.key for c in args))


def test_keys_of_deep_chains_built_as_written_read_without_recursion():
    # par and ppar build a key eagerly, from keys already built, so no lazily
    # keyed node has a lazily keyed child, and reading a key never recurses
    p, t = nil(), pnil()
    for k in range(3000):
        p = par(lift(marker(930_000 + k), nil()), p)
        t = ppar(pout(f"deep{k}", "b"), t)
    assert p.key[0] == 4 and t.key[0] == 5


def test_no_term_class_hooks_attribute_lookup():
    # a __getattr__ or __getattribute__ on a node class stops CPython from
    # specializing every attribute read on its instances; a lazy key is a
    # property on key alone
    classes = [
        cls
        for module in (rhoterm, piterm)
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    ]
    assert Par in classes and PPar in classes
    assert not [cls for cls in classes if {"__getattr__", "__getattribute__"} & vars(cls).keys()]
    assert isinstance(vars(Par)["key"], property) and isinstance(vars(PPar)["key"], property)


def test_rebuilt_trees_are_the_same_object_and_hash_by_identity():
    def build():
        body = par(lift(xn, nil()), drop(yn))
        return [
            (body, Par, {"children"}),
            (quote(body), Quote, {"body"}),
            (ppar(pout("idprobe", "a"), pout("idprobe", pimarker(0))), PPar, {"children"}),
            (pimarker(900_002), PiMarker, {"index"}),
        ]

    before = [node for node, _, _ in build()]
    members = set(before)
    position = {node: i for i, node in enumerate(before)}
    for k in range(200):  # intern unrelated nodes in between
        name = quote(drop(marker(k)))
        canon_proc(par(lift(name, nil()), drop(gen_fresh([xn, name]))))
        ppar(pout("idprobe", f"c{k}"), pout("idprobe", pimarker(k)))
    for i, (node, cls, fields) in enumerate(build()):
        assert type(node) is cls
        assert node is before[i]
        assert node in members and position[node] == i
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
        assert not hasattr(node, "__dict__")
        slots = {slot for c in cls.__mro__ for slot in getattr(c, "__slots__", ())}
        assert slots == {"key", *fields}


def test_par_gives_one_node_on_a_miss_and_on_a_hit():
    kids = (lift(marker(900_001), nil()), drop(marker(900_001)))
    assert kids not in _INTERN
    first = par(*kids)
    assert first.children == kids and _INTERN[kids] is first
    assert par(list(kids)) is first  # a new tuple of the same children
    assert par(*kids) is first
    pkids = (pout("probe", "a"), pout("probe", "b"))
    assert pkids not in _PINTERN
    pfirst = ppar(*pkids)
    assert pfirst.children == pkids and _PINTERN[pkids] is pfirst
    assert ppar(list(pkids)) is pfirst
    assert ppar(*pkids) is pfirst


def _tracked_growth(build, count):
    """Growth of the collector's tracked objects, per call, over count calls
    of build(k) with fresh k.  Garbage is collected before and twice after:
    a pass untracks a tuple of untracked items, a second the tuples holding it."""
    gc.collect()
    before = len(gc.get_objects())
    for k in range(count):
        build(k)
    gc.collect()
    gc.collect()
    return (len(gc.get_objects()) - before) / count


def test_interning_leaves_one_tracked_object_per_node():
    # a node is stored under its own fields, so a chain of three fresh nodes
    # adds the three nodes and no key tuple the collector must track
    assert _tracked_growth(lambda k: quote(drop(marker(910_000 + k))), 300) <= 3
    assert _tracked_growth(lambda k: (prepl(pout("gcprobe", f"n{k}")), pimarker(910_000 + k)), 300) <= 3


#: the fields each class is interned on, in slot order
_INTERN_FIELDS = {
    Nil: (),
    Par: ("children",),
    Lift: ("subject", "body"),
    Input: ("subject", "binder", "body"),
    Drop: ("name",),
    Quote: ("body",),
    BoundMarker: ("index",),
    PNil: (),
    PPar: ("children",),
    POut: ("subject", "obj"),
    PIn: ("subject", "binder", "body"),
    PNew: ("binder", "body"),
    PRepl: ("body",),
    PiMarker: ("index",),
}


def test_every_interned_node_is_stored_under_its_own_fields():
    # the documented scheme: a one-field node keys on that field, any other
    # on its field tuple (0 on the empty one); keys of two classes never meet
    harness.check_criteria(seed=1, count=50, size=10)
    harness.repro_cex1()
    for table in (_INTERN, _PINTERN):
        assert len(table) > 1000
        for stored, node in table.items():
            fields = tuple(getattr(node, f) for f in _INTERN_FIELDS[type(node)])
            ident = fields[0] if len(fields) == 1 else fields
            assert type(stored) is type(ident) and stored == ident
            assert table[ident] is node


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_canonicalization_is_idempotent_and_printable(seed):
    rng = random.Random(seed)
    t = oracles.random_proc(rng, rng.randrange(1, 10))
    p = oracles.to_pkg_proc(t)
    c = canon_proc(p)
    assert canon_proc(c) is c
    assert struct_eq(p, c)
    assert isinstance(show_proc(c), str)
    assert proc_size(c) <= proc_size(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_congruent_variants_share_a_canonical_form(seed):
    rng = random.Random(seed)
    t = oracles.random_proc(rng, rng.randrange(1, 9))
    u = oracles.congruent_variant(rng, t)
    assert canon_proc(oracles.to_pkg_proc(t)) is canon_proc(oracles.to_pkg_proc(u))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_sorted_parallel_matches_full_canonicalization(seed):
    rng = random.Random(seed)
    p = canon_proc(oracles.to_pkg_proc(oracles.random_proc(rng, rng.randrange(1, 9))))
    q = canon_proc(oracles.to_pkg_proc(oracles.random_proc(rng, rng.randrange(1, 9))))
    kids = sorted(components(p) + components(q), key=lambda t: t.key)
    merged = canon_sorted_par(kids)
    assert merged is canon_proc(par(p, q))
    assert canon_proc(merged) is merged


# ---------------------------------------------------------------------------
# The canonical-form memo holds only true canonical forms
# ---------------------------------------------------------------------------


# memoised on their own arguments only, so a result is always the one a
# recursion from scratch gives; neither consults the package's memo tables
@functools.cache
def reference_canon_name(x):
    """canon_name recomputed without the package's memo tables."""
    if isinstance(x, BoundMarker):
        return x
    body = reference_canon(x.body, ())
    return body.name if isinstance(body, Drop) else quote(body)


@functools.cache
def reference_canon(p, env):
    """The canonical form of p under the binders env (outermost first),
    recomputed without the package's memo tables: an occurrence of a binder
    becomes the marker of its innermost level, an input's binder the marker
    of its own level."""

    def occ(n):
        c = reference_canon_name(n)
        bound = [lvl for lvl, b in enumerate(env) if b is c]
        return marker(bound[-1]) if bound else c

    if isinstance(p, Nil):
        return p
    if isinstance(p, Drop):
        return drop(occ(p.name))
    if isinstance(p, Lift):
        return lift(occ(p.subject), reference_canon(p.body, env))
    if isinstance(p, Input):
        body = reference_canon(p.body, env + (reference_canon_name(p.binder),))
        return inp(occ(p.subject), marker(len(env)), body)
    kids = []
    for child in p.children:
        c = reference_canon(child, env)
        if isinstance(c, Par):
            kids.extend(c.children)
        elif not isinstance(c, Nil):
            kids.append(c)
    return par(*sorted(kids, key=lambda t: t.key))


def _canon_memo_entries():
    """The canonical-form memo as (p, env, form): a key that is a bare node
    is the process at top level, env ``()``."""
    return [(k, (), out) if isinstance(k, RhoTerm) else (*k, out) for k, out in _CANON_PROC.items()]


def test_the_canonical_form_memo_agrees_with_a_cache_free_canonicalizer():
    # subst_marker re-canonicalizes consumed bodies under binder markers,
    # where a canonical form is not its own form; an entry recording it as one
    # poisons later steps and gives prop3 false Fails
    rhopi.clear_caches()
    harness.check_criteria(seed=1, count=50, size=10)
    harness.repro_cex1()
    entries = _canon_memo_entries()
    assert len(entries) > 1000
    assert all(k[1] for k in _CANON_PROC if isinstance(k, tuple))  # env () keys on the bare node
    wrong = [(p, env) for p, env, out in entries if reference_canon(p, env) is not out]
    reference_canon.cache_clear()
    reference_canon_name.cache_clear()
    assert wrong == []


def test_the_flag_search_states_are_their_own_canonical_forms(monkeypatch):
    # the flag search builds its successors through canon_sorted_par, which
    # returns a Par already interned in one lookup; every state it admits must
    # still be its own canonical form, and the memo must hold true forms only
    graphs = []

    def recording_explore(*args, **kwargs):
        g = real_explore(*args, **kwargs)
        if kwargs.get("stop") is not None:
            graphs.append(g)
        return g

    real_explore = lts.explore
    monkeypatch.setattr(lts, "explore", recording_explore)
    rhopi.clear_caches()
    harness.repro_cex2()
    states = [s for g in graphs for s in g.states]
    assert len(graphs) == 2 and len(states) > 1000
    assert all(canon_proc(s) is s for s in states)
    wrong = [(p, env) for p, env, out in _canon_memo_entries() if reference_canon(p, env) is not out]
    assert wrong == []
    rhopi.clear_caches()
    assert all(canon_proc(s) is s for s in states)
    assert all(reference_canon(s, ()) is s for s in states)
    reference_canon.cache_clear()
    reference_canon_name.cache_clear()
