"""Reduction tests for the reflective calculus: communication fires on
equivalent (not merely identical) subjects, payloads splice as written,
reduction never reaches under guards or quotes, and barbs/redexes are
computed on canonical component lists."""

import itertools
import random

import pytest

import oracles
import rhopi
from rhopi import equiv, harness, rhoreduce
from rhopi.lts import explore
from rhopi.rhoreduce import (
    _ORDER,
    _RANK,
    Redex,
    _rank,
    apply_redex,
    barbs,
    components,
    redexes,
    search_step,
    step,
)
from rhopi.rhoterm import (
    NULL_NAME,
    Input,
    Lift,
    Par,
    canon_name,
    canon_proc,
    drop,
    gen_fresh,
    inp,
    lift,
    marker,
    nil,
    par,
    quote,
    struct_eq,
    subst_marker,
)

xn = NULL_NAME
yn = gen_fresh([xn])
zn = gen_fresh([xn, yn])
b = gen_fresh([xn, yn, zn])  # used as a binder in raw terms
c = gen_fresh([xn, yn, zn, b])  # a second binder, for nested inputs


# ---------------------------------------------------------------------------
# Communication
# ---------------------------------------------------------------------------


def test_communication_on_identical_subject():
    p = par(inp(xn, b, drop(b)), lift(xn, lift(yn, nil())))
    succs = step(p)
    assert len(succs) == 1
    assert struct_eq(succs[0], lift(yn, nil()))


def test_communication_matches_equivalent_subjects():
    alias = quote(drop(xn))  # a different spelling of xn
    p = par(inp(alias, b, nil()), lift(xn, nil()))
    assert len(redexes(p)) == 1
    assert step(p) == [canon_proc(nil())]


def test_payload_splices_as_written():
    # receiving x!(*z) and dropping the binder yields *z itself, not z's body
    p = par(inp(xn, b, drop(b)), lift(xn, drop(zn)))
    succs = step(p)
    assert succs == [canon_proc(drop(zn))]


def test_payload_name_positions_collapse():
    # the binder used as a subject becomes the canonical payload name
    p = par(inp(xn, b, lift(b, nil())), lift(xn, drop(zn)))
    succs = step(p)
    assert succs == [canon_proc(lift(zn, nil()))]


def test_two_equal_senders_make_two_redexes_one_reduct():
    p = par(lift(xn, nil()), lift(xn, nil()), inp(xn, b, nil()))
    assert len(redexes(p)) == 2
    succs = step(p)
    assert len(succs) == 1
    assert struct_eq(succs[0], lift(xn, nil()))


def test_apply_redex_keeps_spectator_components():
    spectator = lift(yn, nil())
    p = par(inp(xn, b, nil()), lift(xn, nil()), spectator)
    r = redexes(p)[0]
    assert struct_eq(apply_redex(p, r), spectator)


# ---------------------------------------------------------------------------
# Inertness of guarded and reflected positions
# ---------------------------------------------------------------------------


def test_standalone_drop_never_steps():
    busy = par(inp(xn, b, nil()), lift(xn, nil()))  # would reduce at top level
    assert step(drop(quote(busy))) == []


def test_lift_bodies_are_frozen():
    busy = par(inp(yn, b, nil()), lift(yn, nil()))
    assert step(lift(xn, busy)) == []


def test_input_bodies_are_frozen():
    busy = par(inp(yn, b, nil()), lift(yn, nil()))
    assert step(inp(xn, b, busy)) == []


# ---------------------------------------------------------------------------
# Components and barbs
# ---------------------------------------------------------------------------


def test_components_flatten_parallel_structure():
    p = par(par(lift(xn, nil()), lift(yn, nil())), inp(zn, b, nil()))
    assert len(components(p)) == 3
    assert components(nil()) == ()
    assert components(lift(xn, nil())) == (canon_proc(lift(xn, nil())),)


def test_barbs_report_directions_and_subjects():
    p = par(lift(xn, nil()), inp(yn, b, nil()))
    assert barbs(p) == frozenset({("out", canon_name(xn)), ("in", canon_name(yn))})


def test_barbs_restriction_filters_by_equivalence():
    p = par(lift(quote(drop(xn)), nil()), lift(yn, nil()))
    assert barbs(p, restrict=[xn]) == frozenset({("out", canon_name(xn))})
    assert barbs(p, restrict=[zn]) == frozenset()


# ---------------------------------------------------------------------------
# Reduction graphs
# ---------------------------------------------------------------------------


def test_reduction_graph_handles_self_loops():
    rearm = inp(xn, b, par(drop(b), lift(xn, drop(b))))
    omega = par(rearm, lift(xn, rearm))
    g = explore(canon_proc(omega), step, max_states=10, max_depth=10)
    assert len(g.states) == 1
    assert g.edges[0] == [0]
    assert not g.truncated


def test_reduction_graph_truncates_at_bounds():
    # a three-step chain explored with a two-state budget must admit truncation
    chain = par(
        lift(xn, nil()),
        inp(xn, b, par(lift(yn, nil()), inp(yn, b, lift(zn, nil())))),
    )
    g_full = explore(canon_proc(chain), step)
    assert not g_full.truncated
    assert len(g_full.states) == 3
    g_cut = explore(canon_proc(chain), step, max_states=2, max_depth=10)
    assert g_cut.truncated
    assert len(g_cut.states) == 2


# ---------------------------------------------------------------------------
# Incremental successors agree with whole-state canonicalization
# ---------------------------------------------------------------------------


def continuation(comps, r):
    """P{@Q / y} for the redex's input x?(y).P and lift x!(Q)."""
    inode, onode = comps[r.input_index], comps[r.lift_index]
    return subst_marker(inode.body, quote(onode.body), inode.binder.index)


def reference_step(p):
    """step as specified: substitute into the input's body, compose with the
    remaining components and canonicalize the whole state; deduplicate."""
    comps = components(p)
    out = []
    for r in redexes(p):
        rest = [k for i, k in enumerate(comps) if i not in (r.input_index, r.lift_index)]
        q = canon_proc(par(*rest, continuation(comps, r)))
        if not any(q is seen for seen in out):
            out.append(q)
    return out


def assert_step_matches_reference(p):
    got = step(p)
    rhopi.clear_caches()  # the reference recomputes every canonical form
    want = reference_step(p)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))
    rhopi.clear_caches()
    for q in got:
        assert canon_proc(q) is q
    # step skips a component equal to its left neighbour; that must give
    # what skipping every repeated (input, lift) pair gives
    assert got == list(dict.fromkeys(apply_redex(p, r) for r in redexes(p)))


HAND_BUILT = {
    "duplicate senders and receivers": par(
        lift(xn, drop(zn)),
        lift(xn, drop(zn)),
        lift(xn, nil()),
        inp(xn, b, drop(b)),
        inp(xn, b, drop(b)),
        lift(yn, nil()),
    ),
    "nil continuation": par(inp(xn, b, nil()), lift(xn, nil()), lift(yn, nil())),
    "par continuation flattens into rest": par(
        inp(xn, b, par(lift(zn, drop(b)), drop(yn), inp(yn, c, nil()), lift(xn, nil()))),
        lift(xn, lift(yn, nil())),
        drop(zn),
        lift(yn, nil()),
        inp(zn, c, drop(c)),
    ),
    "single-component result": par(inp(xn, b, lift(b, nil())), lift(xn, nil())),
    "payload par spliced into a drop": par(
        inp(xn, b, par(drop(b), lift(zn, nil()))),
        lift(xn, par(lift(yn, nil()), inp(zn, c, nil()), drop(xn))),
        lift(yn, drop(zn)),
    ),
    # canonical order: lift(xn, 0) < 2 x lift(xn, *zn) < lift(xn, yn!(0)) <
    # lift(yn, 0) < inp(xn, *b) < inp(xn, yn!(*b)) < 2 x inp(xn, b!(0)) <
    # inp(xn, b?(c).0), so each pair of equal components sits between
    # distinct ones
    "equal inputs and equal lifts between distinct components": par(
        inp(xn, b, lift(b, nil())),
        lift(xn, drop(zn)),
        inp(xn, b, inp(b, c, nil())),
        inp(xn, c, drop(c)),
        lift(yn, nil()),
        lift(xn, lift(yn, nil())),
        inp(xn, b, lift(b, nil())),
        lift(xn, nil()),
        inp(xn, b, lift(yn, drop(b))),
        lift(xn, drop(zn)),
    ),
    "nested inputs renumber their binders": par(
        inp(xn, b, inp(b, c, par(lift(c, drop(b)), inp(c, b, drop(b))))),
        lift(xn, lift(yn, nil())),
        inp(yn, c, inp(c, b, lift(b, drop(c)))),
        lift(yn, nil()),
    ),
}


@pytest.mark.parametrize("label", sorted(HAND_BUILT))
def test_step_matches_whole_state_canonicalization(label):
    p = canon_proc(HAND_BUILT[label])
    assert redexes(p)
    assert_step_matches_reference(p)
    for q in step(p):  # and one step further
        assert_step_matches_reference(q)


def cex1_roots(monkeypatch) -> list:
    """The roots of the reflective graphs cex1 explores."""
    roots = []

    def recording_explore(root, step_fn, **bounds):
        if step_fn is step:
            roots.append(root)
        return explore(root, step_fn, **bounds)

    monkeypatch.setattr(harness, "explore", recording_explore)
    harness.repro_cex1()
    return roots


def test_step_from_cold_caches_ranks_components_on_first_use(monkeypatch):
    roots = cex1_roots(monkeypatch)
    assert len(roots) == 2
    for p in [canon_proc(HAND_BUILT[label]) for label in sorted(HAND_BUILT)] + roots:
        assert redexes(p)
        rhopi.clear_caches()
        assert not _RANK
        assert_step_matches_reference(p)


def test_equal_neighbours_repeat_a_pair_and_are_skipped():
    p = canon_proc(HAND_BUILT["equal inputs and equal lifts between distinct components"])
    comps = components(p)
    assert [a is b for a, b in zip(comps, comps[1:])].count(True) == 2
    assert comps[0] is not comps[1] and comps[-1] is not comps[-2]
    pairs = [(comps[r.input_index], comps[r.lift_index]) for r in redexes(p)]
    assert len(pairs) == 20 and len(set(pairs)) == 12
    assert len(step(p)) == 12


def states_step_sees(monkeypatch, experiment) -> list:
    """The distinct states step, or a flag search's step, is called on while
    the experiment runs, in the order it first sees them."""
    reached = []

    def recording_step(p):
        reached.append(p)
        return step(p)

    def recording_search_step(subject):
        search = search_step(subject)

        def recording_search(p):
            reached.append(p)
            return search.step(p)

        return search._replace(step=recording_search)

    monkeypatch.setattr(harness, "rho_step", recording_step)
    monkeypatch.setattr(equiv, "rho_step", recording_step)
    monkeypatch.setattr(harness, "search_step", recording_search_step)
    experiment()
    return list(dict.fromkeys(reached))


def test_a_consumed_body_keeps_its_middle_binder_after_another_step():
    # stepping the *v consumer re-canonicalizes *y2 under the binder markers
    # (y1, y2) as *y1; that must not record *y1 as canonical there, or the *u
    # consumer's *y1 (the middle binder) keeps its index and is captured
    names = [xn]
    while len(names) < 6:
        names.append(gen_fresh(names))
    a, b, c, y, u, v = names

    def consumer(body):
        return par(lift(a, nil()), inp(a, y, inp(b, u, inp(c, v, body))))

    rhopi.clear_caches()
    (cold,) = step(consumer(drop(u)))
    assert cold.body.body is drop(marker(0))
    rhopi.clear_caches()
    step(consumer(drop(v)))
    assert step(consumer(drop(u))) == [cold]


def test_step_matches_reference_on_cex1_states(monkeypatch):
    states = states_step_sees(monkeypatch, harness.repro_cex1)
    assert len(states) > 100
    for p in states:
        assert_step_matches_reference(p)


def test_step_matches_reference_on_a_sample_of_cex2_states(monkeypatch):
    sample = states_step_sees(monkeypatch, harness.repro_cex2)[::25]
    assert len(sample) > 100
    # cex2, unlike cex1, has continuations of five parallel components
    continuations = [continuation(components(p), r) for p in sample for r in redexes(p)]
    assert max(len(q.children) for q in continuations if isinstance(q, Par)) >= 5
    for p in sample:
        assert_step_matches_reference(p)


# ---------------------------------------------------------------------------
# Successors are sorted by a rank kept per component
# ---------------------------------------------------------------------------


def assert_rank_table_in_key_order():
    assert len(_RANK) == len(_ORDER)
    assert all(a.key < b.key for a, b in zip(_ORDER, _ORDER[1:]))
    assert all(_RANK[a] < _RANK[b] for a, b in zip(_ORDER, _ORDER[1:]))


def test_rank_table_is_in_key_order_after_the_repro_experiments():
    rhopi.clear_caches()
    harness.repro_cex1()
    harness.repro_cex2()
    assert len(_ORDER) > 100
    assert_rank_table_in_key_order()


def test_a_spent_rank_gap_renumbers_in_key_order():
    rhopi.clear_caches()
    top = drop(marker(10**6))
    _rank((top,))
    first = _RANK[top]
    # each lands just below top, above the one before: the gap under top
    # halves each time until no float fits in it
    below = tuple(drop(marker(k)) for k in range(1, 101))
    for d in below:
        _rank((d,))
    assert _RANK[top] != first  # only a renumbering moves a rank
    assert_rank_table_in_key_order()
    # the continuation, the payload *m150 spliced in for *b, lands in the
    # same gap
    p = canon_proc(par(*below, top, inp(xn, b, drop(b)), lift(xn, drop(marker(150)))))
    assert len(step(p)) == 1
    assert_step_matches_reference(p)


# ---------------------------------------------------------------------------
# A search skips commuting redexes
# ---------------------------------------------------------------------------


def fire(p, inode, onode):
    """The reduct of p by its input inode and lift onode."""
    comps = components(p)
    return apply_redex(p, Redex(comps.index(inode), comps.index(onode), inode.subject))


def test_independent_redexes_commute():
    # the diamond search_step rests on: two redexes that share no component,
    # fired in either order, reach one canonical state
    i1, l1 = canon_proc(inp(xn, b, lift(yn, drop(b)))), canon_proc(lift(xn, drop(zn)))
    i2, l2 = canon_proc(inp(yn, b, par(drop(b), lift(zn, nil())))), canon_proc(lift(yn, lift(xn, nil())))
    p = canon_proc(par(i1, l1, i2, l2))
    left, right = fire(p, i1, l1), fire(p, i2, l2)
    assert left is not right
    assert fire(left, i2, l2) is fire(right, i1, l1)


def random_concurrent_state(rng):
    """A small reflective state with concurrent redexes on two or three
    names: lifts, copiers that forward their payload, inputs that run it,
    and sometimes a spawner that re-arms itself and grows the state."""
    names = [xn, yn, zn][: rng.randint(2, 3)]

    def name():
        return rng.choice(names)

    comps = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            comps.append(lift(name(), rng.choice([nil(), drop(name()), lift(name(), nil())])))
        elif kind == 1:
            comps.append(inp(name(), b, lift(name(), drop(b))))
        elif kind == 2:
            comps.append(inp(name(), b, par(drop(b), lift(name(), nil()))))
        else:
            x = name()
            spawner = inp(x, b, par(drop(b), lift(x, drop(b)), lift(name(), nil())))
            comps += [spawner, lift(x, spawner)]
    return canon_proc(par(*comps))


def pairs_checked_against_reference(monkeypatch, every: int = 1) -> list:
    """Check every every-th call of the one-pass ``_pairs``, at call time
    (a renumbering moves ranks), against the two-pass oracle; the sleep
    bounds of the checked calls are collected in the list returned."""
    one_pass = rhoreduce._pairs
    kinds = {Input: "in", Lift: "lift"}
    checked, calls = [], itertools.count()

    def checking(comps, distinct=False, top=None, cont=()):
        got = one_pass(comps, distinct, top, cont)
        if next(calls) % every == 0:
            record = [
                (
                    id(x) if distinct else k,
                    kinds.get(type(x)),
                    getattr(x, "subject", None),
                    _RANK.get(x),
                    any(x is y for y in cont),
                )
                for k, x in enumerate(comps)
            ]
            assert got == oracles.reference_sleep_pairs(record, top)
            checked.append(top)
        return got

    monkeypatch.setattr(rhoreduce, "_pairs", checking)
    return checked


def test_a_search_step_search_equals_a_step_search(monkeypatch):
    checked = pairs_checked_against_reference(monkeypatch)
    cases = []
    for seed in range(300):
        rng = random.Random(seed)
        root = random_concurrent_state(rng)
        subject = canon_name(rng.choice([xn, yn, zn, c]))
        bounds = {"max_states": rng.randint(1, 80), "max_depth": rng.randint(0, 10)}
        cases.append((root, subject, bounds))
    # a root that outputs on its subject from the start: a hit at depth 0
    cases.append((canon_proc(par(lift(xn, nil()), inp(xn, b, drop(b)), lift(xn, drop(yn)))), xn, {}))
    reasons, pruned, hits = set(), 0, []
    for root, subject, bounds in cases:

        def flagged(s):
            return ("out", subject) in barbs(s)

        full = explore(root, step, stop=flagged, **bounds)
        search = search_step(subject)
        got = explore(root, search.step, stop=search.flagged, **bounds)
        assert got.states == full.states, root
        assert got.depths == full.depths
        assert got.parents == full.parents
        assert (got.hit, got.truncated, got.truncated_reason) == (
            full.hit,
            full.truncated,
            full.truncated_reason,
        )
        assert all(set(e) <= set(f) for e, f in zip(got.edges, full.edges))
        reasons.add(full.truncated_reason if full.hit is None else "hit")
        pruned += sum(map(len, full.edges)) - sum(map(len, got.edges))
        hits.append(got.hit)
    assert reasons == {None, "max_states", "max_depth", "hit"}
    assert pruned > 0
    # the last root flags at once; others flag a reduct from its continuation
    assert hits[-1] == 0 and sum(h is not None and h > 0 for h in hits) > 10
    # every state a search expanded was paired as the oracle pairs it
    assert sum(top is not None for top in checked) > 1000


def test_one_pass_pairs_match_the_reference_on_a_sample_of_cex2(monkeypatch):
    checked = pairs_checked_against_reference(monkeypatch, every=7)
    harness.repro_cex2()
    assert sum(top is not None for top in checked) > 400
    assert None in checked
