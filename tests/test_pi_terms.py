"""Name-passing-calculus tests: canonicalization (unused restrictions erased,
restriction order irrelevant, parallel flattening), one-step reduction with
single-unfold replication, barbs under restriction, capture-free atom
substitution, the named form canonicalization and reduction share, and the
incremental successors against whole-state reduction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhopi
from oracles import reference_pi_barbs, reference_pi_free_names, reference_pi_step
from rhopi.cli import parse_pi
from rhopi.harness import make_corpus, random_pi_term
from rhopi.lts import explore
from rhopi.piterm import (
    named,
    pi_barbs,
    pi_canon,
    pi_eq,
    pi_free_names,
    pi_step,
    pin,
    pnew,
    pnil,
    pout,
    ppar,
    prepl,
    rename_atom,
    show_pi,
    subst_atom,
)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def test_parallel_is_flattened_and_unit_absorbed():
    t = ppar(ppar(pout("x", "a"), pnil()), pout("y", "b"))
    u = ppar(pout("y", "b"), pout("x", "a"))
    assert pi_eq(t, u)
    assert pi_eq(ppar(pnil(), pnil()), pnil())


def test_unused_restriction_is_erased():
    assert pi_eq(pnew("z", pout("x", "a")), pout("x", "a"))
    assert pi_eq(pnew("z", pnil()), pnil())


def test_used_restriction_is_kept():
    assert not pi_eq(pnew("z", pout("z", "a")), pout("z", "a"))


def test_restriction_order_is_irrelevant():
    t = pnew("u", pnew("w", ppar(pout("u", "w"), pin("w", "y", pnil()))))
    u = pnew("w", pnew("u", ppar(pout("u", "w"), pin("w", "y", pnil()))))
    assert pi_eq(t, u)


def test_restriction_scope_normalizes_across_parallel():
    # moving a component that ignores the bound name in or out of the scope
    # does not change the canonical form
    wide = pnew("z", ppar(pout("z", "a"), pout("v", "b")))
    narrow = ppar(pnew("z", pout("z", "a")), pout("v", "b"))
    assert pi_eq(wide, narrow)


def test_overlapping_scopes_share_a_canonical_form():
    # u ranges over the first two components, w over the last two; either
    # restriction may be written outermost
    c1 = pin("u", "y", pnil())
    c2 = pout("u", "w")
    c3 = pin("w", "y", pnil())
    t = pnew("u", pnew("w", ppar(c1, c2, c3)))
    u = pnew("w", pnew("u", ppar(c3, c1, c2)))
    assert pi_eq(t, u)


def test_binder_names_are_alpha_irrelevant():
    t = pin("x", "y", pout("y", "a"))
    u = pin("x", "w", pout("w", "a"))
    assert pi_eq(t, u)
    assert pi_eq(pnew("u", pout("u", "u")), pnew("w", pout("w", "w")))


def test_replicated_copies_are_not_collapsed():
    one = prepl(pin("x", "y", pnil()))
    assert not pi_eq(ppar(one, one), one)


# ---------------------------------------------------------------------------
# Free names
# ---------------------------------------------------------------------------


def test_free_names_exclude_binders():
    t = pnew("z", ppar(pout("z", "a"), pin("x", "y", pout("y", "b"))))
    assert pi_free_names(t) == frozenset({"a", "x", "b"})


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def test_basic_communication():
    t = ppar(pout("x", "a"), pin("x", "y", pout("y", "b")))
    succs = pi_step(t)
    assert len(succs) == 1
    assert succs[0] is pi_canon(pout("a", "b"))


def test_communication_under_restriction():
    t = pnew("z", ppar(pout("z", "a"), pin("z", "y", pout("y", "b"))))
    succs = pi_step(t)
    assert succs == [pi_canon(pout("a", "b"))]


def test_no_step_without_a_matching_pair():
    assert pi_step(ppar(pout("x", "a"), pin("y", "w", pnil()))) == []
    assert pi_step(prepl(pin("x", "y", pnil()))) == []


def test_replication_unfolds_once_per_step():
    t = ppar(prepl(pin("x", "y", pnil())), pout("x", "a"), pout("x", "b"))
    succs = pi_step(t)
    # either output can be consumed; the replica survives in both reducts
    assert len(succs) == 2
    for s in succs:
        assert ("in", "x") in pi_barbs(s)
        follow = pi_step(s)
        assert len(follow) == 1
        assert ("in", "x") in pi_barbs(follow[0])


def test_two_distinct_reducts_are_kept_apart():
    t = ppar(pout("x", "a"), pin("x", "y", pout("y", "c")), pin("x", "w", pnil()))
    succs = pi_step(t)
    assert len(succs) == 2


# ---------------------------------------------------------------------------
# Barbs
# ---------------------------------------------------------------------------


def test_barbs_see_through_restriction_but_not_bound_subjects():
    t = pnew("z", ppar(pout("z", "a"), pin("x", "y", pnil())))
    assert pi_barbs(t) == frozenset({("in", "x")})


def test_barbs_include_replicated_guards_and_respect_restrict():
    t = ppar(prepl(pin("x", "y", pnil())), pout("u", "a"))
    assert pi_barbs(t) == frozenset({("in", "x"), ("out", "u")})
    assert pi_barbs(t, restrict=["u"]) == frozenset({("out", "u")})


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def test_subst_atom_replaces_free_occurrences():
    t = ppar(pout("x", "x"), pin("x", "y", pout("y", "x")))
    s = subst_atom(t, "w", "x")
    assert s is pi_canon(ppar(pout("w", "w"), pin("w", "y", pout("y", "w"))))


def test_subst_atom_respects_binders():
    # the bound y is untouched; only the free y under a different binder moves
    t = ppar(pin("x", "y", pout("y", "a")), pout("y", "b"))
    s = subst_atom(t, "w", "y")
    assert s is pi_canon(ppar(pin("x", "y", pout("y", "a")), pout("w", "b")))


def test_subst_atom_on_restricted_name_is_identity():
    t = pnew("z", pout("z", "a"))
    assert subst_atom(t, "w", "z") is pi_canon(t)


def test_rename_atom_renames_free_occurrences_in_every_position():
    t = ppar(
        pout("x", "x"),
        pin("x", "y", pout("y", "x")),
        pnew("z", pout("z", "x")),
        prepl(pin("x", "v", pout("v", "x"))),
    )
    assert rename_atom(t, "w", "x") is ppar(
        pout("w", "w"),
        pin("w", "y", pout("y", "w")),
        pnew("z", pout("z", "w")),
        prepl(pin("w", "v", pout("v", "w"))),
    )


def test_rename_atom_stops_at_a_binder_named_old():
    # raw terms: a binder named w shadows the free w below it, while the
    # input's own subject is outside its scope
    t = ppar(pin("x", "w", pout("w", "a")), pout("w", "b"))
    assert rename_atom(t, "u", "w") is ppar(pin("x", "w", pout("w", "a")), pout("u", "b"))
    assert rename_atom(pin("w", "w", pout("w", "a")), "u", "w") is pin("u", "w", pout("w", "a"))
    t = ppar(pnew("w", pout("w", "a")), pout("a", "w"))
    assert rename_atom(t, "u", "w") is ppar(pnew("w", pout("w", "a")), pout("a", "u"))


# ---------------------------------------------------------------------------
# Named forms
# ---------------------------------------------------------------------------


def test_named_round_trips_every_reachable_corpus_state():
    seen = set()
    for t in make_corpus(seed=1, count=50, size_limit=10).terms:
        seen.update(explore(pi_canon(t), pi_step, max_states=600, max_depth=60).states)
    assert len(seen) > 50
    for s in seen:
        assert pi_canon(named(s)) is s


def test_named_resolves_to_the_innermost_binder():
    t = pin("x", "y", pin("y", "y", pout("y", "x")))
    assert named(t, "q") is pin("x", "~q0", pin("~q0", "~q1", pout("~q1", "x")))


def wide_text(order) -> str:
    return " | ".join(f"a{i}!b" for i in order)


def test_a_wide_parallel_as_written_is_walked_without_recursion():
    # the parser nests | to the left: one PPar per component
    left, right = parse_pi(wide_text(range(2000))), parse_pi(wide_text(reversed(range(2000))))
    canon = pi_canon(left)
    assert left is not right and pi_canon(right) is canon
    assert len(canon.children) == 2000
    assert pi_canon(parse_pi(show_pi(canon))) is canon
    assert show_pi(left).count(" | ") == 1999
    assert len(pi_free_names(left)) == 2001
    # named and rename_atom keep the nesting as written
    assert named(left) is left
    assert rename_atom(left, "z", "b") is parse_pi(wide_text(range(2000)).replace("!b", "!z"))


# ---------------------------------------------------------------------------
# Incremental successors agree with whole-state reduction
# ---------------------------------------------------------------------------


def assert_steps_match_reference(states):
    """pi_step lists the same successors in the same order as the
    whole-state reference; the reference runs from cold caches, so no
    canonical form pi_step seeded is reused."""
    got = [pi_step(s) for s in states]
    rhopi.clear_caches()
    for s, succs in zip(states, got):
        want = reference_pi_step(s)
        assert len(succs) == len(want), show_pi(s)
        assert all(g is w for g, w in zip(succs, want)), show_pi(s)
        for q in succs:
            assert pi_canon(q) is q


def reachable(*terms):
    seen = {}
    for t in terms:
        for s in explore(pi_canon(t), pi_step, max_states=600, max_depth=60).states:
            seen[s] = None
    return list(seen)


@pytest.mark.parametrize("seed", [1, 2])
def test_free_names_match_the_reference_walk(seed):
    terms = make_corpus(seed=seed, count=50, size_limit=20).terms
    states = reachable(*terms)
    assert len(states) > 50
    for t in terms + states:
        assert pi_free_names(t) == reference_pi_free_names(t), show_pi(t)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("size", [10, 20])
def test_step_matches_whole_state_reduction_on_corpus_states(seed, size):
    states = reachable(*make_corpus(seed=seed, count=50, size_limit=size).terms)
    assert len(states) > 50
    assert_steps_match_reference(states)


def handshake(relayed=None):
    """P_4 runs a_i!b | a_i?(x).c_i!x for i < 4; Q_4 (relayed=2) routes c_2's
    payload through a private channel, so its states mix free guards and
    restricted groups."""

    def component(i):
        cont = "new z.(z!x | z?(y).c%d!y)" % i if i == relayed else "c%d!x" % i
        return "a%d!b | a%d?(x).%s" % (i, i, cont)

    return parse_pi(" | ".join(component(i) for i in (2, 0, 3, 1)))


def test_step_matches_whole_state_reduction_on_handshakes():
    p, q = reachable(handshake()), reachable(handshake(relayed=2))
    assert (len(p), len(q)) == (16, 24)
    assert_steps_match_reference(p)
    assert_steps_match_reference(q)


HAND_BUILT_PI = {
    "equal bound subjects in two groups": "new x.(x!a) | new x.(x?(y).0)",
    "two copies of one group": "new x.(x!a | x?(y).y!b) | new x.(x!a | x?(y).y!b)",
    # a free subject: one copy's input meets its own output and the other's
    "two copies of one group on a free subject": "new z.(a!z | a?(x).x!z) | new z.(a!z | a?(x).x!z)",
    "scope extrusion": "new x.(c!x | x?(y).0) | c?(v).v!v",
    "replica joined with another group": "new x.(!x?(y).c!y | x!a) | c?(v).v!v | new x.(x!b)",
    "replicated restriction extruded": "!new x.(c!x) | c?(v).(v!v | v?(w).0)",
    "two inputs of one replica meet one output": "!(a?(x).x!c | a?(y).0) | a!b",
    "one input meets two outputs of one replica": "a?(x).x!x | !(a!b | a!c)",
    # both groups call their binder ~s0 when named on their own
    "extruded name meets a private name": "new x.(c!x | x?(y).y!y) | new r.(c?(v).v!r | r?(w).0)",
    # the inputs of the second and third copies repeat the first's redex
    "three equal inputs meet one output": "a?(x).x!c | a?(x).x!c | a?(x).x!c | a!b",
    # an input meets its own copy's output, the next copy's (kept) and the
    # third copy's (a repeat of the next copy's)
    "three copies of one group on a free subject": " | ".join(["new z.(a!z | a?(x).x!z)"] * 3),
    # the second replica and the second output each repeat the first's redex
    "two equal replicas meet two equal outputs": "!a?(x).0 | !a?(x).0 | a!b | a!b",
}


@pytest.mark.parametrize("label", sorted(HAND_BUILT_PI))
def test_step_matches_whole_state_reduction_on_hand_built_cases(label):
    states = reachable(parse_pi(HAND_BUILT_PI[label]))
    assert_steps_match_reference(states)


def test_congruent_blocks_past_the_permutation_limit_step_like_the_reference():
    # a block of seven binders keeps its written order in canonical form, so
    # these two congruent children are not the same node and no redex on
    # them is skipped as a repeat; every successor must still be listed
    chain = "a!b | b!c | c!d | d!e | e!f | f!g | g!a | k!a"
    binders = "abcdefg"
    forward = "".join(f"new {x}." for x in binders) + f"({chain})"
    backward = "".join(f"new {x}." for x in reversed(binders)) + f"({chain})"
    t = pi_canon(parse_pi(f"({forward}) | ({backward}) | k?(x).x!x"))
    assert len(t.children) == 3
    assert_steps_match_reference(reachable(t))


@pytest.mark.parametrize("seed", [1, 2])
def test_barbs_match_a_whole_term_walk_on_corpus_states(seed):
    states = reachable(*make_corpus(seed=seed, count=50, size_limit=20).terms)
    assert len(states) > 50
    for s in states:
        restrict = sorted(pi_free_names(s))[::2]
        assert pi_barbs(s) == reference_pi_barbs(s), show_pi(s)
        assert pi_barbs(s, restrict) == reference_pi_barbs(s, restrict), show_pi(s)


def test_redex_memo_reused_across_states_matches_reference():
    # on a free subject, two equal copies fire a redex inside one copy and
    # one between the copies, with the same origins: their keys must differ
    rhopi.clear_caches()
    families = [handshake(relayed=r) for r in (None, 0, 1, 2, 3)]
    copies = [parse_pi(HAND_BUILT_PI[k]) for k in HAND_BUILT_PI if k.startswith("two copies")]
    states = reachable(*families, *copies)
    fired = sum(len(pi_step(s)) for s in states)  # each successor fired a redex
    assert 0 < rhopi.cache_stats()["piterm.redex"] < fired
    assert_steps_match_reference(states)


def test_clearing_caches_mid_exploration_keeps_the_graph():
    root = pi_canon(handshake(relayed=2))
    warm = explore(root, pi_step, max_states=600, max_depth=60)

    def clearing_step(s):
        succs = pi_step(s)
        rhopi.clear_caches()
        return succs

    rhopi.clear_caches()
    cold = explore(root, clearing_step, max_states=600, max_depth=60)
    assert len(warm.states) == 24
    assert cold.states == warm.states
    assert cold.edges == warm.edges


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_canonicalization_is_idempotent_and_step_closed(seed):
    rng = random.Random(seed)
    t = random_pi_term(rng, size=rng.randrange(1, 12))
    c = pi_canon(t)
    assert pi_canon(c) is c
    assert isinstance(show_pi(c), str)
    for s in pi_step(c):
        assert pi_canon(s) is s  # reducts come back canonical


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_barbs_are_invariant_under_reassociation(seed):
    rng = random.Random(seed)
    t = random_pi_term(rng, size=rng.randrange(2, 10))
    u = ppar(pnil(), ppar(t, pnil()))
    assert pi_barbs(t) == pi_barbs(u)
    assert pi_eq(t, u)
