"""Behavioural-equivalence and divergence-analysis tests.

Covers the graph helpers, the bounded barbed-bisimulation checker in both
calculi, weak barb sets, the three divergence verdict rules, and the replay
matcher's unit-level behaviour.  Partition refinement is checked against a
closure-set oracle on random graphs, and its reports on the handshake family
are pinned (``tests/data/handshake_bisim.json``).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rhopi
from rhopi import equiv, piterm
from rhopi.encode import encode_mr, encode_ns
from rhopi.equiv import (
    BisimVerdict,
    BisimReport,
    DivergenceReport,
    DivergenceVerdict,
    _find_cycle,
    _reach_sets,
    _replay_match,
    _sccs,
    barbed_bisim,
    bisim_blocks,
    divergence_probe,
    pi_barbed_bisim,
    pi_divergence,
    pi_weak_barb_set,
    rho_barbed_bisim,
    rho_graph_divergence,
    rho_weak_barb_set,
    weak_observations,
)
from rhopi.cli import parse_pi
from rhopi.harness import check_criteria
from rhopi.lts import explore
from rhopi.piterm import (
    PiTerm,
    PPar,
    pi_barbs,
    pi_canon,
    pi_step,
    pin,
    pnew,
    pnil,
    pout,
    ppar,
    prepl,
    show_pi,
)
from rhopi.rhoreduce import barbs, step
from rhopi.rhoterm import (
    NULL_NAME,
    canon_proc,
    drop,
    gen_fresh,
    inp,
    lift,
    lincr,
    nil,
    par,
)

x = NULL_NAME
y = gen_fresh([x])
z = gen_fresh([x, y])
w = gen_fresh([x, y, z])
a = gen_fresh([x, y])


def iso(p, q):
    return _replay_match(canon_proc(p), canon_proc(q), [100_000])


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------


def test_scc_reach_and_cycle_helpers():
    # 0 -> 1 -> 2 -> 1 (cycle {1,2}), 0 -> 3
    edges = [[1, 3], [2], [1], []]
    _, comps = _sccs(4, edges)
    assert sorted(len(c) for c in comps) == [1, 1, 2]
    rs = _reach_sets(4, edges)
    assert rs[0] == {0, 1, 2, 3} and rs[1] == {1, 2} and rs[3] == {3}
    assert _find_cycle(4, edges) == [1, 2]
    assert _find_cycle(3, [[1], [2], []]) is None


# ---------------------------------------------------------------------------
# Reflective-calculus bisimulation
# ---------------------------------------------------------------------------


def test_identical_canonical_roots_are_bisimilar():
    p = lift(x, nil())
    r = rho_barbed_bisim(p, par(p, nil()))
    assert r.verdict is BisimVerdict.BISIMILAR
    assert r.states == (1, 1)


def test_silent_prefix_distinguished_strongly_but_not_weakly():
    # q1 barbs on x immediately; q2 needs one internal step first.
    q1 = lift(x, nil())
    q2 = par(inp(y, a, lift(x, nil())), lift(y, nil()))

    strong = rho_barbed_bisim(q1, q2, weak=False)
    assert strong.verdict is BisimVerdict.NOT_BISIMILAR
    assert strong.witness["reason"] == "barb"

    # Unrestricted weak comparison still separates them: q2 has a barb on y.
    assert rho_barbed_bisim(q1, q2, weak=True).verdict is BisimVerdict.NOT_BISIMILAR

    # Restricted to subject x the pair is weakly bisimilar but still strongly
    # distinct (q2 has no immediate x barb).
    assert (
        rho_barbed_bisim(q1, q2, weak=True, restrict=[x]).verdict
        is BisimVerdict.BISIMILAR
    )
    assert (
        rho_barbed_bisim(q1, q2, weak=False, restrict=[x]).verdict
        is BisimVerdict.NOT_BISIMILAR
    )


def test_commitment_to_different_barbs_distinguishes():
    # n1 can commit (weakly) to a barb on x or on y; n2 only to x.
    n1 = par(inp(z, a, lift(x, nil())), lift(z, nil()), inp(z, a, lift(y, nil())))
    n2 = par(inp(z, a, lift(x, nil())), lift(z, nil()))
    r = rho_barbed_bisim(n1, n2, weak=True, restrict=[x, y])
    assert r.verdict is BisimVerdict.NOT_BISIMILAR


def test_alpha_variant_binders_give_identical_state_graphs():
    b2 = gen_fresh([x, y, z, w])
    k1 = par(lift(z, nil()), inp(z, a, lift(x, nil())))
    k2 = par(lift(z, nil()), inp(z, b2, lift(x, nil())))
    r = rho_barbed_bisim(k1, k2, weak=True)
    assert r.verdict is BisimVerdict.BISIMILAR
    assert r.states == (1, 1)


# ---------------------------------------------------------------------------
# Name-passing-calculus bisimulation
# ---------------------------------------------------------------------------


def test_pi_silent_step_collapses_only_weakly():
    left = pnew("z", ppar(pout("z", "a"), pin("z", "y", pout("x", "b"))))
    right = pout("x", "b")
    assert (
        pi_barbed_bisim(left, right, weak=True, restrict=["x"]).verdict
        is BisimVerdict.BISIMILAR
    )
    assert (
        pi_barbed_bisim(left, right, weak=False, restrict=["x"]).verdict
        is BisimVerdict.NOT_BISIMILAR
    )


def test_pi_replication_keeps_input_barb_after_communication():
    r = pi_barbed_bisim(
        ppar(prepl(pin("x", "y", pnil())), pout("x", "a")),
        ppar(pin("x", "y", pnil()), pout("x", "a")),
        weak=True,
    )
    assert r.verdict is BisimVerdict.NOT_BISIMILAR


# ---------------------------------------------------------------------------
# Graph form against the roots form
# ---------------------------------------------------------------------------

_Q1 = lift(x, nil())
_Q2 = par(inp(y, a, lift(x, nil())), lift(y, nil()))
_N1 = par(inp(z, a, lift(x, nil())), lift(z, nil()), inp(z, a, lift(y, nil())))
_N2 = par(inp(z, a, lift(x, nil())), lift(z, nil()))
_REARM = inp(x, a, par(drop(a), lift(x, drop(a))))
_GROW = inp(x, a, par(drop(a), lift(x, drop(a)), lift(w, nil())))
_PI_LEFT = pnew("z", ppar(pout("z", "a"), pin("z", "y", pout("x", "b"))))
_PI_RIGHT = pout("x", "b")
_PI_REPL = ppar(prepl(pin("x", "y", pnil())), pout("x", "a"))
_PI_ONCE = ppar(pin("x", "y", pnil()), pout("x", "a"))

# (p, q, weak, restrict, bounds): the cases of the tests above whose canonical
# roots differ, plus cut-off graphs for the truncated branches
_RHO_CASES = [
    (_Q1, _Q2, weak, restrict, {})
    for weak in (False, True)
    for restrict in (None, [x])
] + [
    (_N1, _N2, True, [x, y], {}),
    (par(_GROW, lift(x, _GROW)), _Q1, False, None, {"max_states": 20}),
    (par(_GROW, lift(x, _GROW)), _Q1, True, None, {"max_states": 20}),
    (par(_GROW, lift(x, _GROW)), par(_REARM, lift(x, _REARM)), True, [x], {"max_depth": 3}),
]
_PI_CASES = [
    (_PI_LEFT, _PI_RIGHT, True, ["x"], {}),
    (_PI_LEFT, _PI_RIGHT, False, ["x"], {}),
    (_PI_REPL, _PI_ONCE, True, None, {}),
    (_PI_REPL, _PI_ONCE, False, None, {}),
]


def _graph_form(canon, step_fn, barb_fn, p, q, weak, restrict, bounds):
    g1 = explore(canon(p), step_fn, **bounds)
    g2 = explore(canon(q), step_fn, **bounds)
    return barbed_bisim(g1, g2, lambda s: barb_fn(s, restrict), weak=weak)


@pytest.mark.parametrize("case", range(len(_RHO_CASES) + len(_PI_CASES)))
def test_graph_form_bisim_matches_roots_form(case):
    if case < len(_RHO_CASES):
        p, q, weak, restrict, bounds = _RHO_CASES[case]
        roots = rho_barbed_bisim(p, q, weak=weak, restrict=restrict, **bounds)
        graphs = _graph_form(canon_proc, step, barbs, p, q, weak, restrict, bounds)
    else:
        p, q, weak, restrict, bounds = _PI_CASES[case - len(_RHO_CASES)]
        roots = pi_barbed_bisim(p, q, weak=weak, restrict=restrict, **bounds)
        graphs = _graph_form(pi_canon, pi_step, pi_barbs, p, q, weak, restrict, bounds)
    assert graphs.verdict is roots.verdict
    assert graphs.states == roots.states
    assert graphs.blocks == roots.blocks
    assert graphs.truncated == roots.truncated
    assert graphs.witness == roots.witness


def test_bisim_blocks_match_states_across_graphs():
    g1 = explore(canon_proc(_Q1), step)
    g2 = explore(canon_proc(_Q2), step)
    weak_blocks = bisim_blocks([g1, g2], lambda s: barbs(s, [x]))
    assert [len(b) for b in weak_blocks] == [1, 2]
    assert weak_blocks[0][0] == weak_blocks[1][0]  # q2 weakly matches q1
    strong_blocks = bisim_blocks([g1, g2], lambda s: barbs(s, [x]), weak=False)
    assert strong_blocks[0][0] != strong_blocks[1][0]
    assert strong_blocks[0][0] == strong_blocks[1][1]  # q2's reduct is q1


# ---------------------------------------------------------------------------
# Weak barb sets
# ---------------------------------------------------------------------------


def test_weak_barb_sets_respect_restriction():
    q2 = par(inp(y, a, lift(x, nil())), lift(y, nil()))
    s1, truncated1 = rho_weak_barb_set(q2, [x])
    assert truncated1 is None
    assert s1 == frozenset({("out", x)})

    left = pnew("z", ppar(pout("z", "a"), pin("z", "y", pout("x", "b"))))
    s2, truncated2 = pi_weak_barb_set(left, ["x", "z"])
    assert truncated2 is None
    assert s2 == frozenset({("out", "x")})  # the bound z never barbs


@pytest.mark.parametrize(
    "bounds, reason",
    [({"max_states": 1}, "max_states"), ({"max_depth": 0}, "max_depth"), ({}, None)],
)
def test_weak_barb_sets_name_the_budget_that_cut_them(bounds, reason):
    # one rho communication, and a pi term that never stops unfolding
    p = par(lift(NULL_NAME, nil()), inp(NULL_NAME, a, drop(a)))
    assert rho_weak_barb_set(p, **bounds)[1] == reason
    t = prepl(ppar(pout("a", "b"), pin("a", "y", pout("c", "y"))))
    budget = {"max_states": 50, **bounds}
    assert pi_weak_barb_set(t, **budget)[1] == (reason or "max_states")
    # a finite pi graph completes
    assert pi_weak_barb_set(ppar(pout("a", "b"), pin("a", "y", pnil())), **bounds)[1] == reason


def test_graph_barbs_is_the_union_over_states():
    g = explore(pi_canon(ppar(pout("a", "b"), pin("a", "y", pout("c", "y")))), pi_step)
    per_state = frozenset()
    for s in g.states:
        per_state |= pi_barbs(s)
    assert len(g.states) > 1
    assert equiv.graph_barbs(g, pi_barbs) == per_state
    assert pi_weak_barb_set(g.states[0]) == (per_state, None)


# ---------------------------------------------------------------------------
# Divergence verdicts
# ---------------------------------------------------------------------------


def test_divergence_cycle_on_self_restoring_forwarder():
    # REARM consumes a message and re-emits it along with a live copy of the
    # payload; fed its own quotation it reproduces the exact starting state.
    rearm = inp(x, a, par(drop(a), lift(x, drop(a))))
    omega = par(rearm, lift(x, rearm))
    rep = divergence_probe(omega)
    assert rep.verdict is DivergenceVerdict.DIVERGES
    assert rep.rule == "cycle"


def test_divergence_growth_on_accumulating_forwarder():
    # Like the self-restoring forwarder but each round also deposits w!(0),
    # so no state ever recurs; the truncated run shows replayable growth.
    g = inp(x, a, par(drop(a), lift(x, drop(a)), lift(w, nil())))
    rep = divergence_probe(par(g, lift(x, g)), max_states=60, max_depth=40)
    assert rep.verdict is DivergenceVerdict.DIVERGES
    assert rep.rule == "growth"


def test_divergence_terminates_on_finite_runs():
    t1 = par(lift(z, nil()), inp(z, a, lift(x, nil())))
    rep = divergence_probe(t1)
    assert rep.verdict is DivergenceVerdict.TERMINATES
    rep0 = divergence_probe(nil())
    assert rep0.verdict is DivergenceVerdict.TERMINATES
    assert rep0.states == 1


def test_divergence_reports_never_share_a_default_dict():
    a, b = DivergenceReport(DivergenceVerdict.UNKNOWN), DivergenceReport(DivergenceVerdict.UNKNOWN)
    assert a.evidence == {} and a.evidence is not b.evidence
    assert (a.rule, a.states, a.truncated, a.truncated_reason) == (None, 0, False, None)
    evidence = {"cycle_states": [0]}
    assert DivergenceReport(DivergenceVerdict.DIVERGES, "cycle", evidence).evidence is evidence
    with pytest.raises(AttributeError):
        a.states = 1


def test_divergence_replay_on_legacy_replication_machine():
    rep = divergence_probe(encode_mr(prepl(pnil())).state, max_states=300, max_depth=100)
    assert rep.verdict is DivergenceVerdict.DIVERGES
    assert rep.rule == "replay"


def test_corrected_encoding_of_terminating_term_terminates():
    enc = encode_ns(pnew("z", pout("u", "z")))
    rep = divergence_probe(enc.state, max_states=300, max_depth=100)
    assert rep.verdict is DivergenceVerdict.TERMINATES


@pytest.mark.parametrize(
    "term, bounds",
    [
        (par(_REARM, lift(x, _REARM)), {}),
        (par(_GROW, lift(x, _GROW)), {"max_states": 60, "max_depth": 40}),
        (par(lift(z, nil()), inp(z, a, lift(x, nil()))), {}),
        (nil(), {}),
        (encode_mr(prepl(pnil())).state, {"max_states": 300, "max_depth": 100}),
        (encode_ns(pnew("z", pout("u", "z"))).state, {"max_states": 300, "max_depth": 100}),
    ],
)
def test_graph_divergence_matches_divergence_probe(term, bounds):
    probe = divergence_probe(term, **bounds)
    limits = {"max_states": 400, "max_depth": 120, **bounds}
    graph = rho_graph_divergence(explore(canon_proc(term), step, **limits))
    assert graph == probe


def test_pi_divergence_both_verdicts():
    looping = ppar(prepl(pin("x", "y", pout("x", "a"))), pout("x", "a"))
    rep1 = pi_divergence(looping)
    assert rep1.verdict is DivergenceVerdict.DIVERGES
    assert rep1.rule == "cycle"

    finite = pnew("z", ppar(pout("z", "a"), pin("z", "y", pnil())))
    assert pi_divergence(finite).verdict is DivergenceVerdict.TERMINATES


# ---------------------------------------------------------------------------
# Replay matcher units
# ---------------------------------------------------------------------------


def test_replay_matching_requires_names_to_deepen():
    lx = lift(x, nil())
    ly = lift(lincr(x), nil())
    assert iso(lx, ly)
    assert not iso(ly, lx)


def test_replay_matching_rejects_swaps():
    sw1 = par(lift(x, nil()), inp(lincr(x), a, nil()))
    sw2 = par(lift(lincr(x), nil()), inp(x, a, nil()))
    assert not iso(sw1, sw2)


def test_replay_matching_is_injective_on_names():
    i1 = par(lift(x, nil()), lift(y, nil()))
    i2 = par(lift(z, nil()), lift(z, nil()))
    assert not iso(i1, i2)


def test_replay_matching_peels_output_wrapping():
    m = lincr(lincr(x))
    assert iso(lift(x, drop(m)), lift(x, lift(m, drop(m))))
    assert not iso(lift(x, lift(m, drop(m))), lift(x, drop(m)))
    # wrapping guards are unconstrained names
    assert iso(lift(x, drop(m)), lift(x, lift(y, lift(z, drop(m)))))


def test_replay_matching_keeps_binder_structure_rigid():
    assert not iso(inp(x, a, drop(a)), inp(x, a, nil()))
    assert iso(inp(x, a, drop(a)), inp(lincr(x), a, drop(a)))


# ---------------------------------------------------------------------------
# Shared explorations and per-state barbs
# ---------------------------------------------------------------------------


def _handshake(k: int, relayed=None):
    """P_k, the parallel composition of a_i!b | a_i?(x).c_i!x for i < k, or
    with relayed = i, Q_k: component i's continuation goes through a private
    relay new z.(z!x | z?(y).c_i!y)."""
    comps = []
    for i in range(k):
        cont = pout(f"c{i}", "x")
        if i == relayed:
            cont = pnew("z", ppar(pout("z", "x"), pin("z", "y", pout(f"c{i}", "y"))))
        comps += [pout(f"a{i}", "b"), pin(f"a{i}", "x", cont)]
    return ppar(*comps)


_P3, _Q3 = _handshake(3), _handshake(3, relayed=0)


def _count_pi_steps(monkeypatch) -> list:
    calls = [0]

    def counting_step(s):
        calls[0] += 1
        return pi_step(s)

    monkeypatch.setattr(equiv, "pi_step", counting_step)
    return calls


def test_weak_check_after_strong_explores_each_root_once(monkeypatch):
    calls = _count_pi_steps(monkeypatch)
    rhopi.clear_caches()
    strong = pi_barbed_bisim(_P3, _Q3, weak=False)
    stepped = calls[0]
    weak = pi_barbed_bisim(_P3, _Q3, weak=True)
    assert strong.verdict is BisimVerdict.NOT_BISIMILAR
    assert weak.verdict is BisimVerdict.BISIMILAR
    # every state of both graphs is stepped once, all by the strong check
    assert calls[0] == stepped == sum(strong.states) == sum(weak.states)
    assert rhopi.cache_stats()["equiv.graphs"] == 2


def test_shared_graphs_give_the_reports_of_checks_run_alone():
    rhopi.clear_caches()
    shared = [pi_barbed_bisim(_P3, _Q3, weak=weak) for weak in (False, True)]
    alone = []
    for weak in (False, True):
        rhopi.clear_caches()
        alone.append(pi_barbed_bisim(_P3, _Q3, weak=weak))
    for s, a in zip(shared, alone):
        assert (s.verdict, s.witness, s.states, s.blocks) == (
            a.verdict,
            a.witness,
            a.states,
            a.blocks,
        )


def test_only_the_last_checks_graphs_are_kept(monkeypatch):
    calls = _count_pi_steps(monkeypatch)
    rhopi.clear_caches()
    pi_barbed_bisim(_P3, _Q3)
    first = calls[0]
    pi_barbed_bisim(_P3, _Q3)
    assert calls[0] == first
    # another budget explores both roots again, and its graphs replace them
    pi_barbed_bisim(_P3, _Q3, max_depth=100)
    assert calls[0] == 2 * first
    assert rhopi.cache_stats()["equiv.graphs"] == 2
    # another pair reuses what it shares with the last check
    p2 = _handshake(2)
    report = pi_barbed_bisim(p2, _P3, max_depth=100)
    assert calls[0] == 2 * first + report.states[0]
    assert rhopi.cache_stats()["equiv.graphs"] == 2


def test_state_barbs_are_the_restricted_union_over_children():
    t = ppar(
        pout("a", "b"),
        pin("c", "x", pout("x", "d")),
        pnew("z", ppar(pout("z", "a"), pin("z", "y", pnil()))),
        prepl(pin("e", "x", pnil())),
    )
    restrict = ["a", "c", "z"]
    children = pi_canon(t).children
    for _ in range(2):
        union = frozenset().union(*(pi_barbs(c) for c in children))
        assert pi_barbs(t) == union == {("out", "a"), ("in", "c"), ("in", "e")}
        assert pi_barbs(t, restrict) == {b for b in union if b[1] in restrict}
        assert rhopi.cache_stats()["piterm.state_barbs"] > 0
        rhopi.clear_caches()


# ---------------------------------------------------------------------------
# Refinement against the closure-set oracle, and what builds closure sets
# ---------------------------------------------------------------------------


@st.composite
def _graph(draw):
    """A disjoint union of 1-3 random graphs with random barbs: self-loops,
    cycles, sinks and states no root reaches all occur."""
    edges, barbs = [], []
    for _ in range(draw(st.integers(1, 3))):
        n, off = draw(st.integers(1, 7)), len(edges)
        for _ in range(n):
            row = draw(st.lists(st.integers(0, n - 1), max_size=3))
            edges.append([off + j for j in row])
            barbs.append(draw(st.frozensets(st.sampled_from("abc"), max_size=2)))
    return edges, barbs


@settings(max_examples=200, deadline=None)
@given(_graph())
def test_refinement_matches_the_closure_set_oracle(graph):
    edges, barbs = graph
    n = len(edges)
    states = list(range(n))
    for weak in (False, True):
        blocks = equiv._refine(states, edges, barbs.__getitem__, weak)[0]
        assert blocks == oracles.reference_blocks(n, edges, barbs, weak)
    reach = oracles.reference_reach(n, edges)
    union = [frozenset().union(*(barbs[j] for j in reach[i])) for i in range(n)]
    assert weak_observations(states, edges, barbs.__getitem__) == union


def _record_closure_sets(monkeypatch) -> list:
    calls = []

    def recording(*args):
        calls.append(args)
        return _reach_sets(*args)

    monkeypatch.setattr(equiv, "_reach_sets", recording)
    return calls


def test_weak_checks_build_no_closure_sets(monkeypatch):
    calls = _record_closure_sets(monkeypatch)
    rhopi.clear_caches()
    assert pi_barbed_bisim(_P3, _Q3, weak=True).verdict is BisimVerdict.BISIMILAR
    graphs = [explore(pi_canon(t), pi_step) for t in (_P3, _Q3)]
    blocks = bisim_blocks(graphs, pi_barbs)
    assert blocks[0][0] == blocks[1][0]
    real_refine, refined = equiv._refine, []

    def refine(states, edges, barb_fn, weak):
        refined.append(weak)
        return real_refine(states, edges, barb_fn, weak)

    monkeypatch.setattr(equiv, "_refine", refine)
    check_criteria(seed=1, count=10, size=10)
    assert calls == [] and refined.count(True) > 0  # prop3 refined weakly


_CHOICE = "a!b | a?(x).c!x | a?(x).d!x"
_RELAYED_CHOICE = "a!b | a?(x).new e.(e!x | e?(y).c!y | e?(y).d!y)"


@pytest.mark.parametrize(
    "p, q, to_state",
    [
        (_CHOICE, _RELAYED_CHOICE, "c!b | (a?(u0).d!u0)"),
        (_RELAYED_CHOICE, _CHOICE, "new u0.(u0!b | (u0?(u1).c!u1) | (u0?(u1).d!u1))"),
    ],
)
def test_a_weak_move_witness_builds_closure_sets_once(monkeypatch, p, q, to_state):
    # same weak barbs at the roots, but only the left side commits to c or d
    # in one step; the witness names a proper reduct, not the left root,
    # which every weak closure holds
    calls = _record_closure_sets(monkeypatch)
    rhopi.clear_caches()
    r = pi_barbed_bisim(parse_pi(p), parse_pi(q), weak=True)
    assert (r.verdict, r.states[0] + r.states[1], r.blocks) == (BisimVerdict.NOT_BISIMILAR, 7, 7)
    assert {**r.witness, "to_state": show_pi(r.witness["to_state"])} == {
        "reason": "move",
        "side": "left",
        "to_state": to_state,
    }
    assert len(calls) == 1


def _handshake_family():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.handshake_family


def _shown(report: BisimReport) -> list:
    w = report.witness and dict(report.witness)
    if w and "to_state" in w:
        w["to_state"] = show_pi(w["to_state"])
    return [report.verdict.value, report.blocks, w]


def test_pi_kernel_states_leave_their_key_unset_until_it_is_read(monkeypatch):
    slot = PiTerm.__dict__["key"]  # hasattr would build a missing key

    def key_is_set(node) -> bool:
        try:
            slot.__get__(node)
        except AttributeError:
            return False
        return True

    built = {}
    make = piterm._canon_sorted_ppar

    def recording(kids):
        state = make(kids)
        built[id(state)] = state
        return state

    monkeypatch.setattr(piterm, "_canon_sorted_ppar", recording)
    rhopi.clear_caches()  # a graph kept from an earlier check would not be stepped
    p, q = map(parse_pi, _handshake_family()(3, 1))
    pi_barbed_bisim(p, q, weak=False)
    pars = [n for n in built.values() if type(n) is PPar]
    unkeyed = [n for n in pars if not key_is_set(n)]
    assert len(unkeyed) > len(pars) / 2
    for n in unkeyed:
        assert n.key == (5, *(c.key for c in n.children))
        assert key_is_set(n)


def test_handshake_reports_are_pinned():
    """Verdict, block count and witness of P_k / Q_k (k = 1-7, three seeds,
    both argument orders, strong and weak), as the refinement over
    per-state closure sets computed them."""
    pinned = json.loads((Path(__file__).parent / "data" / "handshake_bisim.json").read_text())
    family = _handshake_family()
    found = {}
    for k in range(1, 8):
        for seed in (1, 2, 3):
            p, q = map(parse_pi, family(k, seed))
            for order, pair in (("pq", (p, q)), ("qp", (q, p))):
                for weak in (False, True):
                    report = pi_barbed_bisim(*pair, weak=weak)
                    found[f"{k} {seed} {order} {'weak' if weak else 'strong'}"] = _shown(report)
    assert found == pinned
