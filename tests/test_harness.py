"""Experiment-harness tests: corpus generation, the three packaged
reproductions, bound handling, report serialization, and determinism of the
behavioural-criteria suite."""

import gc
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rhopi
from rhopi import equiv, harness, lts
from rhopi.equiv import divergence_probe, pi_barbed_bisim, pi_divergence, rho_barbed_bisim
from rhopi.harness import (
    FAIL,
    PASS,
    UNKNOWN,
    BoundsTooSmall,
    Check,
    Corpus,
    Report,
    check_criteria,
    make_corpus,
    random_pi_term,
    repro_cex1,
    repro_cex2,
    repro_separation_witness,
)
from rhopi.encode import derivable, encode_mr
from rhopi.lts import Verdict
from rhopi.piterm import PIn, PNew, PPar, PRepl, pi_barbs, pi_canon, pin, pnew, pnil, pout, ppar, prepl, show_pi
from rhopi.rhoreduce import step as rho_step
from rhopi.rhoterm import NULL_NAME, gen_fresh, inp, lift, lincr, ncomp, nil, par


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_corpus_is_deterministic_in_its_seed():
    a = make_corpus(seed=3, count=20, size_limit=8)
    b = make_corpus(seed=3, count=20, size_limit=8)
    assert [show_pi(t) for t in a.terms] == [show_pi(t) for t in b.terms]
    c = make_corpus(seed=4, count=20, size_limit=8)
    assert [show_pi(t) for t in a.terms] != [show_pi(t) for t in c.terms]


def test_random_terms_keep_replication_input_guarded():
    rng = random.Random(11)

    def walk(t):
        if isinstance(t, PRepl):
            assert isinstance(t.body, PIn)
            walk(t.body)
        elif isinstance(t, (PIn, PNew)):
            walk(t.body)
        elif isinstance(t, PPar):
            for c in t.children:
                walk(c)

    for _ in range(300):
        walk(random_pi_term(rng, size=rng.randrange(1, 14)))


def test_random_terms_respect_the_size_budget():
    rng = random.Random(12)

    def size(t):
        if isinstance(t, (PIn, PNew, PRepl)):
            return 1 + size(t.body)
        if isinstance(t, PPar):
            return 1 + sum(size(c) for c in t.children)
        return 1

    for _ in range(300):
        budget = rng.randrange(1, 14)
        assert size(random_pi_term(rng, size=budget)) <= budget


# ---------------------------------------------------------------------------
# Packaged reproductions
# ---------------------------------------------------------------------------


def test_separation_reproduction_has_three_named_passes():
    rep = repro_separation_witness()
    assert rep.passed
    labels = [c.label for c in rep.checks]
    assert len(labels) == 3
    assert len(set(labels)) == 3


def test_replication_restriction_reproduction_passes():
    rep = repro_cex1()
    assert rep.passed
    assert len(set(c.label for c in rep.checks)) == len(rep.checks)


def test_identified_sources_reproduction_passes():
    rep = repro_cex2()
    assert rep.passed
    assert len(set(c.label for c in rep.checks)) == len(rep.checks)


def test_cex2_flag_searches_keep_their_results(monkeypatch):
    # the flag searches skip commuting redexes; each must still give what a
    # search by the full step function gives, at the recorded sizes
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs, lts.weak_barb_search(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(harness, "weak_barb_search", recording)
    repro_cex2()
    (fresh, constant) = (got for _, _, got in calls)
    assert fresh.verdict is Verdict.UNKNOWN
    assert (fresh.explored, fresh.truncated_reason) == (4393, "max_depth")
    assert constant.verdict is Verdict.YES
    assert (constant.depth, constant.explored) == (13, 111)
    for (root, _, flagged), bounds, got in calls:
        assert got == lts.weak_barb_search(root, rho_step, flagged, **bounds)


def test_cex2_cut_off_flag_search_is_unknown_not_fail():
    # the constant-object translation flags at depth 13; a search cut off
    # before it has not shown that it never flags
    rep = repro_cex2(search_max_depth=12)
    last = rep.checks[-1]
    assert last.label.startswith("encoded side: the translated context flags only")
    assert last.verdict == UNKNOWN
    assert last.evidence["constant"] == "unknown"
    assert last.evidence["constant_budget"] == "max_depth"
    assert [c.verdict for c in rep.checks[:-1]] == [PASS] * (len(rep.checks) - 1)
    assert "constant_budget" not in repro_cex2().checks[-1].evidence


def _verdicts_and_evidence(rep) -> dict:
    d = rep.to_dict()
    d.pop("elapsed_seconds")
    return d


def test_clearing_derived_caches_leaves_reports_unchanged():
    def criteria():
        return _verdicts_and_evidence(check_criteria(seed=2, count=4, size=8))

    def relayed():
        # a handshake against the same one relayed: weakly bisimilar, with
        # distinct canonical roots, so both graphs are explored
        relay = pnew("z", ppar(pout("z", "x"), pin("z", "y", pout("c", "y"))))
        p, q = (ppar(pout("a", "b"), pin("a", "x", k)) for k in (pout("c", "x"), relay))
        return rhopi.pi_barbed_bisim(p, q)

    warm = [
        _verdicts_and_evidence(repro_cex1()),
        _verdicts_and_evidence(repro_cex2()),
        criteria(),
        relayed(),
    ]
    stats = rhopi.cache_stats()
    assert stats["rhoterm.canon_proc"] > 0
    assert stats["rhoreduce.continuation"] > 0
    assert stats["rhoreduce.rank"] == stats["rhoreduce.rank_order"] > 0
    assert stats["piterm.pi_canon"] > 0
    assert stats["piterm.groups"] > 0
    assert stats["piterm.redex"] > 0
    assert stats["piterm.barbs"] > 0
    assert stats["encode.params"] > 0
    assert stats["encode.name_server"] > 0
    assert stats["equiv.graphs"] > 0
    assert stats["piterm.state_barbs"] > 0

    rhopi.clear_caches()
    assert set(rhopi.cache_stats().values()) == {0}
    assert rhopi.cache_stats()["piterm.redex"] == 0
    assert rhopi.cache_stats()["piterm.barbs"] == 0
    assert rhopi.cache_stats()["rhoreduce.rank"] == 0
    assert rhopi.cache_stats()["equiv.graphs"] == 0
    assert rhopi.cache_stats()["piterm.state_barbs"] == 0
    cold = [_verdicts_and_evidence(repro_cex1())]
    rhopi.clear_caches()
    cold.append(_verdicts_and_evidence(repro_cex2()))
    rhopi.clear_caches()
    cold.append(criteria())
    rhopi.clear_caches()
    cold.append(relayed())
    assert cold == warm


def _fresh_term():
    return pnew("z", ppar(pout("z", "gc_a"), pin("gc_a", "y", pnew("w", pout("y", "w"))), pout("gc_b", "z")))


def _handshake(relayed: bool):
    """Three pairs a_i!b | a_i?(x).c_i!x; relayed routes the first pair's
    continuation through a private relay, which only a weak check forgives."""
    pairs = []
    for i in range(3):
        cont = pout(f"c{i}", "x")
        if relayed and i == 0:
            cont = pnew("z", ppar(pout("z", "x"), pin("z", "y", pout(f"c{i}", "y"))))
        pairs.append(ppar(pout(f"a{i}", "b"), pin(f"a{i}", "x", cont)))
    return ppar(*pairs)


_X = NULL_NAME
_Y = gen_fresh([_X])
_A = gen_fresh([_X, _Y])

# every entry point that runs with the collector paused, on small inputs
PAUSED_CALLS = {
    "check_criteria": lambda: check_criteria(seed=1, count=5, size=10),
    "repro_separation_witness": repro_separation_witness,
    "repro_cex1": repro_cex1,
    "repro_cex2": repro_cex2,
    "repro_cex2_cut": lambda: repro_cex2(search_max_depth=12),
    "pi_barbed_bisim_strong": lambda: pi_barbed_bisim(_handshake(False), _handshake(True), weak=False),
    "pi_barbed_bisim_weak": lambda: pi_barbed_bisim(_handshake(False), _handshake(True), weak=True),
    "rho_barbed_bisim": lambda: rho_barbed_bisim(
        lift(_X, nil()), par(inp(_Y, _A, lift(_X, nil())), lift(_Y, nil()))
    ),
    "divergence_probe": lambda: divergence_probe(
        encode_mr(prepl(pnil())).state, max_states=60, max_depth=40
    ),
    "pi_divergence": lambda: pi_divergence(ppar(prepl(pin("a", "x", pout("a", "x"))), pout("a", "b"))),
}


@pytest.mark.parametrize(
    "call",
    [
        lambda: derivable([NULL_NAME, gen_fresh([NULL_NAME])], ncomp(lincr(NULL_NAME), gen_fresh([NULL_NAME]))),
        lambda: pi_barbs(_fresh_term()),
        lambda: pi_canon(_fresh_term()),
        *PAUSED_CALLS.values(),
    ],
    ids=["derivable", "pi_barbs", "pi_canon", *PAUSED_CALLS],
)
def test_criteria_helpers_leave_no_cyclic_garbage(call):
    # what a call leaves behind must be freed by reference counting alone:
    # a cycle waits for the collector, once per criteria term; an entry
    # point that pauses the collector must make none, or it would pile up
    rhopi.clear_caches()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _from_rhopi(obj) -> bool:
    """Is obj a function defined in rhopi, or a cell holding one?"""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("rhopi")


def test_corpus_printing_criteria_and_cex2_leave_no_cyclic_functions():
    # a nested recursive function is a cycle through its own cell, made on
    # every call and freed only by the collector
    rhopi.clear_caches()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        corpus = make_corpus(seed=1, count=50, size_limit=20)
        for term in corpus.terms:
            show_pi(term)
        check_criteria(corpus)
        repro_cex2()
        gc.collect()
        left = [o for o in gc.garbage if _from_rhopi(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_verdict_entry_points_pause_the_collector_and_restore_it(monkeypatch):
    seen = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(harness, "explore", recording(lts.explore))
    monkeypatch.setattr(equiv, "explore", recording(lts.explore))
    # the separation witness steps its term without exploring it, and
    # cex1's source searches run before its first explore
    monkeypatch.setattr(harness, "rho_step", recording(rho_step))
    monkeypatch.setattr(harness, "weak_barb_search", recording(lts.weak_barb_search))
    assert gc.isenabled()
    for name, call in PAUSED_CALLS.items():
        for caller_paused in (False, True):
            rhopi.clear_caches()  # the bisim checks must explore again
            seen.clear()
            if caller_paused:
                gc.disable()
            try:
                call()
                assert seen and not any(seen), name
                assert gc.isenabled() is not caller_paused, name
            finally:
                gc.enable()

    seen.clear()
    with pytest.raises(BoundsTooSmall):
        repro_cex1(pi_max_states=1)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_importing_rhopi_leaves_the_collector_alone():
    code = (
        "import gc\n"
        "before = (gc.isenabled(), gc.get_threshold())\n"
        "import rhopi, rhopi.cli\n"
        "print(before == (gc.isenabled(), gc.get_threshold()))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == ["True"]


def test_too_small_bounds_raise_instead_of_failing_quietly():
    with pytest.raises(BoundsTooSmall):
        repro_cex1(pi_max_states=2, pi_max_depth=2)
    with pytest.raises(BoundsTooSmall):
        repro_cex2(max_states=4, max_depth=2)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_reports_serialize_to_json():
    rep = repro_separation_witness()
    d = rep.to_dict()
    assert d["name"] and d["passed"] is True
    assert all({"label", "verdict"} <= set(c) for c in d["checks"])
    json.dumps(d)  # must be JSON-clean


RECORDED_REPORTS = Path(__file__).parent / "data" / "reports.json"


def _recorded_reports() -> dict:
    reports = {
        "separation": repro_separation_witness(),
        "cex1": repro_cex1(),
        "cex2": repro_cex2(),
    }
    for seed in (1, 2):
        for size in (10, 20):
            reports[f"criteria_seed{seed}_size{size}"] = check_criteria(seed=seed, size=size)
    return json.loads(json.dumps({k: _verdicts_and_evidence(r) for k, r in reports.items()}))


def test_reports_match_the_recorded_reports():
    # every verdict, tally, sample and evidence of the packaged reports, as
    # recorded in tests/data/reports.json
    recorded = json.loads(RECORDED_REPORTS.read_text())
    current = _recorded_reports()
    assert sorted(current) == sorted(recorded)
    for name, report in current.items():
        assert report == recorded[name], name


def test_reports_do_not_depend_on_hash_values():
    # terms hash by identity, so a set of terms iterates in an order that
    # varies from process to process; no such order may reach a report
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONHASHSEED="4242")
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = "import json, test_harness; print(json.dumps(test_harness._recorded_reports()))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    assert json.loads(out) == json.loads(RECORDED_REPORTS.read_text())


def test_report_passes_only_when_every_check_passes():
    good = Report("r", [Check("a", PASS), Check("b", PASS)])
    assert good.passed
    mixed = Report("r", [Check("a", PASS), Check("b", UNKNOWN)])
    assert not mixed.passed
    failed = Report("r", [Check("a", FAIL)])
    assert not failed.passed


def test_reports_never_share_a_default_dict():
    a, b = Report("r", [Check("a", PASS)]), Report("r", [Check("a", PASS)])
    assert a.bounds_used == {} and a.bounds_used is not b.bounds_used
    assert a.to_dict()["bounds_used"] == {}
    bounds = {"max_states": 10}
    assert Report("r", [], bounds).bounds_used is bounds
    assert a == b and repr(a).startswith("Report(name='r', checks=[Check(")
    with pytest.raises(AttributeError):
        a.elapsed = 1.0


def test_report_header_names_fail_only_when_a_check_failed():
    heads = {
        "[PASS] r": [Check("a", PASS), Check("b", PASS)],
        "[UNKNOWN] r": [Check("a", PASS), Check("b", UNKNOWN)],
        "[FAIL] r": [Check("a", UNKNOWN), Check("b", FAIL), Check("c", PASS)],
    }
    for head, checks in heads.items():
        assert Report("r", checks).summary_lines()[0] == head
    # an empty corpus decides nothing: every check Unknown, none Fail
    rep = check_criteria(corpus=Corpus(seed=1, size_limit=10, terms=[]))
    assert {c.verdict for c in rep.checks} == {UNKNOWN}
    assert rep.summary_lines()[0] == "[UNKNOWN] criteria"
    assert not rep.passed  # so the CLI still exits 1


# ---------------------------------------------------------------------------
# Criteria suite
# ---------------------------------------------------------------------------


def test_criteria_suite_small_run_is_deterministic():
    a = check_criteria(seed=5, count=12, size=8)
    b = check_criteria(seed=5, count=12, size=8)
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed_seconds", None)
    db.pop("elapsed_seconds", None)
    assert da == db
    json.dumps(da)


def test_criteria_without_a_decided_check_is_unknown():
    # no term at all, and one term the translation refuses (replicated output)
    empty = check_criteria(count=0)
    refused = check_criteria(corpus=Corpus(seed=1, size_limit=5, terms=[prepl(pout("x", "a"))]))
    for rep in (empty, refused):
        assert [c.verdict for c in rep.checks[:5]] == [UNKNOWN] * 5
        assert not rep.passed
    assert empty.summary_lines()[0] == "[UNKNOWN] criteria"
    assert refused.summary_lines()[0] == "[FAIL] criteria"
    assert empty.checks[5].verdict == UNKNOWN
    assert empty.checks[5].evidence["checks_run"] == 0
    assert refused.checks[5].verdict == FAIL


def test_criteria_suite_reports_six_checks():
    rep = check_criteria(seed=5, count=6, size=6)
    assert len(rep.checks) == 6
    assert len(set(c.label for c in rep.checks)) == 6


def test_completeness_finds_a_deep_match():
    # seed 1 at size 20 holds (a!u | a?(p0).p0!c) | new p1.(u!a | ...), whose
    # reduct's translation first matches an encoded state at depth 5, behind
    # shallower states with the same weak barbs
    rep = check_criteria(seed=1, count=50, size=20)
    prop3 = rep.checks[2]
    assert prop3.label.startswith("prop3")
    assert prop3.verdict == PASS
    assert prop3.evidence["tally"][FAIL] == 0


def test_unknown_from_a_cut_off_graph_names_the_budget():
    term = ppar(pout("a", "b"), pin("a", "x", pout("x", "c")))
    for bounds, budget in (({"max_states": 3}, "max_states"), ({"max_depth": 2}, "max_depth")):
        rep = check_criteria(corpus=Corpus(seed=1, size_limit=5, terms=[term]), **bounds)
        for check, keys in (
            (rep.checks[0], ["budget"]),
            (rep.checks[2], ["completeness_budget", "soundness_budget"]),
            (rep.checks[4], ["budget"]),
        ):
            assert check.verdict == UNKNOWN, check.label
            (sample,) = check.evidence["samples"]
            assert [sample["evidence"][k] for k in keys] == [budget] * len(keys), check.label
    # prop4 names the bound of each sub-check, pi_ marking a source leaf's graph
    sending = ppar(pnew("z", pout("a", "z")), pin("a", "x", pout("x", "c")))
    internal = pnew("z", ppar(pout("z", "b"), pin("z", "y", pout("a", "y"))))
    for term, bounds, evidence in (
        (sending, {"max_states": 3}, {"barbs_budget": "max_states", "inclusion_budget": "max_states"}),
        (sending, {"max_depth": 2}, {"barbs_budget": "max_depth", "inclusion_budget": "max_depth"}),
        (internal, {"pi_max_states": 1}, {"inclusion_budget": "pi_max_states"}),
        (internal, {"pi_max_depth": 0}, {"inclusion_budget": "pi_max_depth"}),
    ):
        rep = check_criteria(corpus=Corpus(seed=1, size_limit=5, terms=[term]), **bounds)
        (sample,) = rep.checks[3].evidence["samples"]
        assert (sample["verdict"], sample["evidence"]) == (UNKNOWN, evidence), bounds


CRITERIA_BOUNDS = {"max_states": 1500, "max_depth": 80, "pi_max_states": 600, "pi_max_depth": 60}


def test_prop3_names_the_budget_of_each_sub_check():
    # the source graph is cut at depth 1 (soundness) while the encoded graph
    # is whole and only the reducts' graphs are cut by max_states (completeness)
    term = ppar(pout("w", "u"), pin("w", "p0", ppar(pout("p0", "c"), pin("p0", "p1", pout("u", "c")))))
    b = harness._prepare_term(term, dict(CRITERIA_BOUNDS, pi_max_depth=1))
    assert not b["g_rho"].truncated and b["g_pi"].truncated
    verdict, evidence = harness._prop3_operational_correspondence(
        b, dict(CRITERIA_BOUNDS, max_states=2)
    )
    assert verdict == UNKNOWN
    assert evidence["completeness_budget"] == "max_states"
    assert evidence["soundness_budget"] == "pi_max_depth"


def test_prop3_refines_only_when_a_reduct_is_matched(monkeypatch):
    calls = []
    real = harness.bisim_blocks

    def recording(graphs, barb_fn, weak=True):
        calls.append(len(graphs))
        return real(graphs, barb_fn, weak)

    monkeypatch.setattr(harness, "bisim_blocks", recording)
    stuck = pout("a", "b")
    moving = ppar(pout("a", "b"), pin("a", "x", pout("x", "c")))
    for term, expected in ((stuck, []), (moving, [2])):
        calls.clear()
        b = harness._prepare_term(term, CRITERIA_BOUNDS)
        verdict, _ = harness._prop3_operational_correspondence(b, CRITERIA_BOUNDS)
        assert verdict == PASS
        assert calls == expected


def test_prop1_on_a_cut_off_graph_matches_the_full_check():
    # prop1 explores only the second encoding's root when g_rho is cut off;
    # the strong check over the second graph explored in full agrees
    term = ppar(pout("a", "b"), pin("a", "x", pout("x", "c")))
    for cut in ({"max_states": 3}, {"max_depth": 2}):
        bounds = dict(CRITERIA_BOUNDS, **cut)
        b = harness._prepare_term(term, bounds)
        assert b["g_rho"].truncated
        params2 = harness.make_encoding_params(b["pol"], others=b["params"].all_names())
        enc2 = harness.encode_ns(b["term"], policy=b["pol"], params=params2)
        g2 = harness.explore(
            enc2.state, harness.rho_step, max_states=bounds["max_states"], max_depth=bounds["max_depth"]
        )
        full = harness.barbed_bisim(
            b["g_rho"], g2, lambda s: harness.rho_barbs(s, b["subjects"]), weak=False
        )
        verdict, _ = harness._prop1_parameter_independence(b, bounds)
        assert verdict == {"bisimilar": PASS, "not-bisimilar": FAIL, "unknown": UNKNOWN}[
            full.verdict.value
        ]
