"""Encoder tests: the atom-renaming policy, machine-parameter selection,
the copier and name-server processes, both translations clause by clause,
derivability between static names, and the error paths."""

import pytest

import rhopi
from rhopi.encode import (
    EncodingError,
    EncodingParams,
    RenamingPolicy,
    _choose_params,
    copier,
    default_mr_params,
    derivable,
    encode_mr,
    encode_ns,
    make_encoding_params,
    name_server,
    translate_mr,
    translate_ns,
)
from rhopi.harness import Corpus, check_criteria, make_corpus
from rhopi.piterm import PIn, PNew, POut, PPar, PRepl, pi_canon, pin, pnew, pnil, pout, ppar, prepl
from rhopi.rhoterm import (
    NULL_NAME,
    Input,
    canon_name,
    Lift,
    canon_proc,
    drop,
    gen_fresh,
    inp,
    lift,
    lincr,
    name_eq,
    ncomp,
    nil,
    par,
    rincr,
    struct_eq,
)
from rhopi.rhoreduce import components


# ---------------------------------------------------------------------------
# Renaming policy
# ---------------------------------------------------------------------------


def test_policy_assigns_the_increment_tower_in_first_occurrence_order():
    pol = RenamingPolicy()
    pol.scan(pnew("z", pout("u", "z")))
    assert pol.known_atoms() == ("z", "u")
    assert pol.name_for("z") is NULL_NAME
    assert pol.name_for("u") is lincr(NULL_NAME)
    assert pol.name_for("w") is lincr(lincr(NULL_NAME))  # next request extends


def test_policy_is_stable_and_injective():
    pol = RenamingPolicy()
    a = pol.name_for("a")
    b = pol.name_for("b")
    assert pol.name_for("a") is a
    assert not name_eq(a, b)
    assert pol.image() == frozenset({a, b})


def test_scanning_more_terms_preserves_existing_assignments():
    pol = RenamingPolicy()
    pol.scan(pout("x", "y"))
    x_name = pol.name_for("x")
    pol.scan(ppar(pout("q", "x"), pnil()))
    assert pol.name_for("x") is x_name
    assert pol.known_atoms() == ("x", "y", "q")


# ---------------------------------------------------------------------------
# Derivability
# ---------------------------------------------------------------------------


def test_derivable_peels_increments_and_compositions():
    pol = RenamingPolicy()
    n = pol.name_for("seed")
    v = make_encoding_params(RenamingPolicy()).v
    assert derivable([n], n)
    assert derivable([n], lincr(n))
    assert derivable([n], rincr(lincr(n)))
    assert derivable([n, v], ncomp(n, n))
    assert derivable([n, v], ncomp(lincr(n), v))
    assert not derivable([n], ncomp(n, v))  # needs v too
    assert not derivable([lincr(n)], n)  # peeling only goes downward
    assert not derivable([], n)


# ---------------------------------------------------------------------------
# Machine parameters
# ---------------------------------------------------------------------------


def test_parameters_exist_for_an_empty_policy():
    params = make_encoding_params(RenamingPolicy())
    assert len(params.all_names()) == 5
    assert not derivable([NULL_NAME], params.n)


def test_parameters_are_mutually_underivable_and_clear_of_the_image():
    pol = RenamingPolicy()
    pol.scan(pnew("z", ppar(pout("u", "z"), pin("z", "y", pnil()))))
    params = make_encoding_params(pol)
    names = params.all_names()
    image = list(pol.image())
    for p in names:
        others = [o for o in names if o is not p]
        assert not derivable(others, p)
        assert not derivable(image + [NULL_NAME], p)
        assert all(not name_eq(p, i) for i in image)


def test_parameters_respect_extra_exclusions():
    base = make_encoding_params(RenamingPolicy())
    again = make_encoding_params(RenamingPolicy(), others=base.all_names())
    for p in again.all_names():
        for o in base.all_names():
            assert not name_eq(p, o)
            assert not derivable([o], p)
            assert not derivable([p], o)


def reference_choose_params(image, others):
    """The machine names as specified: each round asks the public gen_fresh
    for a name clear of everything avoided so far."""
    avoid = set(image) | {rincr(NULL_NAME)} | set(others)
    guards = [NULL_NAME, *others]
    chosen = []
    while len(chosen) < 5:
        cand = gen_fresh(avoid)
        avoid.add(cand)
        if not any(derivable([c], cand) or derivable([cand], c) for c in chosen + guards):
            chosen.append(cand)
    return EncodingParams(*chosen)


def test_chosen_names_match_one_gen_fresh_per_round():
    tower = [NULL_NAME]
    while len(tower) < 30:
        tower.append(lincr(tower[-1]))
    for k in range(31):
        image = frozenset(tower[:k])
        first = _choose_params(image, ())
        assert first == reference_choose_params(image, ())
        others = first.all_names()
        assert _choose_params(image, others) == reference_choose_params(image, others)


def test_a_criteria_term_chooses_its_machine_names_once_and_prop1_once():
    # prop2 and prop3 add atoms to the term's policy; prop4 still encodes its
    # leaves with the term's names, so no third choice is made
    term = ppar(pout("a", "b"), pin("a", "x", pout("x", "x")))
    rhopi.clear_caches()
    check_criteria(Corpus(seed=1, size_limit=5, terms=[term]))
    assert rhopi.cache_stats()["encode.params"] == 2


# ---------------------------------------------------------------------------
# Machinery processes
# ---------------------------------------------------------------------------


def test_copier_receives_and_reemits_its_payload():
    x = make_encoding_params(RenamingPolicy()).x
    c = canon_proc(copier(x))
    assert isinstance(c, Input)
    assert c.subject is x
    # body: the dropped payload next to a re-lift of it on the same channel
    assert struct_eq(c.body, par(drop(c.binder), lift(x, drop(c.binder))))


def test_equal_params_share_one_name_server():
    # the parameters key the server memo by value, as a hashable record
    rhopi.clear_caches()
    params = make_encoding_params(RenamingPolicy())
    twin = EncodingParams(*params.all_names())
    assert twin is not params and twin == params and hash(twin) == hash(params)
    assert name_server(twin) is name_server(params)
    assert rhopi.cache_stats()["encode.name_server"] == 1


def test_name_server_has_copier_supply_and_seed():
    params = make_encoding_params(RenamingPolicy())
    comps = components(name_server(params))
    assert len(comps) == 3
    kinds = sorted(type(c).__name__ for c in comps)
    assert kinds == ["Input", "Lift", "Lift"]
    lifts = {c.subject: c for c in comps if isinstance(c, Lift)}
    assert params.x in lifts and params.z in lifts
    assert struct_eq(lifts[params.z].body, drop(params.s))


# ---------------------------------------------------------------------------
# Corrected translation, clause by clause
# ---------------------------------------------------------------------------


def _fresh_setup():
    pol = RenamingPolicy()
    params = make_encoding_params(pol)
    return pol, params.n, params.v


def test_translation_of_nil_and_output_and_input():
    pol, n, v = _fresh_setup()
    assert translate_ns(pnil(), n, v, pol) is nil()
    out = translate_ns(pout("x", "y"), n, v, pol)
    assert struct_eq(out, lift(pol.name_for("x"), drop(pol.name_for("y"))))
    got_in = translate_ns(pin("x", "y", pout("y", "x")), n, v, pol)
    want_in = inp(
        pol.name_for("x"),
        pol.name_for("y"),
        lift(pol.name_for("y"), drop(pol.name_for("x"))),
    )
    assert struct_eq(got_in, want_in)


def test_translation_splits_parallel_on_incremented_parameters():
    pol, n, v = _fresh_setup()
    a, b = pout("x", "y"), pin("u", "w", pnil())
    whole = translate_ns(ppar(a, b), n, v, pol)
    left = translate_ns(a, lincr(n), v, pol)
    right = translate_ns(b, rincr(n), v, pol)
    assert struct_eq(whole, par(left, right))


def test_translation_of_restriction_requests_a_fresh_name():
    pol, n, v = _fresh_setup()
    got = translate_ns(pnew("z", pout("z", "u")), n, v, pol)
    body = translate_ns(pout("z", "u"), ncomp(n, n), v, pol)
    want = par(lift(v, drop(n)), inp(n, pol.name_for("z"), body))
    assert struct_eq(got, want)


def test_translation_of_replication_builds_a_self_rearming_trigger():
    pol, n, v = _fresh_setup()
    source = prepl(pin("x", "y", pout("y", "x")))
    got = translate_ns(source, n, v, pol)
    inner = translate_ns(pout("y", "x"), ncomp(n, n), v, pol)
    trigger = inp(
        pol.name_for("x"), pol.name_for("y"), par(copier(n), inner)
    )
    assert struct_eq(got, par(copier(n), lift(n, trigger)))


def test_translation_rejects_unguarded_replication():
    pol, n, v = _fresh_setup()
    for bad in (
        prepl(pout("x", "y")),
        prepl(ppar(pin("x", "y", pnil()), pnil())),
        prepl(pnew("z", pin("z", "y", pnil()))),
        prepl(prepl(pin("x", "y", pnil()))),
    ):
        with pytest.raises(EncodingError):
            translate_ns(bad, n, v, pol)


def test_translation_requires_named_binders():
    pol, n, v = _fresh_setup()
    with pytest.raises(EncodingError):
        translate_ns(pi_canon(pin("x", "y", pout("y", "y"))), n, v, pol)


def test_translation_records_one_parameter_per_derivation_path():
    enc = encode_ns(ppar(pout("x", "y"), pnew("q", pout("q", "x"))))
    assert set(enc.derivations.keys()) == {(), ("L",), ("R",), ("R", "C")}
    assert enc.derivations[()] is enc.params.n
    assert name_eq(enc.derivations[("L",)], lincr(enc.params.n))
    assert name_eq(enc.derivations[("R",)], rincr(enc.params.n))
    assert name_eq(
        enc.derivations[("R", "C")], ncomp(rincr(enc.params.n), rincr(enc.params.n))
    )


def recursive_scan(policy, term) -> None:
    """RenamingPolicy.scan as a recursion over the term."""
    for n in {POut: ("subject", "obj"), PIn: ("subject", "binder"), PNew: ("binder",)}.get(type(term), ()):
        if isinstance(getattr(term, n), str):
            policy.name_for(getattr(term, n))
    if isinstance(term, (PIn, PNew, PRepl)):
        recursive_scan(policy, term.body)
    for c in getattr(term, "children", ()):
        recursive_scan(policy, c)


def recursive_translate_ns(term, n, v, policy, derivations, path=()):
    """translate_ns as a recursion that splits each parallel into its first
    child (at path + L) and the parallel of the rest (at path + R)."""
    derivations.setdefault(path, canon_name(n))
    if isinstance(term, PPar):
        kids = term.children
        left = recursive_translate_ns(kids[0], lincr(n), v, policy, derivations, path + ("L",))
        right = recursive_translate_ns(ppar(*kids[1:]), rincr(n), v, policy, derivations, path + ("R",))
        return par(left, right)
    if isinstance(term, PIn):
        body = recursive_translate_ns(term.body, n, v, policy, derivations, path)
        return inp(policy.name_for(term.subject), policy.name_for(term.binder), body)
    if isinstance(term, (PNew, PRepl)):
        # the clauses below a binder, split into a prefix and the body's
        # translation at the composed parameter
        inner = term.body if isinstance(term, PRepl) else term
        body = recursive_translate_ns(inner.body, ncomp(n, n), v, policy, derivations, path + ("C",))
        if isinstance(term, PNew):
            return par(lift(v, drop(n)), inp(n, policy.name_for(term.binder), body))
        trigger = inp(policy.name_for(inner.subject), policy.name_for(inner.binder), par(copier(n), body))
        return par(copier(n), lift(n, trigger))
    if isinstance(term, POut):
        return lift(policy.name_for(term.subject), drop(policy.name_for(term.obj)))
    return nil()


def test_translation_equals_the_recursive_form_on_the_criteria_corpus():
    terms = [t for seed in (1, 2) for t in make_corpus(seed=seed, count=50, size_limit=20).terms]
    assert len(terms) == 100 and sum(isinstance(t, PPar) for t in terms) > 30
    for term in terms:
        pol, ref = RenamingPolicy(), RenamingPolicy()
        pol.scan(term)
        recursive_scan(ref, term)
        assert pol.known_atoms() == ref.known_atoms()
        params = make_encoding_params(pol)
        want_paths: dict = {}
        want = recursive_translate_ns(term, params.n, params.v, ref, want_paths)
        got_paths: dict = {}
        assert translate_ns(term, params.n, params.v, pol, got_paths) is want
        assert list(got_paths.items()) == list(want_paths.items())


def recursive_translate_mr(term, n, p, policy):
    """translate_mr as a recursion that splits each parallel into its first
    child (at the left increments of n and p) and the parallel of the rest
    (at the right increments)."""
    name = policy.name_for
    if isinstance(term, PPar):
        kids = term.children
        left = recursive_translate_mr(kids[0], lincr(n), lincr(p), policy)
        right = recursive_translate_mr(ppar(*kids[1:]), rincr(n), rincr(p), policy)
        return par(left, right)
    if isinstance(term, PIn):
        return inp(name(term.subject), name(term.binder), recursive_translate_mr(term.body, n, p, policy))
    if isinstance(term, PNew):
        body = recursive_translate_mr(term.body, lincr(n), lincr(p), policy)
        return par(inp(p, name(term.binder), body), lift(p, drop(n)))
    if isinstance(term, PRepl):
        a = ncomp(n, p)
        round_body = par(
            recursive_translate_mr(term.body, n, p, policy),
            copier(a),
            lift(rincr(n), lift(n, drop(n))),
            lift(rincr(p), lift(p, drop(p))),
        )
        machine = inp(rincr(n), n, inp(rincr(p), p, round_body))
        return par(lift(a, machine), copier(a), lift(rincr(n), drop(lincr(n))), lift(rincr(p), drop(lincr(p))))
    if isinstance(term, POut):
        return lift(name(term.subject), drop(name(term.obj)))
    return nil()


def test_legacy_translation_equals_the_recursive_form_on_the_criteria_corpus():
    terms = [t for seed in (1, 2) for t in make_corpus(seed=seed, count=50, size_limit=20).terms]
    assert sum(isinstance(t, PPar) for t in terms) > 30 and any(isinstance(t, PRepl) for t in terms)
    for term in terms:
        pol = RenamingPolicy()
        pol.scan(term)
        n, p = default_mr_params(term, pol)
        assert translate_mr(term, n, p, pol) is recursive_translate_mr(term, n, p, pol)


def test_shared_policy_keeps_encodings_comparable():
    pol = RenamingPolicy()
    t1, t2 = pout("x", "y"), pout("y", "x")
    pol.scan(t1)
    pol.scan(t2)
    e1 = encode_ns(t1, policy=pol)
    e2 = encode_ns(t2, policy=pol)
    assert e1.policy is e2.policy
    assert pol.name_for("x") is e2.policy.name_for("x")


# ---------------------------------------------------------------------------
# Legacy translation
# ---------------------------------------------------------------------------


def test_legacy_restriction_clause_spends_its_own_parameters():
    pol = RenamingPolicy()
    term = pnew("z", pout("u", "z"))
    pol.scan(term)
    n, p = default_mr_params(term, pol)
    got = translate_mr(term, n, p, pol)
    want = par(
        inp(p, pol.name_for("z"), lift(pol.name_for("u"), drop(pol.name_for("z")))),
        lift(p, drop(n)),
    )
    assert struct_eq(got, want)


def test_legacy_parallel_split_increments_both_parameters():
    pol = RenamingPolicy()
    a, b = pout("x", "y"), pout("u", "w")
    term = ppar(a, b)
    pol.scan(term)
    n, p = default_mr_params(term, pol)
    whole = translate_mr(term, n, p, pol)
    want = par(
        translate_mr(a, lincr(n), lincr(p), pol),
        translate_mr(b, rincr(n), rincr(p), pol),
    )
    assert struct_eq(whole, want)


def test_legacy_encoding_is_self_contained():
    enc = encode_mr(pnew("z", pout("u", "z")))
    assert enc.state is canon_proc(enc.translation)
    image = list(enc.policy.image())
    for machine in (enc.n, enc.p):
        assert all(not name_eq(machine, i) for i in image)


def test_corrected_encoding_state_includes_the_server():
    enc = encode_ns(pout("x", "y"))
    assert enc.state is canon_proc(par(enc.translation, enc.server))
    assert len(components(enc.state)) == len(components(enc.translation)) + 3
