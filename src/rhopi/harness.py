"""End-to-end experiments over the two encodings.

Three reproduction reports and a randomized property suite:

* ``repro_cex1`` — replication-scoped restriction versus shared restriction.
  A context that receives twice on ``u`` and then synchronizes the two
  received names distinguishes the source terms in the name-passing calculus,
  but under the legacy (machine-rebinding) encoding both translations emit a
  constant object on ``phi(u)``, so the translated context cannot tell them
  apart.

* ``repro_cex2`` — two source terms the name-passing canonicalizer already
  identifies (an unused restriction is erased), yet whose legacy encodings
  behave differently: one mints a new object every replication round, the
  other repeats the same derived name forever.

* ``repro_separation_witness`` — a reflective term with a one-step reduct
  whose output subject is a name that is neither free in, nor observable at,
  the original term: runtime-minted fresh names make observation
  non-monotonic in a way impossible in the name-passing calculus.

* ``check_criteria`` — a seed-deterministic corpus of name-passing terms run
  against five behavioural criteria of the corrected (name-server) encoding:
  parameter independence, substitution invariance, operational
  correspondence (completeness and soundness), observational correspondence,
  and divergence reflection.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Iterable, NamedTuple, Optional

from .encode import (
    EncodingError,
    RenamingPolicy,
    default_mr_params,
    encode_mr,
    encode_ns,
    make_encoding_params,
    translate_mr,
)
from .equiv import (
    BisimVerdict,
    DivergenceVerdict,
    barbed_bisim,
    bisim_blocks,
    graph_barbs,
    graph_divergence,
    pi_barbed_bisim,
    pi_weak_barb_set,
    rho_graph_divergence,
    rho_weak_barb_set,
    weak_observations,
)
from .lts import BarbSearch, Verdict, collector_paused, explore, weak_barb_search
from .piterm import (
    PPar,
    PiTerm,
    named,
    pi_barbs,
    pi_canon,
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
)
from .rhoreduce import barbs as rho_barbs
from .rhoreduce import components, search_step
from .rhoreduce import step as rho_step
from .rhoterm import (
    Lift,
    canon_name,
    canon_proc,
    drop,
    free_names,
    gen_fresh,
    inp,
    lift,
    lincr,
    nil,
    par,
    quote,
    show_name,
    show_proc,
    subst_syn,
    NULL_NAME,
)

__all__ = [
    "PASS",
    "FAIL",
    "UNKNOWN",
    "Check",
    "Report",
    "Corpus",
    "BoundsTooSmall",
    "random_pi_term",
    "make_corpus",
    "repro_cex1",
    "repro_cex2",
    "repro_separation_witness",
    "check_criteria",
]

PASS = "Pass"
FAIL = "Fail"
UNKNOWN = "Unknown"


class BoundsTooSmall(RuntimeError):
    """An exploration was cut off before a required check could resolve."""


class Check(NamedTuple):
    label: str
    verdict: str  # PASS / FAIL / UNKNOWN
    evidence: object = None

    def to_dict(self) -> dict:
        return {"label": self.label, "verdict": self.verdict, "evidence": self.evidence}


class _ReportFields(NamedTuple):
    name: str
    checks: list
    bounds_used: dict
    elapsed: float


class Report(_ReportFields):
    __slots__ = ()  # a fresh bounds_used dict per report, see __new__

    def __new__(cls, name: str, checks: list, bounds_used: Optional[dict] = None, elapsed: float = 0.0):
        return super().__new__(cls, name, checks, {} if bounds_used is None else bounds_used, elapsed)

    @property
    def passed(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "bounds_used": self.bounds_used,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def summary_lines(self) -> list:
        """A header, then one line per check.  The header is PASS when every
        check passed, FAIL when some check failed, and UNKNOWN otherwise."""
        if self.passed:
            head = "PASS"
        elif any(c.verdict == FAIL for c in self.checks):
            head = "FAIL"
        else:
            head = "UNKNOWN"
        lines = [f"[{head}] {self.name}"]
        for c in self.checks:
            lines.append(f"  {c.verdict:7s} {c.label}")
        return lines


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

_ATOM_POOL = ("a", "b", "c", "u", "w", "x")


def random_pi_term(
    rng: random.Random, size: int = 10, atoms: tuple = _ATOM_POOL
) -> PiTerm:
    """A random name-passing term with at most ``size`` grammar nodes.

    Replication is always input-guarded, so every generated term is
    encodable.  Binder names are drawn from a dedicated pool disjoint from
    the free-atom pool; generation is deterministic in ``rng``.

    Two biases keep the corpus behaviourally interesting rather than a pile
    of stuck terms: each term concentrates most subject/object choices on a
    couple of "hot" atoms, and one parallel production directly emits a
    send/receive pair on a shared subject.
    """
    hot = tuple(rng.sample(atoms, 2))
    term, _ = _random_pi(rng, max(1, size), (), atoms, hot, itertools.count())
    return term


# nodes each binding production adds around its body
_BINDING_COST = {"in": 1, "new": 1, "repl": 2, "redex": 3}


def _pick(rng: random.Random, hot: tuple, atoms: tuple, scope: tuple) -> str:
    if rng.random() < 0.6:
        return rng.choice(hot + scope[-1:])
    return rng.choice(atoms + scope)


def _random_pi(rng: random.Random, budget: int, scope: tuple, atoms: tuple, hot: tuple, binders):
    """A random term of at most budget nodes under the binders of scope, and
    its node count; binder i is named ``p<i>`` as binders counts."""
    options = ["out", "nil"]
    weights = [4, 1]
    if budget >= 2:
        options += ["in", "new"]
        weights += [4, 2]
    if budget >= 3:
        options += ["par", "repl"]
        weights += [4, 1]
    if budget >= 4:
        options += ["redex"]
        weights += [4]
    kind = rng.choices(options, weights)[0]

    if kind == "nil":
        return pnil(), 1
    if kind == "out":
        return pout(_pick(rng, hot, atoms, scope), _pick(rng, hot, atoms, scope)), 1
    if kind == "par":
        left_budget = rng.randint(1, budget - 2)
        lterm, lc = _random_pi(rng, left_budget, scope, atoms, hot, binders)
        rterm, rc = _random_pi(rng, budget - 1 - lc, scope, atoms, hot, binders)
        return ppar(lterm, rterm), lc + rc + 1
    if kind == "redex":
        subj = _pick(rng, hot, atoms, scope)
    b = f"p{next(binders)}"
    cost = _BINDING_COST[kind]
    body, c = _random_pi(rng, budget - cost, scope + (b,), atoms, hot, binders)
    if kind == "in":
        term = pin(_pick(rng, hot, atoms, scope), b, body)
    elif kind == "new":
        term = pnew(b, body)
    elif kind == "repl":
        term = prepl(pin(_pick(rng, hot, atoms, scope), b, body))
    else:
        term = ppar(pout(subj, _pick(rng, hot, atoms, scope)), pin(subj, b, body))
    return term, c + cost


class Corpus(NamedTuple):
    seed: int
    size_limit: int
    terms: list


def make_corpus(seed: int = 1, count: int = 50, size_limit: int = 10) -> Corpus:
    rng = random.Random(seed)
    return Corpus(
        seed=seed,
        size_limit=size_limit,
        terms=[random_pi_term(rng, size_limit) for _ in range(count)],
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _objects_on(state, subject) -> list:
    """Payload names of every output component on ``subject`` (multiset)."""
    out = []
    for c in components(state):
        if isinstance(c, Lift) and c.subject is subject:
            out.append(canon_name(quote(c.body)))
    return out


def _inclusion_verdict(sub: frozenset, sub_cut, sup: frozenset, sup_cut) -> str:
    """Verdict for a claim ``sub ⊆ sup`` when either set may be a truncated
    (lower-bound) observation: each cut is the budget that cut its set off,
    or None."""
    if not (sub <= sup):
        return UNKNOWN if sup_cut else FAIL
    return UNKNOWN if sub_cut else PASS


def _pi_flag_search(root, subject: str, max_states: int, max_depth: int) -> BarbSearch:
    """Does the name-passing state root, or some reduct of it, output on
    subject?"""
    return weak_barb_search(
        root,
        pi_step,
        lambda s: ("out", subject) in pi_barbs(s, [subject]),
        max_states=max_states,
        max_depth=max_depth,
    )


def _lifts_on(state, subject) -> bool:
    """Has state a top-level lift on the canonical name subject?"""
    for c in components(state):
        if isinstance(c, Lift) and c.subject is subject:
            return True
    return False


def _rho_flag_search(root, subject, max_states: int, max_depth: int) -> BarbSearch:
    """Does the reflective state root, or some reduct of it, output on
    subject?  The search skips commuting redexes (``search_step``)."""
    subject = canon_name(subject)
    return weak_barb_search(
        root,
        search_step(),
        lambda s: _lifts_on(s, subject),
        max_states=max_states,
        max_depth=max_depth,
    )


# ---------------------------------------------------------------------------
# Separation witness
# ---------------------------------------------------------------------------


@collector_paused
def repro_separation_witness() -> Report:
    """A term whose one-step reduct outputs on a name the term itself neither
    contains free nor can be observed at: observation is not monotone under
    reduction because outputs mint names at runtime."""
    t0 = time.perf_counter()
    x1 = NULL_NAME
    x2 = gen_fresh([x1])
    a = gen_fresh([x1, x2])
    payload = par(drop(x1), drop(x2))
    u = canon_name(quote(payload))
    binder = gen_fresh([x1, x2, a])
    term = canon_proc(par(lift(a, payload), inp(a, binder, lift(binder, nil()))))

    checks = []
    no_barb = rho_barbs(term, [u]) == frozenset()
    checks.append(
        Check(
            "term has no barb at the minted subject",
            PASS if no_barb else FAIL,
            {"term": show_proc(term), "subject": show_name(u)},
        )
    )
    not_free = u not in free_names(term)
    checks.append(
        Check(
            "minted subject is not free in the term",
            PASS if not_free else FAIL,
            {"free_names": sorted(show_name(n) for n in free_names(term))},
        )
    )
    succs = rho_step(term)
    expected = canon_proc(lift(u, nil()))
    one_step = len(succs) == 1 and succs[0] is expected
    barb_after = one_step and ("out", u) in rho_barbs(succs[0], [u])
    checks.append(
        Check(
            "a one-step reduct barbs on the minted subject",
            PASS if (one_step and barb_after) else FAIL,
            {
                "successors": [show_proc(s) for s in succs],
                "expected_reduct": show_proc(expected),
            },
        )
    )
    return Report("separation", checks, elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Counter-example 1: replication-scoped vs shared restriction
# ---------------------------------------------------------------------------


def _cex_context() -> PiTerm:
    """Receive twice on u, then synchronize the two received names and flag
    on x.  Objects are a dummy atom: only the synchronization matters."""
    return pin(
        "u",
        "n1",
        pin(
            "u",
            "n2",
            ppar(pout("n1", "o"), pin("n2", "w0", pout("x", "o"))),
        ),
    )


@collector_paused
def repro_cex1(
    max_states: int = 20000,
    max_depth: int = 26,
    pi_max_states: int = 4000,
    pi_max_depth: int = 40,
) -> Report:
    """Fresh-per-round restriction against shared restriction, under a
    two-reception context.  The sources are distinguishable; their legacy
    encodings are not, because both emit a constant derived object on the
    image of u."""
    t0 = time.perf_counter()
    # the legacy translation splits its parameters at every Par, so the
    # literal "| 0" fixes the expected objects below
    p1 = prepl(ppar(pnew("z", pout("u", "z")), pnil()))  # fresh z each round
    p2 = pnew("z", prepl(ppar(pout("u", "z"), pnil())))  # one shared z
    ctx = _cex_context()
    c1 = ppar(p1, ctx)
    c2 = ppar(p2, ctx)

    checks = []

    # (i) the sources are distinguished in the name-passing calculus
    s1 = _pi_flag_search(pi_canon(c1), "x", pi_max_states, pi_max_depth)
    if s1.verdict is Verdict.UNKNOWN:
        raise BoundsTooSmall("source-side exploration of the fresh-per-round term was cut off")
    checks.append(
        Check(
            "source side: fresh-per-round term never flags on x (exhaustive)",
            PASS if s1.verdict is Verdict.NO else FAIL,
            {"explored": s1.explored, "verdict": s1.verdict.value},
        )
    )
    s2 = _pi_flag_search(pi_canon(c2), "x", pi_max_states, pi_max_depth)
    if s2.verdict is not Verdict.YES:
        raise BoundsTooSmall("source-side exploration of the shared-restriction term found no flag")
    checks.append(
        Check(
            "source side: shared-restriction term flags on x",
            PASS,
            {"depth": s2.depth, "trace_length": len(s2.trace or [])},
        )
    )

    # (ii) legacy encodings emit constant objects on phi(u)
    pol = RenamingPolicy()
    pol.scan(c1)
    pol.scan(c2)
    enc1 = encode_mr(c1, policy=pol)
    enc2 = encode_mr(c2, policy=pol)
    phi_u = pol.name_for("u")
    phi_x = pol.name_for("x")
    phi_o = pol.name_for("o")
    n0 = enc1.n
    side_param = lincr(n0)  # left split of the top parameter
    expected1 = canon_name(lincr(side_param))  # frozen derived name, per round
    expected2 = canon_name(side_param)  # the minted name is the side parameter

    graphs = {}
    for tag, enc, expected in (
        ("fresh-per-round", enc1, expected1),
        ("shared", enc2, expected2),
    ):
        g = graphs[tag] = explore(enc.state, rho_step, max_states=max_states, max_depth=max_depth)
        objs = {o for st in g.states for o in _objects_on(st, phi_u)}
        flagged = any(("out", phi_x) in rho_barbs(st, [phi_x]) for st in g.states)
        if not flagged or not objs:
            raise BoundsTooSmall(
                f"legacy exploration of the {tag} translation did not complete two rounds"
            )
        constant = objs == {expected}
        checks.append(
            Check(
                f"encoded side: {tag} translation emits one constant object on phi(u)",
                PASS if constant else FAIL,
                {
                    "objects": sorted(show_name(o) for o in objs),
                    "expected": show_name(expected),
                    "states": len(g.states),
                    "truncated": g.truncated,
                },
            )
        )
    # a translation that never flagged raised BoundsTooSmall above
    checks.append(Check("encoded side: both translated contexts flag on phi(x)", PASS, None))

    # (iii) no restricted barb separates the two encodings within bounds
    subjects = [phi_u, phi_x, phi_o]
    w1, w2 = (graph_barbs(g, lambda s: rho_barbs(s, subjects)) for g in graphs.values())
    checks.append(
        Check(
            "encoded side: restricted weak barbs coincide within bounds",
            PASS if w1 == w2 else FAIL,
            {
                "barbs": sorted(f"{d} {show_name(n)}" for d, n in w1),
                "only_left": sorted(f"{d} {show_name(n)}" for d, n in w1 - w2),
                "only_right": sorted(f"{d} {show_name(n)}" for d, n in w2 - w1),
            },
        )
    )

    return Report(
        "cex1",
        checks,
        {
            "max_states": max_states,
            "max_depth": max_depth,
            "pi_max_states": pi_max_states,
            "pi_max_depth": pi_max_depth,
        },
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Counter-example 2: canonically equal sources, distinct encodings
# ---------------------------------------------------------------------------


@collector_paused
def repro_cex2(
    max_states: int = 6000,
    max_depth: int = 16,
    search_max_states: int = 20000,
    search_max_depth: int = 26,
) -> Report:
    """Two sources the canonicalizer identifies (erasing an unused
    restriction) whose legacy encodings differ observably: one updates its
    emitted object every round, the other repeats a single derived name."""
    t0 = time.perf_counter()
    p1 = prepl(pnew("z", pout("u", "z")))
    p2 = prepl(pnew("q", pnew("z", pout("u", "z"))))
    ctx = _cex_context()

    checks = []

    # (i) source side: the two terms are the same canonical object
    same = pi_canon(p1) is pi_canon(p2)
    checks.append(
        Check(
            "source side: canonical forms coincide (unused restriction erased)",
            PASS if same else FAIL,
            {"canonical": show_pi(pi_canon(p1))},
        )
    )
    bis = pi_barbed_bisim(ppar(p1, ctx), ppar(p2, ctx), weak=True)
    checks.append(
        Check(
            "source side: contexted terms are weakly bisimilar",
            PASS if bis.verdict is BisimVerdict.BISIMILAR else FAIL,
            {"verdict": bis.verdict.value},
        )
    )

    # shared naming for all encoded checks
    pol = RenamingPolicy()
    pol.scan(p1)
    pol.scan(p2)
    phi_u = pol.name_for("u")
    n0, p0 = default_mr_params(p1, pol)

    # micro-check: the inner translations reduce to outputs of the expected
    # objects (the round parameter vs the frozen derived name)
    t_inner1 = canon_proc(translate_mr(pnew("z", pout("u", "z")), n0, p0, pol))
    succ1 = rho_step(t_inner1)
    d_name = canon_name(lincr(n0))
    ok1 = len(succ1) == 1 and _objects_on(succ1[0], phi_u) == [canon_name(n0)]
    t_inner2 = canon_proc(
        translate_mr(pnew("q", pnew("z", pout("u", "z"))), n0, p0, pol)
    )
    g_inner2 = explore(t_inner2, rho_step, max_states=64, max_depth=8)
    finals2 = [
        s for i, s in enumerate(g_inner2.states) if not g_inner2.edges[i]
    ]
    ok2 = len(finals2) == 1 and _objects_on(finals2[0], phi_u) == [d_name]
    checks.append(
        Check(
            "encoded side: single restriction emits the round parameter, nested "
            "restriction emits the frozen derived name",
            PASS if ok1 and ok2 else FAIL,
            {
                "single": [show_name(o) for s in succ1 for o in _objects_on(s, phi_u)],
                "nested": [show_name(o) for s in finals2 for o in _objects_on(s, phi_u)],
                "expected_single": show_name(canon_name(n0)),
                "expected_nested": show_name(d_name),
            },
        )
    )

    # (ii) objects across two rounds: updating vs constant
    enc1 = encode_mr(p1, policy=pol, n=n0, p=p0)
    enc2 = encode_mr(p2, policy=pol, n=n0, p=p0)

    def collect(enc):
        g = explore(enc.state, rho_step, max_states=max_states, max_depth=max_depth)
        all_objs = set()
        best_state: list = []
        for st in g.states:
            objs = _objects_on(st, phi_u)
            all_objs.update(objs)
            if len(objs) > len(best_state):
                best_state = objs
        return g, all_objs, best_state

    g1, objs1, multi1 = collect(enc1)
    g2, objs2, multi2 = collect(enc2)
    if len(multi1) < 2 or len(multi2) < 2:
        raise BoundsTooSmall("legacy exploration did not reach a second emission")
    distinct_rounds = len(objs1) >= 2 and len(set(multi1)) >= 2
    checks.append(
        Check(
            "encoded side: fresh-per-round translation emits pairwise distinct objects",
            PASS if distinct_rounds else FAIL,
            {
                "objects": sorted(show_name(o) for o in objs1),
                "coexisting": [show_name(o) for o in multi1],
                "states": len(g1.states),
            },
        )
    )
    constant_rounds = objs2 == {d_name} and len(multi2) >= 2
    checks.append(
        Check(
            "encoded side: nested-restriction translation repeats one derived object",
            PASS if constant_rounds else FAIL,
            {
                "objects": sorted(show_name(o) for o in objs2),
                "expected": show_name(d_name),
                "coexisting": [show_name(o) for o in multi2],
                "states": len(g2.states),
            },
        )
    )

    # (iii) a translated context tells the encodings apart
    pol2 = RenamingPolicy()
    c1 = ppar(p1, ctx)
    c2 = ppar(p2, ctx)
    pol2.scan(c1)
    pol2.scan(c2)
    encc1 = encode_mr(c1, policy=pol2)
    encc2 = encode_mr(c2, policy=pol2)
    phi_x = pol2.name_for("x")
    f1 = _rho_flag_search(encc1.state, phi_x, search_max_states, search_max_depth)
    f2 = _rho_flag_search(encc2.state, phi_x, search_max_states, search_max_depth)
    # a cut-off constant-object search is Unknown; only a flag from the
    # fresh-per-round side or an exhaustive No on the constant side is Fail
    if f1.verdict is Verdict.YES or f2.verdict is Verdict.NO:
        verdict = FAIL
    else:
        verdict = UNKNOWN if f2.verdict is Verdict.UNKNOWN else PASS
    evidence = {
        "fresh_per_round": f1.verdict.value,
        "constant": f2.verdict.value,
        "flag_depth": f2.depth,
    }
    if f1.verdict is Verdict.UNKNOWN:
        evidence["fresh_per_round_budget"] = f1.truncated_reason
    if f2.verdict is Verdict.UNKNOWN:
        evidence["constant_budget"] = f2.truncated_reason
    checks.append(
        Check(
            "encoded side: the translated context flags only the constant-object translation",
            verdict,
            evidence,
        )
    )

    return Report(
        "cex2",
        checks,
        {
            "max_states": max_states,
            "max_depth": max_depth,
            "search_max_states": search_max_states,
            "search_max_depth": search_max_depth,
        },
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Criteria suite: five behavioural properties of the corrected encoding
# ---------------------------------------------------------------------------


def _worst(verdicts: Iterable[str]) -> str:
    vs = list(verdicts)
    if FAIL in vs:
        return FAIL
    if UNKNOWN in vs:
        return UNKNOWN
    return PASS


def _prepare_term(term: PiTerm, bounds: dict) -> dict:
    """Everything the per-term property checks share."""
    pol = RenamingPolicy()
    pol.scan(term)
    canon = pi_canon(term)
    fn = sorted(pi_free_names(canon))
    phi = {a: pol.name_for(a) for a in fn}
    subjects = [phi[a] for a in fn]
    params = make_encoding_params(pol)
    enc = encode_ns(term, policy=pol, params=params)
    g_rho = explore(
        enc.state,
        rho_step,
        max_states=bounds["max_states"],
        max_depth=bounds["max_depth"],
    )
    g_pi = explore(
        canon,
        pi_step,
        max_states=bounds["pi_max_states"],
        max_depth=bounds["pi_max_depth"],
    )
    return {
        "term": term,
        "canon": canon,
        "fn": fn,
        "phi": phi,
        "subjects": subjects,
        "pol": pol,
        "params": params,
        "enc": enc,
        "g_rho": g_rho,
        "g_pi": g_pi,
    }


def _map_pi_barbs(barbs: frozenset, phi: dict) -> frozenset:
    return frozenset((d, phi[a]) for d, a in barbs if a in phi)


def _prop1_parameter_independence(b: dict, bounds: dict) -> tuple:
    """The encoding's observable behaviour does not depend on which derived
    parameter names the encoder picked (strong bisimilarity, restricted to
    the images of the source's free atoms).  The first encoding's graph is
    ``g_rho``."""
    params2 = make_encoding_params(b["pol"], others=b["params"].all_names())
    enc2 = encode_ns(b["term"], policy=b["pol"], params=params2)
    subjects = b["subjects"]
    g1 = b["g_rho"]
    # barbed_bisim decides a strong check with a cut-off graph on the root
    # barbs alone (its truncated branch), so a cut-off g1 needs g2's root only;
    # test_prop1_on_a_cut_off_graph_matches_the_full_check pins this
    g2 = explore(
        enc2.state,
        rho_step,
        max_states=1 if g1.truncated else bounds["max_states"],
        max_depth=bounds["max_depth"],
    )
    rep = barbed_bisim(g1, g2, lambda s: rho_barbs(s, subjects), weak=False)
    if rep.verdict is BisimVerdict.BISIMILAR:
        return PASS, None
    if rep.verdict is BisimVerdict.UNKNOWN:
        cut = g1 if g1.truncated else g2
        return UNKNOWN, {"reason": "encoded exploration truncated", "budget": cut.truncated_reason}
    return FAIL, {"witness": repr(rep.witness)}


def _prop2_substitution_invariance(b: dict, rng: random.Random) -> tuple:
    """Renaming a free source atom commutes with encoding: translate the
    renamed source, or rename the translated term — same canonical result."""
    pol = b["pol"]
    taken = set(pol.known_atoms())  # every atom of the term, bound ones too
    fresh = (f"v{i}" for i in range(len(taken) + 2))
    spare = [a for a in fresh if a not in taken]
    u = spare[0]
    w = rng.choice(b["fn"]) if b["fn"] else spare[1]
    phi_w = pol.name_for(w)
    phi_u = pol.name_for(u)
    renamed = rename_atom(b["term"], u, w)
    e_sigma = encode_ns(renamed, policy=pol, params=b["params"]).state
    e_subst = canon_proc(subst_syn(b["enc"].state, phi_u, phi_w))
    if e_sigma is e_subst:
        return PASS, None
    return FAIL, {
        "w": w,
        "u": u,
        "translated_renamed": show_proc(e_sigma)[:200],
        "renamed_translation": show_proc(e_subst)[:200],
    }


def _prop3_operational_correspondence(b: dict, bounds: dict) -> tuple:
    """Completeness: each one-step source reduct's own fresh encoding is
    weakly bisimilar (restricted) to some reachable encoded state.  Soundness:
    every reachable encoded state observes like some reachable source term.

    Completeness runs one weak refinement over ``g_rho`` and the reducts'
    graphs together; it runs only when ``g_rho`` is complete, so sharing a
    block is bisimilarity outright.  A sub-check left Unknown by a cut-off
    graph names the bound it hit (``completeness_budget``,
    ``soundness_budget``)."""
    g_rho, g_pi = b["g_rho"], b["g_pi"]
    subjects = b["subjects"]
    phi = b["phi"]

    verdicts = []
    evidence = {}

    # completeness over the root's direct reducts
    if g_rho.truncated:
        verdicts.append(UNKNOWN)
        evidence["completeness"] = "encoded exploration truncated"
        evidence["completeness_budget"] = g_rho.truncated_reason
    else:
        reducts = []
        graphs = [g_rho]
        for j in g_pi.edges[0]:
            reduct = g_pi.states[j]
            enc_r = encode_ns(named(reduct, "r"), policy=b["pol"], params=b["params"])
            g_r = explore(
                enc_r.state,
                rho_step,
                max_states=bounds["max_states"],
                max_depth=bounds["max_depth"],
            )
            if g_r.truncated:
                verdicts.append(UNKNOWN)
                evidence.setdefault("completeness", "reduct exploration truncated")
                evidence.setdefault("completeness_budget", g_r.truncated_reason)
                continue
            reducts.append(reduct)
            graphs.append(g_r)
        if reducts:
            blocks = bisim_blocks(graphs, lambda s: rho_barbs(s, subjects))
            matched = set(blocks[0])
            for reduct, reduct_blocks in zip(reducts, blocks[1:]):
                if reduct_blocks[0] in matched:
                    verdicts.append(PASS)
                else:
                    verdicts.append(FAIL)
                    evidence.setdefault("completeness_failure", show_pi(reduct))

    # soundness: every encoded state's weak observations match some source state
    if g_rho.truncated or g_pi.truncated:
        verdicts.append(UNKNOWN)
        evidence["soundness"] = "exploration truncated"
        evidence["soundness_budget"] = g_rho.truncated_reason or "pi_" + g_pi.truncated_reason
    else:
        rho_ws = weak_observations(g_rho.states, g_rho.edges, lambda s: rho_barbs(s, subjects))
        pi_ws = weak_observations(
            g_pi.states, g_pi.edges, lambda s: _map_pi_barbs(pi_barbs(s, b["fn"]), phi)
        )
        pi_set_pool = set(pi_ws)
        bad = [i for i in range(len(g_rho.states)) if rho_ws[i] not in pi_set_pool]
        if bad:
            verdicts.append(FAIL)
            evidence["soundness_failure"] = {
                "state": show_proc(g_rho.states[bad[0]])[:200],
                "weak_barbs": sorted(f"{d} {show_name(n)}" for d, n in rho_ws[bad[0]]),
            }
        else:
            verdicts.append(PASS)
    return _worst(verdicts), (evidence or None)


def _prop4_observational_correspondence(b: dict, bounds: dict) -> tuple:
    """Immediate source observations survive encoding (componentwise, weakly),
    and encoded observations never exceed the source's weak observations.
    Each leaf is encoded with the term's machine names, so prop2's and
    prop3's additions to the policy do not change them.  A sub-check left
    Unknown by a cut-off graph names the bound it hit (``barbs_budget``,
    ``inclusion_budget``; ``pi_`` marks a source leaf's graph)."""
    leaves = []
    stack = [b["term"]]
    while stack:
        x = stack.pop()
        if isinstance(x, PPar):
            stack.extend(reversed(x.children))
        else:
            leaves.append(x)
    phi = b["phi"]
    # each part's weak barbs, observed separately: component interaction is
    # out of view, which is what makes them compare cleanly against the
    # source's own barbs
    weak_sets = [
        rho_weak_barb_set(
            encode_ns(leaf, policy=b["pol"], params=b["params"]).state,
            b["subjects"],
            max_states=bounds["max_states"],
            max_depth=bounds["max_depth"],
        )
        for leaf in leaves
    ]
    cut = next((r for _, r in weak_sets if r), None)
    verdicts = []
    evidence = {}

    for d, a in pi_barbs(b["canon"], b["fn"]):
        if any((d, phi[a]) in wset for wset, _ in weak_sets):
            verdicts.append(PASS)
        elif cut:
            verdicts.append(UNKNOWN)
            evidence.setdefault("barbs_budget", cut)
        else:
            verdicts.append(FAIL)
            evidence.setdefault("missing_barb", f"{d} {a}")

    for leaf, (wset, rho_cut) in zip(leaves, weak_sets):
        pw, pi_cut = pi_weak_barb_set(
            leaf,
            b["fn"],
            max_states=bounds["pi_max_states"],
            max_depth=bounds["pi_max_depth"],
        )
        pw = _map_pi_barbs(pw, phi)
        v = _inclusion_verdict(wset, rho_cut, pw, pi_cut)
        if v == UNKNOWN:
            budget = rho_cut if wset <= pw else "pi_" + pi_cut
            evidence.setdefault("inclusion_budget", budget)
        elif v == FAIL:
            extra = wset - pw
            evidence.setdefault(
                "excess_barbs",
                {
                    "leaf": show_pi(leaf),
                    "barbs": sorted(f"{d} {show_name(n)}" for d, n in extra),
                },
            )
        verdicts.append(v)
    return _worst(verdicts or [PASS]), (evidence or None)


def _prop5_divergence_reflection(b: dict) -> tuple:
    """If the source term cannot diverge, neither can its encoding."""
    source = graph_divergence(b["g_pi"])
    if source.verdict is not DivergenceVerdict.TERMINATES:
        return PASS, {"note": "source not shown terminating; nothing to reflect"}
    probe = rho_graph_divergence(b["g_rho"])
    if probe.verdict is DivergenceVerdict.TERMINATES:
        return PASS, None
    if probe.verdict is DivergenceVerdict.DIVERGES:
        return FAIL, {"rule": probe.rule, "term": show_pi(b["term"])}
    return UNKNOWN, {
        "reason": "encoded exploration truncated",
        "budget": b["g_rho"].truncated_reason,
    }


_PROP_LABELS = {
    "prop1": "parameter independence",
    "prop2": "substitution invariance",
    "prop3": "operational correspondence",
    "prop4": "observational correspondence",
    "prop5": "divergence reflection",
}


@collector_paused
def check_criteria(
    corpus: Optional[Corpus] = None,
    seed: int = 1,
    count: int = 50,
    size: int = 10,
    max_states: int = 1500,
    max_depth: int = 80,
    pi_max_states: int = 600,
    pi_max_depth: int = 60,
) -> Report:
    """Run the five behavioural criteria over a deterministic corpus."""
    t0 = time.perf_counter()
    if corpus is None:
        corpus = make_corpus(seed=seed, count=count, size_limit=size)
    rng = random.Random(corpus.seed ^ 0x5EED)
    bounds = {
        "max_states": max_states,
        "max_depth": max_depth,
        "pi_max_states": pi_max_states,
        "pi_max_depth": pi_max_depth,
    }

    tallies = {k: {PASS: 0, FAIL: 0, UNKNOWN: 0} for k in _PROP_LABELS}
    samples = {k: [] for k in _PROP_LABELS}

    for term in corpus.terms:
        try:
            b = _prepare_term(term, bounds)
        except EncodingError as exc:
            for k in _PROP_LABELS:
                tallies[k][UNKNOWN] += 1
                if len(samples[k]) < 8:
                    samples[k].append({"term": show_pi(term), "error": str(exc)})
            continue
        runs = {
            "prop1": lambda: _prop1_parameter_independence(b, bounds),
            "prop2": lambda: _prop2_substitution_invariance(b, rng),
            "prop3": lambda: _prop3_operational_correspondence(b, bounds),
            "prop4": lambda: _prop4_observational_correspondence(b, bounds),
            "prop5": lambda: _prop5_divergence_reflection(b),
        }
        for k, run in runs.items():
            verdict, ev = run()
            tallies[k][verdict] += 1
            if verdict != PASS and len(samples[k]) < 8:
                samples[k].append({"term": show_pi(term), "verdict": verdict, "evidence": ev})

    checks = []
    total = 0
    unknowns = 0
    for k, label in _PROP_LABELS.items():
        t = tallies[k]
        total += sum(t.values())
        unknowns += t[UNKNOWN]
        # a property holds only if some check of it ran and held
        verdict = FAIL if t[FAIL] else PASS if t[PASS] else UNKNOWN
        checks.append(Check(f"{k}: {label}", verdict, {"tally": dict(t), "samples": samples[k]}))
    rate = unknowns / total if total else 0.0
    checks.append(
        Check(
            "unknown rate below 20%",
            UNKNOWN if not total else PASS if rate < 0.2 else FAIL,
            {"unknown_rate": round(rate, 4), "checks_run": total},
        )
    )
    return Report(
        "criteria",
        checks,
        dict(bounds, seed=corpus.seed, count=len(corpus.terms), size=corpus.size_limit),
        time.perf_counter() - t0,
    )
