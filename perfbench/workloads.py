"""Inputs and known answers of the benchmark workloads.

A workload is a list of items.  An item is the unit a per-item time is
taken over: one packaged experiment (``repro``), one corpus term and its
five criteria verdicts (``criteria``), or one bisimulation check
(``bisim``).  Running an item yields ``(check, verdict, expected)`` triples.

The expected verdicts come from the paper and from how each input is built,
never from what the program prints today:

* ``repro``: every check of the three experiments holds (Pass).
* ``criteria``: the corrected ``ns`` encoding meets all five criteria, so
  every property is Pass on every term.
* ``bisim``: the relay in ``Q_k`` only adds internal steps, so ``P_k`` and
  ``Q_k`` are weakly bisimilar and, because the relay delays the barb on
  ``c``, not strongly bisimilar.

Wrong verdicts the program is known to give are listed in ``KNOWN_WRONG``.
They are still reported as failed operations; the list only lets the
benchmark tell a known defect from a new one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

PASS = "Pass"
UNDECIDED = ("Unknown", "unknown")

NAMES = ("repro", "criteria", "bisim")

CRITERIA_SEEDS = (1, 2)
CRITERIA_COUNT = 50
CRITERIA_SIZE = 20
# k = 8 gives 256 and 384 states and trials of about a second, so a 30 s
# run holds 25 to 30 of them.  k = 9 (512 and 768 states, about 1.5 s a trial)
# drifted by 26% between two sets of runs of the same code on a shared
# machine; k = 10 (1,024 and 1,536 states) takes about 5 s a trial.
BISIM_K = 8

# (workload, item input as text, check) -> why the program is wrong there
KNOWN_WRONG = {
    (
        "criteria",
        "(a!u | (a?(p0).p0!c)) | (new p1.(u!a | ((a?(p2).a!u) | b!u)))",
        "prop3",
    ): "false Fail: completeness tries only the 3 shallowest candidate states",
}


@dataclass
class Item:
    name: str
    text: str  # the input as the user would write it, for reports
    run: Callable[[], list]


def prepare(workload: str, seed: int, criteria_seeds=CRITERIA_SEEDS) -> list:
    """The items of one workload, in the order they are run."""
    if workload == "repro":
        return _repro_items()
    if workload == "criteria":
        return _criteria_items(criteria_seeds)
    if workload == "bisim":
        return _bisim_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# repro: the legacy-encoding experiments, with their default budgets
# ---------------------------------------------------------------------------


def _repro_items() -> list:
    """Deterministic: the experiments build their own terms, so the seed
    selects nothing."""
    from rhopi import repro_cex1, repro_cex2, repro_separation_witness

    def experiment(fn):
        def run():
            return [(c.label, c.verdict, PASS) for c in fn().checks]

        return run

    return [
        Item(name, name, experiment(fn))
        for name, fn in (
            ("separation", repro_separation_witness),
            ("cex1", repro_cex1),
            ("cex2", repro_cex2),
        )
    ]


# ---------------------------------------------------------------------------
# criteria: the five-property suite, one term at a time
# ---------------------------------------------------------------------------


def _criteria_items(criteria_seeds) -> list:
    """The corpus is fixed by the criteria seeds, and the terms are checked
    in corpus order.  The workload seed selects nothing: peak memory depends
    on the order (about 37 to 40 MB over shuffled orders), and a fixed order
    keeps every run the same work."""
    from rhopi import Corpus, check_criteria, make_corpus, show_pi

    size = CRITERIA_SIZE
    entries = []
    for cseed in criteria_seeds:
        corpus = make_corpus(seed=cseed, count=CRITERIA_COUNT, size_limit=size)
        entries += [(cseed, i, term) for i, term in enumerate(corpus.terms)]

    def one_term(cseed, term):
        def run():
            report = check_criteria(corpus=Corpus(seed=cseed, size_limit=size, terms=[term]))
            out = []
            for check in report.checks:
                prop = check.label.split(":")[0]
                if not prop.startswith("prop"):
                    continue  # the corpus-wide unknown-rate gate
                tally = check.evidence["tally"]
                verdict = next(v for v, n in tally.items() if n)
                out.append((prop, verdict, PASS))
            return out

        return run

    return [
        Item(f"seed{cseed}/term{i}", show_pi(term), one_term(cseed, term))
        for cseed, i, term in entries
    ]


# ---------------------------------------------------------------------------
# bisim: the parametric handshake family
# ---------------------------------------------------------------------------


def handshake_family(k: int, seed: int) -> tuple:
    """Source text of P_k and Q_k.

    P_k runs, for each i < k, ``a_i!b | a_i?(x).c_i!x``.  Q_k is P_k with
    one continuation routed through a private relay,
    ``new z.(z!x | z?(y).c_i!y)``.  The seed picks the channel names and the
    order of the components; the state spaces do not depend on it.
    """
    rng = random.Random(seed)
    pool = rng.sample(range(10_000), 2 * k + 1)
    a = [f"a{n}" for n in pool[:k]]
    c = [f"c{n}" for n in pool[k : 2 * k]]
    b = f"b{pool[-1]}"
    relayed = rng.randrange(k)
    order = list(range(k))
    rng.shuffle(order)

    def component(i: int, relay: bool) -> str:
        cont = f"new z.(z!x | z?(y).{c[i]}!y)" if relay else f"{c[i]}!x"
        return f"{a[i]}!{b} | {a[i]}?(x).{cont}"

    p = " | ".join(component(i, False) for i in order)
    q = " | ".join(component(i, i == relayed) for i in order)
    return p, q


def _bisim_items(seed: int) -> list:
    from rhopi import pi_barbed_bisim
    from rhopi.cli import parse_pi

    p_text, q_text = handshake_family(BISIM_K, seed)
    p, q = parse_pi(p_text), parse_pi(q_text)
    expected = {True: "bisimilar", False: "not-bisimilar"}

    def check(weak: bool):
        def run():
            verdict = pi_barbed_bisim(p, q, weak=weak).verdict.value
            return [("weak" if weak else "strong", verdict, expected[weak])]

        return run

    # strong first: it explores both graphs from cold caches, the weak check
    # then spends its time on saturation and refinement
    text = f"P = {p_text} ; Q = {q_text}"
    return [Item("strong", text, check(False)), Item("weak", text, check(True))]
