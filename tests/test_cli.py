"""Command-line front-end tests: both surface syntaxes with their round-trip
laws, every subcommand's output and exit status, JSON mode, term files with
comments and abbreviations, and parse-error reporting."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from rhopi.cli import ParseError, main, parse_pi, parse_rho, parse_rho_name
from rhopi.harness import random_pi_term
from rhopi.piterm import pi_canon, show_pi
from rhopi.rhoterm import NULL_NAME, canon_name, canon_proc, show_proc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_reflective_example(capsys):
    code, out, _ = run(capsys, "parse", "@0?(y).*y | @0!(0)")
    assert code == 0
    assert parse_rho(out.strip()) is parse_rho("@0?(y).*y | @0!(0)")


def test_parse_name_passing_example(capsys):
    code, out, _ = run(capsys, "parse", "new x . !x?(y).0", "--calculus", "pi")
    assert code == 0
    assert pi_canon(parse_pi(out.strip())) is pi_canon(parse_pi("new x . !x?(y).0"))


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "parse", "*@(")
    assert code == 2
    assert "line 1" in err and "col" in err


def test_unbound_identifier_is_rejected(capsys):
    code, _, err = run(capsys, "parse", "*y0")
    assert code == 2
    assert "unbound" in err


def test_parenthesized_names_parse():
    assert parse_rho_name("@(*(@0))") is canon_name(NULL_NAME)


def test_quoted_scopes_are_closed(capsys):
    # an identifier under a quote cannot refer to an enclosing binder
    code, _, err = run(capsys, "parse", "@0?(y).@(*y)!(0)")
    assert code == 2
    assert "unbound" in err


# ---------------------------------------------------------------------------
# Equivalence queries
# ---------------------------------------------------------------------------


def test_nameq_quote_of_drop_collapses(capsys):
    code, out, _ = run(capsys, "nameq", "@(*@0)", "@0")
    assert code == 0
    assert out.strip() == "true"


def test_nameq_distinct_names(capsys):
    code, out, _ = run(capsys, "nameq", "@(@0!(0))", "@0")
    assert code == 1
    assert out.strip() == "false"


def test_structeq_unit_and_copies(capsys):
    code, out, _ = run(capsys, "structeq", "@0!(0) | 0", "@0!(0)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "structeq", "@0!(0) | @0!(0)", "@0!(0)")
    assert code == 1 and out.strip() == "false"


def test_qdepth_on_names_and_processes(capsys):
    code, out, _ = run(capsys, "qdepth", "@0", "--name")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "qdepth", "@(@0!(0))")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "qdepth", "@0!(0)")  # a process: depth of its names
    assert code == 0 and out.strip() == "1"


# ---------------------------------------------------------------------------
# Running terms
# ---------------------------------------------------------------------------


def test_reduce_performs_communication(capsys):
    code, out, _ = run(capsys, "reduce", "@0?(y).*y | @0!(@0!(0))", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # start state plus exactly one possible step
    assert parse_rho(lines[-1]) is parse_rho("@0!(0)")


def test_trace_reports_terminal_state(capsys):
    code, out, _ = run(
        capsys, "trace", "@0?(y).*y | @0!(@0!(0))", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terminal"] is True
    assert payload["steps"] == 1


def test_barbs_lists_directions(capsys):
    code, out, _ = run(capsys, "barbs", "@0!(0) | @0?(y).0")
    assert code == 0
    assert out.strip().splitlines() == ["in @0", "out @0"]


def test_barbs_restriction(capsys):
    code, out, _ = run(
        capsys, "barbs", "@0!(0) | @(@0!(0))!(0)", "--restrict", "@(@0!(0))"
    )
    assert code == 0
    assert out.strip().splitlines() == ["out @(@0!(0))"]


def test_barbs_refuses_a_restriction_not_free_in_the_term(capsys):
    # no immediate barb can be on a name that is not free in the term, so
    # such a name can only be a mistake: its answer would always be empty
    argv = ("barbs", "@0!(0) | @(@0!(0))!(0)", "--restrict")
    code, out, err = run(capsys, *argv, "@(@0!(0)),@(@0?(y0).0)")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --restrict name @(@0?(y0).0) is not free in the term")
    code, out, _ = run(capsys, *argv, "@(@0?(y0).0)", "--json")
    assert code == 2
    assert "not free in the term" in json.loads(out)["error"]
    # free but no barb: an empty answer, not an error
    code, out, _ = run(capsys, "barbs", "@0!(*@(@0!(0)))", "--restrict", "@(@0!(0))")
    assert (code, out.strip()) == (0, "")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_encode_legacy_restriction_example(capsys):
    code, out, _ = run(
        capsys, "encode", "new z . u!z", "--scheme", "mr", "--manifest"
    )
    assert code == 0
    assert "p?(z)" in out
    assert "u!(*z)" in out
    assert "p!(*n)" in out
    assert "z := @0" in out


def test_encode_server_scheme_prints_server(capsys):
    code, out, _ = run(capsys, "encode", "new z . u!z", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scheme"] == "ns"
    assert "server" in payload and "translation" in payload


def test_encode_raw_mode_expands_aliases(capsys):
    code, aliased, _ = run(capsys, "encode", "u!a", "--scheme", "mr")
    code2, raw, _ = run(capsys, "encode", "u!a", "--scheme", "mr", "--raw")
    assert code == 0 and code2 == 0
    assert "u!" in aliased
    assert "@" in raw  # raw names are spelled out as quotes


def test_encode_rejects_unguarded_replication(capsys):
    code, _, err = run(capsys, "encode", "!x!a")
    assert code == 1
    assert "replication" in err


# ---------------------------------------------------------------------------
# Bisimulation and divergence
# ---------------------------------------------------------------------------


def test_bisim_weak_restricted_pair(capsys):
    q1 = "@0!(0)"
    q2 = "@(@0!(0))?(a).@0!(0) | @(@0!(0))!(0)"
    code, out, _ = run(capsys, "bisim", q1, q2, "--weak", "--restrict", "@0")
    assert code == 0
    assert out.strip().splitlines()[0] == "bisimilar"
    code, out, _ = run(capsys, "bisim", q1, q2, "--restrict", "@0")
    assert code == 1
    assert out.startswith("not-bisimilar")


def test_bisim_name_passing_pair(capsys):
    code, out, _ = run(
        capsys,
        "bisim",
        "new z.(z!a | z?(y).x!b)",
        "x!b",
        "--calculus",
        "pi",
        "--weak",
        "--restrict",
        "x",
    )
    assert code == 0
    assert out.strip().splitlines()[0] == "bisimilar"


@pytest.mark.parametrize("restrict", ["u)", "U", "u v"])
def test_bisim_refuses_a_malformed_name_passing_restriction(capsys, restrict):
    argv = ("bisim", "u!a", "v!a", "--calculus", "pi", "--restrict")
    code, _, err = run(capsys, *argv, restrict)
    assert code == 2
    assert err.startswith("error: line 1")
    # the well-formed name still separates the two terms
    code, out, _ = run(capsys, *argv, "u")
    assert code == 1
    assert out.startswith("not-bisimilar")


def test_bisim_refuses_a_name_passing_restriction_free_in_neither_term(capsys):
    # a typo of u: name-passing reduction never adds a free name, so
    # observing only uu would make any two terms bisimilar
    argv = ("bisim", "u!a", "v!a", "--calculus", "pi", "--restrict")
    code, out, err = run(capsys, *argv, "uu")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --restrict name uu is free in neither term")
    code, out, _ = run(capsys, *argv, "uu", "--json")
    assert code == 2
    assert "free in neither term" in json.loads(out)["error"]


@pytest.mark.parametrize("restrict", ["", ",", " , "])
@pytest.mark.parametrize(
    "argv", [("barbs", "@0!(0)"), ("bisim", "@0!(0)", "0"), ("bisim", "a!b", "0", "--calculus", "pi")]
)
def test_a_restriction_list_that_names_nothing_is_refused(capsys, argv, restrict):
    # observing no name makes any two terms bisimilar, and an empty list must
    # not fall back to observing every name
    code, out, err = run(capsys, *argv, "--restrict", restrict)
    assert (code, out) == (2, "")
    assert "--restrict lists no name" in err
    code, out, _ = run(capsys, *argv, "--restrict", restrict, "--json")
    assert code == 2
    assert "--restrict lists no name" in json.loads(out)["error"]


def test_bisim_warns_of_a_reflective_restriction_free_in_neither_term(capsys):
    # the separation witness: its reduct barbs on the name u minted from the
    # payload, which is free in neither term; the warning keeps the verdict
    term = "@(@0!(0) | @(@0!(0))!(0))!(*@0 | *@(@0!(0))) | @(@0!(0) | @(@0!(0))!(0))?(y0).y0!(0)"
    u = "@(*@0 | *@(@0!(0)))"
    code, out, err = run(capsys, "bisim", term, "0", "--weak", "--restrict", u)
    assert code == 1
    assert out.startswith("not-bisimilar")
    assert err.startswith(f"warning: --restrict name {u} is free in neither term")
    code, out, err = run(capsys, "bisim", term, term, "--restrict", "@0")
    assert (code, out.strip(), err) == (0, "bisimilar", "")


def test_diverge_detects_a_cycle(capsys):
    rearm = "@0?(a).(*a | @0!(*a))"
    code, out, _ = run(capsys, "diverge", f"{rearm} | @0!({rearm})")
    assert code == 0
    assert out.strip() == "diverges (cycle)"


def test_diverge_name_passing(capsys):
    code, out, _ = run(
        capsys, "diverge", "!x?(y).x!a | x!a", "--calculus", "pi", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "diverges"
    code, out, _ = run(capsys, "diverge", "x!a | x?(y).0", "--calculus", "pi")
    assert code == 0
    assert out.strip() == "terminates"
    # the rule is reported as in the reflective calculus
    code, out, _ = run(capsys, "diverge", "!x?(y).x!a | x!a", "--calculus", "pi")
    assert out.strip() == "diverges (cycle)"
    code, out, _ = run(
        capsys, "diverge", "!x?(y).x!a | x!a", "--calculus", "pi", "--json"
    )
    assert json.loads(out)["rule"] == "cycle"


_COPIER = "!(a!b | a?(x).c!x)"


def test_bisim_unknown_names_the_budget_it_hit(capsys):
    relayed = "!(a!b | a?(x).new z.(z!x | z?(y).c!y))"
    argv = ("bisim", "--calculus", "pi", "--weak", _COPIER, relayed, "--max-states", "4")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == "unknown (max_states reached; raise --max-states)\n"
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert (payload["verdict"], payload["truncated"]) == ("unknown", True)
    assert payload["truncated_reason"] == "max_states"


def test_diverge_unknown_names_the_budget_it_hit(capsys):
    argv = ("diverge", "--calculus", "pi", "--max-states", "4", _COPIER)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "unknown (max_states reached; raise --max-states)\n"
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert (payload["verdict"], payload["truncated"]) == ("unknown", True)
    assert payload["truncated_reason"] == "max_states"
    code, out, _ = run(capsys, "diverge", "--calculus", "pi", "x!a | x?(y).0", "--json")
    payload = json.loads(out)
    assert (payload["truncated"], payload["truncated_reason"]) == (False, None)


@pytest.mark.parametrize(
    "argv, flag, value, least",
    [
        (("bisim", "0", "0"), "--max-states", "0", 1),
        (("bisim", "0", "0"), "--max-depth", "-1", 0),
        (("diverge", "0"), "--max-states", "0", 1),
        (("diverge", "0"), "--max-depth", "-1", 0),
        (("trace", "0"), "--max-depth", "-1", 0),
        (("reduce", "0"), "--steps", "-1", 0),
    ],
)
def test_negative_budgets_are_refused(capsys, argv, flag, value, least):
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least {least}, got {value}\n"


# ---------------------------------------------------------------------------
# Packaged experiments
# ---------------------------------------------------------------------------


def test_repro_separation_json(capsys):
    code, out, _ = run(capsys, "repro", "separation", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 3


def test_criteria_small_run(capsys):
    code, out, _ = run(
        capsys, "criteria", "--seed", "1", "--count", "6", "--size", "6", "--json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-1"), ("--size", "0")])
def test_criteria_refuses_an_empty_corpus(capsys, flag, value):
    code, out, err = run(capsys, "criteria", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1, got {value}\n"
    code, out, _ = run(capsys, "criteria", flag, value, "--json")
    assert code == 2
    assert json.loads(out) == {"error": f"{flag} must be at least 1, got {value}"}


# ---------------------------------------------------------------------------
# JSON mode
# ---------------------------------------------------------------------------


def test_bisim_witness_is_printed_as_terms(capsys):
    code, out, _ = run(capsys, "bisim", "@0!(0)", "@(@0!(0))!(0)", "--json")
    assert code == 1
    assert json.loads(out)["witness"]["only"] == ["left", ["out @0"]]
    code, out, _ = run(
        capsys, "bisim", "a!b | a?(x).0", "a!b | a?(x).a!b", "--calculus", "pi", "--json"
    )
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["reason"] == "move"
    assert pi_canon(parse_pi(witness["to_state"])) is pi_canon(parse_pi("0"))


def test_bisim_json_gives_the_refinements_block_count(capsys):
    argv = ("bisim", "a!b | a?(x).c!x", "a!b | a?(x).new z.(z!x | z?(y).c!y)", "--calculus", "pi")
    found = []
    for flags in ((), ("--weak",)):
        code, out, _ = run(capsys, *argv, *flags, "--json")
        payload = json.loads(out)
        found.append((code, payload["verdict"], payload["blocks"]))
        assert "blocks" not in run(capsys, *argv, *flags)[1]  # the text output is as it was
    # 2 + 3 states: strongly 4 classes, weakly the relay's extra step joins them into 2
    assert found == [(1, "not-bisimilar", 4), (0, "bisimilar", 2)]
    # no refinement runs on identical canonical terms or a cut-off graph
    code, out, _ = run(capsys, "bisim", "a!b", "a!b | 0", "--calculus", "pi", "--json")
    assert (code, json.loads(out)["blocks"]) == (0, None)
    cut = ("bisim", "--calculus", "pi", "--weak", _COPIER, "!(a!b | a?(x).c!c)", "--json")
    payload = json.loads(run(capsys, *cut, "--max-states", "4")[1])
    assert (payload["truncated"], payload["blocks"]) == (True, None)


_RHO_INPUTS = (
    "@0!(0) | @0?(y).*y",
    "@0!(@0!(0)) | @0?(y).(*y | @0!(0))",
    "@0?(a).(*a | @0!(*a)) | @0!(@0?(a).(*a | @0!(*a)))",
    "@(@0!(0))?(y).0 | @0!(0)",
)
_PI_INPUTS = ("new z . u!z", "!x?(y).x!a | x!a", "a!b | a?(x).0")


def _json_runs(tmp_path) -> list:
    rng = random.Random(11)
    pis = list(_PI_INPUTS) + [show_pi(random_pi_term(rng, size=6)) for _ in range(3)]
    small = ("--max-states", "200", "--max-depth", "30")
    runs = [
        ["nameq", "@0", "@(*@0)"],
        ["nameq", "@0", "@(@0!(0))"],
        ["qdepth", "@(@0!(0))", "--name"],
        ["repro", "separation"],
        ["criteria", "--count", "3", "--size", "5"],
    ]
    for t in _RHO_INPUTS:
        runs += [
            ["parse", t],
            ["structeq", t, _RHO_INPUTS[0]],
            ["qdepth", t],
            ["reduce", t, "--steps", "3"],
            ["trace", t, "--max-depth", "5"],
            ["barbs", t],
            ["barbs", t, "--restrict", "@0"],
            ["diverge", t, *small],
        ]
        for u in _RHO_INPUTS:
            runs += [["bisim", t, u, *small], ["bisim", t, u, "--weak", *small]]
    for t in pis:
        runs += [
            ["parse", t, "--calculus", "pi"],
            ["encode", t],
            ["encode", t, "--scheme", "mr", "--manifest"],
            ["encode", t, "--raw"],
            ["diverge", t, "--calculus", "pi", *small],
            ["bisim", t, pis[2], "--calculus", "pi", *small],
            ["bisim", t, pis[2], "--calculus", "pi", "--weak", *small],
        ]
    pi_file = tmp_path / "t.pi"
    pi_file.write_text("a!b\n", encoding="utf-8")
    runs += [  # errors
        ["parse", "*@("],
        ["parse", "*y0"],
        ["reduce", str(tmp_path / "missing.rho")],
        ["encode", "!(u!z)"],
        ["bisim", str(pi_file), "@0!(0)"],
    ]
    return runs


def test_every_subcommand_prints_json(tmp_path, capsys):
    runs = _json_runs(tmp_path)
    assert {r[0] for r in runs} == {
        "parse", "nameq", "structeq", "qdepth", "reduce", "trace", "barbs",
        "encode", "bisim", "diverge", "repro", "criteria",
    }
    for argv in runs:
        code, out, _ = run(capsys, *argv, "--json")
        assert code in (0, 1, 2), argv
        json.loads(out)


def test_deeply_nested_terms_are_a_usage_error(capsys):
    name = "@0"
    for _ in range(2000):
        name = f"@({name}!(0))"
    proc = f"{name}!(0)"
    for argv in (
        ("parse", proc),
        ("qdepth", name, "--name"),
        ("nameq", name, "@0"),
        ("reduce", proc),
    ):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2, argv
            assert "too deeply" in err
            if extra:
                assert "too deeply" in json.loads(out)["error"]


def test_wide_pi_parallels_in_two_orders_are_bisimilar_unexplored(capsys):
    # 2,000 components, which the parser nests one PPar deep each
    texts = [" | ".join(f"a{i}!b" for i in order) for order in (range(2000), reversed(range(2000)))]
    code, out, _ = run(capsys, "bisim", "--calculus", "pi", *texts)
    assert code == 0 and out.strip() == "bisimilar"
    code, out, _ = run(capsys, "bisim", "--calculus", "pi", *texts, "--json")
    assert code == 0 and json.loads(out)["states"] == [1, 1]


def test_wide_pi_parallels_encode(capsys):
    # 2,000 components over a few atoms: the k-th atom's name nests k quotes
    # deep, so it is the width, not the names, that must not recurse
    text = " | ".join(f"a{i % 5}?(x).b{i % 3}!x" for i in range(2000))
    code, out, _ = run(capsys, "encode", text)
    assert code == 0
    translation = out.splitlines()[0]
    assert translation.count("?(") == 2000 and translation.count("!(") == 2000
    code, out, _ = run(capsys, "encode", text, "--json")
    assert code == 0 and json.loads(out)["translation"] == translation


# ---------------------------------------------------------------------------
# Term files
# ---------------------------------------------------------------------------


def test_rho_file_with_comments_and_abbreviations(tmp_path, capsys):
    f = tmp_path / "pair.rho"
    f.write_text(
        "// a sender next to a forwarder\n"
        "def token = @0!(0)\n"
        "def fwd = @0?(y).*y\n"
        "fwd | @0!(token)\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "reduce", str(f), "--steps", "1")
    assert code == 0
    assert parse_rho(out.strip().splitlines()[-1]) is parse_rho("@0!(0)")


def test_pi_file_sets_the_calculus(tmp_path, capsys):
    f = tmp_path / "term.pi"
    f.write_text("// one exchange\nx!a | x?(y).y!b\n", encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(f))
    assert code == 0
    assert pi_canon(parse_pi(out.strip())) is pi_canon(parse_pi("x!a | x?(y).y!b"))


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    # .rho suffix but no such file: the name is treated as a term and fails
    code, _, err = run(capsys, "parse", str(tmp_path / "absent.rho"))
    assert code == 2


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_reflective_print_parse_round_trip():
    rng = random.Random(21)
    for _ in range(1000):
        t = oracles.random_proc(rng, rng.randrange(1, 10))
        c = canon_proc(oracles.to_pkg_proc(t))
        assert parse_rho(show_proc(c)) is c


def test_name_passing_print_parse_round_trip():
    rng = random.Random(22)
    for _ in range(1000):
        t = pi_canon(random_pi_term(rng, size=rng.randrange(1, 12)))
        assert pi_canon(parse_pi(show_pi(t))) is t


# ---------------------------------------------------------------------------
# Start-up
# ---------------------------------------------------------------------------


def test_importing_the_cli_generates_no_record_code():
    # the records are named tuples: no dataclass decoration runs at import,
    # and neither dataclasses nor the inspect module it pulls in is loaded
    # (-S: no site hooks, which may import either on their own)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rhopi.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.split() == ["[]"]
