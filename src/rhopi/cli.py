"""Command-line front end: parsers, pretty-printers, and subcommands.

Surface syntax
--------------

Reflective calculus (``rho``)::

    P ::= 0 | P | P | x!(P) | x?(y).P | *x | (P)
    x ::= @P | y        (y: an identifier bound by an enclosing ?(y))

Name-passing calculus (``pi``)::

    P ::= 0 | P | P | x!y | x?(y).P | new y . P | !P | (P)
    x ::= identifier    ([a-z][a-zA-Z0-9_]*)

Both calculi share the lexical layer: ``//`` starts a line comment, and a
term may be preceded by ``def name = term`` abbreviations, expanded (purely
textually, at the parse tree level) wherever ``name`` appears in process
position.  Identifiers in the reflective calculus are only meaningful where
an enclosing input binds them; a quoted process ``@(...)`` opens a fresh
scope, so identifiers bound outside it are not visible inside.

Commands either analyse one term (``parse``, ``qdepth``, ``reduce``,
``trace``, ``barbs``, ``encode``, ``diverge``), compare two (``nameq``,
``structeq``, ``bisim``), or run packaged experiments (``repro``,
``criteria``).  A term argument is read from a file when it names an
existing ``.rho``/``.pi`` file, and parsed as literal text otherwise.

Exit status: 0 on success (and on ``true``/``Pass``/``bisimilar``
outcomes), 1 when a check command resolves negatively or cannot resolve,
2 on usage or syntax errors and on terms nested too deeply to process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

from .encode import (
    EncodingError,
    NsEncoding,
    encode_mr,
    encode_ns,
)
from .equiv import (
    BisimVerdict,
    divergence_probe,
    pi_barbed_bisim,
    pi_divergence,
    rho_barbed_bisim,
)
from .harness import Report, check_criteria, repro_cex1, repro_cex2, repro_separation_witness, BoundsTooSmall
from .lts import DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES
from .piterm import PiTerm, pi_free_names, show_pi, pin, pnew, pnil, pout, ppar, prepl
from .rhoreduce import barbs as rho_barbs
from .rhoreduce import step as rho_step
from .rhoterm import (
    NULL_NAME,
    BoundMarker,
    NamespaceScheme,
    RhoName,
    RhoProc,
    canon_name,
    canon_proc,
    drop,
    free_names,
    inp,
    lift,
    marker,
    name_eq,
    nil,
    par,
    peel,
    quote,
    quote_depth,
    quote_depth_proc,
    show_name,
    show_proc,
)

__all__ = ["ParseError", "parse_rho", "parse_rho_name", "parse_pi", "main"]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


class _Tok(NamedTuple):
    kind: str  # punct kinds are their own text; others: ident, zero, eof
    text: str
    line: int
    col: int


_PUNCT = "@()*!?.|="
_KEYWORDS = ("new", "def")


def _tokenize(text: str) -> list:
    toks = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _PUNCT:
            toks.append(_Tok(c, c, line, col))
            i += 1
            col += 1
            continue
        if c == "0":
            toks.append(_Tok("zero", "0", line, col))
            i += 1
            col += 1
            continue
        if c.islower() and c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            toks.append(_Tok(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Cursor:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}", t.line, t.col
            )
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)


# ---------------------------------------------------------------------------
# Reflective-calculus parser
# ---------------------------------------------------------------------------
#
# Identifiers become bound-name markers directly: the binder introduced at
# nesting depth d is the marker with index d, which is exactly how the
# pretty-printer renders canonical terms, so print -> parse is the identity
# on canonical forms.  A quoted name opens a fresh scope (depth 0, no
# visible binders): names are atomic, so an identifier inside a quote can
# never refer to an input outside it.


def _parse_rho_proc(cur: _Cursor, env: dict, depth: int, defs: dict) -> RhoProc:
    parts = [_parse_rho_unit(cur, env, depth, defs)]
    while cur.peek().kind == "|":
        cur.next()
        parts.append(_parse_rho_unit(cur, env, depth, defs))
    return parts[0] if len(parts) == 1 else par(*parts)


def _parse_rho_unit(cur: _Cursor, env: dict, depth: int, defs: dict) -> RhoProc:
    t = cur.peek()
    if t.kind == "zero":
        cur.next()
        return nil()
    if t.kind == "(":
        cur.next()
        p = _parse_rho_proc(cur, env, depth, defs)
        cur.expect(")")
        return p
    if t.kind == "*":
        cur.next()
        return drop(_parse_rho_name(cur, env, defs))
    if t.kind in ("@", "ident"):
        if t.kind == "ident" and t.text not in env:
            if t.text in defs and cur.toks[cur.pos + 1].kind not in ("!", "?"):
                cur.next()
                return defs[t.text]
            raise ParseError(f"unbound identifier {t.text!r}", t.line, t.col)
        subject = _parse_rho_name(cur, env, defs)
        nxt = cur.peek()
        if nxt.kind == "!":
            cur.next()
            cur.expect("(")
            body = _parse_rho_proc(cur, env, depth, defs)
            cur.expect(")")
            return lift(subject, body)
        if nxt.kind == "?":
            cur.next()
            cur.expect("(")
            b = cur.expect("ident")
            cur.expect(")")
            cur.expect(".")
            binder = marker(depth)
            inner = dict(env)
            inner[b.text] = binder
            body = _parse_rho_unit(cur, inner, depth + 1, defs)
            return inp(subject, binder, body)
        cur.fail("expected '!' or '?' after a name in process position")
    cur.fail("expected a process")


def _parse_rho_name(cur: _Cursor, env: dict, defs: dict) -> RhoName:
    t = cur.peek()
    if t.kind == "(":
        cur.next()
        x = _parse_rho_name(cur, env, defs)
        cur.expect(")")
        return x
    if t.kind == "@":
        cur.next()
        nxt = cur.peek()
        if nxt.kind == "zero":
            cur.next()
            return quote(nil())
        if nxt.kind == "(":
            cur.next()
            body = _parse_rho_proc(cur, {}, 0, defs)
            cur.expect(")")
            return quote(body)
        # @*x and @ident!(...) style bodies without parentheses
        body = _parse_rho_unit(cur, {}, 0, defs)
        return quote(body)
    if t.kind == "ident":
        if t.text not in env:
            raise ParseError(f"unbound identifier {t.text!r}", t.line, t.col)
        cur.next()
        return env[t.text]
    cur.fail("expected a name (@P or a bound identifier)")


def _parse_defs(cur: _Cursor, parse_one: Callable, defs: dict) -> None:
    while cur.peek().kind == "def":
        cur.next()
        name = cur.expect("ident")
        if name.text in defs:
            raise ParseError(f"duplicate def {name.text!r}", name.line, name.col)
        cur.expect("=")
        defs[name.text] = parse_one(cur, defs)


def _parse_text(text: str, parse_def: Callable, parse_one: Callable, what: str):
    """Tokenize text, read its ``def``s with parse_def, then one term or
    name (what) with parse_one, and require the end of input."""
    cur = _Cursor(_tokenize(text))
    defs: dict = {}
    _parse_defs(cur, parse_def, defs)
    x = parse_one(cur, defs)
    tail = cur.peek()
    if tail.kind != "eof":
        raise ParseError(f"unexpected {tail.text!r} after {what}", tail.line, tail.col)
    return x


def _parse_rho_top(cur: _Cursor, defs: dict) -> RhoProc:
    return _parse_rho_proc(cur, {}, 0, defs)


def parse_rho(text: str) -> RhoProc:
    """Parse a reflective-calculus process; the result is canonical."""
    return canon_proc(_parse_text(text, _parse_rho_top, _parse_rho_top, "term"))


def parse_rho_name(text: str) -> RhoName:
    """Parse a closed name (@P); the result is canonical."""
    name = _parse_text(text, _parse_rho_top, lambda c, d: _parse_rho_name(c, {}, d), "name")
    return canon_name(name)


# ---------------------------------------------------------------------------
# Name-passing-calculus parser
# ---------------------------------------------------------------------------


def _parse_pi_proc(cur: _Cursor, defs: dict) -> PiTerm:
    parts = [_parse_pi_unit(cur, defs)]
    while cur.peek().kind == "|":
        cur.next()
        parts.append(_parse_pi_unit(cur, defs))
    out = parts[0]
    for p in parts[1:]:
        out = ppar(out, p)
    return out


def _parse_pi_unit(cur: _Cursor, defs: dict) -> PiTerm:
    t = cur.peek()
    if t.kind == "zero":
        cur.next()
        return pnil()
    if t.kind == "(":
        cur.next()
        p = _parse_pi_proc(cur, defs)
        cur.expect(")")
        return p
    if t.kind == "!":
        cur.next()
        return prepl(_parse_pi_unit(cur, defs))
    if t.kind == "new":
        cur.next()
        b = cur.expect("ident")
        cur.expect(".")
        return pnew(b.text, _parse_pi_unit(cur, defs))
    if t.kind == "ident":
        cur.next()
        nxt = cur.peek()
        if nxt.kind == "!":
            cur.next()
            obj = cur.expect("ident")
            return pout(t.text, obj.text)
        if nxt.kind == "?":
            cur.next()
            cur.expect("(")
            b = cur.expect("ident")
            cur.expect(")")
            cur.expect(".")
            return pin(t.text, b.text, _parse_pi_unit(cur, defs))
        if t.text in defs:
            return defs[t.text]
        raise ParseError(
            f"identifier {t.text!r} is not a send, receive, or def reference",
            t.line,
            t.col,
        )
    cur.fail("expected a process")


def parse_pi(text: str) -> PiTerm:
    """Parse a name-passing process, as written (not canonicalized)."""
    return _parse_text(text, _parse_pi_proc, _parse_pi_proc, "term")


def _parse_pi_name(text: str) -> str:
    """Parse one name-passing name (an identifier)."""
    return _parse_text(text, _parse_pi_proc, lambda c, d: c.expect("ident").text, "name")


# ---------------------------------------------------------------------------
# Aliased printing for encodings
# ---------------------------------------------------------------------------


_TEMPLATE_LABEL = {
    NamespaceScheme.LEFT_INCREMENT: "l",
    NamespaceScheme.RIGHT_INCREMENT: "r",
    NamespaceScheme.COMPOSITION: "c",
}


def _alias_renderer(alias: dict) -> Callable:
    """A name renderer that prefers short aliases, renders derived names
    compositionally (l(x), r(x), c(x,y)), and otherwise synthesizes a fresh
    display token (k0, k1, ...) per distinct name."""
    fallback: dict = {}

    def render(x: RhoName) -> str:
        c = canon_name(x)
        got = alias.get(c)
        if got is not None:
            return got
        if isinstance(c, BoundMarker):
            return f"y{c.index}"
        template = peel(c)
        if template is not None:
            scheme, parts = template
            return f"{_TEMPLATE_LABEL[scheme]}({','.join(render(y) for y in parts)})"
        if c is NULL_NAME:
            return "@0"
        got = fallback.get(c)
        if got is None:
            got = f"k{len(fallback)}"
            fallback[c] = got
        return got

    return render


def _encoding_roles(enc) -> list:
    """(label, machine name) for each parameter of an encoding."""
    if isinstance(enc, NsEncoding):
        return list(zip("n v x z s".split(), enc.params.all_names()))
    return [("n", enc.n), ("p", enc.p)]


def _encoding_aliases(enc) -> dict:
    alias: dict = {}
    atoms = set(enc.policy.known_atoms())
    for a in enc.policy.known_atoms():
        alias[canon_name(enc.policy.name_for(a))] = a
    for label, nm in _encoding_roles(enc):
        while label in atoms:
            label += "'"
        atoms.add(label)
        alias[canon_name(nm)] = label
    return alias


# ---------------------------------------------------------------------------
# Command plumbing
# ---------------------------------------------------------------------------


class _Calculus(NamedTuple):
    """What the commands that take either calculus need of it."""

    parse: Callable
    show: Callable
    parse_subject: Callable  # a canonical barb subject, as --restrict names it
    show_subject: Callable
    free_names: Callable
    bisim: Callable
    diverge: Callable
    mints_names: bool  # a reduct can barb on a name free in neither term


_CALCULI = {
    "rho": _Calculus(
        parse_rho, show_proc, parse_rho_name, show_name, free_names, rho_barbed_bisim, divergence_probe, True
    ),
    "pi": _Calculus(
        parse_pi, show_pi, _parse_pi_name, str, pi_free_names, pi_barbed_bisim, pi_divergence, False
    ),
}


def _read_term_arg(arg: str, default_calculus: str) -> tuple:
    """Return (text, calculus): file contents when arg names a term file."""
    if arg.endswith((".rho", ".pi")) and os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read(), ("rho" if arg.endswith(".rho") else "pi")
    return arg, default_calculus


def _parse_restrict(spec: Optional[str], parse: Callable) -> Optional[list]:
    """The names of a comma-separated list, split at top-level commas only
    and each parsed with parse; None for no list, an error for an empty one."""
    if spec is None:
        return None
    out, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    names = [parse(s.strip()) for s in out if s.strip()]
    if not names:
        raise ParseError("--restrict lists no name", 1, 1)
    return names


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _error(args, message: str, code: int) -> int:
    """Report an error on stderr (and as a JSON object on stdout in JSON
    mode, so that the output always parses); returns the exit status."""
    print(f"error: {message}", file=sys.stderr)
    if args.json:
        print(json.dumps({"error": message}))
    return code


def _verdict_line(verdict: str, reason: Optional[str]) -> str:
    """A verdict; an Unknown also names the budget it hit and its flag."""
    if verdict == "unknown" and reason:
        verdict += f" ({reason} reached; raise --{reason.replace('_', '-')})"
    return verdict


def _report_out(args, rep: Report) -> int:
    _emit(args, rep.to_dict(), rep.summary_lines())
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    text, name = _read_term_arg(args.term, args.calculus)
    calc = _CALCULI[name]
    shown = calc.show(calc.parse(text))
    _emit(args, {"calculus": name, "term": shown}, [shown])
    return 0


def _cmd_nameq(args) -> int:
    a = parse_rho_name(args.a)
    b = parse_rho_name(args.b)
    same = name_eq(a, b)
    _emit(args, {"equal": same}, ["true" if same else "false"])
    return 0 if same else 1


def _cmd_structeq(args) -> int:
    text_a, _ = _read_term_arg(args.a, "rho")
    text_b, _ = _read_term_arg(args.b, "rho")
    same = parse_rho(text_a) is parse_rho(text_b)
    _emit(args, {"equal": same}, ["true" if same else "false"])
    return 0 if same else 1


def _cmd_qdepth(args) -> int:
    text, _ = _read_term_arg(args.term, "rho")
    if args.name:
        d = quote_depth(parse_rho_name(text))
    else:
        try:
            d = quote_depth_proc(parse_rho(text))
        except ParseError:
            d = quote_depth(parse_rho_name(text))
    _emit(args, {"depth": d}, [str(d)])
    return 0


def _greedy_run(p: RhoProc, steps: int) -> list:
    seq = [p]
    for _ in range(steps):
        succs = rho_step(seq[-1])
        if not succs:
            break
        seq.append(min(succs, key=show_proc))
    return seq


def _cmd_reduce(args) -> int:
    text, _ = _read_term_arg(args.term, "rho")
    seq = _greedy_run(parse_rho(text), args.steps)
    lines = [show_proc(s) for s in seq]
    _emit(args, {"trace": lines, "steps": len(lines) - 1}, lines)
    return 0


def _cmd_trace(args) -> int:
    text, _ = _read_term_arg(args.term, "rho")
    seq = _greedy_run(parse_rho(text), args.max_depth)
    terminal = not rho_step(seq[-1])
    lines = [f"{i}: {show_proc(s)}" for i, s in enumerate(seq)]
    if not terminal:
        lines.append(f"(stopped at depth bound {args.max_depth})")
    _emit(
        args,
        {"trace": [show_proc(s) for s in seq], "steps": len(seq) - 1, "terminal": terminal},
        lines,
    )
    return 0


def _cmd_barbs(args) -> int:
    text, _ = _read_term_arg(args.term, "rho")
    p = parse_rho(text)
    restrict = _parse_restrict(args.restrict, parse_rho_name)
    free = free_names(p)
    stray = next((x for x in restrict or () if x not in free), None)
    if stray is not None:  # a barb's subject stands free at the top level
        return _error(args, f"--restrict name {show_name(stray)} is not free in the term", 2)
    got = sorted(f"{d} {show_name(x)}" for d, x in rho_barbs(p, restrict))
    _emit(args, {"barbs": got}, got)
    return 0


def _cmd_encode(args) -> int:
    text, _ = _read_term_arg(args.term, "pi")
    source = parse_pi(text)
    try:
        if args.scheme == "ns":
            enc = encode_ns(source)
        else:
            enc = encode_mr(source)
    except EncodingError as exc:
        return _error(args, str(exc), 1)
    render = show_name if args.raw else _alias_renderer(_encoding_aliases(enc))
    lines = [show_proc(enc.translation, render)]
    payload = {"scheme": args.scheme, "translation": lines[0]}
    if isinstance(enc, NsEncoding):
        payload["server"] = show_proc(enc.server, render)
        lines.append(f"server: {payload['server']}")
    if args.manifest:
        man = {}
        for a in enc.policy.known_atoms():
            man[a] = show_name(enc.policy.name_for(a))
        for label, nm in _encoding_roles(enc):
            man[f"[param {label}]"] = show_name(nm)
        payload["manifest"] = man
        lines.append("manifest:")
        lines.extend(f"  {k} := {v}" for k, v in man.items())
    _emit(args, payload, lines)
    return 0


def _cmd_bisim(args) -> int:
    text_a, calc_a = _read_term_arg(args.a, args.calculus)
    text_b, calc_b = _read_term_arg(args.b, args.calculus)
    if calc_a != calc_b:
        return _error(args, "cannot compare terms from different calculi", 2)
    calc = _CALCULI[calc_a]
    a, b = calc.parse(text_a), calc.parse(text_b)
    restrict = _parse_restrict(args.restrict, calc.parse_subject)
    if restrict:
        free = calc.free_names(a) | calc.free_names(b)
        for x in (x for x in restrict if x not in free):
            msg = f"--restrict name {calc.show_subject(x)} is free in neither term"
            if not calc.mints_names:  # then no reduct can ever barb on x
                return _error(args, msg, 2)
            print(f"warning: {msg}; only a name minted by reduction can barb on it", file=sys.stderr)
    rep = calc.bisim(
        a,
        b,
        weak=args.weak,
        restrict=restrict,
        max_states=args.max_states,
        max_depth=args.max_depth,
    )
    payload = {
        "verdict": rep.verdict.value,
        "weak": rep.weak,
        "states": list(rep.states),
        "truncated": rep.truncated,
        "truncated_reason": rep.truncated_reason,
        "witness": _render_witness(rep.witness, calc),
        "blocks": rep.blocks,
    }
    lines = [_verdict_line(rep.verdict.value, rep.truncated_reason)]
    if rep.witness:
        lines.append(f"witness: {payload['witness']}")
    _emit(args, payload, lines)
    return 0 if rep.verdict is BisimVerdict.BISIMILAR else 1


def _render_witness(witness: Optional[dict], calc: _Calculus) -> Optional[dict]:
    """A bisimulation witness in surface syntax: barbs as "direction name",
    states as printed terms."""
    if witness is None:
        return None
    out = dict(witness)
    if "only" in witness:
        side, found = witness["only"]
        out["only"] = [side, [f"{d} {calc.show_subject(x)}" for d, x in found]]
    if "to_state" in witness:
        out["to_state"] = calc.show(witness["to_state"])
    return out


def _cmd_diverge(args) -> int:
    text, name = _read_term_arg(args.term, args.calculus)
    calc = _CALCULI[name]
    rep = calc.diverge(calc.parse(text), max_states=args.max_states, max_depth=args.max_depth)
    payload = {k: getattr(rep, k) for k in ("rule", "states", "truncated", "truncated_reason")}
    payload["verdict"] = rep.verdict.value
    line = _verdict_line(rep.verdict.value, rep.truncated_reason)
    _emit(args, payload, [line + (f" ({rep.rule})" if rep.rule else "")])
    return 0


def _cmd_repro(args) -> int:
    run = {"cex1": repro_cex1, "cex2": repro_cex2, "separation": repro_separation_witness}
    try:
        rep = run[args.experiment]()
    except BoundsTooSmall as exc:
        return _error(args, str(exc), 1)
    return _report_out(args, rep)


def _cmd_criteria(args) -> int:
    rep = check_criteria(seed=args.seed, count=args.count, size=args.size)
    return _report_out(args, rep)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# the least value of each budget and size option, on every command that has it
_LEAST = {"--max-states": 1, "--max-depth": 0, "--steps": 0, "--count": 1, "--size": 1}


def _add_bounds(sp, states_default=DEFAULT_MAX_STATES, depth_default=DEFAULT_MAX_DEPTH):
    sp.add_argument("--max-states", type=int, default=states_default)
    sp.add_argument("--max-depth", type=int, default=depth_default)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rhopi",
        description="workbench for the reflective and name-passing process calculi",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, fn: Callable, help: str):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("parse", _cmd_parse, "parse a term and print it back")
    sp.add_argument("term")
    sp.add_argument("--calculus", choices=tuple(_CALCULI), default="rho")

    sp = command("nameq", _cmd_nameq, "name equivalence of two names")
    sp.add_argument("a")
    sp.add_argument("b")

    sp = command("structeq", _cmd_structeq, "structural congruence of two processes")
    sp.add_argument("a")
    sp.add_argument("b")

    sp = command("qdepth", _cmd_qdepth, "quote depth of a name or process")
    sp.add_argument("term")
    sp.add_argument("--name", action="store_true", help="force name parse")

    sp = command("reduce", _cmd_reduce, "run a bounded reduction sequence")
    sp.add_argument("term")
    sp.add_argument("--steps", type=int, default=1)

    sp = command("trace", _cmd_trace, "run to a stuck state or the depth bound")
    sp.add_argument("term")
    sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)

    sp = command("barbs", _cmd_barbs, "immediate observables of a process")
    sp.add_argument("term")
    sp.add_argument("--restrict", help="comma-separated names to observe, each free in the term")

    sp = command("encode", _cmd_encode, "translate a name-passing term")
    sp.add_argument("term")
    sp.add_argument("--scheme", choices=("ns", "mr"), default="ns")
    sp.add_argument("--manifest", action="store_true", help="print the name map")
    sp.add_argument("--raw", action="store_true", help="full quoted names, no aliases")

    sp = command("bisim", _cmd_bisim, "bounded barbed bisimulation check")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--calculus", choices=tuple(_CALCULI), default="rho")
    sp.add_argument("--weak", action="store_true")
    sp.add_argument("--restrict", help="comma-separated names to observe")
    _add_bounds(sp, 2000, 200)

    sp = command("diverge", _cmd_diverge, "bounded divergence analysis")
    sp.add_argument("term")
    sp.add_argument("--calculus", choices=tuple(_CALCULI), default="rho")
    _add_bounds(sp, 400, 120)

    sp = command("repro", _cmd_repro, "run a packaged experiment")
    sp.add_argument("experiment", choices=("cex1", "cex2", "separation"))

    sp = command("criteria", _cmd_criteria, "randomized behavioural criteria suite")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--size", type=int, default=10)

    return ap


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    for flag, least in _LEAST.items():
        value = getattr(args, flag[2:].replace("-", "_"), least)
        if value < least:
            return _error(args, f"{flag} must be at least {least}, got {value}", 2)
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError) as exc:
        return _error(args, str(exc), 2)
    except EncodingError as exc:
        return _error(args, str(exc), 1)
    except RecursionError:
        return _error(args, "term nests too deeply for this implementation", 2)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
