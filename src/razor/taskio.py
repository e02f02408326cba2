"""Parsing and rendering of tasks and hypotheses.

A task is three Prolog-like files: background knowledge (facts and safe
rules), examples (pos/1 and neg/1 wrappers around ground atoms) and a bias
(head_pred/2, body_pred/2, size bounds, constant allow-lists).  The rule
grammar round-trips: parse(render(h)) == h for canonical hypotheses.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .generate import Bias, BiasError, PredKey
from .logic import (
    Const,
    Hypothesis,
    Literal,
    Rule,
    Var,
    canonicalize_hypothesis,
    hypothesis_sorted,
    unsafe_head_vars,
)
from .pointless import PointlessEvidence

BK_FILE = "bk.pl"
EXS_FILE = "exs.pl"
BIAS_FILE = "bias.pl"
TEST_EXS_FILE = "exs_test.pl"


class TaskError(Exception):
    """A located parse or validation error."""

    def __init__(self, message: str, path: str = "<input>",
                 line: Optional[int] = None, col: Optional[int] = None):
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        where = path
        if line is not None:
            where += f":{line}"
            if col is not None:
                where += f":{col}"
        super().__init__(f"{where}: {message}")


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s+ | %[^\n]*
  | (?P<punct>:-|[().,\[\]])
  | (?P<int>\d+)
  | (?P<atom>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Compound:
    """A nested term such as f(5) inside pos(f(5)); rejected everywhere
    except as the payload of an example wrapper."""
    name: str
    args: tuple
    line: int
    col: int


@dataclass(frozen=True)
class ConstList:
    items: tuple[Const, ...]
    line: int
    col: int


ParsedTerm = Union[Var, Const, Compound, ConstList]


@dataclass(frozen=True)
class ParsedLiteral:
    pred: str
    args: tuple[ParsedTerm, ...]
    line: int
    col: int

    @property
    def pred_key(self) -> tuple[str, int]:
        return (self.pred, len(self.args))


@dataclass(frozen=True)
class ParsedClause:
    head: ParsedLiteral
    body: tuple[ParsedLiteral, ...]


class _Parser:
    """Recursive descent over (kind, text, offset) tokens.  Whitespace and
    comments make no token, and a last ``end`` token, placed at the last
    real token, stands for the end of input."""

    def __init__(self, text: str, path: str):
        self.path = path
        self.line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
        self.tokens = [(m.lastgroup, m.group(), m.start())
                       for m in _TOKEN_RE.finditer(text) if m.lastgroup]
        for kind, value, offset in self.tokens:
            if kind == "bad":
                raise self._error(f"unexpected character {value!r}", offset)
        self.tokens.append(("end", "", self.tokens[-1][2] if self.tokens else 0))
        self.i = 0

    def _where(self, offset: int) -> tuple[int, int]:
        """The 1-based line and column of a text offset."""
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def _error(self, message: str, offset: int) -> TaskError:
        return TaskError(message, self.path, *self._where(offset))

    def _next(self, expect: Optional[str] = None) -> tuple[str, str, int]:
        tok = kind, text, offset = self.tokens[self.i]
        if kind == "end":
            raise self._error(
                f"unexpected end of input{f', expected {expect!r}' if expect else ''}", offset)
        if expect is not None and text != expect:
            raise self._error(f"expected {expect!r}, found {text!r}", offset)
        self.i += 1
        return tok

    def _terms(self, close: str, list_at: Optional[int] = None) -> tuple:
        """Comma-separated terms up to the ``close`` token.  ``list_at`` is
        the offset of a constant list's '[': such a list may be empty, and
        each item must be a constant."""
        terms = []
        # an empty list, or a '[' at the end of input that ']' must report
        if list_at is None or self.tokens[self.i][1] not in (close, ""):
            while True:
                term = self._term()
                if list_at is not None and not isinstance(term, Const):
                    raise self._error("constant lists may only contain constants", list_at)
                terms.append(term)
                if self.tokens[self.i][1] != ",":
                    break
                self.i += 1
        self._next(close)
        return tuple(terms)

    def _term(self) -> ParsedTerm:
        kind, text, offset = self._next()
        if kind == "var":
            return Var(text)
        if kind == "int":
            return Const(text)
        if kind == "atom":
            if self.tokens[self.i][1] != "(":
                return Const(text)
            self.i += 1
            return Compound(text, self._terms(")"), *self._where(offset))
        if text == "[":
            return ConstList(self._terms("]", offset), *self._where(offset))
        raise self._error(f"expected a term, found {text!r}", offset)

    def _literal(self) -> ParsedLiteral:
        kind, text, offset = self._next()
        if kind != "atom":
            raise self._error(f"expected a predicate, found {text!r}", offset)
        args = ()
        if self.tokens[self.i][1] == "(":
            self.i += 1
            args = self._terms(")")
        return ParsedLiteral(text, args, *self._where(offset))

    def clauses(self) -> list[ParsedClause]:
        out = []
        while self.tokens[self.i][0] != "end":
            head = self._literal()
            body: list[ParsedLiteral] = []
            if self.tokens[self.i][1] == ":-":
                self.i += 1
                body.append(self._literal())
                while self.tokens[self.i][1] == ",":
                    self.i += 1
                    body.append(self._literal())
            self._next(".")
            out.append(ParsedClause(head, tuple(body)))
        return out


def _plain_literal(pl: ParsedLiteral, path: str) -> Literal:
    """Convert a parsed literal whose arguments must be plain terms."""
    args: list = []
    for a in pl.args:
        if isinstance(a, Compound):
            raise TaskError(
                f"function symbols are not supported: {a.name}(...)",
                path, a.line, a.col,
            )
        if isinstance(a, ConstList):
            raise TaskError("lists are only allowed in constant/3 declarations",
                            path, a.line, a.col)
        args.append(a)
    return Literal(pl.pred, tuple(args))


# ---------------------------------------------------------------------------
# bias
# ---------------------------------------------------------------------------

_DIRECTIVES = {
    "head_pred", "body_pred", "max_vars", "max_body", "max_rules",
    "enable_recursion", "constant",
}


def parse_bias(text: str, path: str = BIAS_FILE) -> Bias:
    clauses = _Parser(text, path).clauses()
    head: Optional[PredKey] = None
    body_preds: list[PredKey] = []
    bounds = {"max_vars": 4, "max_body": 4, "max_rules": 1}
    recursion = False
    constant_decls: list[ParsedLiteral] = []
    # the last directive of each name, to locate errors the Bias raises
    at: dict[str, ParsedLiteral] = {}

    def _err(msg: str, pl: ParsedLiteral):
        raise TaskError(msg, path, pl.line, pl.col)

    def _pred_decl(pl: ParsedLiteral) -> PredKey:
        if len(pl.args) != 2 or not isinstance(pl.args[0], Const) \
                or not isinstance(pl.args[1], Const) or not pl.args[1].name.isdigit():
            _err(f"{pl.pred} expects (name, arity)", pl)
        return (pl.args[0].name, int(pl.args[1].name))

    for cl in clauses:
        pl = cl.head
        if cl.body:
            _err("bias files contain only directives", pl)
        if pl.pred not in _DIRECTIVES:
            _err(f"unknown bias directive {pl.pred!r}", pl)
        at[pl.pred] = pl
        if pl.pred == "head_pred":
            if head is not None:
                _err("duplicate head_pred declaration", pl)
            head = _pred_decl(pl)
        elif pl.pred == "body_pred":
            decl = _pred_decl(pl)
            if decl not in body_preds:
                body_preds.append(decl)
        elif pl.pred in bounds:
            if len(pl.args) != 1 or not isinstance(pl.args[0], Const) \
                    or not pl.args[0].name.isdigit():
                _err(f"{pl.pred} expects a single count", pl)
            bounds[pl.pred] = int(pl.args[0].name)
        elif pl.pred == "enable_recursion":
            if pl.args:
                _err("enable_recursion takes no arguments", pl)
            recursion = True
        elif pl.pred == "constant":
            if len(pl.args) != 3 or not isinstance(pl.args[0], Const) \
                    or not isinstance(pl.args[1], Const) or not pl.args[1].name.isdigit() \
                    or not isinstance(pl.args[2], ConstList):
                _err("constant expects (pred, position, [values])", pl)
            constant_decls.append(pl)

    if head is None:
        raise TaskError("missing head_pred declaration", path, 1, 1)
    if not body_preds:
        raise TaskError("missing body_pred declarations", path, 1, 1)

    # resolve constant declarations, which name a predicate without its
    # arity, against the declared predicates
    resolved: dict[tuple[PredKey, int], tuple[Const, ...]] = {}
    declared: dict[str, list[PredKey]] = {}
    for p in dict.fromkeys([*body_preds, *([head] if recursion else [])]):
        declared.setdefault(p[0], []).append(p)
    for pl in constant_decls:
        name, pos = pl.args[0].name, int(pl.args[1].name)
        decls = declared.get(name)
        if decls is None:
            _err(f"constant declaration for undeclared predicate {name!r}", pl)
        if len(decls) > 1:
            _err(f"constant declaration for {name!r} is ambiguous: it is declared as "
                 + " and ".join(f"{n}/{a}" for n, a in decls), pl)
        decl = decls[0]
        if not (1 <= pos <= decl[1]):
            _err(f"constant position {pos} out of range for {name}/{decl[1]}", pl)
        key = (decl, pos - 1)
        resolved[key] = tuple(dict.fromkeys(resolved.get(key, ()) + pl.args[2].items))

    try:
        return Bias(
            head=head,
            body_preds=tuple(body_preds),
            max_vars=bounds["max_vars"],
            max_body=bounds["max_body"],
            max_rules=bounds["max_rules"],
            constants=resolved,
            recursion=recursion,
        )
    except BiasError as exc:
        # a bound below 1 is the one check that does not involve the head
        culprit = next((at[n] for n in bounds if bounds[n] < 1), at["head_pred"])
        raise TaskError(str(exc), path, culprit.line, culprit.col) from exc


# ---------------------------------------------------------------------------
# background knowledge
# ---------------------------------------------------------------------------

def parse_bk(text: str, bias: Bias, path: str = BK_FILE) -> list[Rule]:
    clauses = _Parser(text, path).clauses()
    head_key = bias.head
    rules: list[Rule] = []
    seen: set[Rule] = set()
    for cl in clauses:
        head = _plain_literal(cl.head, path)
        body = frozenset(_plain_literal(b, path) for b in cl.body)
        rule = Rule(head, body)

        if head.pred_key == head_key:
            if cl.body:
                raise TaskError(
                    f"the target predicate {head.pred}/{head.arity} may not be "
                    "defined by background rules", path, cl.head.line, cl.head.col)
            if not bias.recursion:
                raise TaskError(
                    f"background facts for the target predicate {head.pred}/"
                    f"{head.arity} require enable_recursion", path, cl.head.line, cl.head.col)
        for lit in rule.body:
            if lit.pred_key == head_key:
                raise TaskError(
                    f"the target predicate {lit.pred}/{lit.arity} may not occur "
                    "in a background rule body", path, cl.head.line, cl.head.col)

        missing = unsafe_head_vars(rule)
        if missing:
            what = "fact" if not cl.body else "rule"
            raise TaskError(
                f"unsafe background {what}: variable {missing[0]} does not "
                "occur in the body", path, cl.head.line, cl.head.col)
        if rule not in seen:
            seen.add(rule)
            rules.append(rule)
    return rules


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def _example_atom(pl: ParsedLiteral, path: str, head: PredKey) -> Literal:
    if len(pl.args) != 1:
        raise TaskError(f"{pl.pred} expects a single ground atom", path, pl.line, pl.col)
    arg = pl.args[0]
    if isinstance(arg, Compound):
        args = []
        for t in arg.args:
            if isinstance(t, (Compound, ConstList)):
                raise TaskError("function symbols are not supported in examples",
                                path, arg.line, arg.col)
            if isinstance(t, Var):
                raise TaskError(f"examples must be ground; found variable {t.name}",
                                path, arg.line, arg.col)
            args.append(t)
        atom = Literal(arg.name, tuple(args))
    elif isinstance(arg, Const):
        atom = Literal(arg.name, ())
    else:
        raise TaskError("examples must be ground atoms", path, pl.line, pl.col)

    if atom.pred != head[0]:
        raise TaskError(
            f"unknown predicate {atom.pred!r} in examples; the declared target "
            f"is {head[0]}/{head[1]}", path, pl.line, pl.col)
    if atom.arity != head[1]:
        raise TaskError(
            f"arity mismatch: {atom.pred}/{atom.arity} does not match the "
            f"declared {head[0]}/{head[1]}", path, pl.line, pl.col)
    return atom


def parse_examples(text: str, bias: Bias, path: str = EXS_FILE,
                   require_pos: bool = True) -> tuple[list[Literal], list[Literal]]:
    clauses = _Parser(text, path).clauses()
    # dicts keep the first occurrence of a repeated example, in file order
    pos: dict[Literal, None] = {}
    neg: dict[Literal, None] = {}
    for cl in clauses:
        pl = cl.head
        if cl.body or pl.pred not in ("pos", "neg"):
            raise TaskError("example files contain only pos(...) and neg(...) facts",
                            path, pl.line, pl.col)
        atom = _example_atom(pl, path, bias.head)
        (pos if pl.pred == "pos" else neg)[atom] = None
    overlap = pos.keys() & neg.keys()
    if overlap:
        atom = sorted(overlap, key=repr)[0]
        raise TaskError(f"example {atom!r} is labelled both positive and negative",
                        path)
    if require_pos and not pos:
        raise TaskError("at least one positive example is required", path)
    return list(pos), list(neg)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

@dataclass
class Task:
    name: str
    bk: list[Rule]
    pos: list[Literal]
    neg: list[Literal]
    bias: Bias
    constant_domain: tuple[Const, ...] = ()
    test_pos: list[Literal] = field(default_factory=list)
    test_neg: list[Literal] = field(default_factory=list)

    def __post_init__(self):
        if not self.constant_domain:
            self.constant_domain = _constant_domain(self)


def _constant_domain(task: Task) -> tuple[Const, ...]:
    out: set[Const] = set()
    for rule in task.bk:
        for lit in [rule.head, *rule.body]:
            out.update(t for t in lit.args if isinstance(t, Const))
    for e in [*task.pos, *task.neg]:
        out.update(t for t in e.args if isinstance(t, Const))
    for values in task.bias.constants.values():
        out.update(values)
    return tuple(sorted(out, key=lambda c: c.name))


def _build_task(name: str, where: str, bias_text: str, bk_text: str,
                exs_text: str, test_exs_text: Optional[str]) -> Task:
    """Parse the texts of a task's files; errors are located at
    ``where/<file name>``."""
    bias = parse_bias(bias_text, f"{where}/{BIAS_FILE}")
    bk = parse_bk(bk_text, bias, f"{where}/{BK_FILE}")
    pos, neg = parse_examples(exs_text, bias, f"{where}/{EXS_FILE}")
    test_pos: list[Literal] = []
    test_neg: list[Literal] = []
    if test_exs_text is not None:
        test_pos, test_neg = parse_examples(
            test_exs_text, bias, f"{where}/{TEST_EXS_FILE}", require_pos=False)
    return Task(name=name, bk=bk, pos=pos, neg=neg, bias=bias,
                test_pos=test_pos, test_neg=test_neg)


def parse_task_strings(bias_text: str, bk_text: str, exs_text: str,
                       name: str = "<memory>",
                       test_exs_text: Optional[str] = None) -> Task:
    return _build_task(name, name, bias_text, bk_text, exs_text, test_exs_text)


def read_text(path: Union[str, Path]) -> str:
    """The text of a task or rules file, which is UTF-8; a byte that does
    not decode is a located TaskError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TaskError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", str(path),
                        data.count(b"\n", 0, exc.start) + 1) from None


def parse_task(directory: Union[str, Path]) -> Task:
    d = Path(directory)
    if not d.is_dir():
        raise TaskError(f"task directory {d} does not exist", str(d))
    for required in (BIAS_FILE, BK_FILE, EXS_FILE):
        if not (d / required).is_file():
            raise TaskError(f"missing task file {required}", str(d / required))
    test_file = d / TEST_EXS_FILE
    test_text = read_text(test_file) if test_file.is_file() else None
    return _build_task(d.name, str(d), read_text(d / BIAS_FILE),
                       read_text(d / BK_FILE), read_text(d / EXS_FILE), test_text)


# ---------------------------------------------------------------------------
# hypothesis rule files
# ---------------------------------------------------------------------------

def known_predicates(task: Task) -> dict[PredKey, None]:
    """Predicates a user-supplied ruleset may reference in rule bodies."""
    known: dict[PredKey, None] = {}
    for rule in task.bk:
        known.setdefault(rule.head.pred_key)
        for lit in rule.body:
            known.setdefault(lit.pred_key)
    for p in task.bias.body_preds:
        known.setdefault(p)
    known.setdefault(task.bias.head)
    return known


def parse_rules(text: str, task: Optional[Task] = None,
                path: str = "<rules>") -> list[Rule]:
    """Parse a hypothesis in the rule grammar.  When a task is given, body
    predicates must be known to the task; heads are unrestricted so that
    rules about auxiliary targets can be checked.  Unsafe rules are allowed
    (only generated rules and background rules must be safe)."""
    clauses = _Parser(text, path).clauses()
    known = known_predicates(task) if task is not None else None
    rules: list[Rule] = []
    for cl in clauses:
        head = _plain_literal(cl.head, path)
        body_lits = []
        for b in cl.body:
            lit = _plain_literal(b, path)
            if known is not None and lit.pred_key not in known \
                    and lit.pred_key != head.pred_key:
                raise TaskError(
                    f"unknown body predicate {lit.pred}/{lit.arity}",
                    path, b.line, b.col)
            body_lits.append(lit)
        rules.append(Rule(head, frozenset(body_lits)))
    return rules


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_literal(lit: Literal) -> str:
    if not lit.args:
        return lit.pred
    return f"{lit.pred}({','.join(t.name for t in lit.args)})"


def render_rule(rule: Rule) -> str:
    if not rule.body:
        return f"{render_literal(rule.head)}."
    body = ", ".join(render_literal(l) for l in rule.body_sorted())
    return f"{render_literal(rule.head)} :- {body}."


def render_hypothesis(h: Hypothesis) -> str:
    """One canonical rule per line; the empty hypothesis renders as an
    explicit marker that still parses back to the empty hypothesis."""
    if not h:
        return "% (empty)"
    canon = canonicalize_hypothesis(h)
    return "\n".join(render_rule(r) for r in hypothesis_sorted(canon))


def render_evidence(ev: PointlessEvidence) -> str:
    return (f"{ev.kind.value}: {render_rule(ev.rule)}"
            f"  redundant literal: {render_literal(ev.literal)}")
