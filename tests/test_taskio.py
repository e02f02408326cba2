import pytest

from helpers import ground, parse_hypothesis, parse_rule

from razor import Literal, TaskError, parse_task, parse_task_strings
from razor.logic import canonicalize_hypothesis
from razor.microtask import random_task
from razor.pointless import PointlessEvidence, PointlessKind
from razor.taskio import (
    parse_bias,
    parse_rules,
    render_evidence,
    render_hypothesis,
)

GOOD_BIAS = """
head_pred(f,1).
body_pred(odd,1). body_pred(lt,2).
max_vars(2). max_body(2). max_rules(1).
constant(lt,2,[8,10]).
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_intro_fixture(intro_task):
    assert set(intro_task.pos) == {ground("f", 5), ground("f", 7)}
    assert set(intro_task.neg) == {ground("f", i) for i in (2, 3, 4, 6, 8, 9)}
    assert intro_task.bias.head == ("f", 1)
    assert ("gt", 2) in intro_task.bias.body_preds
    assert intro_task.bias.max_vars == 3
    names = {c.name for c in intro_task.constant_domain}
    assert {"1", "10", "l1"} <= names


def test_bias_constant_positions_are_validated():
    with pytest.raises(TaskError, match="out of range"):
        parse_bias("head_pred(f,1). body_pred(odd,1). constant(odd,3,[1]).")
    with pytest.raises(TaskError, match="undeclared"):
        parse_bias("head_pred(f,1). body_pred(odd,1). constant(zz,1,[1]).")
    # errors point at the offending directive, not at the top of the file
    lines = "head_pred(f,2).\nbody_pred(lt,2).\nmax_vars(2).\n"
    with pytest.raises(TaskError, match=r"^<memory>/bias\.pl:4:1: constant position 5 out of range"):
        parse_task_strings(lines + "constant(lt,5,[1,2]).\n", "lt(1,2).", "pos(f(1,2)).")
    with pytest.raises(TaskError, match=r"^bias\.pl:4:1: constant declaration for undeclared"):
        parse_bias(lines + "constant(zz,1,[1]).\n")
    with pytest.raises(TaskError, match=r"^bias\.pl:3:1: head arity 2 exceeds max_vars 1"):
        parse_bias("body_pred(lt,2).\nmax_vars(1).\nhead_pred(f,2).\n")
    with pytest.raises(TaskError, match=r"^bias\.pl:2:1: max_vars, max_body and max_rules"):
        parse_bias("head_pred(f,1).\nmax_body(0).\nbody_pred(odd,1).\n")


def test_bias_constant_for_a_name_with_two_arities_is_ambiguous():
    # constant/3 names a predicate without its arity
    with pytest.raises(TaskError, match=r"^bias\.pl:4:1: constant declaration for 'p' is "
                                        r"ambiguous: it is declared as p/1 and p/2"):
        parse_bias("head_pred(f,1).\nbody_pred(p,1).\nbody_pred(p,2).\nconstant(p,1,[5]).\n")
    # the head counts once recursion makes it a body predicate
    with pytest.raises(TaskError, match=r"^bias\.pl:4:1: .* declared as p/1 and p/2"):
        parse_bias("head_pred(p,2).\nbody_pred(p,1).\nenable_recursion.\nconstant(p,1,[5]).\n")
    bias = parse_bias("head_pred(p,2).\nbody_pred(p,1).\nconstant(p,1,[5]).\n")
    assert {key: [c.name for c in vals] for key, vals in bias.constants.items()} == \
        {(("p", 1), 0): ["5"]}


def test_bias_requires_declarations():
    with pytest.raises(TaskError, match="head_pred"):
        parse_bias("body_pred(odd,1).")
    with pytest.raises(TaskError, match="body_pred"):
        parse_bias("head_pred(f,1).")
    with pytest.raises(TaskError, match="directive"):
        parse_bias("head_pred(f,1). body_pred(p,1). shiny_knob(3).")


def test_overlapping_examples_rejected():
    with pytest.raises(TaskError, match="both positive and negative"):
        parse_task_strings(GOOD_BIAS, "odd(1).", "pos(f(5)). neg(f(5)).")


def test_duplicate_examples_are_kept_once_without_a_list_scan(monkeypatch):
    exs = "".join(f"pos(f({i})).\nneg(f({i + 2000})).\n" for i in range(2000))
    exs += "pos(f(7)). neg(f(2001)). pos(f(3)).\n"
    eq = Literal.__eq__
    calls = 0

    def counting_eq(a, b):
        nonlocal calls
        calls += 1
        return eq(a, b)

    monkeypatch.setattr(Literal, "__eq__", counting_eq)
    task = parse_task_strings(GOOD_BIAS, "odd(1).", exs)
    # a scan of the examples kept so far compares about four million pairs
    assert calls < 10_000
    assert task.pos == [ground("f", i) for i in range(2000)]
    assert task.neg == [ground("f", i + 2000) for i in range(2000)]


def test_at_least_one_positive_required():
    with pytest.raises(TaskError, match="positive"):
        parse_task_strings(GOOD_BIAS, "odd(1).", "neg(f(5)).")


def test_unsafe_bk_rule_names_the_variable():
    with pytest.raises(TaskError, match="B"):
        parse_task_strings(GOOD_BIAS, "p(A,B) :- q(A).", "pos(f(5)).")


def test_nonground_bk_fact_rejected():
    with pytest.raises(TaskError, match="A"):
        parse_task_strings(GOOD_BIAS, "odd(A).", "pos(f(5)).")


def test_unknown_example_predicate_rejected():
    with pytest.raises(TaskError, match="unknown predicate"):
        parse_task_strings(GOOD_BIAS, "odd(1).", "pos(g(5)).")


def test_example_arity_mismatch_rejected():
    with pytest.raises(TaskError, match="arity"):
        parse_task_strings(GOOD_BIAS, "odd(1).", "pos(f(5,6)).")


def test_function_symbols_rejected_with_location():
    with pytest.raises(TaskError) as err:
        parse_task_strings(GOOD_BIAS, "odd(s(1)).", "pos(f(5)).")
    assert "function symbols" in str(err.value)
    assert "bk.pl:1" in str(err.value)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(TaskError) as err:
        parse_task_strings(GOOD_BIAS, "odd(1)\nodd(2).", "pos(f(5)).")
    assert "bk.pl:2" in str(err.value)


def test_target_predicate_not_definable_in_bk():
    with pytest.raises(TaskError, match="may not be defined"):
        parse_task_strings(GOOD_BIAS, "f(1) :- odd(1).", "pos(f(5)).")
    with pytest.raises(TaskError, match="enable_recursion"):
        parse_task_strings(GOOD_BIAS, "f(1).", "pos(f(5)).")
    recursive_bias = GOOD_BIAS + " enable_recursion."
    task = parse_task_strings(recursive_bias, "f(1). odd(1).", "pos(f(5)).")
    assert parse_rule("f(1).") in task.bk


def test_duplicate_facts_deduplicated():
    task = parse_task_strings(GOOD_BIAS, "odd(1). odd(1). odd(3).", "pos(f(5)).")
    assert len([r for r in task.bk if r.head.pred == "odd"]) == 2


def test_comments_and_whitespace_are_insensitive():
    task = parse_task_strings(
        GOOD_BIAS,
        "% a comment\n  odd( 1 ).   % trailing\n\nodd(3).",
        "pos(f(5)).",
    )
    assert len(task.bk) == 2


def test_missing_task_directory(tmp_path):
    with pytest.raises(TaskError, match="does not exist"):
        parse_task(tmp_path / "nope")
    (tmp_path / "incomplete").mkdir()
    with pytest.raises(TaskError, match="missing task file"):
        parse_task(tmp_path / "incomplete")


def test_non_utf8_task_file_is_a_located_error(tmp_path):
    (tmp_path / "bias.pl").write_text(GOOD_BIAS, encoding="utf-8")
    (tmp_path / "bk.pl").write_bytes(b"% caf\xc3\xa9\nodd(1).\nodd(\xff).\n")
    (tmp_path / "exs.pl").write_text("pos(f(5)).", encoding="utf-8")
    with pytest.raises(TaskError) as err:
        parse_task(tmp_path)
    assert str(err.value) == f"{tmp_path / 'bk.pl'}:3: invalid UTF-8 byte 0xff"


def test_held_out_examples_are_parsed(trains_task):
    assert trains_task.test_pos and trains_task.test_neg


# ---------------------------------------------------------------------------
# rule files
# ---------------------------------------------------------------------------

def test_rules_file_allows_foreign_heads_and_unsafe_rules(intro_task):
    rules = parse_rules("h :- gt(A,B), gt(B,C), gt(A,C).", intro_task)
    assert len(rules) == 1
    rules = parse_rules("g(A,B) :- odd(A).", intro_task)
    assert len(rules) == 1


def test_rules_file_rejects_unknown_body_predicates(intro_task):
    with pytest.raises(TaskError, match="unknown body predicate"):
        parse_rules("f(A) :- sparkle(A).", intro_task)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_intro_rule():
    h = canonicalize_hypothesis(parse_hypothesis("f(A) :- odd(A), gt(A,3), lt(A,8)."))
    assert render_hypothesis(h) == "f(A) :- gt(A,3), lt(A,8), odd(A)."


def test_render_empty_hypothesis_round_trips():
    text = render_hypothesis(frozenset())
    assert "(empty)" in text
    assert parse_rules(text) == []


def test_render_evidence_mentions_kind_rule_and_literal():
    rule = parse_rule("f(A) :- odd(A), int(A).")
    ev = PointlessEvidence(rule, next(iter(rule.body)),
                           PointlessKind.REDUCIBLE,
                           parse_rule("f(A) :- odd(A)."))
    text = render_evidence(ev)
    assert "reducible" in text and "redundant literal" in text


def test_round_trip_on_random_hypotheses():
    for seed in range(40):
        mt = random_task(seed + 1000)
        h = canonicalize_hypothesis(mt.target)
        text = render_hypothesis(h)
        assert canonicalize_hypothesis(frozenset(parse_rules(text))) == h


def test_round_trip_spec_string():
    text = "f(A) :- gt(A,3), lt(A,8), odd(A)."
    h = frozenset(parse_rules(text))
    assert render_hypothesis(h) == text
