"""Golden parser-error corpus.

``parse_corpus.jsonl`` holds seeded mutations (one to three random edits
each) of the fixtures' task files and ``fixtures/checks`` rulesets, one per
line, with the exact ``str(TaskError)`` each one raises, or ``"ok"``.  The
test replays every case through ``parse_task_strings`` or ``parse_rules``,
so it pins every message and location of the task parser.

Regenerate the corpus only when a message or location is meant to change::

    PYTHONPATH=src python tests/test_parse_corpus.py
"""

from __future__ import annotations

import json
import random
from functools import cache
from pathlib import Path

from razor import TaskError, parse_task, parse_task_strings
from razor.taskio import BIAS_FILE, BK_FILE, EXS_FILE, TEST_EXS_FILE, parse_rules

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = Path(__file__).resolve().parent / "parse_corpus.jsonl"
TASKS = ("intro", "transitive_gt", "eight_puzzle_mini", "trains_mini")
# each ruleset is parsed against the task its check runs on
RULESETS = {
    "gt_transitive.pl": "transitive_gt",
    "intro_good.pl": "intro",
    "intro_indiscriminate.pl": "intro",
    "intro_reducible.pl": "intro",
    "member_uncaptured.pl": "intro",
    "puzzle_indiscriminate.pl": "eight_puzzle_mini",
    "puzzle_reducible.pl": "eight_puzzle_mini",
}
MUTANTS_PER_BASE = 40
# single characters and fragments that steer mutants into the parser's
# error paths: punctuation, the neck, comments, bad characters, and the
# first characters of every token kind
INSERTS = ("(", ")", ",", ".", "[", "]", ":-", ":", "-", "%", "\n", " ", "\t",
           "A", "_", "a", "1", "f(", "#", "\u00e9", "\u00a0")
# whole arguments, to reach the checks on what a term may be
TERMS = ("A", "_", "1", "x", "f(1)", "f(A)", "f(g(1))", "[]", "[1]", "[A]", "[f(1)]", "[1,]")


@cache
def _task_files(name: str) -> dict[str, str]:
    d = FIXTURES / name
    return {f: (d / f).read_text(encoding="utf-8")
            for f in (BIAS_FILE, BK_FILE, EXS_FILE, TEST_EXS_FILE) if (d / f).is_file()}


@cache
def _task(name: str):
    return parse_task(FIXTURES / name)


def _bases() -> list[str]:
    return [f"{t}/{f}" for t in TASKS for f in _task_files(t)] + \
        [f"checks/{r}" for r in RULESETS]


def _base_text(base: str) -> str:
    return (FIXTURES / base).read_text(encoding="utf-8")


def _apply(text: str, edits) -> str:
    for offset, cut, insert in edits:
        text = text[:offset] + insert + text[offset + cut:]
    return text


def _mutation(text: str, rng: random.Random) -> list:
    """One to three edits: delete, insert, replace a character or an
    argument, copy a slice elsewhere, or truncate."""
    edits = []
    for _ in range(rng.randint(1, 3)):
        n = len(text)
        at = rng.randrange(n + 1)
        marks = [i + 1 for i, c in enumerate(text) if c in "([,"]
        if marks and rng.random() < 0.5:
            at = rng.choice(marks)  # just inside an argument list
        op = rng.choice(("delete", "insert", "replace", "term", "copy", "truncate"))
        if op == "term" and marks:
            at = rng.choice(marks)
            end = next((i for i in range(at, n) if text[i] in ",)]"), n)
            edit = (at, end - at, rng.choice(TERMS))
        elif op == "delete" and at < n:
            edit = (at, rng.randint(1, min(4, n - at)), "")
        elif op == "replace" and at < n:
            edit = (at, 1, rng.choice(INSERTS))
        elif op == "copy" and n:
            start = rng.randrange(n)
            edit = (at, 0, text[start:start + rng.randint(1, 12)])
        elif op == "truncate":
            edit = (at, n - at, "")
        else:
            edit = (at, 0, rng.choice(INSERTS))
        edits.append(list(edit))
        text = _apply(text, [edit])
    return edits


def _outcome(base: str, text: str) -> str:
    group, fname = base.split("/")
    try:
        if group == "checks":
            parse_rules(text, _task(RULESETS[fname]), path=base)
        else:
            files = {**_task_files(group), fname: text}
            parse_task_strings(files[BIAS_FILE], files[BK_FILE], files[EXS_FILE],
                               test_exs_text=files.get(TEST_EXS_FILE))
    except TaskError as exc:
        return str(exc)
    return "ok"


def _generate() -> list[dict]:
    cases = []
    for base in _bases():
        text = _base_text(base)
        for i in range(MUTANTS_PER_BASE):
            edits = _mutation(text, random.Random(f"{base}/{i}"))
            cases.append({"base": base, "edits": edits,
                          "expect": _outcome(base, _apply(text, edits))})
    return cases


def test_parse_corpus_messages_are_unchanged():
    cases = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(cases) == len(_bases()) * MUTANTS_PER_BASE
    wrong = []
    for case in cases:
        got = _outcome(case["base"], _apply(_base_text(case["base"]), case["edits"]))
        if got != case["expect"]:
            wrong.append((case["base"], case["edits"], case["expect"], got))
    assert not wrong, f"{len(wrong)} of {len(cases)} differ, first: {wrong[0]}"


if __name__ == "__main__":
    CORPUS.write_text("".join(json.dumps(c, ensure_ascii=False) + "\n" for c in _generate()),
                      encoding="utf-8")
