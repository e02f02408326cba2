import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import GROUND_LITERAL_FILES, parse_rule
from test_parse_corpus import RULESETS
from razor.cli import main
from razor.logic import canonicalize
from razor.taskio import render_rule

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, capsys):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_learn_prints_hypothesis_and_cost(capsys, fixtures_dir):
    code, out, _ = run_cli("learn", str(fixtures_dir / "intro"), capsys=capsys)
    assert code == 0
    assert "f(A) :- gt(A,3), lt(A,8), odd(A)." in out
    assert "errors=0 size=4" in out


def test_learn_writes_versioned_stats(capsys, fixtures_dir, tmp_path):
    stats = tmp_path / "stats.json"
    code, _, _ = run_cli("learn", str(fixtures_dir / "trains_mini"),
                         "--stats", str(stats), "--seed", "7", capsys=capsys)
    assert code == 0
    record = json.loads(stats.read_text())
    assert record["schema_version"] == 4
    assert "banish" not in record["stats"]["constraints"]
    assert record["best_errors"] == 0
    assert record["config"]["seed"] == 7
    for field in ("generated", "considered", "tested", "time_total", "time_detection",
                  "time_testing", "time_stratum", "time_pointless_match", "time_check",
                  "constraints",
                  "evidence", "detect_subsumed", "detect_futile", "detect_cached",
                  "detect_mask_settled", "coverage_extensions", "baseless",
                  "noiseless_violated", "bans", "time_bans", "overhead_fraction",
                  "pruning_overhead_fraction"):
        assert field in record["stats"]
    assert record["stats"]["coverage_extensions"] > 0
    assert record["stats"]["noiseless_violated"] is False
    assert record["stats"]["bans"] == 93


def test_learn_says_when_the_noiseless_assumption_broke(capsys, tmp_path):
    # nothing in the space covers the positive, so the noiseless run
    # exhausts the space with an error left
    task = tmp_path / "task"
    task.mkdir()
    (task / "bias.pl").write_text(
        "head_pred(f,1). body_pred(p,1). max_vars(1). max_body(1). max_rules(1).\n")
    (task / "bk.pl").write_text("p(1). p(2).\n")
    (task / "exs.pl").write_text("pos(f(9)). neg(f(1)).\n")
    code, out, _ = run_cli("learn", str(task), capsys=capsys)
    assert code == 0
    assert "(exhausted)" in out and "noiseless assumption violated" in out
    code, out, _ = run_cli("learn", str(task), "--noisy", capsys=capsys)
    assert code == 0
    assert "noiseless assumption violated" not in out


def test_learn_pointless_flag_values(capsys, fixtures_dir):
    for flag in ("on", "off", "reducible-only", "indiscriminate-only"):
        code, out, _ = run_cli("learn", str(fixtures_dir / "trains_mini"),
                               "--pointless", flag, capsys=capsys)
        assert code == 0
        assert "errors=0" in out


def test_learn_audit_flag(capsys, fixtures_dir):
    code, out, _ = run_cli("learn", str(fixtures_dir / "trains_mini"),
                           "--audit", capsys=capsys)
    assert code == 0
    assert "audit: 0 pruned candidates and 93 bans verified" in out


def test_learn_audit_verifies_the_bans_on_ground_literals(capsys, tmp_path):
    # q(b,c) has no fact: it is banned as dead, not as an equivalent of
    # the true q(a,c), and every ban re-checks clean
    for name, text in GROUND_LITERAL_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli("learn", str(tmp_path), "--audit", capsys=capsys)
    assert code == 0
    assert "bans verified" in out and "AUDIT VIOLATION" not in err


def test_parse_error_exit_code(capsys, tmp_path):
    task = tmp_path / "broken"
    task.mkdir()
    (task / "bias.pl").write_text("head_pred(f,1). body_pred(p,1).")
    (task / "bk.pl").write_text("p(1")
    (task / "exs.pl").write_text("pos(f(1)).")
    code, _, err = run_cli("learn", str(task), capsys=capsys)
    assert code == 2
    assert "error:" in err and "bk.pl" in err


def test_non_utf8_files_are_parse_errors(capsys, tmp_path, fixtures_dir):
    task = tmp_path / "latin1"
    task.mkdir()
    (task / "bias.pl").write_text("head_pred(f,1). body_pred(p,1).")
    (task / "bk.pl").write_bytes("% caf\xe9\np(1).\n".encode("latin-1"))
    (task / "exs.pl").write_text("pos(f(1)).")
    code, _, err = run_cli("learn", str(task), capsys=capsys)
    assert code == 2
    assert f"error: {task / 'bk.pl'}:1: invalid UTF-8 byte 0xe9" in err
    rules = tmp_path / "rules.pl"
    rules.write_bytes(b"f(A) :- odd(A).\n\xff\n")
    code, _, err = run_cli("check", str(fixtures_dir / "intro"), str(rules), capsys=capsys)
    assert code == 2
    assert f"error: {rules}:2: invalid UTF-8 byte 0xff" in err


def test_timeout_without_result_exit_code(capsys, fixtures_dir):
    code, out, _ = run_cli("learn", str(fixtures_dir / "intro"),
                           "--timeout", "0", capsys=capsys)
    assert code == 4
    assert "no hypothesis" in out


@pytest.mark.parametrize("args, flag", [
    (("learn", "TASK", "--max-size", "1"), "--max-size"),
    (("learn", "TASK", "--max-size", "two"), "--max-size"),
    (("learn", "TASK", "--timeout", "-1"), "--timeout"),
    (("learn", "TASK", "--timeout", "nan"), "--timeout"),
    (("bench", "TASK", "--out", "OUT", "--repeats", "0"), "--repeats"),
    (("bench", "TASK", "--out", "OUT", "--timeout", "-0.5"), "--timeout"),
    (("oracle", "TASK", "--max-size", "-3"), "--max-size"),
    (("oracle", "TASK", "--max-size", "1"), "--max-size"),
    (("oracle", "TASK", "--ceiling", "-1"), "--ceiling"),
    (("oracle", "TASK", "--ceiling", "0"), "--ceiling"),
])
def test_bad_numeric_flags_are_usage_errors(capsys, fixtures_dir, tmp_path, args, flag):
    argv = [str(fixtures_dir / "intro") if a == "TASK" else
            str(tmp_path / "out.json") if a == "OUT" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {flag}" in err
    assert not (tmp_path / "out.json").exists()


def test_check_reports_findings_with_exit_three(capsys, fixtures_dir):
    code, out, _ = run_cli(
        "check", str(fixtures_dir / "intro"),
        str(fixtures_dir / "checks" / "intro_reducible.pl"), capsys=capsys)
    assert code == 3
    assert "reducible" in out and "int(A)" in out


def test_check_clean_ruleset_exit_zero(capsys, fixtures_dir):
    code, out, _ = run_cli(
        "check", str(fixtures_dir / "intro"),
        str(fixtures_dir / "checks" / "intro_good.pl"), capsys=capsys)
    assert code == 0
    assert "no pointless literals" in out


def test_check_reports_findings_on_the_canonical_rule(capsys, fixtures_dir, tmp_path):
    rules = tmp_path / "rules.pl"
    rules.write_text("f(X) :- odd(X), int(X).\n")
    code, out, _ = run_cli("check", str(fixtures_dir / "intro"), str(rules), capsys=capsys)
    assert code == 3
    canonical = render_rule(canonicalize(parse_rule("f(A) :- odd(A), int(A).")))
    assert f"reducible: {canonical}  redundant literal: int(A)" in out


def test_check_rule_about_another_predicate_makes_no_indiscriminate_claim(
        capsys, fixtures_dir, tmp_path):
    # no negative of intro (all f/1) binds the head g(A): int(A) is still
    # reducible, and odd(A)'s indiscriminate claim is vacuous and dropped
    rules = tmp_path / "rules.pl"
    rules.write_text("g(A) :- odd(A), int(A).\n")
    code, out, _ = run_cli("check", str(fixtures_dir / "intro"), str(rules), capsys=capsys)
    assert code == 3
    assert out.splitlines() == ["reducible: g(A) :- int(A), odd(A).  redundant literal: int(A)",
                                "1 pointless literal(s) found"]


def _vacuity_task(tmp_path, negatives):
    task = tmp_path / "task"
    task.mkdir()
    (task / "bias.pl").write_text(
        "head_pred(f,2). body_pred(p,1). body_pred(q,1). max_vars(2). max_body(2).\n")
    (task / "bk.pl").write_text("p(1). p(2). q(1). q(3).\n")
    (task / "exs.pl").write_text("pos(f(1,1)).\n" + negatives)
    rules = tmp_path / "rules.pl"
    rules.write_text("f(A,A) :- p(A), q(A).\n")
    return str(task), str(rules)


@pytest.mark.parametrize("negatives", ["neg(f(1,2)). neg(f(2,1)).\n", ""])
def test_check_drops_indiscriminate_claims_no_negative_matches(capsys, tmp_path, negatives):
    # neither negative matches the head f(A,A), so with or without them
    # every indiscriminate claim is vacuous
    code, out, _ = run_cli("check", *_vacuity_task(tmp_path, negatives), capsys=capsys)
    assert code == 0
    assert "no pointless literals found" in out


# every bundled ruleset's report against its own task, byte for byte
CHECK_REPORTS = {
    "gt_transitive.pl": (3, [
        "reducible: h :- gt(A,B), gt(A,C), gt(B,C).  redundant literal: gt(A,C)",
        "1 pointless literal(s) found",
    ]),
    "intro_good.pl": (0, [
        "no pointless literals found",
    ]),
    "intro_indiscriminate.pl": (3, [
        "indiscriminate: f(A) :- lt(A,10).  redundant literal: lt(A,10)",
        "1 pointless literal(s) found",
    ]),
    "intro_reducible.pl": (3, [
        "reducible: f(A) :- int(A), odd(A).  redundant literal: int(A)",
        "1 pointless literal(s) found",
    ]),
    "member_uncaptured.pl": (0, [
        "no pointless literals found",
    ]),
    "puzzle_indiscriminate.pl": (3, [
        "indiscriminate: legal_move(A,B,C,D) :- index(C).  redundant literal: index(C)",
        "indiscriminate: legal_move(A,B,C,D) :- index(D).  redundant literal: index(D)",
        "indiscriminate: legal_move(A,B,C,D) :- role(B).  redundant literal: role(B)",
        "3 pointless literal(s) found",
    ]),
    "puzzle_reducible.pl": (3, [
        "reducible: legal_move(A,B,C,D) :- pos1(D), pos2(E), succ(D,E).  "
        "redundant literal: pos1(D)",
        "reducible: legal_move(A,B,C,D) :- pos1(D), pos2(E), succ(D,E).  "
        "redundant literal: pos2(E)",
        "reducible: legal_move(A,B,C,D) :- pos1(D), pos2(E), succ(D,E).  "
        "redundant literal: succ(D,E)",
        "3 pointless literal(s) found",
    ]),
}


@pytest.mark.parametrize("ruleset", sorted(RULESETS))
def test_check_reports_every_bundled_ruleset(capsys, fixtures_dir, ruleset):
    code, out, _ = run_cli("check", str(fixtures_dir / RULESETS[ruleset]),
                           str(fixtures_dir / "checks" / ruleset), capsys=capsys)
    want_code, want_lines = CHECK_REPORTS[ruleset]
    assert (code, out) == (want_code, "".join(f"{line}\n" for line in want_lines))


def test_oracle_command(capsys, fixtures_dir):
    code, out, _ = run_cli("oracle", str(fixtures_dir / "trains_mini"), capsys=capsys)
    assert code == 0
    assert "errors=0 size=4" in out
    assert "eastbound(A) :- closed(B), has_car(A,B), short(B)." in out


def test_oracle_ceiling_refusal(capsys, fixtures_dir):
    code, _, err = run_cli("oracle", str(fixtures_dir / "intro"),
                           "--ceiling", "10", capsys=capsys)
    assert code == 2
    assert "refused" in err


def test_bench_command_writes_json_and_csv(capsys, fixtures_dir, tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    shutil.copytree(fixtures_dir / "trains_mini", suite / "trains_mini")
    out_json = tmp_path / "bench.json"
    out_csv = tmp_path / "bench.csv"
    code, out, _ = run_cli("bench", str(suite), "--out", str(out_json),
                           "--csv", str(out_csv), capsys=capsys)
    assert code == 0
    records = json.loads(out_json.read_text())
    assert len(records) == 4
    assert {r["config"]["pointless"] for r in records} == \
        {"off", "reducible-only", "indiscriminate-only", "both"}
    header = out_csv.read_text().splitlines()[0]
    assert "overhead_fraction" in header and "generated" in header


def test_bench_suite_continues_after_task_failure(capsys, fixtures_dir, tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    bad = suite / "broken"
    bad.mkdir()
    (bad / "bias.pl").write_text("head_pred(f,1). body_pred(p,1).")
    (bad / "bk.pl").write_text("p(1")
    (bad / "exs.pl").write_text("pos(f(1)).")
    shutil.copytree(fixtures_dir / "trains_mini", suite / "trains_mini")
    out_json = tmp_path / "bench.json"
    code, _, err = run_cli("bench", str(suite), "--out", str(out_json), capsys=capsys)
    assert code == 0
    records = json.loads(out_json.read_text())
    assert any(r["error"] for r in records)
    assert sum(1 for r in records if not r["error"]) == 4


def test_determinism_across_hash_seeds(fixtures_dir):
    # rendered output must not depend on interpreter hash randomization;
    # wall-clock figures are the only thing allowed to differ
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "razor.cli", "learn",
             str(fixtures_dir / "trains_mini"), "--pointless", "on"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        stripped = [line.split(" time=")[0] for line in proc.stdout.splitlines()]
        outs.append(stripped)
    assert outs[0] == outs[1]
