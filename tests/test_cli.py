import json
import pathlib
from fractions import Fraction

import pytest

from contmach import parse_rational
from contmach.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def golden_bytes(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_invert_two(capsys):
    code, out = run_cli(capsys, "invert", "--value", "2", "--eps", "1",
                        "--max-effort", "64")
    assert code == 0
    assert out == golden_bytes("invert_two_eps_one.json")


def test_golden_invert_zero_exhausts_fuel(capsys):
    code, out = run_cli(capsys, "invert", "--value", "0", "--eps", "1/8",
                        "--max-effort", "1024")
    assert code == 2
    assert out == golden_bytes("invert_zero_eps_eighth.json")


def test_golden_sign_one(capsys):
    code, out = run_cli(capsys, "sign", "--value", "1", "--max-effort", "4")
    assert code == 0
    assert out == golden_bytes("sign_one_effort_four.json")
    assert json.loads(out)["prefix"] == ["none", "none", True, True, True]


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "invert", "--value", "7/5", "--eps", "1/1024")
    _, second = run_cli(capsys, "invert", "--value", "7/5", "--eps", "1/1024")
    assert first == second


def test_trace_attempts_match_schedule(capsys):
    code, out = run_cli(capsys, "invert", "--value", "0", "--eps", "1",
                        "--max-effort", "5", "--schedule", "linear")
    assert code == 2
    doc = json.loads(out)
    assert [a["n"] for a in doc["trace"]["attempts"]] == [0, 1, 2, 3, 4, 5]


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["invert", "--value", "zebra", "--eps", "1"],
        ["invert", "--value", "2", "--eps", "0"],
        ["invert", "--value", "2", "--eps", "-1/2"],
        ["invert", "--value", "2", "--eps", "1/0"],
        ["compose", "--pipeline", "invert|frobnicate", "--value", "2", "--eps", "1"],
        ["compose", "--pipeline", "sign|invert", "--value", "2", "--eps", "1"],
        ["compose", "--pipeline", "|", "--value", "2", "--eps", "1"],
        ["compose", "--pipeline", "invert|invert", "--value", "2"],
        ["check", "--machine", "invert", "--corpus", "/nonexistent.json"],
        ["associate-trace", "--machine", "invert", "--value", "2"],
        ["compose", "--pipeline", "sign", "--value", "1", "--index", "-1"],
        ["associate-trace", "--machine", "sign", "--value", "1", "--index", "-3"],
        ["associate-trace", "--machine", "sign", "--value", "1",
         "--max-rounds", "-1"],
        ["check", "--machine", "sign", "--corpus", "corpus.json",
         "--fuel-cap", "-1"],
        ["invert", "--value", "2", "--eps", "1", "--max-effort", "-1"],
        ["sign", "--value", "1", "--max-effort", "-2"],
        ["compose", "--pipeline", "sign", "--value", "1", "--index", "two"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv
        capsys.readouterr()


def test_compose_inversion_twice(capsys):
    code, out = run_cli(capsys, "compose", "--pipeline", "invert|invert",
                        "--value", "7/5", "--eps", "1/1024")
    assert code == 0
    doc = json.loads(out)
    answer = parse_rational(doc["answer"])
    assert abs(answer - Fraction(7, 5)) <= Fraction(1, 1024)


def test_compose_invert_then_sign(capsys):
    code, out = run_cli(capsys, "compose", "--pipeline", "invert|sign",
                        "--value", "-4", "--index", "8", "--max-effort", "64")
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] is False


def test_associate_trace_invert(capsys):
    code, out = run_cli(capsys, "associate-trace", "--machine", "invert",
                        "--value", "2", "--eps", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["transcript"]["answered"] is True
    rounds = doc["transcript"]["rounds"]
    assert rounds[-1]["tag"] == "answer"
    assert rounds[-1]["payload"] == "1/2"


def test_associate_trace_sign(capsys):
    code, out = run_cli(capsys, "associate-trace", "--machine", "sign",
                        "--value", "1", "--index", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["transcript"]["answered"] is True
    assert doc["transcript"]["rounds"][-1]["payload"] is True


def test_check_subcommand(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"point": "2", "name_kind": "exact"},
        {"point": "7/5", "name_kind": "grid"},
        {"point": "-3", "name_kind": "exact"},
    ]))
    code, out = run_cli(capsys, "check", "--machine", "invert",
                        "--corpus", str(corpus))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["samples"] == 3
    assert doc["report"]["failures"] == []


def test_check_sign_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"point": "1", "name_kind": "exact"},
        {"point": "-1/1000", "name_kind": "grid"},
        {"point": "0", "name_kind": "exact"},
    ]))
    code, out = run_cli(capsys, "check", "--machine", "sign",
                        "--corpus", str(corpus), "--fuel-cap", "4")
    assert code == 0
    assert json.loads(out)["report"]["failures"] == []


def test_output_file_and_text_format(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(capsys, "sign", "--value", "1", "--max-effort", "2",
                      "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["prefix"] == ["none", "none", True]

    code, out = run_cli(capsys, "sign", "--value", "1", "--max-effort", "2",
                        "--format", "text")
    assert code == 0
    assert "prefix" in out and "command: \"sign\"" in out
