import json
import pathlib
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from _families import counted
import contmach.cli
from contmach import machine_to_associate, parse_rational, use_first
from contmach.cli import _json_indent2, build_parser, main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import cli_diff  # noqa: E402

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


def test_usage_errors_exit_one(tmp_path, monkeypatch, capsys):
    # The list tools/cli_diff.py compares with a parent commit; its relative
    # output path names a directory that does not exist in tmp_path.
    monkeypatch.chdir(tmp_path)
    for argv in cli_diff.USAGE_ERRORS:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv
        capsys.readouterr()


OUTPUT_DEFAULTS = {"format": "json", "output": None}


@pytest.mark.parametrize("argv, expected", [
    (["invert", "--value", "1", "--eps", "1"],
     {"value": "1", "eps": "1", "max_effort": 2 ** 20,
      "schedule": "powers_of_two"}),
    (["sign", "--value", "1"], {"value": "1", "max_effort": 64}),
    (["compose", "--pipeline", "invert", "--value", "1"],
     {"pipeline": "invert", "value": "1", "eps": None, "index": 0,
      "max_effort": 2 ** 20, "schedule": "powers_of_two"}),
    (["associate-trace", "--machine", "sign", "--value", "1"],
     {"machine": "sign", "value": "1", "eps": None, "index": 0,
      "max_rounds": 128}),
    (["check", "--machine", "invert", "--corpus", "c.json"],
     {"machine": "invert", "corpus": "c.json", "fuel_cap": 2 ** 10}),
])
def test_flag_surface_and_defaults(argv, expected):
    # Every subcommand's full set of flags, with their defaults.
    args = vars(build_parser().parse_args(argv))
    assert args == {"command": argv[0], **expected, **OUTPUT_DEFAULTS}


@pytest.mark.parametrize("argv", [
    ["sign", "--value", "1", "--schedule", "linear"],
    ["sign", "--value", "1", "--eps", "1"],
    ["check", "--machine", "invert", "--corpus", "c.json", "--max-effort", "3"],
    ["associate-trace", "--machine", "sign", "--value", "1", "--max-effort", "3"],
    ["invert", "--value", "1", "--eps", "1", "--index", "0"],
    ["check", "--machine", "frobnicate", "--corpus", "c.json"],
    ["compose", "--pipeline", "invert", "--value", "1", "--schedule", "fibonacci"],
])
def test_flags_a_subcommand_lacks_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 1
    capsys.readouterr()


def test_compose_inversion_twice(capsys):
    code, out = run_cli(capsys, "compose", "--pipeline", "invert|invert",
                        "--value", "7/5", "--eps", "1/1024")
    assert code == 0
    doc = json.loads(out)
    answer = parse_rational(doc["answer"])
    assert abs(answer - Fraction(7, 5)) <= Fraction(1, 1024)


@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
@pytest.mark.parametrize("value", ["0", "7/5", "1e-6"])
def test_invert_is_the_one_stage_pipeline(value, schedule, capsys):
    flags = ["--value", value, "--eps", "1/1024", "--schedule", schedule,
             "--max-effort", "40"]
    code, out = run_cli(capsys, "invert", *flags)
    piped_code, piped_out = run_cli(capsys, "compose", "--pipeline", "invert",
                                    *flags)
    doc, piped = json.loads(out), json.loads(piped_out)
    assert code == piped_code == (2 if value == "0" else 0)
    assert doc["eps"] == piped["question"]
    for key in ("answer", "effort", "schedule", "fuel_cap", "trace"):
        assert doc[key] == piped[key], key


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


@pytest.mark.parametrize("argv", [
    ["--machine", "invert", "--value", "0", "--eps", "1/8", "--max-rounds", "24"],
    ["--machine", "invert", "--value", "7/5", "--eps", "1/1024"],
    ["--machine", "invert", "--value=-1/1000000", "--eps", "1"],
    ["--machine", "sign", "--value", "0", "--index", "5", "--max-rounds", "16"],
    ["--machine", "sign", "--value=-3/1000", "--index", "12"],
])
def test_associate_trace_is_unchanged_by_use_first(argv, capsys, monkeypatch):
    # The CLI builds the associate from the raw machine; through use_first
    # the transcript is the same, byte for byte.
    raw = run_cli(capsys, "associate-trace", *argv)
    monkeypatch.setattr(
        contmach.cli, "machine_to_associate",
        lambda machine, *defaults: machine_to_associate(use_first(machine),
                                                        *defaults))
    assert run_cli(capsys, "associate-trace", *argv) == raw


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


@pytest.mark.parametrize("document", [
    "[1]",
    '{"a": 1}',
    '[{"point": "1", "name_kind": []}]',
])
def test_check_rejects_corpus_of_wrong_shape(document, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(document)
    with pytest.raises(SystemExit) as err:
        main(["check", "--machine", "invert", "--corpus", str(corpus)])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("contmach: error: cannot load corpus")


def test_check_point_outside_the_domain_exits_one(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"point": "2", "name_kind": "exact"},
                                  {"point": "0", "name_kind": "exact"}]))
    with pytest.raises(SystemExit) as err:
        main(["check", "--machine", "invert", "--corpus", str(corpus)])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("contmach: error: point 0 is outside the domain "
                            "of invert\n")


@pytest.mark.parametrize("argv", [
    ["sign", "--value", "1e-5000", "--max-effort", "2"],
    ["invert", "--value", "1e-5000", "--eps", "1"],
    ["invert", "--value", "2", "--eps", "1e-5000"],
])
def test_rational_too_long_to_print_exits_one(argv, capsys):
    # More digits than Python converts to a string by default (4,300).
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("contmach: error: rational too long to print as "
                            "p/q: '1e-5000'\n")


@pytest.mark.parametrize("argv, prefix", [
    (["invert", "--value", "1e99999999", "--eps", "1"], ""),
    (["invert", "--value", "2", "--eps", "1e99999999"], ""),
    (["sign", "--value", "1e99999999", "--max-effort", "2"], ""),
    (["check", "--machine", "sign", "--corpus", "corpus.json"],
     "cannot load corpus: "),
])
def test_exponent_bomb_exits_one_at_once(argv, prefix, tmp_path, monkeypatch,
                                         capsys):
    # Fraction would build 10**99999999 first, which takes minutes.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.json").write_text(json.dumps(
        [{"point": "1e99999999", "name_kind": "exact"}]))
    started = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert time.perf_counter() - started < 1
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"contmach: error: {prefix}rational too long to "
                            "print as p/q: '1e99999999'\n")


@pytest.mark.parametrize("argv", [
    ["invert", "--value", "7/5", "--eps", "1e-4299", "--max-effort", "4"],
    ["associate-trace", "--machine", "invert", "--value", "7/5",
     "--eps", "1e-4299"],
])
def test_derived_rational_too_long_to_print_exits_one(argv, capsys):
    # The eps is printable, but the first modulus question,
    # 1/(125*10^4298), has 4,301 digits.
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("contmach: error: the run derived a rational too "
                            "long to print as p/q\n")


@pytest.mark.parametrize("value, message", [
    ("1" * 5000, "malformed rational: '1111"),
    (" " * 5000 + "1e-5000", "rational too long to print as p/q: '    "),
], ids=["malformed", "too-long"])
def test_rejected_input_echo_is_bounded(value, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["invert", "--value", value, "--eps", "1"])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contmach: error: " + message)
    assert captured.err.endswith(f"... ({len(value)} characters)\n")
    assert len(captured.err) < 120


def test_output_in_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as err:
        main(["invert", "--value", "2", "--eps", "1", "--output", str(target)])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contmach: error: cannot write output")
    assert not target.parent.exists()


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

    # A nested object, here the trace, is indented under its key.
    code, out = run_cli(capsys, "invert", "--value", "2", "--eps", "1",
                        "--max-effort", "2", "--format", "text")
    assert code == 0
    assert out == (
        'command: "invert"\n'
        'value: "2/1"\n'
        'eps: "1/1"\n'
        'schedule: "powers_of_two"\n'
        'fuel_cap: 2\n'
        'answer: "1/2"\n'
        'effort: 0\n'
        'trace:\n'
        '  effort_schedule: "powers_of_two"\n'
        '  attempts: [{"n": 0, "result": "1/2", "modulus": ["1/1", "1/2"]}]\n'
        '  final: "1/2"\n'
        '  fuel_cap: 2\n')


def run_in_process(argv, capsys):
    """What a process running ``contmach argv`` would show, from ``main``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return cli_diff.Outcome(code, captured.out.encode(), captured.err.encode())


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    """A working directory holding the corpus files ``cli_diff``'s vectors read."""
    monkeypatch.chdir(tmp_path)
    cli_diff.write_corpora(tmp_path)
    return tmp_path


def test_one_process_replays_every_vector_in_either_order(corpus_dir, capsys):
    # One main, one parser: no run may leave state that changes a later one.
    vectors = cli_diff.vectors()
    forward = {tuple(argv): run_in_process(argv, capsys) for argv in vectors}
    backward = {tuple(argv): run_in_process(argv, capsys)
                for argv in reversed(vectors)}
    assert cli_diff.differences(forward, backward) == []


def test_one_process_matches_fresh_processes(corpus_dir, capsys):
    success = ["compose", "--pipeline", "invert|invert", "--value", "7/5",
               "--eps", "1/1024"]
    for argv in [success,
                 ["invert", "--value", "zebra", "--eps", "1"],
                 ["invert", "--value", "2", "--eps", "1",
                  "--output", "missing/x.json"],
                 success]:
        fresh = cli_diff.run_one(cli_diff.ROOT, corpus_dir, argv)
        assert run_in_process(argv, capsys) == fresh, argv


def test_main_builds_its_parser_at_most_once(monkeypatch, capsys):
    built = []
    init = contmach.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        # Subcommand parsers are _Parsers too; a build makes one "contmach".
        if kwargs.get("prog") == "contmach":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(contmach.cli._Parser, "__init__", counting_init)
    assert run_cli(capsys, "sign", "--value", "1", "--max-effort", "2")[0] == 0
    assert run_cli(capsys, "invert", "--value", "2", "--eps", "1",
                   "--max-effort", "2")[0] == 0
    assert len(built) <= 1
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------------------
# The JSON writer equals json.dumps(doc, indent=2)

#: Characters that need escaping or stress it: a quote, a backslash, every
#: control character, DEL, non-ASCII, a line separator, an astral character
#: (a surrogate pair once escaped) and a lone surrogate.
_WRITER_CHARS = ("a", "Z", "0", " ", "/", '"', "\\", *map(chr, range(32)),
                 "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800")


#: Characters JSON prints as they are, among them the neighbours of those it
#: escapes: space and "~" (the ends of printable ASCII), "!" and "#" (the
#: quote's), "[" and "]" (the backslash's).
_PLAIN_CHARS = ("a", "Z", "0", "/", " ", "~", "!", "#", "[", "]")


def _writer_string(rng, chars=_WRITER_CHARS):
    return "".join(rng.choice(chars) for _ in range(rng.randrange(6)))


def _writer_doc(rng, depth=0):
    kind = rng.randrange(10 if depth < 4 else 4)
    if kind == 0:
        return _writer_string(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 2 ** 64, -(2 ** 100),
                           rng.randrange(-10 ** 30, 10 ** 30)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    size = rng.randrange(5)
    if kind == 4:
        return [_writer_string(rng, rng.choice((_WRITER_CHARS, _PLAIN_CHARS)))
                for _ in range(size)]
    if kind in (5, 6):
        return [_writer_doc(rng, depth + 1) for _ in range(size)]
    if kind == 7:
        return tuple(_writer_doc(rng, depth + 1) for _ in range(size))
    return {_writer_string(rng): _writer_doc(rng, depth + 1) for _ in range(size)}


def _string_lists(value):
    """Every non-empty list or tuple of strings in the document ``value``."""
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(item, str) for item in value):
            yield value
            return
    elif isinstance(value, dict):
        value = value.values()
    else:
        return
    for item in value:
        yield from _string_lists(item)


def _verbatim(strings) -> bool:
    """json.dumps prints each of ``strings`` as it is, between quotes: their
    concatenation is printable ASCII with no quote and no backslash."""
    text = "".join(strings)
    return (text.isascii() and text.isprintable() and '"' not in text
            and "\\" not in text)


def test_json_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(14)
    docs = [_writer_doc(rng) for _ in range(3000)]
    mismatches = [doc for doc in docs if _json_indent2(doc) != json.dumps(doc, indent=2)]
    assert mismatches == []
    # Both sides of the writer's one-join condition are well exercised.
    paths = Counter(_verbatim(strings) for doc in docs for strings in _string_lists(doc))
    assert paths[True] >= 100 and paths[False] >= 100, paths


@pytest.mark.parametrize("doc", [
    {}, [], (), "", [[]], [{}], {"": {}}, [""], ["a", 1], [1, "a"], [True, "a"],
    [None, "none"], ("a", "b"), ["\"\\", "\u00e9\U0001f600"],
    {"k": [["x", "y"], [True, False, None]]}, 10 ** 200, -7,
    # Each side of the one-join condition: the ends of printable ASCII, DEL,
    # a control, a quote, a backslash, non-ASCII, a lone surrogate, a tuple,
    # and one string that needs escaping among plain ones.
    [" ", "~"], ["\x7f"], ["\x1f"], ['a"b'], ["a\\b"], ["\u00e9"], ["\ud800"],
    ("x", "y"), ["ok", "\n"],
])
def test_json_writer_matches_json_dumps_on_edge_cases(doc):
    assert _json_indent2(doc) == json.dumps(doc, indent=2)


def test_json_writer_joins_a_plain_string_list_at_once(monkeypatch):
    # A list of strings that need no escape is written with one join, so
    # only the dict's key reaches the string encoder; a list with a quote
    # encodes each item.  Encoding item by item would make 1,001 here.
    calls = [0]
    monkeypatch.setattr(contmach.cli, "_encode_str",
                        counted(contmach.cli._encode_str, calls))
    _json_indent2({"modulus": ["1/2"] * 1000})
    assert calls == [1]
    _json_indent2({"m": ['a"b'] * 3})
    assert calls == [1 + 4]


@pytest.mark.parametrize("doc", [
    0.0, 1.5, Fraction(1, 2), object(), [0.0], ["a", 0.0], ("a", object()),
    {"a": Fraction(1, 3)}, {1: "a"}, {None: "a"}, b"a", [b"a"],
])
def test_json_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        _json_indent2(doc)
