"""``tools/cli_diff.py``'s comparison of two sides' outcomes, without running
the CLI."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cli_diff  # noqa: E402
from cli_diff import Outcome  # noqa: E402

SAME = Outcome(0, b'{"answer": "1/2"}\n', b"")


def test_identical_outcomes_differ_nowhere():
    outcomes = {("invert", "--value", "2"): SAME, ("sign", "--value", "1"): SAME}
    assert cli_diff.differences(outcomes, dict(outcomes)) == []


def test_every_differing_vector_is_named_with_what_differs():
    parent = {
        ("invert", "--value", "2"): SAME,
        ("sign", "--value", "1"): SAME,
        ("compose", "--pipeline", "invert|invert", "--value=-3"): SAME,
        ("invert", "--value", "0"): SAME,
    }
    change = {
        ("invert", "--value", "2"): SAME,
        ("sign", "--value", "1"): SAME._replace(stdout=b'{"answer": "1/3"}\n'),
        ("compose", "--pipeline", "invert|invert", "--value=-3"):
            Outcome(1, b"", b"contmach: error: ...\n"),
        ("invert", "--value", "0"): SAME._replace(stderr=b"warning\n"),
    }
    assert cli_diff.differences(parent, change) == [
        "sign --value 1: differs in stdout",
        "compose --pipeline 'invert|invert' --value=-3: "
        "differs in exit code, stdout, stderr",
        "invert --value 0: differs in stderr",
    ]


def test_a_vector_whose_output_file_alone_differs_is_named():
    argv = ("invert", "--value", "2", "--output", cli_diff.OUTPUT)
    parent = {argv: Outcome(0, b"", b"", b'{"answer": "1/2"}\n')}
    change = {argv: parent[argv]._replace(output=b'{"answer": "1/3"}\n')}
    assert cli_diff.differences(parent, change) == [
        f"invert --value 2 --output {cli_diff.OUTPUT}: differs in output file"]
    assert cli_diff.differences(parent, {argv: SAME._replace(stdout=b"")}) == [
        f"invert --value 2 --output {cli_diff.OUTPUT}: differs in output file"]


def test_run_reads_the_output_file_and_deletes_it(tmp_path):
    argv = ["sign", "--value", "1", "--max-effort", "2", "--format", "text",
            "--output", cli_diff.OUTPUT]
    outcome = cli_diff.run_one(cli_diff.ROOT, tmp_path, argv)
    assert outcome[:3] == (0, b"", b"")
    assert outcome.output.startswith(b'command: "sign"\n')
    assert list(tmp_path.iterdir()) == []
    assert cli_diff.run_one(cli_diff.ROOT, tmp_path, argv[:-3]).output is None


def test_long_vectors_are_shortened():
    argv = ("invert", "--value", "1" * 5000)
    [line] = cli_diff.differences({argv: SAME}, {argv: SAME._replace(code=1)})
    assert line.endswith("... (5015 characters): differs in exit code")
    assert len(line) < 200


def test_vector_list_has_no_duplicates():
    runs = [tuple(argv) for argv in cli_diff.vectors()]
    assert len(runs) == len(set(runs)) == 242
