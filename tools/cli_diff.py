"""Check that the CLI prints byte for byte what a parent commit prints.

Usage, from the root of a checkout:

    python3 tools/cli_diff.py --base HEAD

It runs ``python -m contmach.cli`` on one fixed list of argument vectors,
once on the commit ``--base``, unpacked from ``git archive`` into a temporary
directory that is deleted afterwards, and once on this checkout's working
tree, so uncommitted edits are checked too.  Both sides run the same
interpreter in the same working directory, which holds the corpus files the
``check`` vectors read.  The ``--output`` vectors write ``OUTPUT`` there;
its bytes are part of a run's outcome, and it is deleted after each run.
It exits 1 and names every vector whose exit code, stdout, stderr or output
file differs.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

from bench_pairs import ROOT, git, unpack

CORPUS = "corpus.json"
#: A second corpus, whose name the ``check`` output must escape.
ESCAPED_CORPUS = 'corpus "quoted" \\ caf\u00e9.json'
CORPUS_POINTS = [{"point": "2", "name_kind": "exact"},
                 {"point": "-7/5", "name_kind": "grid"}]
#: The file the ``--output`` success vectors write, in the working directory.
OUTPUT = "output.txt"

GOLDENS = [
    ["invert", "--value", "2", "--eps", "1", "--max-effort", "64"],
    ["invert", "--value", "0", "--eps", "1/8", "--max-effort", "1024"],
    ["sign", "--value", "1", "--max-effort", "4"],
]

USAGE_ERRORS = [
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
    ["associate-trace", "--machine", "sign", "--value", "1", "--max-rounds", "-1"],
    ["check", "--machine", "sign", "--corpus", CORPUS, "--fuel-cap", "-1"],
    ["invert", "--value", "2", "--eps", "1", "--max-effort", "-1"],
    ["sign", "--value", "1", "--max-effort", "-2"],
    ["compose", "--pipeline", "sign", "--value", "1", "--index", "two"],
    ["sign", "--value", "1", "--schedule", "linear"],
    ["sign", "--value", "1", "--eps", "1"],
    ["check", "--machine", "invert", "--corpus", CORPUS, "--max-effort", "3"],
    ["associate-trace", "--machine", "sign", "--value", "1", "--max-effort", "3"],
    ["invert", "--value", "1", "--eps", "1", "--index", "0"],
    ["check", "--machine", "frobnicate", "--corpus", CORPUS],
    ["compose", "--pipeline", "invert", "--value", "1", "--schedule", "fibonacci"],
    ["sign", "--value", "1e-5000", "--max-effort", "2"],
    ["invert", "--value", "1e-5000", "--eps", "1"],
    ["invert", "--value", "2", "--eps", "1e-5000"],
    ["invert", "--value", "7/5", "--eps", "1e-4299", "--max-effort", "4"],
    ["associate-trace", "--machine", "invert", "--value", "7/5", "--eps", "1e-4299"],
    ["invert", "--value", "1" * 5000, "--eps", "1"],
    ["invert", "--value", " " * 5000 + "1e-5000", "--eps", "1"],
    ["invert", "--value", "2", "--eps", "1", "--output", "missing/x.json"],
]

#: Usage errors with more than one fault: the message shows which check
#: runs first (value, empty pipeline, unknown machine, misaligned stages,
#: then eps or index).
ERROR_ORDER = [
    ["invert", "--value", "zebra", "--eps", "0"],
    ["compose", "--pipeline", "|", "--value", "zebra"],
    ["compose", "--pipeline", "frobnicate", "--value", "zebra"],
    ["compose", "--pipeline", "invert|frobnicate", "--value", "2"],
    ["compose", "--pipeline", "sign|invert", "--value", "2"],
]

POINTS = ("0", "7/5", "1e-6", "-3")
SCHEDULES = ("linear", "powers_of_two")


def vectors() -> list:
    """The argument vectors both sides run, in order."""
    runs = GOLDENS + USAGE_ERRORS + ERROR_ORDER
    # ``invert`` is the one-stage pipeline: each is run beside the other.
    runs += [["compose", "--pipeline", *argv] for argv in GOLDENS[:2]]
    for point in POINTS:
        for eps in ("1", "1/1024"):
            for schedule in SCHEDULES:
                for cap in ("0", "5", "40"):
                    flags = [f"--value={point}", "--eps", eps,
                             "--schedule", schedule, "--max-effort", cap]
                    runs.append(["invert", *flags])
                    if point in POINTS[:3]:
                        runs.append(["compose", "--pipeline", "invert", *flags])
                    runs.append(["compose", "--pipeline", "invert|invert", *flags])
    for point in POINTS[:3]:
        for schedule in SCHEDULES:
            for cap in ("0", "5", "12"):
                runs.append(["compose", "--pipeline", "invert|invert|invert",
                             f"--value={point}", "--eps", "1/1024",
                             "--schedule", schedule, "--max-effort", cap])
    for point in ("-4", "0", "1/1000"):
        runs.append(["compose", "--pipeline", "invert|sign", f"--value={point}",
                     "--index", "8", "--max-effort", "64"])
        runs.append(["compose", "--pipeline", "sign", f"--value={point}",
                     "--index", "3", "--max-effort", "16"])
        runs.append(["sign", f"--value={point}", "--max-effort", "8"])
    # 2^-14285 is the first sign accuracy with more digits than Python prints.
    for index in ("14284", "14285"):
        runs.append(["compose", "--pipeline", "sign", "--value", "1",
                     "--index", index])
        runs.append(["associate-trace", "--machine", "sign", "--value", "1",
                     "--index", index])
    # Efforts on both sides of 1,024, below which dyadic questions are shared.
    runs.append(["invert", f"--value=1/{2 ** 1100}", "--eps", "1",
                 "--max-effort", "2048"])
    runs.append(["sign", "--value", "1", "--max-effort", "1100"])
    for rounds in ("6", "24"):
        for point in ("0", "7/5", "-1/1000000"):
            runs.append(["associate-trace", "--machine", "invert",
                         f"--value={point}", "--eps", "1/8", "--max-rounds", rounds])
        for point in ("0", "-3/1000", "1"):
            runs.append(["associate-trace", "--machine", "sign",
                         f"--value={point}", "--index", "5", "--max-rounds", rounds])
    # Long dialogues, whose consultations each resume the previous walk.
    runs += [
        ["associate-trace", "--machine", "invert", "--value", "0",
         "--eps", "1/8", "--max-rounds", "1024"],
        ["associate-trace", "--machine", "invert", "--value", "1e-6",
         "--eps", "1/1073741824", "--max-rounds", "64"],
        ["associate-trace", "--machine", "sign", "--value", "1/1000",
         "--index", "12"],
    ]
    for machine in ("invert", "sign"):
        for cap in ("0", "8"):
            runs.append(["check", "--machine", machine, "--corpus", CORPUS,
                         "--fuel-cap", cap])
        runs.append(["check", "--machine", machine, "--corpus", ESCAPED_CORPUS])
    for output in ("json", "text"):
        runs.append(["compose", "--pipeline", "invert|invert|invert",
                     "--value", "0", "--eps", "1/8", "--max-effort", "16",
                     "--schedule", "linear", "--format", output])
        # Both composites settle their outer stage again, 43 times in all.
        runs.append(["compose", "--pipeline", "invert|invert|invert",
                     "--value=-1/131072", "--eps", "1", "--max-effort", "4096",
                     "--format", output])
        runs.append(["compose", "--pipeline", "invert|invert", "--value", "7/5",
                     "--eps", "1/1024", "--format", output, "--output", OUTPUT])
        runs.append(["associate-trace", "--machine", "sign", "--value=-3/1000",
                     "--index", "5", "--format", output, f"--output={OUTPUT}"])
    runs += [
        ["invert", "--value", "2", "--eps", "1", "--max-effort", "2",
         "--format", "text"],
        ["invert", "--value", "0", "--eps", "1/8", "--max-effort", "5",
         "--schedule", "linear", "--format", "text"],
        ["sign", "--value", "1", "--max-effort", "2", "--format", "text"],
        ["compose", "--pipeline", "invert|invert", "--value", "7/5",
         "--eps", "1/1024", "--format", "text"],
        ["associate-trace", "--machine", "invert", "--value", "2", "--eps", "1",
         "--format", "text"],
        ["check", "--machine", "invert", "--corpus", CORPUS, "--format", "text"],
    ]
    return runs


def write_corpora(workdir: Path) -> None:
    """Write the corpus files the ``check`` vectors read into ``workdir``."""
    for name in (CORPUS, ESCAPED_CORPUS):
        (workdir / name).write_text(json.dumps(CORPUS_POINTS), encoding="utf-8")


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    #: The bytes of ``OUTPUT`` after the run, None when it wrote none.
    output: Optional[bytes] = None


def run_one(checkout: Path, workdir: Path, argv: list) -> Outcome:
    """One vector's outcome in a fresh process on the package in ``checkout``;
    ``OUTPUT`` is deleted afterwards."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "contmach.cli", *argv],
                          cwd=workdir, env=env, capture_output=True)
    written = workdir / OUTPUT
    output = written.read_bytes() if written.exists() else None
    written.unlink(missing_ok=True)
    return Outcome(proc.returncode, proc.stdout, proc.stderr, output)


def run_all(checkout: Path, workdir: Path) -> dict:
    """Each vector's outcome on the package in ``checkout``, by vector."""
    return {tuple(argv): run_one(checkout, workdir, argv) for argv in vectors()}


def differences(parent: dict, change: dict) -> list:
    """One line per vector whose exit code, stdout, stderr or output file
    differs."""
    lines = []
    for argv, before in parent.items():
        after = change[argv]
        parts = [part for part, old, new
                 in zip(("exit code", "stdout", "stderr", "output file"),
                        before, after)
                 if old != new]
        if parts:
            shown = shlex.join(argv)
            if len(shown) > 120:
                shown = f"{shown[:120]}... ({len(shown)} characters)"
            lines.append(f"{shown}: differs in {', '.join(parts)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision, e.g. HEAD")
    args = parser.parse_args(argv)

    base = git("rev-parse", args.base).decode().strip()
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as tmp:
        parent_dir, workdir = Path(tmp, "parent"), Path(tmp, "work")
        unpack(base, parent_dir)
        workdir.mkdir()
        write_corpora(workdir)
        parent = run_all(parent_dir, workdir)
        change = run_all(ROOT, workdir)
    lines = differences(parent, change)
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{len(lines)} of {len(parent)} vectors differ from {base}",
          file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
