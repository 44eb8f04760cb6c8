"""Benchmark a change against its parent in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --pr 6 --base HEAD~1

For each workload in ``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0``
for ``run_seconds`` ten times on the parent and ten times on the change, one
pair per seed from 301 on, and alternates which side of a pair runs first.  The parent is the
commit ``--base``, unpacked from ``git archive`` into a temporary directory
that is deleted afterwards; the change is this checkout's working tree, so
uncommitted edits are measured too.  Both sides run the same interpreter
with the same arguments, and both from the same bytecode state: no run
reads or writes cached bytecode, so both compile every module they import.

It writes ``BENCH_<pr>.json`` at the root of the checkout: per workload and
end-to-end metric, each side's runs, median and quartiles, the relative
change of the median, how many pairs the change won, whether the change's
median is worse than the parent's by more than the bound ``BENCHMARK.json``
fixes, whether the metric is unresolved: the parent's interquartile
distance, relative to its median, is wider than that bound, so a change
within the bound cannot be told from noise, and not every run of the change
reads better than every run of the parent, and whether the change is a
gain: better in at least 9 of 10 pairs, its median moved in the better
direction by more than that relative interquartile distance.  The seeds,
the run order, the Python version and the load average before each run are
recorded beside them, and so is each run's pass count, read from the
summary ``perfbench/run.py`` prints on stderr: a faster change makes more
passes in a run of fixed length, which raises ``peak_rss_mb`` by itself.
Standard library only.

It exits 1, after writing the file, when any run reports a wrong result,
and names each such run's workload, side and seed on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 301

#: The share of pairs a change must win for a gain.
GAIN_SHARE = 0.9

#: The pass count in a run's summary on stderr: "… 202 ops x 381 passes …".
PASSES = re.compile(r" ops x (\d+) passes ")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def unpack(revision: str, into: Path) -> None:
    """Extract the committed files of ``revision`` into ``into``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", revision))) as tar:
        tar.extractall(into, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last line of output is a JSON object.

    The run neither reads nor writes cached bytecode: its bytecode cache is
    a fresh, empty directory outside both checkouts, and writing is off, so
    each side compiles every module it imports, whatever ``__pycache__``
    directories either checkout holds.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "passes": passes(proc.stderr),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def passes(stderr: str) -> int:
    """The number of passes a run made, from its summary on stderr."""
    match = PASSES.search(stderr)
    if match is None:
        raise RuntimeError(f"no pass count in the run's stderr:\n{stderr}")
    return int(match.group(1))


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list, change: list) -> dict:
    """Both sides of one metric, whether the change stays within its bound,
    whether the parent's spread is too wide for the bound to tell, and
    whether the change is a gain: better in at least 9 of 10 pairs, with its
    median moved in the better direction by more than the parent's
    interquartile distance relative to the parent's median."""
    lower = metric["better"] == "lower"
    before, after = summary(parent), summary(change)
    base = before["median"]
    relative = (after["median"] - base) / base if base else 0.0
    spread = (before["q3"] - before["q1"]) / abs(base) if base else 0.0
    worse_by = relative if lower else -relative
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    pairs_better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": before, "change": after,
        "relative_change": relative,
        "pairs_change_better": pairs_better,
        "within_bound": worse_by <= metric["bound"],
        "parent_relative_iqr": spread,
        "unresolved": spread > metric["bound"] and not separated,
        "gain": pairs_better >= GAIN_SHARE * len(parent) and -worse_by > spread,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--base", required=True, help="parent revision, e.g. HEAD~1")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    base = git("rev-parse", args.base).decode().strip()
    doc = {
        "pr": args.pr, "base": base,
        "change": "working tree at " + git("rev-parse", "HEAD").decode().strip(),
        "command": "perfbench/run.py --trace 0", "seconds": seconds,
        "seeds": seeds, "first_in_pair": ["parent" if i % 2 == 0 else "change"
                                          for i in range(PAIRS)],
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "workloads": {},
    }
    wrong = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        unpack(base, parent_dir)
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = {"parent": [], "change": []}
            loads = []
            for index, seed in enumerate(seeds):
                order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
                for side in order:
                    loads.append(os.getloadavg()[0])
                    checkout = parent_dir if side == "parent" else ROOT
                    runs[side].append(run_once(checkout, workload, seed, seconds))
                    if not runs[side][-1]["correct"]:
                        wrong.append(f"{workload} {side} seed {seed}")
                    print(f"{workload} seed {seed} {side}: ops_per_s "
                          f"{runs[side][-1]['metrics']['ops_per_s']:.4g}, "
                          f"{runs[side][-1]['passes']} passes", file=sys.stderr)
            doc["workloads"][workload] = {
                "load_average_1m_before_runs": loads,
                "all_correct": all(r["correct"] for side in runs.values() for r in side),
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "passes": {side: [r["passes"] for r in rs] for side, rs in runs.items()},
                "metrics": {
                    metric["name"]: compare(
                        metric, *([r["metrics"][metric["name"]] for r in runs[side]]
                                  for side in ("parent", "change")))
                    for metric in benchmark["end_to_end"]},
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    for run in wrong:
        print(f"wrong result: {run}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
