"""Print each op kind's share of a Plain pass of one benchmark workload.

Usage, from the root of a checkout:

    python3 tools/pass_shares.py --workload eval_deep --seed 301 --passes 5

It builds the workload as ``perfbench/run.py`` does: the package from this
checkout's ``src/``, the seeded op list, the untraced ``Plain`` api and the
kit of machines every op shares.  It then runs the op list ``--passes``
times and keeps each op's best time over the passes.  The pass time is the
sum of those best times; an op kind's share is the sum over its ops divided
by that.  It prints the pass time, then one line per kind, largest share
first.  ``perfbench/`` is imported and never written, apart from the
corpora its ops write under ``perfbench/out``.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# perfbench/run.py, loaded by path; it puts perfbench/ on the import path
# for its own modules, whose op lists, api and kit this tool reuses.
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)
workloads = run.workloads


def pass_shares(cm, cli, workload: str, seed: int, passes: int):
    """(pass seconds, {op kind: share of the pass}) of ``workload`` for
    ``seed``, on the package modules ``cm`` and ``cli``, taking each op's
    best time over ``passes`` passes."""
    ops = workloads.generate(workload, seed)
    plain = run.apis.Plain(cm, cli)
    kit = workloads.Kit(plain, cm)
    best = [float("inf")] * len(ops)
    for _ in range(passes):
        for op in ops:
            start = perf_counter()
            op.run(plain, kit)
            best[op.index] = min(best[op.index], perf_counter() - start)
    total = sum(best)
    by_kind = Counter()
    for op in ops:
        by_kind[op.kind] += best[op.index]
    return total, {kind: seconds / total for kind, seconds in by_kind.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    cm, cli = run.import_contmach()
    total, shares = pass_shares(cm, cli, args.workload, args.seed, args.passes)
    print(f"{args.workload} seed {args.seed}: pass {1000 * total:.1f} ms, "
          f"best of {args.passes}")
    for kind, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"{100 * share:6.1f}%  {kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
