"""Benchmark of contmach: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval_shallow --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout and driven in one
process, one thread, as a closed loop with one client: each op starts when
the previous one has returned.  The op list (``workloads.py``) is generated
from the seed; one pass runs it once, and passes repeat until ``--seconds``
have gone by.  Every op of the first pass is checked against the independent
reference (``reference.py``); later passes must reproduce the first pass's
outcomes exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, checks that tracing changes no outcome and that
two traced passes count identically, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
human-readable summary, with the sample counts and the machine's Python
version, CPU count and load average, goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import api as apis  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7

#: Fewest passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 3


def import_contmach():
    """Import contmach afresh from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    for module in [m for m in sys.modules if m == "contmach" or m.startswith("contmach.")]:
        del sys.modules[module]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cm = importlib.import_module("contmach")
    cli = importlib.import_module("contmach.cli")
    if Path(cm.__file__).resolve().parent.parent != src:
        raise ImportError(f"contmach imported from {cm.__file__}, not {src}")
    return cm, cli


def setup(workload: str, seed: int):
    """Import, input generation, corpus files and machine construction."""
    cm, cli = import_contmach()
    ops = workloads.generate(workload, seed)
    plain = apis.Plain(cm, cli)
    return cm, cli, ops, plain, workloads.Kit(plain, cm)


def digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def output_bytes(outcome) -> int:
    """CLI output, or the JSON-encoded result of a library op."""
    if "stdout" in outcome:
        return len(outcome["stdout"].encode()) + len(outcome["stderr"].encode())
    return len(json.dumps(outcome).encode())


class Pass:
    """One run of the op list: latencies, outcomes, layer records.

    ``latencies`` are raw seconds; ``epochs`` place each op between two
    calibrations of ``clock`` for conversion to reference seconds.  The
    first pass checks every outcome against the reference and keeps its
    digests; a later pass given those digests counts the ops whose outcome
    differs in ``mismatches``.
    """

    def __init__(self, ops, api, kit, clock, first=None):
        self.latencies = []
        self.epochs = []
        self.digests = []
        self.records = []
        self.problems = {}
        self.mismatches = 0
        self.output_bytes = 0
        for op in ops:
            api.begin_op(op)
            start = perf_counter()
            outcome = op.run(api, kit)
            self.latencies.append(perf_counter() - start)
            self.epochs.append(clock.tick())
            record = api.end_op()
            if record:
                self.records.append(record)
            self.output_bytes += output_bytes(outcome)
            if first is None:
                self.digests.append(digest(outcome))
                problems = op.check(outcome)
                if problems:
                    self.problems[op.index] = problems
            elif digest(outcome) != first.digests[op.index]:
                self.mismatches += 1
        if first is not None and self.output_bytes != first.output_bytes:
            self.mismatches += 1

    def scaled(self, clock) -> list:
        return [clock.scale(s, e) for s, e in zip(self.latencies, self.epochs)]


def environment() -> str:
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")


def percentile(values, fraction):
    """Harrell-Davis estimate of the ``fraction`` quantile.

    A weighted mean of all order statistics with Beta(f(n+1), (1-f)(n+1))
    weights (here integrated by the midpoint rule).  The op mixes have gaps
    between the costs of neighbouring ops, so the nearest-rank percentile
    jumps by 10-20% when noise swaps two ops near the rank; this estimator
    moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def report_failures(ops, first: Pass) -> tuple:
    """(failed ops, ops with a wrong result) of the first pass.

    A traceback fails its op; a wrong answer, verdict or exit code also
    makes the run incorrect.
    """
    wrong = 0
    for index, problems in sorted(first.problems.items()):
        crash = all(p.startswith("traceback:") for p in problems)
        wrong += not crash
        print(f"  op {index} {ops[index].kind}: {'; '.join(problems)}", file=sys.stderr)
    return len(first.problems), wrong


def untraced(args, ops, kit, plain, clock, setup_times) -> dict:
    """End-to-end metrics; ``setup_times`` are (raw seconds, epoch) pairs."""
    start = perf_counter()
    first = Pass(ops, plain, kit, clock)
    passes = [first]
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        passes.append(Pass(ops, plain, kit, clock, first))
    clock.close()
    failed, wrong = report_failures(ops, first)
    consistent = not any(p.mismatches for p in passes)
    if not consistent:
        print("  outcomes differ between passes", file=sys.stderr)

    # Each op's latency is its median over the passes, in reference seconds;
    # the percentiles are taken over the ops of the mix, and the throughput
    # from their sum.
    scaled = [p.scaled(clock) for p in passes]
    per_op = [statistics.median(s[i] for s in scaled) for i in range(len(ops))]
    raw = [statistics.median(p.latencies[i] for p in passes) for i in range(len(ops))]
    metrics = {
        "setup_s": (statistics.median(clock.scale(*t) for t in setup_times), "s"),
        "ops_per_s": (len(ops) / sum(per_op), "1/s"),
        "op_p50_ms": (1000 * percentile(per_op, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(per_op, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_bytes": (first.output_bytes, "bytes"),
        "success_rate": ((len(ops) - failed) / len(ops), "ratio"),
    }
    beyond = sum(1 for v in per_op if v > percentile(per_op, 0.9))
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops x {len(passes)} passes "
          f"in {perf_counter() - start:.1f} s, {beyond} ops beyond p90, "
          f"error_rate {failed / len(ops):.4f}; unscaled ops_per_s "
          f"{len(ops) / sum(raw):.2f}, p50 {1000 * percentile(raw, 0.5):.4f} ms, "
          f"p90 {1000 * percentile(raw, 0.9):.4f} ms; calibration "
          f"{1000 * statistics.median(clock.samples):.2f} ms "
          f"[{1000 * min(clock.samples):.2f}, {1000 * max(clock.samples):.2f}]; "
          f"{environment()}", file=sys.stderr)
    return {"correct": wrong == 0 and consistent,
            "attempted": len(ops) * len(passes),
            "failed": failed * len(passes),
            "metrics": metrics}


def layer_metrics(counts: Counter, self_s: dict, overhead: float) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    raw = counts["realizers.machine_calls"] + counts["realizers.modulus_calls"]
    metrics = {
        "alphabets.oracle_queries": (counts["alphabets.oracle_queries"], "count"),
        "alphabets.oracle_reuse_ratio": (ratio(counts["alphabets.distinct_questions"],
                                               counts["alphabets.oracle_queries"]), "ratio"),
        "alphabets.oracle_s": (self_s["alphabets.oracle"], "s"),
        "realizers.machine_calls": (counts["realizers.machine_calls"], "count"),
        "realizers.modulus_calls": (counts["realizers.modulus_calls"], "count"),
        "realizers.answer_ratio": (ratio(counts["realizers.answers"],
                                         counts["realizers.machine_calls"]), "ratio"),
        "realizers.self_s": (self_s["realizers"], "s"),
        "realizers.check_calls": (counts["realizers.check_calls"], "count"),
        "machines.evaluate_attempts": (counts["machines.evaluate_attempts"], "count"),
        "machines.use_first_calls": (counts["machines.use_first_calls"], "count"),
        "machines.raw_calls_per_use_first": (ratio(raw, counts["machines.use_first_calls"]),
                                             "ratio"),
    }
    for stage in range(1, 5):
        key = f"machines.compose_stage_calls.{stage}"
        metrics[key] = (counts[key], "count")
    metrics.update({
        "machines.self_s": (self_s["machines"], "s"),
        "associates.consultations": (counts["associates.consultations"], "count"),
        "associates.rounds": (counts["associates.rounds"], "count"),
        "associates.raw_calls_per_consultation": (
            ratio(counts["associates.raw_calls"], counts["associates.consultations"]),
            "ratio"),
        "associates.answered_ratio": (ratio(counts["associates.answers"],
                                            counts["associates.consultations"]), "ratio"),
        "associates.self_s": (self_s["associates"], "s"),
        "spaces.machine_calls": (counts["spaces.machine_calls"], "count"),
        "spaces.is_name_calls": (counts["spaces.is_name_calls"], "count"),
        "spaces.self_s": (self_s["spaces"], "s"),
        "cli.runs": (counts["cli.runs"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.output_bytes": (counts["cli.output_bytes"], "bytes"),
        "cli.exit.0": (counts["cli.exit.0"], "count"),
        "cli.exit.1": (counts["cli.exit.1"], "count"),
        "cli.exit.2": (counts["cli.exit.2"], "count"),
        "cli.tracebacks": (counts["cli.tracebacks"], "count"),
        "trace_overhead": (overhead, "ratio"),
    })
    return metrics


def traced(args, cm, cli, ops, kit, plain, clock) -> dict:
    tracer = apis.Traced(cm, cli)
    traced_kit = workloads.Kit(tracer, cm)
    start = perf_counter()
    first = Pass(ops, plain, kit, clock)
    plain_passes = [first]
    traced_passes = [Pass(ops, tracer, traced_kit, clock, first)]
    write_spans(args, tracer.spans, ops)
    tracer.keep_spans = False
    while len(traced_passes) < 2 or perf_counter() - start < args.seconds:
        plain_passes.append(Pass(ops, plain, kit, clock, first))
        traced_passes.append(Pass(ops, tracer, traced_kit, clock, first))
    clock.close()
    failed, wrong = report_failures(ops, first)
    transparent = not any(p.mismatches for p in plain_passes + traced_passes)
    counts = [[r["counts"] for r in p.records] for p in traced_passes]
    repeatable = all(c == counts[0] for c in counts)
    if not transparent:
        print("  tracing changed an outcome", file=sys.stderr)
    if not repeatable:
        print("  two traced passes counted differently", file=sys.stderr)

    totals = Counter()
    for record in counts[0]:
        totals.update(record)
    self_s = Counter()
    for layer in ("alphabets.oracle", "realizers", "machines", "associates",
                  "spaces", "cli"):
        self_s[layer] = statistics.median(
            sum(clock.scale(r["self_s"].get(layer, 0.0), e)
                for r, e in zip(p.records, p.epochs))
            for p in traced_passes)
    overhead = (statistics.median(sum(p.scaled(clock)) for p in traced_passes)
                / statistics.median(sum(p.scaled(clock)) for p in plain_passes))
    print(f"{args.workload} seed {args.seed} traced: {len(ops)} ops x "
          f"{len(traced_passes)} traced passes, overhead {overhead:.2f}x; "
          f"{environment()}", file=sys.stderr)
    return {"correct": wrong == 0 and transparent and repeatable,
            "attempted": len(ops) * len(traced_passes),
            "failed": failed * len(traced_passes),
            "metrics": layer_metrics(totals, self_s, overhead)}


def write_spans(args, spans, ops) -> None:
    """Spans of one traced pass, one JSON object per line."""
    path = ROOT / workloads.CORPUS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for op_id, name, start, end in spans:
            handle.write(json.dumps({"op": op_id, "kind": ops[op_id].kind, "span": name,
                                     "start_s": start, "end_s": end}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    clock = Clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        begin = perf_counter()
        cm, cli, ops, plain, kit = setup(args.workload, args.seed)
        setup_times.append((perf_counter() - begin, clock.tick()))

    if args.trace:
        result = traced(args, cm, cli, ops, kit, plain, clock)
    else:
        result = untraced(args, ops, kit, plain, clock, setup_times)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"perfbench: cannot import contmach from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(3)
