"""The benchmark's own tests: layer counts, transparency, reference checks.

Run with ``python -m pytest perfbench``.  The counts below were measured on
the package as first shipped; they pin what the traced run reports, so a
change to them means either the program did different work or the tracer
lost a boundary.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import contmach  # noqa: E402
import contmach.cli  # noqa: E402

import api as apis  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402


class _Op:
    index = 0


def traced_counts(call) -> dict:
    tracer = apis.Traced(contmach, contmach.cli)
    kit = workloads.Kit(tracer, contmach)
    tracer.begin_op(_Op)
    call(tracer, kit)
    return tracer.end_op()["counts"]


def test_divergent_linear_inversion_counts():
    counts = traced_counts(lambda t, kit: t.evaluate(
        kit.inv, t.name(contmach.exact_name(0)), Fraction(1, 8), 256, "linear"))
    assert counts["realizers.machine_calls"] == 33_153
    assert counts["alphabets.oracle_queries"] == 33_153
    assert counts["machines.evaluate_attempts"] == 257


@pytest.mark.parametrize("depth, raw_calls", [(2, 484), (3, 7_216), (4, 98_624)])
def test_composed_inversion_counts(depth, raw_calls):
    counts = traced_counts(lambda t, kit: t.evaluate(
        kit.pipelines[depth], t.name(contmach.exact_name(Fraction(1, 10 ** 6))),
        Fraction(1, 2 ** 30), 2 ** 20, "powers_of_two"))
    assert counts["realizers.machine_calls"] == raw_calls
    assert all(counts[f"machines.compose_stage_calls.{stage}"] > 0
               for stage in range(1, depth + 1))


@pytest.mark.parametrize("rounds, machine_calls, modulus_calls",
                         [(16, 1_360, 816), (32, 10_912, 5_984)])
def test_divergent_dialogue_counts(rounds, machine_calls, modulus_calls):
    counts = traced_counts(lambda t, kit: t.dialogue_trace(
        kit.inv_assoc, t.name(contmach.exact_name(0)), Fraction(1, 8), rounds))
    assert counts["realizers.machine_calls"] == machine_calls
    assert counts["realizers.modulus_calls"] == modulus_calls
    assert counts["associates.consultations"] == rounds
    assert counts["associates.rounds"] == rounds


def plain_pass(ops, first=None):
    plain = apis.Plain(contmach, contmach.cli)
    return run.Pass(ops, plain, workloads.Kit(plain, contmach), Clock(), first)


def test_generation_is_seeded():
    def kinds(seed):
        return [op.kind for op in workloads.generate("eval_shallow", seed)]

    assert kinds(3) == kinds(3)
    assert sorted(kinds(3)) == sorted(kinds(4))
    ops = workloads.generate("dialogue", 3)[:20]
    assert plain_pass(ops, plain_pass(ops)).mismatches == 0
    other = workloads.generate("dialogue", 4)[:20]
    assert plain_pass(other, plain_pass(ops)).mismatches > 0


def test_tracing_is_transparent_and_repeatable():
    ops = workloads.generate("eval_shallow", 5)
    tracer = apis.Traced(contmach, contmach.cli)
    untraced = plain_pass(ops)
    kit = workloads.Kit(tracer, contmach)
    traced = [run.Pass(ops, tracer, kit, Clock(), untraced) for _ in range(2)]
    assert [other.mismatches for other in traced] == [0, 0]
    assert ([r["counts"] for r in traced[0].records]
            == [r["counts"] for r in traced[1].records])
    # The CLI's imports are restored after every traced op.
    assert contmach.cli.use_first is contmach.use_first


def test_only_negative_index_vectors_fail():
    """At the seed commit these crash with a TypeError; nothing else may fail."""
    ops = workloads.generate("eval_shallow", 5)
    first = plain_pass(ops)
    for index, problems in first.problems.items():
        assert ops[index].kind in ("cli_compose", "cli_associate-trace")
        assert all(line.startswith("traceback: TypeError") for line in problems)


def test_reference_rejects_wrong_outcomes():
    """The checks are not vacuous: an answer moved past every eps is caught."""
    ops = workloads.generate("eval_deep", 2)
    plain = apis.Plain(contmach, contmach.cli)
    kit = workloads.Kit(plain, contmach)
    caught = 0
    for op in ops:
        if not op.kind.startswith(("pipeline", "kleenean_bool")) or op.kind == "pipeline4":
            continue
        out = op.run(plain, kit)
        assert op.check(out) == []
        if out["value"] is None:
            wrong = {"value": True, "effort": 0}
        elif isinstance(out["value"], bool):
            wrong = {"value": not out["value"], "effort": out["effort"]}
        else:
            wrong = {"value": str(Fraction(out["value"]) + 2), "effort": out["effort"]}
        assert op.check(wrong), op.kind
        caught += 1
    assert caught > 50


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = run.layer_metrics(Counter(), Counter(), 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])
    ops = workloads.generate("eval_shallow", 1)
    args = type("Args", (), {"workload": "eval_shallow", "seed": 1, "seconds": 0})
    plain = apis.Plain(contmach, contmach.cli)
    result = run.untraced(args, ops, workloads.Kit(plain, contmach), plain, Clock(),
                          [(0.01, 0)])
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == [(name, unit) for name, (_, unit) in result["metrics"].items()])
