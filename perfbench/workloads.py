"""Seeded op mixes for the three workloads.

A workload is a fixed list of ops generated from ``--seed``.  The number of
ops of each kind is fixed; the seed draws only their inputs (points, name
kinds, accuracies, caps and CLI argument vectors) from ranges that do not
change with it, so different seeds give mixes of the same shape.  Each op is
run through an api object (``Plain`` or ``Traced``) and a kit of machines
built from that api, and returns a JSON-ready outcome; ``check`` compares the
outcome with the independent reference in ``reference.py``.

Why these workloads:

* ``eval_shallow`` - convergent inputs with |x| >= 1/16 answer at effort <= 5,
  so time goes into exact arithmetic in realizers, spaces and CLI encoding.
  It bypasses the use_first rescans, the compose fan-out and associates: an
  optimisation there should leave it unchanged.  It also carries the invalid
  CLI vectors, including the negative ``--index`` that crashes at the seed
  commit with a TypeError (a failed op, kept on purpose).
* ``eval_deep`` - points 2^-25 <= |x| < 2^-8 and exact 0, deep compositions
  and divergent runs that spend the whole cap: use_first rescans (~n^2/2 raw
  calls), compose_monotone's per-stage multiplication and the CLI's
  quadratic trace output dominate.
* ``dialogue`` - associate transcripts: each consultation re-pads the
  transcript and rewalks efforts 0..s, so cost grows ~r^4 in rounds, in
  associates and alphabets.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

#: Where CLI ``check`` corpora are written, relative to the checkout root.
CORPUS_DIR = Path("perfbench") / "out"


@dataclass
class Op:
    index: int
    kind: str
    run: Callable  # (api, kit) -> outcome
    check: Callable  # outcome -> list of problems


class Kit:
    """The machines every op shares, built once per api."""

    def __init__(self, api, cm):
        self.cm = cm
        self.inv = api.use_first(api.raw(cm.inversion_machine(), "realizers"))
        self.sign = api.use_first(api.raw(cm.sign_machine(), "realizers"))
        self.pipelines = {1: self.inv}
        for depth in range(2, 5):
            stages = [api.use_first(api.raw(cm.inversion_machine(), "realizers"),
                                    stage) for stage in range(1, depth + 1)]
            composite = stages[0]
            for stage in stages[1:]:
                composite = api.compose(stage, composite, Fraction(0))
            self.pipelines[depth] = composite
        self.k2b = api.compose(api.raw(cm.kleenean_to_bool_machine(), "spaces"),
                               self.sign, cm.OPT_NONE)
        self.search = api.raw(cm.search_translate(), "spaces")
        self.inv_assoc = api.associate(self.inv, Fraction(0), Fraction(0))
        self.sign_assoc = api.associate(self.sign, Fraction(0), Fraction(0))
        self.inv_roundtrip = api.dialogue_machine(self.inv_assoc)
        self.sign_roundtrip = api.dialogue_machine(self.sign_assoc)
        self.reals = api.space(cm.rational_reals())
        self.kleeneans = api.space(cm.kleeneans())


# ---------------------------------------------------------------------------
# Encoding of outcomes


def encode(value, opt_none):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if value is opt_none:
        return "none"
    if isinstance(value, Fraction):
        return ref.fmt(value)
    if isinstance(value, (list, tuple)):
        return [encode(v, opt_none) for v in value]
    raise TypeError(f"cannot encode {value!r}")


def evaluation(result, opt_none) -> dict:
    if result is None:
        return {"value": None, "effort": None}
    return {"value": encode(result.value, opt_none), "effort": result.effort}


def transcript(result, opt_none) -> dict:
    return {"rounds": [[r.size, r.tag, encode(r.payload, opt_none)]
                       for r in result.rounds],
            "answered": result.answered}


# ---------------------------------------------------------------------------
# Input generation


def shallow_point(rng, binade: int) -> Fraction:
    """A rational with 2^binade <= |x| < 2^(binade+1) and a denominator up to 64 * 2^-binade."""
    den = rng.randint(1, 64)
    x = Fraction(2) ** binade * (1 + Fraction(rng.randrange(den), den))
    return rng.choice((-1, 1)) * x


def deep_point(rng, binade: int) -> Fraction:
    """+-odd * 2^-j with 2^-(binade+1) <= |x| < 2^-binade.

    The effort an op needs, and so its cost, is set by the binade; the seed
    draws the sign and the odd numerator within it.
    """
    odd = rng.randrange(1, 16, 2)
    return Fraction(rng.choice((-1, 1)) * odd, 2 ** (binade + odd.bit_length()))


def accuracy(exponent: int) -> Fraction:
    return Fraction(1, 2 ** exponent)


def cli_rational(rng, x: Fraction) -> str:
    """p/q, or an exact decimal literal when x has one."""
    den = x.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1 and rng.random() < 0.5:
        digits = 0
        while (x * 10 ** digits).denominator != 1:
            digits += 1
        scaled = str(abs(x * 10 ** digits).numerator).rjust(digits + 1, "0")
        sign = "-" if x < 0 else ""
        if not digits:
            return sign + scaled
        return f"{sign}{scaled[:-digits]}.{scaled[-digits:]}"
    return ref.fmt(x)


def strata(values: range, count: int) -> list:
    """``count`` integers spread evenly over ``values``, in ascending order."""
    low, high = values[0], values[-1]
    if count == 1:
        return [(low + high) // 2]
    return [low + round(i * (high - low) / (count - 1)) for i in range(count)]


def shares(choices: tuple, count: int) -> list:
    """``count`` picks from ``choices`` in equal shares."""
    return [choices[i % len(choices)] for i in range(count)]


def plan(count: int, *axes) -> list:
    """``count`` parameter tuples, one column per axis.

    A ``range`` axis is spread evenly over its values, a tuple axis is taken
    in equal shares.  Every parameter that sets an op's cost (binades,
    accuracies, caps, name kinds) is drawn this way, and the columns are
    paired by a fixed permutation, so that every seed gets the same cost
    profile: the seed draws the rest of each input (signs, numerators,
    denominators, spellings) and the order of the ops.
    """
    columns = []
    for position, axis in enumerate(axes):
        column = strata(axis, count) if isinstance(axis, range) else shares(axis, count)
        if position:
            random.Random(f"{count}/{position}").shuffle(column)
        columns.append(column)
    return list(zip(*columns))


NAME_KINDS = ("exact", "grid")
SCHEDULES = ("linear", "powers_of_two")
SHALLOW = range(-4, 3)  # binades of |x| >= 1/16
FINE = range(0, 61)  # eps exponents
COARSE = range(0, 31)


# ---------------------------------------------------------------------------
# Op constructors


def lib_pipeline(x, kind, depth, eps, cap, sched):
    def run(api, kit):
        name = api.name(getattr(kit.cm, f"{kind}_name")(x))
        result = api.evaluate(kit.pipelines[depth], name, eps, cap, sched)
        return evaluation(result, kit.cm.OPT_NONE)

    return f"pipeline{depth}", run, lambda out: ref.check_pipeline(
        out, x, depth, eps, kind, cap, sched)


def lib_sign_prefix(x, kind, length):
    def run(api, kit):
        name = api.name(getattr(kit.cm, f"{kind}_name")(x))
        values = [api.evaluate(kit.sign, name, index, 0, "linear")
                  for index in range(length)]
        return {"prefix": [encode(r.value, kit.cm.OPT_NONE) for r in values]}

    return "sign_prefix", run, lambda out: ref.check_sign_prefix(
        out["prefix"], x, kind)


def lib_kleenean_bool(x, kind, cap):
    def run(api, kit):
        name = api.name(getattr(kit.cm, f"{kind}_name")(x))
        result = api.evaluate(kit.k2b, name, kit.cm.STAR, cap, "linear")
        return evaluation(result, kit.cm.OPT_NONE)

    return "kleenean_bool", run, lambda out: ref.check_kleenean_bool(out, x, kind)


def lib_search_translate(x, kind, question, cap):
    def run(api, kit):
        base = getattr(kit.cm, f"{kind}_name")(x)
        name = api.name(kit.cm.embed_name(base))
        result = api.evaluate(kit.search, name, question, cap, "linear")
        return evaluation(result, kit.cm.OPT_NONE)

    return "search_translate", run, lambda out: ref.check_name_answer(
        out, x, question, kind)


def lib_check_realizer(machine, points, kinds, wrong_map, cap):
    """Realizer check over a small corpus; ``wrong_map`` skews invert's target by 1."""
    samples = [(ref.fmt(p), k) for p, k in zip(points, kinds)]

    def run(api, kit):
        corpus = [kit.cm.CorpusSample(p, api.name(getattr(kit.cm, f"{k}_name")(p)), k)
                  for p, k in zip(points, kinds)]
        if machine == "invert":
            point_map = (lambda x: 1 / x + 1) if wrong_map else (lambda x: 1 / x)
            report = api.check_realizer(kit.inv, point_map, kit.reals, kit.reals,
                                        corpus, cap, "linear")
        else:
            report = api.check_realizer(kit.sign, kit.cm.sign_kleenean, kit.reals,
                                        kit.kleeneans, corpus, cap, "linear")
        return {"corpus": samples, **report.to_json()}

    # Invert's test questions are 1, 2^-10 and 2^-30.  A target moved by 1
    # must fail at the two fine ones and may fail at accuracy 1.
    expected = {ref.fmt(Fraction(1, 2 ** 10)), ref.fmt(Fraction(1, 2 ** 30))}
    if not wrong_map:
        expected = set()
    allowed = {ref.fmt(1)} if wrong_map else set()
    return f"check_{machine}", run, lambda out: ref.check_report(out, expected, allowed)


def lib_dialogue(machine, x, kind, question, max_rounds):
    def run(api, kit):
        name = api.name(getattr(kit.cm, f"{kind}_name")(x))
        associate = kit.inv_assoc if machine == "invert" else kit.sign_assoc
        return transcript(api.dialogue_trace(associate, name, question, max_rounds),
                          kit.cm.OPT_NONE)

    if machine == "invert":
        final = None if x == 0 else (
            lambda payload: ref.within(payload, 1 / x, question, "final answer"))
    else:
        final = lambda payload: ref.sign_entry_problems(x, question, kind, payload)
    return f"dialogue_{machine}", run, lambda out: ref.check_dialogue(
        out, max_rounds, final)


def lib_roundtrip(machine, x, kind, question, cap):
    def run(api, kit):
        name = api.name(getattr(kit.cm, f"{kind}_name")(x))
        dm = kit.inv_roundtrip if machine == "invert" else kit.sign_roundtrip
        return evaluation(api.evaluate(dm, name, question, cap, "linear"),
                          kit.cm.OPT_NONE)

    def check(out):
        if machine == "invert":
            return ref.within(out["value"], 1 / x, question, "round-trip answer")
        return ref.sign_entry_problems(x, question, kind, out["value"])

    return f"roundtrip_{machine}", run, check


def cli_op(argv, check, depth=1):
    def run(api, kit):
        return api.run_cli(argv, depth)

    return f"cli_{argv[0]}", run, check


def cli_evaluation(argv, x, depth, eps, cap, sched):
    def check(out):
        problems = ref.check_exit(out, 2 if x == 0 else 0)
        if problems:
            return problems
        return ref.check_cli_evaluation(json.loads(out["stdout"]), out["exit"],
                                        x, depth, eps, cap, sched)

    return cli_op(argv, check, depth)


def cli_invert(rng, x, eps, cap, sched):
    argv = ["invert", "--value=" + cli_rational(rng, x), "--eps", ref.fmt(eps),
            "--max-effort", str(cap), "--schedule", sched]
    return cli_evaluation(argv, x, 1, eps, cap, sched)


def cli_compose(rng, x, depth, eps, cap, sched):
    argv = ["compose", "--pipeline", "|".join(["invert"] * depth),
            "--value=" + cli_rational(rng, x), "--eps", ref.fmt(eps),
            "--max-effort", str(cap), "--schedule", sched]
    return cli_evaluation(argv, x, depth, eps, cap, sched)


def cli_compose_sign(rng, x, index, cap):
    argv = ["compose", "--pipeline", "sign", "--value=" + cli_rational(rng, x),
            "--index", str(index), "--max-effort", str(cap)]
    return cli_evaluation(argv, x, 0, None, cap, "powers_of_two")


def cli_sign(rng, x, length):
    argv = ["sign", "--value=" + cli_rational(rng, x), "--max-effort", str(length)]

    def check(out):
        problems = ref.check_exit(out, 0)
        if problems:
            return problems
        prefix = json.loads(out["stdout"])["prefix"]
        if len(prefix) != length + 1:
            return [f"prefix of {len(prefix)} entries for --max-effort {length}"]
        return ref.check_sign_prefix(prefix, x, "exact")

    return cli_op(argv, check)


def cli_associate_trace(rng, machine, x, question, max_rounds):
    argv = ["associate-trace", "--machine", machine, "--value=" + cli_rational(rng, x),
            "--max-rounds", str(max_rounds)]
    argv += ["--eps", ref.fmt(question)] if machine == "invert" else [
        "--index", str(question)]
    diverges = machine == "invert" and x == 0

    def check(out):
        problems = ref.check_exit(out, 2 if diverges else 0)
        if problems:
            return problems
        doc = json.loads(out["stdout"])["transcript"]
        if machine == "invert":
            final = None if diverges else (
                lambda p: ref.within(p, 1 / x, question, "final answer"))
        else:
            final = lambda p: ref.sign_entry_problems(x, question, "exact", p)
        rounds = [[r["size"], r["tag"], r["payload"]] for r in doc["rounds"]]
        return ref.check_dialogue({"rounds": rounds, "answered": doc["answered"]},
                                  max_rounds, final)

    return cli_op(argv, check)


def cli_check(machine, path, points, cap):
    argv = ["check", "--machine", machine, "--corpus", str(path),
            "--fuel-cap", str(cap)]

    def check(out):
        problems = ref.check_exit(out, 0)
        if problems:
            return problems
        report = json.loads(out["stdout"])["report"]
        if report["samples"] != len(points) or report["failures"] or report["undecided"]:
            return [f"report {report}"]
        return []

    return cli_op(argv, check)


def cli_usage_error(argv):
    return cli_op(argv, ref.check_cli_usage_error)


def write_corpus(path: Path, points, kinds) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([{"point": ref.fmt(p), "name_kind": k}
                                for p, k in zip(points, kinds)]))


# ---------------------------------------------------------------------------
# Workloads


def eval_shallow(rng) -> list:
    def point(binade):
        return shallow_point(rng, binade)

    specs = []
    for binade, exp, kind, sched in plan(70, SHALLOW, FINE, NAME_KINDS, SCHEDULES):
        specs.append(lib_pipeline(point(binade), kind, 1, accuracy(exp), 64, sched))
    for binade, exp, kind, sched in plan(20, SHALLOW, FINE, NAME_KINDS, SCHEDULES):
        specs.append(lib_pipeline(point(binade), kind, 2, accuracy(exp), 64, sched))
    for binade, length, kind in plan(30, SHALLOW, range(8, 25), NAME_KINDS):
        specs.append(lib_sign_prefix(point(binade), kind, length))
    for binade, kind in plan(25, SHALLOW, NAME_KINDS):
        specs.append(lib_kleenean_bool(point(binade), kind, 64))
    for binade, exp, kind in plan(20, SHALLOW, FINE, NAME_KINDS):
        specs.append(lib_search_translate(point(binade), kind, accuracy(exp), 8))
    for machine, wrong in (("invert", False), ("invert", False), ("invert", False),
                           ("invert", True), ("sign", False), ("sign", False)):
        samples = plan(3, SHALLOW, NAME_KINDS)
        points = [point(binade) for binade, _ in samples]
        if machine == "sign":
            points[0] = Fraction(0)
        specs.append(lib_check_realizer(machine, points, [k for _, k in samples],
                                        wrong, 64))
    for binade, exp, sched in plan(10, SHALLOW, FINE, SCHEDULES):
        specs.append(cli_invert(rng, point(binade), accuracy(exp), 64, sched))
    for binade, length in plan(6, SHALLOW, range(8, 41)):
        specs.append(cli_sign(rng, point(binade), length))
    for binade, exp, sched in plan(4, SHALLOW, FINE, SCHEDULES):
        specs.append(cli_compose(rng, point(binade), 2, accuracy(exp), 64, sched))
    for binade, index in plan(2, SHALLOW, range(0, 13)):
        specs.append(cli_compose_sign(rng, point(binade), index, 64))
    for i, machine in enumerate(("invert", "invert", "sign")):
        samples = plan(3, SHALLOW, NAME_KINDS)
        points = [point(binade) for binade, _ in samples]
        path = CORPUS_DIR / f"corpus-{i}.json"
        write_corpus(path, points, [k for _, k in samples])
        specs.append(cli_check(machine, path, points, 64))
    value = ref.fmt(point(rng.choice(SHALLOW)))
    eps = ref.fmt(accuracy(rng.choice(FINE)))
    specs += [
        cli_usage_error(["invert", "--value", rng.choice(("1/0", "abc", "1.2.3")),
                         "--eps", eps, "--max-effort", "64"]),
        cli_usage_error(["invert", "--value=" + value, "--eps", "1/0",
                         "--max-effort", "64"]),
        cli_usage_error(["invert", "--value=" + value,
                         "--eps=" + rng.choice(("0", "-" + eps)), "--max-effort", "64"]),
        cli_usage_error(["compose", "--pipeline", "invert|invert", "--value=" + value,
                         "--eps=-" + eps, "--max-effort", "64"]),
        # Negative indices: a TypeError traceback at the seed commit.
        cli_usage_error(["compose", "--pipeline", "sign", "--value=" + value,
                         "--index", str(-rng.randint(1, 8)), "--max-effort", "8"]),
        cli_usage_error(["associate-trace", "--machine", "sign", "--value=" + value,
                         "--index", str(-rng.randint(1, 8)), "--max-rounds", "8"]),
    ]
    return specs


def eval_deep(rng) -> list:
    def point(binade):
        return deep_point(rng, binade)

    specs = []
    for binade, exp, kind in plan(36, range(8, 25), COARSE, NAME_KINDS):
        specs.append(lib_pipeline(point(binade), kind, 1, accuracy(exp), 64, "linear"))
    for cap, exp in plan(5, range(64, 257), COARSE):
        specs.append(lib_pipeline(Fraction(0), "exact", 1, accuracy(exp), cap, "linear"))
    for binade, exp in plan(14, range(8, 17), COARSE):
        specs.append(lib_pipeline(point(binade), "exact", 3, accuracy(exp), 4096,
                                  "powers_of_two"))
    for binade, exp in plan(6, range(8, 13), COARSE):
        specs.append(lib_pipeline(point(binade), "exact", 4, accuracy(exp), 4096,
                                  "powers_of_two"))
    # Depth >= 3 on 0 keeps caps <= 16: the cost multiplies per stage.
    for cap, exp in plan(2, range(8, 17), COARSE):
        specs.append(lib_pipeline(Fraction(0), "exact", 3, accuracy(exp), cap, "linear"))
    specs.append(lib_pipeline(Fraction(0), "exact", 4, accuracy(rng.choice(COARSE)), 6,
                              "linear"))
    for (cap,) in plan(5, range(64, 257)):
        specs.append(lib_kleenean_bool(Fraction(0), "exact", cap))
    for binade, kind in plan(20, range(8, 25), NAME_KINDS):
        specs.append(lib_kleenean_bool(point(binade), kind, 64))
    for cap, exp in plan(3, range(48, 129), COARSE):
        specs.append(cli_invert(rng, Fraction(0), accuracy(exp), cap, "linear"))
    for cap, exp in plan(2, range(20, 33), COARSE):
        specs.append(cli_compose(rng, Fraction(0), 2, accuracy(exp), cap, "linear"))
    specs.append(cli_compose(rng, Fraction(0), 3, accuracy(rng.choice(COARSE)), 6,
                             "linear"))
    for binade, exp in plan(6, range(8, 25), COARSE):
        specs.append(cli_invert(rng, point(binade), accuracy(exp), 64, "linear"))
    for depth, count in ((2, 1), (3, 2)):
        for binade, exp in plan(count, range(8, 17), COARSE):
            specs.append(cli_compose(rng, point(binade), depth, accuracy(exp), 4096,
                                     "powers_of_two"))
    return specs


def dialogue(rng) -> list:
    def point(binade):
        return deep_point(rng, binade)

    specs = []
    for binade, exp, kind in plan(44, range(4, 19), COARSE, NAME_KINDS):
        specs.append(lib_dialogue("invert", point(binade), kind, accuracy(exp), 64))
    for binade, index, kind in plan(18, range(0, 17), range(0, 21), NAME_KINDS):
        specs.append(lib_dialogue("sign", point(binade), kind, index, 8))
    for (index,) in plan(2, range(0, 21)):
        specs.append(lib_dialogue("sign", Fraction(0), "exact", index, 8))
    for rounds, exp in plan(4, range(16, 33), COARSE):
        specs.append(lib_dialogue("invert", Fraction(0), "exact", accuracy(exp), rounds))
    for binade, exp, kind in plan(12, range(2, 9), COARSE, NAME_KINDS):
        specs.append(lib_roundtrip("invert", point(binade), kind, accuracy(exp), 64))
    for binade, index, kind in plan(4, range(0, 9), range(0, 13), NAME_KINDS):
        specs.append(lib_roundtrip("sign", point(binade), kind, index, 8))
    for binade, exp in plan(10, range(4, 15), COARSE):
        specs.append(cli_associate_trace(rng, "invert", point(binade), accuracy(exp), 64))
    for rounds, exp in plan(2, range(16, 25), COARSE):
        specs.append(cli_associate_trace(rng, "invert", Fraction(0), accuracy(exp),
                                         rounds))
    for binade, index in plan(4, range(0, 13), range(0, 17)):
        specs.append(cli_associate_trace(rng, "sign", point(binade), index, 8))
    return specs


WORKLOADS = {"eval_shallow": eval_shallow, "eval_deep": eval_deep,
             "dialogue": dialogue}


def generate(workload: str, seed: int) -> list:
    """The op list of ``workload`` for ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    specs = WORKLOADS[workload](rng)
    rng.shuffle(specs)
    return [Op(i, kind, run, check) for i, (kind, run, check) in enumerate(specs)]
