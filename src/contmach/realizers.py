"""Concrete exact-real realizers, a finite multifunction algebra, and checks.

All real-number arithmetic is exact rational arithmetic; no floating point
appears anywhere on a correctness path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .alphabets import (OPT_NONE, NameOracle, _scale, encode_value,
                        parse_rational)
from .machines import ContinuousMachine, evaluate
from .spaces import RepresentedSpace


# ---------------------------------------------------------------------------
# Inversion on rationally approximated reals


def inversion_machine() -> ContinuousMachine:
    """Multiplicative inverse, driven by a positivity margin at scale 2^-n.

    At effort n the machine asks for a 2^-n approximation; if its absolute
    value exceeds 2^-n the margin delta is positive, the input is certainly
    nonzero, and one more question at accuracy min(delta, eps*delta^2)/2
    pins the answer within eps.  Otherwise it stays silent.  The operator is
    properly multivalued: different efforts may return different answers.

    On any name of a nonzero real the queried approximation is at least
    delta/2 away from zero, so the division is safe.  Only an oracle that is
    not a name of a nonzero real can answer 0 there, such as the padding an
    associate's modulus walk puts behind a composite; the machine stays
    silent then, and its modulus still lists both questions, so it still
    modulates itself.

    The arithmetic runs on integers and builds one Fraction per returned
    value.  Write the 2^-n approximation as p/q and the accuracy as a/d
    (d = 1 for an int).  Then delta = mn/md with mn = |p| * 2^n - q and
    md = q * 2^n, so the machine is silent exactly when mn <= 0, and
    otherwise the query point is mn/(2 md) when d * md <= a * mn and
    a * mn^2/(2 d md^2) otherwise; that one comparison picks the smaller
    of delta and eps*delta^2 for every sign of a.  For a second
    approximation p'/q' the answer is q'/p', and None when p' = 0.  An
    accuracy that is neither an int nor a Fraction is read as the Fraction
    of its exact value.  The terms are read from the ``_numerator`` and
    ``_denominator`` slots of the exact Fraction type, which costs less
    than its properties; an answer or accuracy of any other type is
    converted to one first.

    ``modulus`` keeps its last query in one slot, (phi, effort, accuracy,
    point); ``machine`` reuses it when asked for the same oracle and
    accuracy objects at an equal effort, as an associate's walk asks at
    each effort, and otherwise queries afresh.  Names are pure functions,
    so the reuse changes no value; ``machine`` never fills the slot, so a
    scan that only calls ``machine`` queries exactly as without it.  The
    slot holds phi, so its identity cannot pass to another oracle.
    """
    slot = None

    def query_point(phi, effort, accuracy):
        scale = _scale(effort)
        approx = phi(scale)
        if type(approx) is not Fraction:
            approx = Fraction(approx)
        q = approx._denominator
        mn = (abs(approx._numerator) << effort) - q
        if mn <= 0:
            return scale, None
        md = q << effort
        if type(accuracy) is not Fraction:
            accuracy = Fraction(accuracy)
        a, d = accuracy._numerator, accuracy._denominator
        if d * md <= a * mn:
            return scale, Fraction(mn, 2 * md)
        return scale, Fraction(a * mn * mn, 2 * d * md * md)

    def machine(phi, effort, accuracy):
        held = slot
        if (held is not None and held[0] is phi and held[2] is accuracy
                and held[1] == effort):
            point = held[3]
        else:
            _, point = query_point(phi, effort, accuracy)
        if point is None:
            return None
        approximation = phi(point)
        if type(approximation) is not Fraction:
            approximation = Fraction(approximation)
        p = approximation._numerator
        return None if p == 0 else Fraction(approximation._denominator, p)

    def modulus(phi, effort, accuracy):
        nonlocal slot
        scale, point = query_point(phi, effort, accuracy)
        slot = (phi, effort, accuracy, point)
        if point is None:
            return [scale]
        return [scale, point]

    return ContinuousMachine(machine, modulus, "rational_reals", "rational_reals")


# ---------------------------------------------------------------------------
# Sign into the Kleeneans


def sign_machine() -> ContinuousMachine:
    """Kleenean sign of a rationally approximated real.

    The output name's entry at index k is settled as soon as the 2^-k
    approximation clears three times the scale, which also forces the output
    names to be monotone.  The machine is total and effort-independent: the
    entry value itself carries the partial information.  The test is an
    exact integer comparison: for an approximation p/q, |p| * 2^k > 3q,
    with p and q read from the slots of the exact Fraction type as in
    ``inversion_machine``.
    """

    def machine(phi, effort, index):
        approx = phi(_scale(index))
        if type(approx) is not Fraction:
            approx = Fraction(approx)
        p = approx._numerator
        if abs(p) << index > 3 * approx._denominator:
            return p > 0
        return OPT_NONE

    def modulus(phi, effort, index):
        return [_scale(index)]

    return ContinuousMachine(machine, modulus, "rational_reals", "kleenean_names")


# ---------------------------------------------------------------------------
# Name corpus


@dataclass(frozen=True)
class CorpusSample:
    point: Fraction
    name: NameOracle
    kind: str


def exact_name(x) -> NameOracle:
    """The name that answers every accuracy question exactly."""
    value = Fraction(x)
    return lambda accuracy: value


def grid_name(x) -> NameOracle:
    """Round to the nearest multiple of half the requested accuracy.

    Exercises name non-uniqueness: answers depend on the question but stay
    within a quarter of it.  Non-positive questions are answered exactly to
    keep the name total.
    """
    value = Fraction(x)

    def oracle(accuracy):
        accuracy = Fraction(accuracy)
        if accuracy <= 0:
            return value
        unit = accuracy / 2
        return unit * math.floor(value / unit + Fraction(1, 2))

    return oracle


_NAME_BUILDERS = {"exact": exact_name, "grid": grid_name}


def corpus_sample(point, kind: str) -> CorpusSample:
    point = Fraction(point)
    return CorpusSample(point, _NAME_BUILDERS[kind](point), kind)


def standard_corpus(points: Sequence):
    return [corpus_sample(p, k) for p in points for k in _NAME_BUILDERS]


def load_corpus(doc: str) -> list:
    """Corpus from JSON text: an array of {"point": "p/q", "name_kind": …}
    records.

    Raises ValueError when the text is not JSON, is not an array of objects,
    or a ``name_kind`` is not a string.
    """
    doc = json.loads(doc)
    if not isinstance(doc, list):
        raise ValueError("corpus must be a JSON array of objects")
    samples = []
    for entry in doc:
        if not isinstance(entry, dict):
            raise ValueError(f"corpus entry is not an object: {entry!r}")
        kind = entry["name_kind"]
        if not isinstance(kind, str):
            raise ValueError(f"name_kind is not a string: {kind!r}")
        samples.append(corpus_sample(parse_rational(entry["point"]), kind))
    return samples


#: Nonzero points exercised by the inversion checks (exact and grid names).
INVERSION_POINTS = (Fraction(2), Fraction(-3), Fraction(1, 3), Fraction(7, 5),
                    Fraction(1, 10 ** 6))

#: Points exercised by the sign checks; zero names bottom.
SIGN_POINTS = (Fraction(1), Fraction(-1), Fraction(1, 1000),
               Fraction(-1, 1000), Fraction(0))


# ---------------------------------------------------------------------------
# Finite multifunctions


@dataclass(frozen=True)
class FiniteMultifunction:
    """Explicit assignment of finite value sets to finitely many points."""

    source: tuple
    table: Mapping

    def values(self, point) -> tuple:
        return tuple(self.table.get(point, ()))

    def domain(self) -> tuple:
        return tuple(x for x in self.source if self.table.get(x))


def tightens(tighter: FiniteMultifunction, looser: FiniteMultifunction) -> bool:
    """Every point the looser constrains, the tighter constrains harder.

    The looser's domain must be contained in the tighter's, and on it the
    tighter's value sets must be subsets.
    """
    for point in looser.source:
        allowed = looser.values(point)
        if not allowed:
            continue
        chosen = tighter.values(point)
        if not chosen:
            return False
        if not set(chosen) <= set(allowed):
            return False
    return True


def mf_compose(outer: FiniteMultifunction,
               inner: FiniteMultifunction) -> FiniteMultifunction:
    """Directed composition: defined only where every inner value is usable."""
    outer_dom = set(outer.domain())
    table = {}
    for point in inner.source:
        mids = inner.values(point)
        if mids and all(m in outer_dom for m in mids):
            collected = []
            for mid in mids:
                for value in outer.values(mid):
                    if value not in collected:
                        collected.append(value)
            table[point] = tuple(collected)
        else:
            table[point] = ()
    return FiniteMultifunction(inner.source, table)


def chooses_through(partial_map: Mapping, mf: FiniteMultifunction) -> bool:
    """Is the partial map defined and eligible wherever the multifunction is?"""
    for point in mf.domain():
        if point not in partial_map:
            return False
        if partial_map[point] not in mf.values(point):
            return False
    return True


# ---------------------------------------------------------------------------
# Realizer checking


@dataclass(frozen=True)
class RealizerReport:
    samples: int
    failures: tuple
    undecided: tuple

    def to_json(self) -> dict:
        return {"samples": self.samples,
                "failures": list(self.failures),
                "undecided": list(self.undecided)}


def check_realizer(machine_like, point_map: Callable, space_in: RepresentedSpace,
                   space_out: RepresentedSpace, samples: Sequence[CorpusSample],
                   fuel_cap: int, questions: Optional[Sequence] = None,
                   schedule: str = "linear") -> RealizerReport:
    """Check that the machine maps names of x to names of point_map(x).

    For spaces with a per-answer correctness predicate, every sampled output
    question is evaluated and its answer judged in isolation.  Otherwise the
    machine's answers over the space's question sample are assembled into a
    candidate name and judged as a whole.  Fuel exhaustion lands in the
    undecided list, never among the failures.
    """
    if questions is None:
        questions = space_out.test_questions
    failures = []
    undecided = []
    for sample in samples:
        target = point_map(sample.point)
        where = {"point": encode_value(sample.point), "name_kind": sample.kind}
        answers = {}
        incomplete = False
        for question in questions:
            result = evaluate(machine_like, sample.name, question, fuel_cap,
                              schedule)
            if result is None:
                undecided.append({**where, "question": encode_value(question)})
                incomplete = True
                continue
            answers[question] = result.value
            if (space_out.answer_ok is not None
                    and not space_out.answer_ok(target, question, result.value)):
                failures.append({**where, "question": encode_value(question),
                                 "answer": encode_value(result.value)})
        if (space_out.answer_ok is None and not incomplete
                and not space_out.is_name(answers.__getitem__, target)):
            failures.append({**where, "question": "name_check",
                             "answer": [encode_value(answers[q])
                                        for q in questions]})
    return RealizerReport(len(samples), tuple(failures), tuple(undecided))
