"""Fuel-indexed machines, their operator semantics, and monotone combinators.

A machine is a total, deterministic callable ``machine(phi, effort, question)``
returning an answer or None; None means "no output at this effort" and is the
only way a machine signals (potential) divergence.  A modulus is a callable of
the same shape returning the list of input questions the machine's output at
that effort may depend on.  The operator computed by a machine sends an input
oracle to every output oracle whose answers all show up at some effort.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .alphabets import (Alphabet, EqFn, NameOracle, encode_value,
                        restriction_eq)

MachineFn = Callable[[NameOracle, int, object], object]
ModulusFn = Callable[[NameOracle, int, object], Sequence]


class ModulusSearchError(RuntimeError):
    """No initial segment within the bound certifies the machine's output."""


@dataclass(frozen=True)
class ContinuousMachine:
    """A machine bundled with a self-modulating modulus of itself.

    The contract (sampled, not enforced): oracles agreeing on
    ``modulus(phi, n, q)`` give equal ``machine`` outputs and equal modulus
    lists at ``(n, q)``.  ``in_space``/``out_space`` are optional name-space
    labels used to reject misaligned compositions.
    """

    machine: MachineFn
    modulus: ModulusFn
    in_space: str = ""
    out_space: str = ""


@dataclass(frozen=True)
class MonotoneMachine:
    """A continuous machine whose outputs persist under more effort.

    Once ``machine(phi, n, q)`` answers, every effort above ``n`` repeats the
    same answer and the modulus list stays equal to its value at ``n``.

    The machines ``use_first`` and ``compose_monotone`` build also carry a
    ``settle`` that ``evaluate`` uses to find the first answering effort in
    one pass instead of re-running the machine at every scheduled effort.
    Its result equals the per-effort scan only when this contract holds:
    monotonicity as above, a self-modulating modulus (oracles agreeing on
    ``modulus(phi, n, q)`` give equal outputs and equal modulus lists), names
    that are pure functions (answers are memoized per question), and
    hashable questions that machines treat alike whenever they compare equal.
    """

    cm: ContinuousMachine

    @property
    def machine(self) -> MachineFn:
        return self.cm.machine

    @property
    def modulus(self) -> ModulusFn:
        return self.cm.modulus

    @property
    def in_space(self) -> str:
        return self.cm.in_space

    @property
    def out_space(self) -> str:
        return self.cm.out_space


@dataclass(frozen=True)
class _SettlingMachine(MonotoneMachine):
    """A monotone machine that can settle a question in one pass.

    ``settle(phi, cap)`` returns a function mapping a question to the first
    effort <= cap at which the machine answers, with that answer, or to None;
    results are memoized per question for that one oracle and cap.
    """

    settle: Callable[[NameOracle, int], Callable]


def monotone_machine(machine: MachineFn, modulus: ModulusFn,
                     in_space: str = "", out_space: str = "") -> MonotoneMachine:
    return MonotoneMachine(ContinuousMachine(machine, modulus, in_space, out_space))


def _machine_fn(machine_like) -> MachineFn:
    return machine_like.machine if hasattr(machine_like, "machine") else machine_like


def _modulus_fn(machine_like) -> Optional[ModulusFn]:
    return getattr(machine_like, "modulus", None)


# ---------------------------------------------------------------------------
# Effort search


class Evaluation(NamedTuple):
    value: object
    effort: int


class MembershipResult(NamedTuple):
    holds: bool
    undecided: tuple


def effort_schedule(fuel_cap: int, schedule: str = "linear"):
    """Efforts visited up to the cap: 0,1,2,… or 0,1,2,4,8,…"""
    if schedule == "linear":
        return range(fuel_cap + 1)
    if schedule == "powers_of_two":
        efforts = [0]
        power = 1
        while power <= fuel_cap:
            efforts.append(power)
            power *= 2
        return efforts
    raise ValueError(f"unknown schedule: {schedule!r}")


def evaluate(machine_like, phi: NameOracle, question, fuel_cap: int,
             schedule: str = "linear") -> Optional[Evaluation]:
    """First answer along the effort schedule, or None if the cap runs out.

    Fuel exhaustion is a regular None result, never an exception; it means
    "divergent up to this cap", nothing stronger.  A machine with a
    ``settle`` is settled once at the last scheduled effort, and the answer
    is reported at the first scheduled effort not below the settled one;
    monotonicity makes that the scan's result.
    """
    efforts = effort_schedule(fuel_cap, schedule)
    settle = getattr(machine_like, "settle", None)
    if settle is None:
        return _first_answer(_machine_fn(machine_like), phi, question, efforts)
    settled = settle(phi, efforts[-1])(question) if efforts else None
    if settled is None:
        return None
    return Evaluation(settled.value, efforts[bisect_left(efforts, settled.effort)])


def _first_answer(machine: MachineFn, phi: NameOracle, question,
                  efforts) -> Optional[Evaluation]:
    for effort in efforts:
        value = machine(phi, effort, question)
        if value is not None:
            return Evaluation(value, effort)
    return None


def evaluate_traced(machine_like, phi: NameOracle, question, fuel_cap: int,
                    schedule: str = "linear",
                    encode: Callable = encode_value):
    """Like evaluate, but also builds the attempt-by-attempt trace record."""
    machine = _machine_fn(machine_like)
    modulus = _modulus_fn(machine_like)
    attempts = []
    result = None
    for effort in effort_schedule(fuel_cap, schedule):
        value = machine(phi, effort, question)
        attempt = {"n": effort,
                   "result": "none" if value is None else encode(value)}
        if modulus is not None:
            attempt["modulus"] = [encode(q) for q in modulus(phi, effort, question)]
        attempts.append(attempt)
        if value is not None:
            result = Evaluation(value, effort)
            break
    trace = {
        "effort_schedule": schedule,
        "attempts": attempts,
        "final": None if result is None else encode(result.value),
        "fuel_cap": fuel_cap,
    }
    return result, trace


def in_F_M(machine_like, phi: NameOracle, candidate: NameOracle,
           questions: Sequence, fuel_cap: int,
           answer_eq: EqFn = operator.eq) -> MembershipResult:
    """Test-scale membership of ``candidate`` in the machine's operator at ``phi``.

    Holds when every listed question gets the candidate's answer at some
    effort within the cap.  Questions where no effort produced any answer at
    all are reported as undecided: a False with undecided entries may only
    mean the cap was too small.
    """
    machine = _machine_fn(machine_like)
    holds = True
    undecided = []
    for question in questions:
        wanted = candidate(question)
        matched = False
        answered = False
        for effort in range(fuel_cap + 1):
            value = machine(phi, effort, question)
            if value is None:
                continue
            answered = True
            if answer_eq(value, wanted):
                matched = True
                break
        if not matched:
            holds = False
            if not answered:
                undecided.append(question)
    return MembershipResult(holds, tuple(undecided))


# ---------------------------------------------------------------------------
# Monotonization


def _first_answers(machine: MachineFn, phi: NameOracle, cap: int):
    """Memoized first answer per question of ``machine`` on ``phi``, efforts 0..cap."""
    return functools.cache(
        lambda question: _first_answer(machine, phi, question, range(cap + 1)))


def _settle_fn(mm: MonotoneMachine):
    """``mm``'s own settle, or a first-answer scan of its (monotone) machine."""
    return (getattr(mm, "settle", None)
            or functools.partial(_first_answers, mm.machine))


def use_first(machine_like) -> MonotoneMachine:
    """Commit to the first effort at which the machine answers.

    The returned machine searches for the smallest effort up to the given one
    that produces an answer and repeats that answer forever after, so it is
    monotone and its operator is a choice function of the original machine's
    operator.  Its modulus concatenates the original modulus lists for every
    effort up to and including the first success (duplicates and order kept);
    the underlying machine is probed at an effort only when all earlier
    efforts stayed silent, so nothing is evaluated beyond the first answer.
    """
    machine = _machine_fn(machine_like)
    modulus = _modulus_fn(machine_like)
    if modulus is None:
        raise ValueError("use_first needs a machine with a modulus")

    def first_machine(phi, effort, question):
        for step in range(effort + 1):
            value = machine(phi, step, question)
            if value is not None:
                return value
        return None

    def first_modulus(phi, effort, question):
        collected = list(modulus(phi, 0, question))
        step = 0
        while step < effort and machine(phi, step, question) is None:
            step += 1
            collected.extend(modulus(phi, step, question))
        return collected

    cm = ContinuousMachine(first_machine, first_modulus,
                           getattr(machine_like, "in_space", ""),
                           getattr(machine_like, "out_space", ""))
    return _SettlingMachine(cm, functools.partial(_first_answers, machine))


def derive_modulus_machine(machine_like) -> ContinuousMachine:
    """Machine computing continuity certificates for the given machine's operator.

    Answers the modulus list (as a tuple) exactly at the efforts where the
    underlying machine answers; reuses the underlying modulus as its own.
    """
    machine = _machine_fn(machine_like)
    modulus = _modulus_fn(machine_like)
    if modulus is None:
        raise ValueError("derive_modulus_machine needs a machine with a modulus")

    def list_machine(phi, effort, question):
        if machine(phi, effort, question) is None:
            return None
        return tuple(modulus(phi, effort, question))

    return ContinuousMachine(list_machine, modulus,
                             getattr(machine_like, "in_space", ""))


# ---------------------------------------------------------------------------
# Composition of monotone machines


def compose_monotone(outer: MonotoneMachine, inner: MonotoneMachine,
                     intermediate_default) -> MonotoneMachine:
    """Run ``outer`` on the finite-effort approximations produced by ``inner``.

    At effort n the inner machine's answers (padded with the default where it
    is still silent) form an intermediate oracle.  The composite answers only
    when every question on the outer modulus list is one the inner machine
    has actually answered at effort n, so the padding can never influence a
    returned value.  The intermediate answer set is never materialized;
    membership is decided per question, and inner results are memoized within
    a single composite call.

    Its ``settle`` runs the outer machine once on the limit oracle psi, which
    answers each intermediate question with the inner machine's settled
    value, or the default where the inner machine is silent at the cap.  The
    composite first answers at the later of the outer machine's settled
    effort on psi and the inner settled efforts of the questions on the
    outer modulus list there: at lower efforts some needed question is still
    unanswered or the outer machine is silent, and from there on the padded
    oracle agrees with psi on that list, so self-modulation and monotonicity
    make the outer machine answer as on psi.  Each intermediate question is
    settled once per evaluation, also through nested composites.
    """
    if inner.out_space and outer.in_space and inner.out_space != outer.in_space:
        raise ValueError(
            f"cannot compose: inner machine produces {inner.out_space!r} "
            f"but outer machine consumes {outer.in_space!r}")
    inner_machine, inner_modulus = inner.machine, inner.modulus
    outer_machine, outer_modulus = outer.machine, outer.modulus

    def _approximation(phi, effort):
        cache = {}

        def raw(question):
            if question not in cache:
                cache[question] = inner_machine(phi, effort, question)
            return cache[question]

        def padded(question):
            value = raw(question)
            return intermediate_default if value is None else value

        return raw, padded

    def composite_machine(phi, effort, question):
        raw, padded = _approximation(phi, effort)
        for needed in outer_modulus(padded, effort, question):
            if raw(needed) is None:
                return None
        return outer_machine(padded, effort, question)

    def composite_modulus(phi, effort, question):
        _, padded = _approximation(phi, effort)
        collected = []
        for needed in outer_modulus(padded, effort, question):
            collected.extend(inner_modulus(phi, effort, needed))
        return collected

    settle_inner, settle_outer = _settle_fn(inner), _settle_fn(outer)

    def composite_settle(phi, cap):
        inner_settled = settle_inner(phi, cap)

        def psi(question):
            found = inner_settled(question)
            return intermediate_default if found is None else found.value

        outer_settled = settle_outer(psi, cap)

        @functools.cache
        def settled(question) -> Optional[Evaluation]:
            found = outer_settled(question)
            if found is None:
                return None
            effort = found.effort
            for needed in outer_modulus(psi, found.effort, question):
                needed_found = inner_settled(needed)
                if needed_found is None:
                    return None
                effort = max(effort, needed_found.effort)
            return Evaluation(found.value, effort)

        return settled

    cm = ContinuousMachine(composite_machine, composite_modulus,
                           inner.in_space, outer.out_space)
    return _SettlingMachine(cm, composite_settle)


# ---------------------------------------------------------------------------
# Brute-force minimal modulus (finite-alphabet test oracle)


def brute_force_min_modulus(machine_like, domain: Sequence,
                            enumeration_bound: int,
                            question_alphabet: Alphabet,
                            answer_eq: EqFn = operator.eq,
                            oracle_answer_eq: EqFn = operator.eq) -> ModulusFn:
    """Shortest enumeration prefix certifying the output on an explicit domain.

    For each (phi, effort, question) the returned modulus is the shortest
    initial segment of the question enumeration such that every domain oracle
    agreeing with phi on it produces the same machine output.  Raises
    ModulusSearchError when no segment within the bound certifies, which
    means the machine is not continuous at this scale or the bound is too
    small.
    """
    machine = _machine_fn(machine_like)
    domain = tuple(domain)
    prefixes = [question_alphabet.prefix(k) for k in range(enumeration_bound + 1)]

    def minimal_modulus(phi, effort, question):
        reference = machine(phi, effort, question)
        for segment in prefixes:
            ok = True
            for psi in domain:
                if not restriction_eq(phi, psi, segment, oracle_answer_eq):
                    continue
                value = machine(psi, effort, question)
                if (value is None) != (reference is None):
                    ok = False
                    break
                if value is not None and not answer_eq(value, reference):
                    ok = False
                    break
            if ok:
                return list(segment)
        raise ModulusSearchError(
            f"no initial segment of length <= {enumeration_bound} certifies "
            f"the output at effort {effort} on question {question!r}")

    return minimal_modulus
