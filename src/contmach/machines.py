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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from .alphabets import Alphabet, NameOracle, _key, encode_value, restriction_eq

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
class MonotoneMachine(ContinuousMachine):
    """A continuous machine whose outputs persist under more effort.

    It is a ``ContinuousMachine`` with the same fields and one more promise:
    once ``machine(phi, n, q)`` answers, every effort above ``n`` repeats the
    same answer and the modulus list stays equal to its value at ``n``.

    The machines ``use_first``, ``compose_monotone`` and ``dialogue_machine``
    build also carry a ``settle`` that ``evaluate`` uses to find the first
    answering effort in one pass instead of re-running the machine at every
    scheduled effort.  Its result equals the per-effort scan only when this
    contract holds: monotonicity as above, a self-modulating modulus
    (oracles agreeing on ``modulus(phi, n, q)`` give equal outputs and equal
    modulus lists), names that are pure functions, and, inside compositions
    (which cache each intermediate question's settled answer), hashable
    intermediate questions that machines treat alike whenever they compare
    equal.
    """


@dataclass(frozen=True)
class _SettlingMachine(MonotoneMachine):
    """A monotone machine that can settle a question in one pass.

    ``settle(phi, cap)`` is the settled context of one evaluation: a function
    mapping a question to its ``_Settled`` record.  The record's ``found`` is
    the first effort <= cap at which the machine answers, with that answer,
    or None; its ``modulus(n)`` is the list ``modulus(phi, n, question)`` at
    any effort n up to the cap, read off the same search under the monotone
    contract, so a trace of the evaluation needs no second settle.  The
    context keeps no memo of its own: ``compose_monotone`` caches its inner
    stage's records, the only ones asked for again within one evaluation.

    ``_first_of`` is set on the machines ``use_first`` builds: the machine
    it monotonized, the innermost one when ``use_first`` is nested.
    ``machine_to_associate`` walks it instead, with identical consultations.
    """

    settle: Callable[[NameOracle, int], Callable] = field(kw_only=True)
    _first_of: Optional[ContinuousMachine] = field(default=None, kw_only=True)


def monotone_machine(machine: MachineFn, modulus: ModulusFn,
                     in_space: str = "", out_space: str = "") -> MonotoneMachine:
    return MonotoneMachine(machine, modulus, in_space, out_space)


def _parts(machine_like, combinator: str = ""):
    """``machine_like``'s machine and modulus: a bare callable is its own
    machine and has no modulus.  A ``combinator`` that needs a modulus names
    itself in the error raised when there is none."""
    modulus = getattr(machine_like, "modulus", None)
    if combinator and modulus is None:
        raise ValueError(f"{combinator} needs a machine with a modulus")
    return getattr(machine_like, "machine", machine_like), modulus


# ---------------------------------------------------------------------------
# Effort search


class Evaluation(NamedTuple):
    value: object
    effort: int


class _Settled(NamedTuple):
    """One question of a settled machine: its first answer up to the cap, and
    ``modulus(n)``, the machine's modulus list at any effort n up to the cap."""

    found: Optional[Evaluation]
    modulus: Callable[[int], list]


class MembershipResult(NamedTuple):
    holds: bool
    undecided: tuple


def effort_schedule(fuel_cap: int, schedule: str = "linear"):
    """Efforts visited up to the cap: 0,1,2,… or 0,1,2,4,8,…; none below 0."""
    if schedule == "linear":
        return range(fuel_cap + 1)
    if schedule == "powers_of_two":
        efforts = [0] if fuel_cap >= 0 else []
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
    return _evaluation(machine_like, phi, question,
                       effort_schedule(fuel_cap, schedule))[0]


def _evaluation(machine_like, phi: NameOracle, question, efforts):
    """``evaluate``'s result along ``efforts``, and the modulus at an effort.

    The second item maps a scheduled effort to the modulus list there, or
    is None for a machine without a modulus.  A settled machine's lists come
    from the record of its one settle; any other machine is scanned.
    """
    settle = getattr(machine_like, "settle", None)
    if settle is None or not efforts:
        return _scan_settle(machine_like, phi, efforts, question)
    found, at = settle(phi, efforts[-1])(question)
    if found is not None:
        found = Evaluation(found.value, efforts[bisect_left(efforts, found.effort)])
    return found, at


def _first_answer(machine: MachineFn, phi: NameOracle, question,
                  efforts) -> Optional[Evaluation]:
    for effort in efforts:
        value = machine(phi, effort, question)
        if value is not None:
            return Evaluation(value, effort)
    return None


def _scan_settle(machine_like, phi: NameOracle, efforts, question) -> _Settled:
    """The record of a question for any machine without a ``settle`` of its
    own: ``found`` is the first answer along ``efforts``, and ``modulus``
    calls the machine's modulus at the effort asked, or is None for a bare
    callable."""
    machine, modulus = _parts(machine_like)
    return _Settled(_first_answer(machine, phi, question, efforts),
                    None if modulus is None
                    else lambda effort: modulus(phi, effort, question))


def _settle_fn(mm: MonotoneMachine):
    """``mm``'s own settle, or the scan above along efforts 0..cap."""
    return getattr(mm, "settle", None) or (
        lambda phi, cap: functools.partial(_scan_settle, mm, phi, range(cap + 1)))


def evaluate_traced(machine_like, phi: NameOracle, question, fuel_cap: int,
                    schedule: str = "linear"):
    """Like evaluate, but also builds the attempt-by-attempt trace record.

    The machine is evaluated once, as ``evaluate`` does; the trace then
    lists the scheduled efforts up to the answering one.  Every earlier
    attempt is silent, since the answer is the first along the schedule,
    and each attempt shows the modulus list at its effort.  A settled
    machine's lists are read from its settle's records, so ``use_first``
    computes each raw modulus once and a composite reuses its stages'
    records; a machine without a ``settle`` has its modulus called at every
    attempt.  Values and questions are rendered with ``encode_value``, each
    question object once per trace: a memo keyed by the object's identity
    is read inline for every modulus entry, and ``kept`` holds every encoded
    object, so no id is reused while the trace is built, even where a
    modulus builds fresh questions on every call.  An attempt whose list
    starts with the previous attempt's list object for object (compared by
    ``is``, not ``==``, which would match 1 with Fraction(1)), as
    ``use_first``'s lists do, reuses that attempt's texts and encodes only
    the tail.  Each list is copied into a tuple when it is read, so a
    modulus that changes a list it returned earlier cannot pass for an
    extension.
    """
    efforts = effort_schedule(fuel_cap, schedule)
    result, modulus = _evaluation(machine_like, phi, question, efforts)
    if result is not None:
        efforts = efforts[:efforts.index(result.effort) + 1]
    encoded, kept = {}, []
    previous, texts = (), []

    def encode(needed):
        kept.append(needed)
        text = encoded[id(needed)] = encode_value(needed)
        return text

    attempts = []
    for effort in efforts:
        answered = result is not None and effort == result.effort
        attempt = {"n": effort,
                   "result": encode_value(result.value) if answered else "none"}
        if modulus is not None:
            listed = tuple(modulus(effort))
            start = len(previous)
            if len(listed) < start or not all(map(operator.is_, listed, previous)):
                start, texts = 0, []
            texts = attempt["modulus"] = texts + [
                encoded[key] if (key := id(needed)) in encoded else encode(needed)
                for needed in listed[start:]]
            previous = listed
        attempts.append(attempt)
    trace = {
        "effort_schedule": schedule,
        "attempts": attempts,
        "final": None if result is None else encode_value(result.value),
        "fuel_cap": fuel_cap,
    }
    return result, trace


def in_F_M(machine_like, phi: NameOracle, candidate: NameOracle,
           questions: Sequence, fuel_cap: int) -> MembershipResult:
    """Test-scale membership of ``candidate`` in the machine's operator at ``phi``.

    Holds when every listed question gets the candidate's answer at some
    effort within the cap.  Questions where no effort produced any answer at
    all are reported as undecided: a False with undecided entries may only
    mean the cap was too small.

    Every effort 0..cap is tried, whatever the schedule: membership asks for
    *some* effort whose answer matches, and a multivalued machine may give
    that answer only at efforts a schedule skips.  Each question takes the
    first answer along efforts 0..cap and, while it differs from the
    candidate's, resumes that one search at the effort after it.
    """
    machine = _parts(machine_like)[0]
    holds, undecided = True, []
    for question in questions:
        wanted = candidate(question)
        found = _first_answer(machine, phi, question, range(fuel_cap + 1))
        if found is None:
            undecided.append(question)
        while found is not None and not found.value == wanted:
            found = _first_answer(machine, phi, question,
                                  range(found.effort + 1, fuel_cap + 1))
        holds = holds and found is not None
    return MembershipResult(holds, tuple(undecided))


# ---------------------------------------------------------------------------
# Monotonization


def use_first(machine_like) -> MonotoneMachine:
    """Commit to the first effort at which the machine answers.

    The returned machine searches for the smallest effort up to the given one
    that produces an answer and repeats that answer forever after, so it is
    monotone and its operator is a choice function of the original machine's
    operator.  Its modulus concatenates the original modulus lists for every
    effort up to and including the first success (duplicates and order kept);
    the underlying machine is probed at an effort only when all earlier
    efforts stayed silent, so nothing is evaluated beyond the first answer.

    Its ``settle`` searches efforts 0..cap once per question.  The record's
    modulus at effort n is the concatenation above for efforts 0..min(n, f),
    f the first answering effort (n where there is none up to the cap); it
    is extended as n grows, so each raw modulus is computed once.

    The returned machine also records the machine it monotonized (the
    innermost one when ``use_first`` is nested); ``machine_to_associate``
    walks that machine instead, with the same consultations.
    """
    machine, modulus = _parts(machine_like, "use_first")

    def first_machine(phi, effort, question):
        found = _first_answer(machine, phi, question, range(effort + 1))
        return None if found is None else found.value

    def first_modulus(phi, effort, question):
        found = _first_answer(machine, phi, question, range(effort))
        last = effort if found is None else found.effort
        return [needed for step in range(last + 1)
                for needed in modulus(phi, step, question)]

    def first_settle(phi, cap):
        def settled(question) -> _Settled:
            found = _first_answer(machine, phi, question, range(cap + 1))
            collected, ends = [], []

            def modulus_at(effort):
                last = effort if found is None else min(effort, found.effort)
                while len(ends) <= last:
                    collected.extend(modulus(phi, len(ends), question))
                    ends.append(len(collected))
                return collected[:ends[last]]

            return _Settled(found, modulus_at)

        return settled

    return _SettlingMachine(first_machine, first_modulus,
                            machine_like.in_space, machine_like.out_space,
                            settle=first_settle,
                            _first_of=getattr(machine_like, "_first_of", None)
                            or machine_like)


def derive_modulus_machine(machine_like) -> ContinuousMachine:
    """Machine computing continuity certificates for the given machine's operator.

    Answers the modulus list (as a tuple) exactly at the efforts where the
    underlying machine answers; reuses the underlying modulus as its own.
    """
    machine, modulus = _parts(machine_like, "derive_modulus_machine")

    def list_machine(phi, effort, question):
        if machine(phi, effort, question) is None:
            return None
        return tuple(modulus(phi, effort, question))

    return ContinuousMachine(list_machine, modulus, machine_like.in_space)


# ---------------------------------------------------------------------------
# Composition of monotone machines


def compose_monotone(outer: MonotoneMachine, inner: MonotoneMachine,
                     intermediate_default) -> MonotoneMachine:
    """Run ``outer`` on the finite-effort approximations produced by ``inner``.

    At effort n the inner machine's answers, padded with the default where it
    is still silent, form an intermediate oracle; one padding builds it for
    the per-effort machine and modulus and for the settle alike.  The
    composite answers only when every question on the outer modulus list is
    one the inner machine has actually answered at effort n, so the padding
    can never influence a returned value.  The intermediate answer set is
    never materialized; membership is decided per question, and inner
    results are cached within a single composite call, the settle's records
    by each question's ``alphabets._key``.

    Its ``settle`` runs the outer machine once on the limit oracle psi: the
    padded answers the inner records give at the cap.  The composite first
    answers at the later of the outer machine's settled effort on psi and
    the inner settled efforts of the questions on the outer modulus list
    there: at lower efforts some needed question is still unanswered or the
    outer machine is silent, and from there on the padded oracle agrees with
    psi on that list, so self-modulation and monotonicity make the outer
    machine answer as on psi.  Each intermediate question is settled once
    per evaluation, also through nested composites, and the outer machine is
    settled on psi once per question.  The record's modulus at effort n
    concatenates the inner records' lists at n for the questions on one
    outer list: the outer modulus at n on the padded answers the inner
    records give at n (a value whose settled effort is at most n).  That
    oracle agrees with psi on the list psi's outer record gives at n unless
    a question on it first answers above n, so self-modulation lets the
    record's list stand in; only where one does is the outer machine
    settled again, up to n on the padded answers at n.  Where no
    intermediate question ever answers, as on 0 for chains of inverses, a
    trace therefore makes the settle's raw calls and no more.  A stage
    without a ``settle`` of its own is scanned along efforts 0..cap, its
    modulus called at the effort asked.
    """
    inner_machine, inner_modulus = _parts(inner, "compose_monotone")
    outer_machine, outer_modulus = _parts(outer, "compose_monotone")
    if inner.out_space and outer.in_space and inner.out_space != outer.in_space:
        raise ValueError(
            f"cannot compose: inner machine produces {inner.out_space!r} "
            f"but outer machine consumes {outer.in_space!r}")

    def padded_by(answer):
        # The intermediate oracle: ``answer``'s value, or the default where
        # it gives None.
        def padded(question):
            value = answer(question)
            return intermediate_default if value is None else value

        return padded

    def composite_machine(phi, effort, question):
        answer = functools.cache(functools.partial(inner_machine, phi, effort))
        padded = padded_by(answer)
        for needed in outer_modulus(padded, effort, question):
            if answer(needed) is None:
                return None
        return outer_machine(padded, effort, question)

    def composite_modulus(phi, effort, question):
        padded = padded_by(functools.cache(
            functools.partial(inner_machine, phi, effort)))
        return [collected for needed in outer_modulus(padded, effort, question)
                for collected in inner_modulus(phi, effort, needed)]

    settle_inner, settle_outer = _settle_fn(inner), _settle_fn(outer)

    def composite_settle(phi, cap):
        settle_one, records = settle_inner(phi, cap), {}

        def inner_settled(question) -> _Settled:
            key = _key(question)
            record = records.get(key)
            if record is None:
                record = records[key] = settle_one(question)
            return record

        def answer_at(effort):
            # The inner machine's answers at ``effort``, read off its records.
            def answer(question):
                found = inner_settled(question).found
                return (None if found is None or found.effort > effort
                        else found.value)

            return answer

        outer_settled = settle_outer(padded_by(answer_at(cap)), cap)

        def first(record) -> Optional[Evaluation]:
            found = record.found
            if found is None:
                return None
            effort = found.effort
            for needed in record.modulus(found.effort):
                needed_found = inner_settled(needed).found
                if needed_found is None:
                    return None
                effort = max(effort, needed_found.effort)
            return Evaluation(found.value, effort)

        def settled(question) -> _Settled:
            record = outer_settled(question)

            def modulus_at(effort):
                # The inner records of the outer list, looked up once; they
                # are looked up again only for a re-settled list.
                inner_records = list(map(inner_settled, record.modulus(effort)))
                if any(found is not None and found.effort > effort
                       for found, _ in inner_records):
                    outer_list = settle_outer(padded_by(answer_at(effort)),
                                              effort)(question).modulus(effort)
                    inner_records = map(inner_settled, outer_list)
                return [collected for inner_record in inner_records
                        for collected in inner_record.modulus(effort)]

            return _Settled(first(record), modulus_at)

        return settled

    return _SettlingMachine(composite_machine, composite_modulus,
                            inner.in_space, outer.out_space,
                            settle=composite_settle)


# ---------------------------------------------------------------------------
# Brute-force minimal modulus (finite-alphabet test oracle)


def brute_force_min_modulus(machine_like, domain: Sequence,
                            enumeration_bound: int,
                            question_alphabet: Alphabet) -> ModulusFn:
    """Shortest enumeration prefix certifying the output on an explicit domain.

    For each (phi, effort, question) the returned modulus is the shortest
    initial segment of the question enumeration such that every domain oracle
    agreeing with phi on it produces the same machine output.  Raises
    ModulusSearchError when no segment within the bound certifies, which
    means the machine is not continuous at this scale or the bound is too
    small.
    """
    machine = _parts(machine_like)[0]
    domain = tuple(domain)
    prefixes = [question_alphabet.prefix(k) for k in range(enumeration_bound + 1)]

    def minimal_modulus(phi, effort, question):
        reference = machine(phi, effort, question)
        for segment in prefixes:
            if all(machine(psi, effort, question) == reference
                   for psi in domain if restriction_eq(phi, psi, segment)):
                return list(segment)
        raise ModulusSearchError(
            f"no initial segment of length <= {enumeration_bound} certifies "
            f"the output at effort {effort} on question {question!r}")

    return minimal_modulus
