"""Reproducible machine families, the per-effort trace reference, and the
suite's one call counter and one question log, shared across the test
modules."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from contmach import (ContinuousMachine, MonotoneMachine, STAR, compose_monotone,
                      effort_schedule, encode_value, inversion_machine,
                      use_first)


# ---------------------------------------------------------------------------
# The two-point failure example: answers at effort 0 depend on the oracle,
# later efforts answer unconditionally, and the modulus asks only at effort 0.


def failure_example() -> ContinuousMachine:
    def machine(phi, effort, question):
        if effort == 0 and phi(STAR) is False:
            return None
        if effort == 0:
            return False
        return True

    def modulus(phi, effort, question):
        return [STAR] if effort == 0 else []

    return ContinuousMachine(machine, modulus)


def last_element_modulus(machine_like):
    """Keep only the first-success term of the monotonized modulus union."""
    machine = machine_like.machine
    modulus = machine_like.modulus

    def last_only(phi, effort, question):
        step = 0
        while step < effort and machine(phi, step, question) is None:
            step += 1
        return modulus(phi, step, question)

    return last_only


# ---------------------------------------------------------------------------
# Threshold machines over three-element integer alphabets: silent below a
# threshold that one oracle value controls, answering a value another oracle
# value controls.  ``vary`` mixes the effort into the answer, which makes the
# raw machine non-monotone; ``dead_stride`` makes some (oracle, question)
# combinations permanently silent.


@dataclass(frozen=True)
class ThresholdSpec:
    trigger: int
    watch: int
    base: int
    spread: int
    salt: int
    vary: bool = False
    dead_stride: int = 0


def _threshold(spec: ThresholdSpec, phi, question):
    if spec.dead_stride and (phi(spec.trigger) + question) % spec.dead_stride == 0:
        return None
    return spec.base + (phi(spec.trigger) % spec.spread)


def threshold_machine(spec: ThresholdSpec) -> ContinuousMachine:
    def machine(phi, effort, question):
        cutoff = _threshold(spec, phi, question)
        if cutoff is None or effort < cutoff:
            return None
        shift = effort if spec.vary else 0
        return (phi(spec.watch) + spec.salt * question + shift) % 3

    def modulus(phi, effort, question):
        cutoff = _threshold(spec, phi, question)
        if cutoff is None or effort < cutoff:
            return [spec.trigger]
        return [spec.trigger, spec.watch]

    return ContinuousMachine(machine, modulus)


def monotone_threshold(spec: ThresholdSpec) -> MonotoneMachine:
    assert not spec.vary
    cm = threshold_machine(spec)
    return MonotoneMachine(cm.machine, cm.modulus)


def random_threshold_spec(rng: random.Random, vary: bool = True,
                          allow_dead: bool = False) -> ThresholdSpec:
    return ThresholdSpec(
        trigger=rng.randrange(3),
        watch=rng.randrange(3),
        base=rng.randrange(5),
        spread=rng.randrange(1, 4),
        salt=rng.randrange(3),
        vary=vary and rng.random() < 0.7,
        dead_stride=4 if allow_dead and rng.random() < 0.25 else 0,
    )


def small_oracle(table):
    """Total oracle over questions 0..len(table)-1 backed by a tuple."""
    return lambda question: table[question]


def all_small_oracles(questions: int = 3, answers: int = 3):
    return [small_oracle(t)
            for t in itertools.product(range(answers), repeat=questions)]


# ---------------------------------------------------------------------------
# Exhaustively enumerable table machines over Q = A = {0, 1} with one output
# question and effort clamped at 3.  A machine is 16 base-3 digits: one digit
# per (oracle, effort) cell, 0 for silence and d for answer d-1.


TABLE_MACHINE_CELLS = 16


def table_machine(index: int):
    digits = []
    value = index
    for _ in range(TABLE_MACHINE_CELLS):
        digits.append(value % 3)
        value //= 3
    digits = tuple(digits)

    def machine(phi, effort, question):
        cell = (2 * phi(0) + phi(1)) * 4 + min(effort, 3)
        return None if digits[cell] == 0 else digits[cell] - 1

    return machine


def two_point_oracles():
    return [small_oracle(t) for t in itertools.product((0, 1), repeat=2)]


def counted(fn, calls, slot=0):
    """``fn``, adding one to ``calls[slot]`` on each call."""
    def call(*args):
        calls[slot] += 1
        return fn(*args)
    return call


def logged(phi, asked):
    """The oracle ``phi``, appending each question put to it to ``asked``."""
    def oracle(question):
        asked.append(question)
        return phi(question)
    return oracle


def counting_machine(cm, calls):
    # calls[0] counts raw machine calls, calls[1] raw modulus calls.
    return ContinuousMachine(counted(cm.machine, calls, 0),
                             counted(cm.modulus, calls, 1),
                             cm.in_space, cm.out_space)


def composite_chain(depth, calls=None, scanned=False):
    """``depth`` use_first inversions, each composed over the one before with
    fallback 0, as the CLI's pipelines nest them; given ``calls``, every raw
    stage counts into it as ``counting_machine`` does.  ``scanned`` makes
    the innermost stage its ``scan_twin``, a stage without a settle."""
    def stage():
        cm = inversion_machine()
        return use_first(cm if calls is None else counting_machine(cm, calls))

    chain = scan_twin(stage()) if scanned else stage()
    for _ in range(depth - 1):
        chain = compose_monotone(stage(), chain, Fraction(0))
    return chain


def scan_twin(mm):
    """``mm``'s functions without a settle: evaluate scans effort by effort."""
    return MonotoneMachine(mm.machine, mm.modulus, mm.in_space, mm.out_space)


def per_round(associate):
    """The same associate without its resumable walk, so that
    ``dialogue_trace`` consults it per round, each consultation walking from
    effort 0."""
    return lambda state, question: associate(state, question)


# ---------------------------------------------------------------------------
# Per-effort reference for evaluate_traced


def traced_by_attempts(machine_like, phi, question, fuel_cap, schedule):
    # Reference: run the machine at every scheduled effort until it answers.
    machine = getattr(machine_like, "machine", machine_like)
    modulus = getattr(machine_like, "modulus", None)
    attempts = []
    result = None
    for effort in effort_schedule(fuel_cap, schedule):
        value = machine(phi, effort, question)
        attempt = {"n": effort,
                   "result": "none" if value is None else encode_value(value)}
        if modulus is not None:
            attempt["modulus"] = [encode_value(q)
                                  for q in modulus(phi, effort, question)]
        attempts.append(attempt)
        if value is not None:
            result = (value, effort)
            break
    trace = {"effort_schedule": schedule, "attempts": attempts,
             "final": None if result is None else encode_value(result[0]),
             "fuel_cap": fuel_cap}
    return result, trace


# ---------------------------------------------------------------------------
# Settle records render their own texts


def assert_records_encode_their_lists(mm, names, questions, caps):
    """Each settle record's ``modulus(n, encode)`` is its ``modulus(n)``
    encoded entry by entry, at every effort n up to the cap, asked in rising
    and in falling order on fresh records.  ``repr`` is the encoder: it tells
    1, True and Fraction(1) apart, which ``==`` on encoded texts does not.

    A third fresh record is asked a seeded random sequence of single
    efforts, each with or without the encoder, so its texts sometimes lag
    and sometimes lead its list; every answer must be the one the first two
    orders gave at that effort."""
    rng = random.Random(5)
    for cap in caps:
        for phi in names:
            for question in questions:
                expected = {}
                for efforts in (range(cap + 1), range(cap, -1, -1)):
                    record = mm.settle(phi, cap)(question)
                    for n in efforts:
                        listed = [repr(q) for q in record.modulus(n)]
                        assert record.modulus(n, repr) == listed, (cap, question, n)
                        assert expected.setdefault(n, listed) == listed, \
                            (cap, question, n)
                record = mm.settle(phi, cap)(question)
                for _ in range(2 * cap + 2):
                    n = rng.randrange(cap + 1)
                    listed = (record.modulus(n, repr) if rng.random() < 0.5
                              else [repr(q) for q in record.modulus(n)])
                    assert listed == expected[n], (cap, question, n)
