"""Represented spaces: discrete sets, rationally approximated reals, Kleeneans.

A represented space pairs a set of points with a notion of which oracles name
which points.  Membership checks here inspect only finitely many questions
(the schedules are module constants), so a passing ``is_name`` is evidence at
test scale, not a proof; this caveat is inherent for infinite question sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .alphabets import (OPT_NONE, Alphabet, NameOracle, STAR, _scale,
                        booleans_alphabet, naturals_alphabet,
                        one_point_alphabet, opt_alphabet, pair_alphabet,
                        rationals_alphabet)
from .machines import ContinuousMachine, MonotoneMachine, evaluate, use_first

#: Accuracy questions sampled by the rational-real name check: 1, 1/2, …, 2^-20.
RATIONAL_NAME_SCALES = tuple(_scale(k) for k in range(21))

#: Length of the sequence prefix inspected by the Kleenean name check.
KLEENEAN_PREFIX = 64

#: How far each column is searched when checking precompleted names.
PRECOMPLETION_SEARCH_BOUND = 64


@dataclass(frozen=True)
class RepresentedSpace:
    """Alphabets plus test-scale name and answer predicates for a space.

    ``answer_ok`` is present only when correctness of a single answer is
    meaningful in isolation; spaces where an answer's correctness depends on
    the rest of the name (Kleeneans, precompletions) leave it None.
    ``test_questions`` is the documented question sample used by realizer
    checks.
    """

    name: str
    question_alphabet: Alphabet
    answer_alphabet: Alphabet
    is_name: Callable[[NameOracle, object], bool]
    answer_ok: Optional[Callable[[object, object, object], bool]] = None
    test_questions: tuple = ()


# ---------------------------------------------------------------------------
# Discrete spaces


def discrete_space(points: Alphabet) -> RepresentedSpace:
    """One question; the answer is the point itself."""

    def is_name(phi: NameOracle, point) -> bool:
        return phi(STAR) == point

    def answer_ok(point, question, answer) -> bool:
        return answer == point

    return RepresentedSpace(f"discrete_{points.name}", one_point_alphabet(),
                            points, is_name, answer_ok, (STAR,))


# ---------------------------------------------------------------------------
# Reals via rational approximations


def rational_reals() -> RepresentedSpace:
    """Questions are accuracies, answers are approximations within them.

    Only positive accuracies constrain a name; non-positive questions are
    don't-cares so that names stay total.  All arithmetic is exact.
    """
    rationals = rationals_alphabet()

    def answer_ok(point, question, answer) -> bool:
        if question <= 0:
            return True
        return abs(Fraction(point) - answer) <= question

    def is_name(phi: NameOracle, point) -> bool:
        return all(answer_ok(point, scale, phi(scale))
                   for scale in RATIONAL_NAME_SCALES)

    return RepresentedSpace(
        "rational_reals", rationals, rationals, is_name, answer_ok,
        (_scale(0), _scale(10), _scale(30)))


# ---------------------------------------------------------------------------
# Kleeneans


class Kleenean(enum.Enum):
    TRUE = "true_K"
    FALSE = "false_K"
    BOTTOM = "bottom_K"


def kleenean_from_bool(value: bool) -> Kleenean:
    return Kleenean.TRUE if value else Kleenean.FALSE


def sign_kleenean(x) -> Kleenean:
    x = Fraction(x)
    if x == 0:
        return Kleenean.BOTTOM
    return kleenean_from_bool(x > 0)


def kleeneans() -> RepresentedSpace:
    """Names are optional-boolean sequences; the first settled entry decides.

    The all-OPT_NONE sequence names bottom, which a finite prefix can only
    confirm up to its length; every sequence names something, and there is no
    per-answer correctness predicate because an entry's meaning depends on
    the entries before it.  The name check runs ``kleenean_to_bool_machine``
    over the first ``KLEENEAN_PREFIX`` entries.
    """
    search = kleenean_to_bool_machine()

    def is_name(phi: NameOracle, point: Kleenean) -> bool:
        found = evaluate(search, phi, STAR, KLEENEAN_PREFIX - 1)
        return point is (Kleenean.BOTTOM if found is None
                          else kleenean_from_bool(found.value))

    return RepresentedSpace(
        "kleeneans", naturals_alphabet(), opt_alphabet(booleans_alphabet()),
        is_name, None, tuple(range(KLEENEAN_PREFIX)))


def monotonize_kleenean_name(phi: NameOracle) -> NameOracle:
    """Repeat the first settled value from its index onward."""
    search = kleenean_to_bool_machine().machine

    def monotone(index: int):
        value = search(phi, index, STAR)
        return OPT_NONE if value is None else value

    return monotone


def bool_to_kleenean_realizer() -> MonotoneMachine:
    """Embed Boolean names into Kleenean names; answers at every effort."""

    def machine(phi, effort, question):
        return phi(STAR)

    def modulus(phi, effort, question):
        return [STAR]

    return MonotoneMachine(machine, modulus, "boolean_names", "kleenean_names")


def _first_settled(key, in_space: str = "", out_space: str = "") -> MonotoneMachine:
    """``use_first`` of a one-step search: the first settled value at a key.

    At effort n the step answers the name's value at ``key(n, q)`` unless it
    is OPT_NONE, with modulus ``[key(n, q)]``.
    """

    def step(phi, effort, question):
        value = phi(key(effort, question))
        return None if value is OPT_NONE else value

    def step_modulus(phi, effort, question):
        return [key(effort, question)]

    return use_first(ContinuousMachine(step, step_modulus, in_space, out_space))


def kleenean_to_bool_machine() -> MonotoneMachine:
    """Search a Kleenean name for its first settled value.

    It is ``use_first`` of the step that reads index n at effort n.
    Properly partial: on names of bottom it stays silent past any cap.
    """
    return _first_settled(lambda effort, question: effort,
                          "kleenean_names", "boolean_names")


# ---------------------------------------------------------------------------
# Precompletion


def precompletion(space: RepresentedSpace) -> RepresentedSpace:
    """Index the questions by a search stage and make every answer optional.

    An oracle names a point when, for each original question, the first
    settled answer along the stages is a valid answer of some name of the
    point.  The name check extracts a name with ``search_translate`` over
    stages 0..``PRECOMPLETION_SEARCH_BOUND`` - 1 and delegates to the
    underlying space.
    """
    questions = pair_alphabet(naturals_alphabet(), space.question_alphabet)
    answers = opt_alphabet(space.answer_alphabet)
    translate = search_translate()

    def is_name(phi: NameOracle, point) -> bool:
        def extracted(question):
            found = evaluate(translate, phi, question, PRECOMPLETION_SEARCH_BOUND - 1)
            if found is None:
                raise LookupError(f"no settled answer for {question!r}")
            return found.value

        try:
            return space.is_name(extracted, point)
        except LookupError:
            return False

    return RepresentedSpace(f"precompleted_{space.name}", questions, answers,
                            is_name, None,
                            tuple((0, q) for q in space.test_questions))


def embed_name(phi: NameOracle) -> NameOracle:
    """The canonical precompleted name: every stage already answers."""
    return lambda question: phi(question[1])


def search_translate() -> MonotoneMachine:
    """Translate precompleted names back: scan the stages up to the effort.

    It is ``use_first`` of the step that reads stage n of the question at
    effort n.
    """
    return _first_settled(lambda effort, question: (effort, question))
