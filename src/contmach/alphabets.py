"""Countable question/answer alphabets, finite sub-functions, and name oracles.

A name space is the set of total functions from a question alphabet Q into an
answer alphabet A.  Names ("oracles") are plain callables; finite
sub-functions are ordered lists of question/answer pairs with first-match
lookup, so duplicated questions are harmless and transcripts can simply be
appended to.  Equality of questions and answers is Python ``==``, the
decidable equality the paper assumes of every alphabet.

First-match lookup reads a hashed index from each question's key to its
first answer, built once per table (and extended, not rebuilt, when a
transcript grows), so a lookup costs one key whatever the table's length.
The key (``_key``) of an int, a bool or a Fraction is built from its
numerator and denominator, so no lookup pays ``Fraction.__hash__``, and two
questions get equal keys exactly when they are ``==``.  Questions of any
other type key as themselves, so they must be hashable, with ``hash``
agreeing with ``==``; every shipped alphabet meets this.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

NameOracle = Callable[[object], object]

#: Canonical element of the one-point question alphabet.
STAR = "*"


class _OptNone:
    """The "no answer" element of an optional answer alphabet.

    Deliberately distinct from Python ``None``, which machines use for "no
    output at this effort".  Equality is identity; there is exactly one
    instance, ``OPT_NONE``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "OPT_NONE"


OPT_NONE = _OptNone()


@dataclass(frozen=True)
class Alphabet:
    """A countable set with enumeration, decidable equality and a default.

    Equality of elements is Python ``==``.  ``enumerate`` must reach every
    element tests care about, and ``default`` is ``enumerate(0)``.
    """

    name: str
    enumerate: Callable[[int], object]
    default: object

    def prefix(self, count: int) -> list:
        return [self.enumerate(i) for i in range(count)]


# ---------------------------------------------------------------------------
# Shipped alphabets


def one_point_alphabet() -> Alphabet:
    return Alphabet("one_point", lambda i: STAR, STAR)


def booleans_alphabet() -> Alphabet:
    values = (False, True)
    return Alphabet("booleans", lambda i: values[i], False)


def naturals_alphabet() -> Alphabet:
    return Alphabet("naturals", lambda i: i, 0)


def _calkin_wilf(index: int) -> Fraction:
    # Positive rationals; the binary digits of the 1-based index after the
    # leading 1 encode the path from the root 1/1.
    num, den = 1, 1
    for bit in bin(index)[3:]:
        if bit == "1":
            num += den
        else:
            den += num
    return Fraction(num, den)


def _rational_at(i: int) -> Fraction:
    if i == 0:
        return Fraction(0)
    value = _calkin_wilf((i + 1) // 2)
    return value if i % 2 == 1 else -value


def rationals_alphabet() -> Alphabet:
    return Alphabet("rationals", _rational_at, Fraction(0))


def opt_alphabet(base: Alphabet) -> Alphabet:
    """Adjoin OPT_NONE to ``base``; index 0 is OPT_NONE, the rest shift up.

    The encoding is flat (elements are OPT_NONE or bare base elements), so
    the base alphabet must not itself contain OPT_NONE.
    """
    if base.default is OPT_NONE:
        raise ValueError("cannot iterate the optional construction: "
                         "base alphabet already contains OPT_NONE")

    def enum(i: int):
        return OPT_NONE if i == 0 else base.enumerate(i - 1)

    return Alphabet(f"opt_{base.name}", enum, OPT_NONE)


def _cantor_unpair(k: int) -> tuple[int, int]:
    w = (math.isqrt(8 * k + 1) - 1) // 2
    y = k - w * (w + 1) // 2
    return w - y, y


def pair_alphabet(left: Alphabet, right: Alphabet) -> Alphabet:
    """Cartesian product enumerated along Cantor's zigzag."""

    def enum(i: int):
        x, y = _cantor_unpair(i)
        return (left.enumerate(x), right.enumerate(y))

    return Alphabet(f"{left.name}_x_{right.name}", enum,
                    (left.default, right.default))


# ---------------------------------------------------------------------------
# Finite sub-functions


@dataclass(frozen=True)
class FiniteFunction:
    """An ordered list of (question, answer) pairs.

    ``size`` counts list entries, not distinct questions; lookups return the
    answer of the first entry whose question matches.  They read a private
    index from each question's key (``_key``) to its first answer, built on
    first use and extended by ``append_pairs``.  Equality, ``repr`` and
    hashing are those of ``entries`` alone.
    """

    entries: tuple = ()

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def _index(self) -> dict:
        return _first_answers(self.entries)

    def append_pairs(self, pairs: Sequence) -> "FiniteFunction":
        pairs = tuple(pairs)
        grown = FiniteFunction(self.entries + pairs)
        # Seed the cached index from this one's: the copy keeps the stored
        # hashes, so only the new pairs are keyed.
        grown.__dict__["_index"] = _first_answers(pairs, self._index)
        return grown


#: Tags the key of a non-integral rational, so no tuple question equals it.
_NUMERIC = object()


def _key(question):
    """The hashed index's key for ``question``: equal exactly when ``==`` is.

    An int, a bool and a Fraction with denominator 1 key as the integer; any
    other Fraction as (_NUMERIC, numerator, denominator, and the
    denominator's bit length), whose hash is computed in C, not by
    ``Fraction.__hash__``'s modular inverse, and does not repeat every 61
    exponents as a dyadic Fraction's does.  Exact types are tested first;
    the exact Fraction type stores its terms in the slots read here, which
    costs half of what its ``numerator`` and ``denominator`` properties do.
    """
    kind = type(question)
    if kind is Fraction:
        denominator = question._denominator
        if denominator == 1:
            return question._numerator
        return (_NUMERIC, question._numerator, denominator, denominator.bit_length())
    if kind is int or kind is bool:
        return question
    return _other_key(question)


def _other_key(question):
    """``_key`` of any other type: a finite real equal to a rational keys as
    that rational, everything else (STAR, tuples, OPT_NONE, NaN) as itself."""
    if isinstance(question, complex) and not question.imag:
        question = question.real
    if isinstance(question, (numbers.Rational, float, Decimal)):
        try:
            return _key(Fraction(question))
        except (ValueError, OverflowError):
            pass
    return question


def _first_answers(pairs: Sequence, first: dict | None = None) -> dict:
    """Map each question's key in ``pairs`` to its first answer, on top of a
    copy of ``first``; an earlier entry always wins."""
    first = {} if first is None else first.copy()
    for question, answer in pairs:
        first.setdefault(_key(question), answer)
    return first


def lookup(finite_fn: FiniteFunction, question):
    """First-match lookup; returns None when the question is unbound."""
    return finite_fn._index.get(_key(question))


def extend_with_default(finite_fn: FiniteFunction, default_answer) -> NameOracle:
    """Totalize a finite sub-function by answering everything else with a default."""
    index = finite_fn._index
    return lambda question: index.get(_key(question), default_answer)


def restriction_eq(phi: NameOracle, psi: NameOracle, questions: Sequence) -> bool:
    """Do the two oracles agree on every question in the list?"""
    return all(phi(q) == psi(q) for q in questions)


# ---------------------------------------------------------------------------
# Reproducible test oracles


def constant_oracle(value) -> NameOracle:
    return lambda question: value


def table_oracle(table: Sequence, fallback) -> NameOracle:
    """Total oracle backed by a first-match table with a constant fallback."""
    return override_oracle(lambda question: fallback, table)


#: What the index gives for a question it does not bind.
_UNBOUND = object()


def override_oracle(base: NameOracle, table: Sequence) -> NameOracle:
    """Splice finitely many answers over a base oracle; the first match wins.

    The table's first-match index is built once, when the oracle is made,
    by the index construction that every lookup helper above shares, so a
    query costs one key of the question (``_key``); a bound None answer
    still wins over the base.
    """
    first = _first_answers(table)

    def oracle(question):
        answer = first.get(_key(question), _UNBOUND)
        return base(question) if answer is _UNBOUND else answer

    return oracle


# ---------------------------------------------------------------------------
# Rational parsing and JSON-friendly value encoding


class _RationalTooLong(ValueError):
    """A rational whose ``p/q`` form has more digits than Python prints.

    The limit is ``sys.get_int_max_str_digits()``, 4,300 by default.
    """


#: Characters of a rejected input that an error message repeats.
_ECHO_LIMIT = 40


def _echo(text) -> str:
    """``repr(text)`` for an error message; when that is longer than
    _ECHO_LIMIT characters, its first _ECHO_LIMIT and the input's length."""
    shown = repr(text)
    if len(shown) <= _ECHO_LIMIT:
        return shown
    return f"{shown[:_ECHO_LIMIT]}... ({len(str(text))} characters)"


#: A decimal literal with an exponent, in a form ``Fraction`` accepts:
#: mantissa digits before and after the point, and the exponent.
_EXPONENT_LITERAL = re.compile(
    r"[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d+(?:_\d+)*)?)?"
    r"e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)


def _exponent_value(literal: str):
    """The value of a decimal literal that its exponent alone settles, else None.

    ``Fraction`` builds the power of ten before any length check can run, so
    ``1e99999999`` would take minutes.  A mantissa of all zeros reads as 0.
    An exponent whose magnitude exceeds ``sys.get_int_max_str_digits()``
    plus the mantissa's digit count gives ``p`` or ``q`` more digits than
    that limit, so it raises ``_RationalTooLong``; a limit of 0 is unlimited.
    """
    match = _EXPONENT_LITERAL.fullmatch(literal)
    if match is None:
        return None
    whole, fraction, exponent = match.groups()
    digits = (whole + (fraction or "")).replace("_", "")
    if not digits.strip("0"):
        return Fraction(0)
    limit = sys.get_int_max_str_digits()
    bound = limit + len(digits)
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0") or "0"
    if limit and (len(magnitude) > len(str(bound)) or int(magnitude) > bound):
        raise _RationalTooLong("rational too long to print as p/q")
    return None


def _check_power_of_two(exponent: int) -> None:
    """Raise ``_RationalTooLong`` when 2^exponent has more digits than
    ``sys.get_int_max_str_digits()``, without building a power that long."""
    limit = sys.get_int_max_str_digits()
    # 2^exponent has at most ``limit`` digits below 3 * limit and more
    # above 4 * limit.
    if limit and exponent >= 3 * limit and (
            exponent > 4 * limit or 1 << exponent >= 10 ** limit):
        raise _RationalTooLong("rational too long to print as p/q")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an exact decimal literal that ``format_rational`` can print."""
    literal = str(text).strip()
    try:
        value = _exponent_value(literal)
        if value is None:
            value = Fraction(literal)
        format_rational(value)
    except _RationalTooLong as exc:
        raise ValueError(f"{exc}: {_echo(text)}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational: {_echo(text)}") from exc
    return value


#: Exponents below this share one Fraction 2^-n (see ``_Scales``).
_SCALE_BOUND = 1024


class _Scales(dict):
    """The shared ``Fraction(1, 2 ** n)`` for each exponent n asked for so far.

    Every dyadic question the realizers ask is read from here, with the
    power of two built as a shift, so the questions of one effort are one
    object and ``evaluate_traced``'s id-keyed encode memo encodes each once.
    A missing n below _SCALE_BOUND is stored with ``setdefault``, so any
    visiting order, and concurrent callers, agree on one object per n;
    exponents at or above the bound get a fresh Fraction and are never
    stored.
    """

    __slots__ = ()

    def __missing__(self, n: int) -> Fraction:
        scale = Fraction(1, 1 << n)
        return self.setdefault(n, scale) if n < _SCALE_BOUND else scale


_SCALES = _Scales()

#: ``_scale(n)`` is 2^-n: below _SCALE_BOUND the one shared object.  A hit
#: is one C-level dict lookup, with no Python frame.
_scale = _SCALES.__getitem__


def format_rational(value) -> str:
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _RationalTooLong("rational too long to print as p/q") from None


def encode_value(value):
    """Encode an alphabet element as a JSON-compatible value.

    Rationals become canonical "p/q" strings, OPT_NONE becomes "none",
    booleans and naturals pass through, pairs become two-element lists.
    """
    if value is None:
        return None
    if value is OPT_NONE:
        return "none"
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return value
    if isinstance(value, (tuple, list)):
        return [encode_value(v) for v in value]
    if isinstance(value, str):
        return value
    return str(value)

