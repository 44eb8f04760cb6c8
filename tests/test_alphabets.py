import itertools
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest

from contmach import alphabets
from contmach import (FiniteFunction, Kleenean, OPT_NONE, STAR,
                      booleans_alphabet, constant_oracle, encode_value,
                      extend_with_default, format_rational, lookup,
                      naturals_alphabet, one_point_alphabet, opt_alphabet,
                      override_oracle, pair_alphabet, parse_rational,
                      rationals_alphabet, restriction_eq)


def scan_lookup(ff, question):
    # Independent oracle for lookup: literal left-to-right scan.
    matches = [a for q, a in ff.entries if q == question]
    return matches[0] if matches else None


def test_lookup_empty():
    assert lookup(FiniteFunction(), "q") is None


def test_lookup_singleton_hit():
    assert lookup(FiniteFunction((("q", 3),)), "q") == 3


def test_lookup_first_match_wins():
    ff = FiniteFunction((("q", "a"), ("q", "b")))
    assert lookup(ff, "q") == "a"
    assert lookup(ff, "q") == scan_lookup(ff, "q")


def test_lookup_matches_scan_exhaustively():
    # Every table of length <= 3 over a 2x2 alphabet.
    pairs = [(q, a) for q in (0, 1) for a in ("x", "y")]
    for length in range(4):
        for combo in itertools.product(pairs, repeat=length):
            ff = FiniteFunction(combo)
            for question in (0, 1):
                assert lookup(ff, question) == scan_lookup(ff, question)


def test_extend_with_default_empty_is_constant():
    oracle = extend_with_default(FiniteFunction(), "d")
    assert oracle(0) == "d" and oracle(99) == "d"


def test_extend_with_default_hit_and_miss():
    oracle = extend_with_default(FiniteFunction(((0, "a"),)), "d")
    assert oracle(0) == "a"
    assert oracle(1) == "d"


def test_extend_agrees_with_lookup_on_bound_questions():
    pairs = [(q, a) for q in (0, 1) for a in (5, 6)]
    for length in range(4):
        for combo in itertools.product(pairs, repeat=length):
            ff = FiniteFunction(combo)
            oracle = extend_with_default(ff, -1)
            for question in [q for q, _ in ff.entries]:
                assert oracle(question) == lookup(ff, question)


# Questions equal across types (0 == False == Fraction(0)) hash alike and
# must share one index entry; None is a bound answer that must still win
# over the fallback or base.
MIXED_QUESTIONS = (0, False, Fraction(0), 1, True, Fraction(1))
MIXED_PROBES = MIXED_QUESTIONS + (2, Fraction(1, 2), "q", 0.0, 1.0,
                                  Decimal(1), (1, 1), OPT_NONE)


def scan_bound(ff, question):
    # Independent reference for "some entry binds the question".
    return any(q == question for q, _ in ff.entries)


def chains(entries):
    # The same table built in one go and by every chain of appends, each
    # concatenating the entries so far with the next slice.
    yield FiniteFunction(entries)
    for cuts in itertools.product((False, True), repeat=max(len(entries) - 1, 0)):
        ff, start = FiniteFunction(), 0
        for stop, cut in enumerate(cuts + (True,), start=1):
            if cut:
                ff = FiniteFunction(ff.entries + entries[start:stop])
                start = stop
        yield ff


def test_index_matches_scan_on_mixed_types_duplicates_and_none():
    pairs = [(q, a) for q in MIXED_QUESTIONS for a in (None, "x")]
    for length in range(4):
        for entries in itertools.product(pairs, repeat=length):
            for ff in chains(entries):
                assert ff.entries == entries
                padded = extend_with_default(ff, "d")
                spliced = override_oracle(lambda question: ("base", question),
                                          entries)
                for question in MIXED_PROBES:
                    want = scan_lookup(ff, question)
                    bound = scan_bound(ff, question)
                    assert lookup(ff, question) == want, (entries, question)
                    assert padded(question) == (want if bound else "d")
                    assert spliced(question) == (
                        want if bound else ("base", question))


def test_finite_function_identity_ignores_how_it_was_built():
    entries = ((0, "a"), (False, None), (Fraction(1), "b"), (True, "c"), (0, "e"))
    built = list(chains(entries))
    assert len(built) == 2 ** (len(entries) - 1) + 1
    for ff in built:
        lookup(ff, 0)
        assert ff == built[0] and hash(ff) == hash(built[0])
        assert repr(ff) == repr(built[0]) == f"FiniteFunction(entries={entries!r})"
    assert FiniteFunction(entries) != FiniteFunction(entries[:-1])
    # Appending leaves the table it grew from as it was.
    short = FiniteFunction(((0, "a"),))
    grown = FiniteFunction(short.entries + ((1, "b"), (0, "c")))
    assert lookup(short, 1) is None and lookup(grown, 1) == "b"
    assert lookup(grown, 0) == "a" and short.entries == ((0, "a"),)


def test_restriction_eq_reflexive_and_empty():
    phi = extend_with_default(FiniteFunction(((0, "a"),)), "z")
    assert restriction_eq(phi, phi, [0, 1, 2])
    psi = extend_with_default(FiniteFunction(((0, "b"),)), "z")
    assert restriction_eq(phi, psi, [])


def test_restriction_eq_detects_single_difference():
    base = constant_oracle(0)
    changed = override_oracle(base, [(7, 1)])
    assert restriction_eq(base, changed, [1, 2, 3])
    assert not restriction_eq(base, changed, [1, 7])


def test_restriction_eq_concatenation():
    base = constant_oracle(0)
    other = override_oracle(base, [(2, 9), (5, 9)])
    for left in ([], [1], [2], [1, 2]):
        for right in ([], [5], [3, 4]):
            both = restriction_eq(base, other, left + right)
            split = (restriction_eq(base, other, left)
                     and restriction_eq(base, other, right))
            assert both == split


def test_rationals_enumeration_is_injective():
    alpha = rationals_alphabet()
    seen = set(alpha.prefix(500))
    assert len(seen) == 500
    assert Fraction(0) in seen and Fraction(1, 2) in seen and Fraction(-2) in seen


def test_pair_alphabet_is_injective():
    alpha = pair_alphabet(naturals_alphabet(), rationals_alphabet())
    assert len(set(alpha.prefix(200))) == 200
    assert alpha.default == (0, Fraction(0))


def test_opt_alphabet():
    alpha = opt_alphabet(booleans_alphabet())
    assert alpha.enumerate(0) is OPT_NONE
    assert alpha.enumerate(1) is False and alpha.enumerate(2) is True
    assert OPT_NONE == OPT_NONE
    assert OPT_NONE != False
    with pytest.raises(ValueError):
        opt_alphabet(alpha)


def _shipped_alphabets():
    # Each shipped alphabet with how many elements to enumerate: booleans
    # have two, and the one-point alphabet repeats STAR at every index.
    base = [(one_point_alphabet(), 64), (booleans_alphabet(), 2),
            (naturals_alphabet(), 64), (rationals_alphabet(), 64)]
    sized = (base + [(opt_alphabet(a), min(n + 1, 64)) for a, n in base]
             + [(pair_alphabet(naturals_alphabet(), rationals_alphabet()), 64)])
    return [pytest.param(a, n, id=a.name) for a, n in sized]


@pytest.mark.parametrize("alpha, size", _shipped_alphabets())
def test_equality_is_python_eq(alpha, size):
    # Questions and answers are compared with ==, so == must tell apart the
    # elements at distinct indices; only the one-point alphabet repeats one.
    elements = alpha.prefix(size)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert (a == b) == (i == j or a is b is STAR), (a, b)


@pytest.mark.parametrize("alpha, size", _shipped_alphabets())
def test_default_is_the_first_element(alpha, size):
    # Padding, associates and compose_monotone answer with the default, so it
    # must be an element of the alphabet.
    assert alpha.enumerate(0) == alpha.default


def test_equal_elements_hash_equal():
    # The first-match index hashes questions, so elements that compare equal
    # must hash equal, also across alphabets (naturals' 0 == Fraction(0)).
    alphabets = [rationals_alphabet(), naturals_alphabet(),
                 opt_alphabet(rationals_alphabet()),
                 pair_alphabet(naturals_alphabet(), rationals_alphabet())]
    elements = [e for alpha in alphabets for e in alpha.prefix(200)]
    equal_pairs = 0
    for a in elements:
        for b in elements:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                equal_pairs += a is not b
    assert equal_pairs > 0


def test_opt_none_equals_only_itself():
    assert OPT_NONE == OPT_NONE
    for other in (False, 0, Fraction(0), STAR, None):
        assert OPT_NONE != other and other != OPT_NONE, other


def test_one_point_and_naturals():
    assert one_point_alphabet().enumerate(5) == STAR
    assert naturals_alphabet().enumerate(7) == 7


def test_parse_and_format_rational():
    assert parse_rational("7/5") == Fraction(7, 5)
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("-3") == Fraction(-3)
    assert format_rational(Fraction(7, 5)) == "7/5"
    assert format_rational(2) == "2/1"
    with pytest.raises(ValueError):
        parse_rational("zebra")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    # The exponent alone decides these, before any power of ten is built.
    assert parse_rational("0e99999999") == 0
    assert parse_rational("-0.0_0e-9_999_999") == 0
    assert parse_rational("1e4299") == 10 ** 4299
    assert parse_rational("1e-4299") == Fraction(1, 10 ** 4299)
    for bomb in ("1e99999999", "-1_0e99_999_999", "1.5E-99999999"):
        with pytest.raises(ValueError, match="^rational too long"):
            parse_rational(bomb)


# ---------------------------------------------------------------------------
# Shared dyadic questions


@pytest.fixture
def fresh_scales(monkeypatch):
    """An empty 2^-n table installed in ``alphabets`` with its accessor."""
    table = type(alphabets._SCALES)()
    monkeypatch.setattr(alphabets, "_SCALES", table)
    monkeypatch.setattr(alphabets, "_scale", table.__getitem__)
    return table


def test_scale_is_two_to_the_minus_n_in_any_visiting_order(fresh_scales):
    # A fresh table filled in a shuffled order: a cache keyed by position
    # rather than by n would hand out a wrong power somewhere.
    exponents = list(range(1101))
    random.Random(1024).shuffle(exponents)
    for n in exponents:
        assert alphabets._scale(n) == Fraction(1, 2 ** n), n
    for n in range(1101):
        assert alphabets._scale(n) == Fraction(1, 2 ** n), n
    assert sorted(fresh_scales) == list(range(alphabets._SCALE_BOUND))


def test_scale_is_shared_below_the_bound_only():
    bound = alphabets._SCALE_BOUND
    assert bound == 1024
    for n in (0, 1, 31, 256, bound - 1):
        assert alphabets._scale(n) is alphabets._scale(n)
        assert alphabets._SCALES[n] is alphabets._scale(n)
    for n in (bound, bound + 1, 1100, 10_007, 20_000):
        first, second = alphabets._scale(n), alphabets._scale(n)
        assert first == second == Fraction(1, 2 ** n)
        assert first is not second
        assert n not in alphabets._SCALES


def test_scale_threads_filling_one_table_agree_on_one_object(fresh_scales):
    seen = [[] for _ in range(4)]

    def fill(into, seed):
        exponents = list(range(alphabets._SCALE_BOUND))
        random.Random(seed).shuffle(exponents)
        into.extend((n, alphabets._scale(n)) for n in exponents)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=fill, args=(into, seed))
                   for seed, into in enumerate(seen)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for into in seen:
        assert len(into) == alphabets._SCALE_BOUND
        for n, scale in into:
            assert scale is alphabets._SCALES[n]
            assert scale == Fraction(1, 2 ** n)


def test_scale_never_stores_an_exponent_at_or_above_the_bound():
    alphabets._scale(5000)
    assert max(alphabets._SCALES, default=0) < alphabets._SCALE_BOUND


# ---------------------------------------------------------------------------
# Question keys


class SubFraction(Fraction):
    pass


# Questions of every kind the index meets, equal across types where the
# values are; the tuple (1, 1) is a pair question, not the rational 1.
KINDS = [0, False, Fraction(0), 1, True, Fraction(1), 3, 3.0, Fraction(3),
         Fraction(1, 2), 0.5, Decimal("0.5"), SubFraction(1, 2), SubFraction(3),
         Decimal(3), float("inf"), (1, 1), (Fraction(1, 2), 0), STAR, OPT_NONE]
DYADIC = [alphabets._scale(n) for n in range(1001)]
KEY_QUESTIONS = KINDS + DYADIC


def test_key_is_equal_exactly_when_the_questions_are():
    keys = [alphabets._key(q) for q in KEY_QUESTIONS]
    for a, key_a in zip(KEY_QUESTIONS, keys):
        for b, key_b in zip(KEY_QUESTIONS, keys):
            assert (key_a == key_b) == (a == b), (a, b)
            if key_a == key_b:
                assert hash(key_a) == hash(key_b), (a, b)


def test_key_of_a_float_or_decimal_with_no_rational_value_is_itself():
    nan = float("nan")
    assert alphabets._key(nan) is nan
    assert alphabets._key(-float("inf")) == -float("inf")
    assert alphabets._key(Decimal("Infinity")) == Decimal("Infinity")
    assert alphabets._key(complex(0.5, 0)) == alphabets._key(Fraction(1, 2))
    assert alphabets._key(complex(0.5, 1)) == complex(0.5, 1)


def test_index_helpers_agree_with_a_first_match_scan_on_every_kind_of_key():
    # Dyadic questions 61 exponents apart have equal Fraction hashes.
    rng = random.Random(16)
    drawn = KINDS + DYADIC[:4] + DYADIC[-70:]
    probes = KINDS + [DYADIC[n] for n in (2, 63, 64, 1000)]
    for _ in range(300):
        entries = tuple((rng.choice(drawn), rng.choice((None, "x", "y")))
                        for _ in range(rng.randrange(12)))
        cut = rng.randrange(len(entries) + 1)
        head = FiniteFunction(entries[:cut])
        grown = FiniteFunction(head.entries + entries[cut:])
        padded = extend_with_default(grown, "d")
        spliced = override_oracle(lambda question: "base", entries)
        for question in probes + [q for q, _ in grown.entries]:
            want, bound = scan_lookup(grown, question), scan_bound(grown, question)
            assert lookup(grown, question) == want, (entries, question)
            assert lookup(FiniteFunction(entries), question) == want
            assert padded(question) == (want if bound else "d")
            assert spliced(question) == (want if bound else "base")


def test_appends_and_forks_match_tables_built_afresh():
    # Each step grows any earlier state, so one table is often grown twice;
    # a padded oracle taken early must not see the pairs appended later.
    # Every state is looked up (padded) as soon as it is made, yet a grown
    # table holds no index until its own first lookup builds one.
    rng = random.Random(22)
    drawn = KINDS + DYADIC[:3] + DYADIC[-3:]
    for _ in range(200):
        states = [FiniteFunction()]
        padded = [extend_with_default(states[0], "d")]
        for _ in range(rng.randrange(1, 12)):
            pairs = [(rng.choice(drawn), rng.choice((None, "x", "y")))
                     for _ in range(rng.randrange(3))]
            grown = FiniteFunction(rng.choice(states).entries + tuple(pairs))
            assert "_index" not in vars(grown)
            states.append(grown)
            padded.append(extend_with_default(grown, "d"))
            assert "_index" in vars(grown)
        for state, oracle in zip(states, padded):
            afresh = FiniteFunction(state.entries)
            assert state == afresh and hash(state) == hash(afresh)
            for question in drawn:
                want = scan_lookup(afresh, question)
                assert lookup(state, question) == want, (state, question)
                bound = scan_bound(afresh, question)
                assert oracle(question) == (want if bound else "d")


def test_lookups_of_dyadic_questions_call_no_fraction_eq_or_hash(monkeypatch):
    # Dyadic Fractions hash alike every 61 exponents, so a dict keyed by them
    # compares colliding keys with Fraction.__eq__ (~3.7 calls per lookup at
    # 512 keys); their keys are compared as integers instead.
    questions = DYADIC[:1000]
    table = [(q, n) for n, q in enumerate(questions)]
    ff = FiniteFunction(tuple(table))
    padded = extend_with_default(ff, -1)
    spliced = override_oracle(lambda question: -1, table)
    calls = []
    eq, hash_ = Fraction.__eq__, Fraction.__hash__

    def counted_eq(self, other):
        calls.append("eq")
        return eq(self, other)

    def counted_hash(self):
        calls.append("hash")
        return hash_(self)

    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    for n, question in enumerate(questions):
        assert lookup(ff, question) == padded(question) == spliced(question) == n
    assert padded(alphabets._scale(1000)) == spliced(alphabets._scale(1000)) == -1
    assert calls == []


def test_encode_value():
    assert encode_value(Fraction(1, 2)) == "1/2"
    assert encode_value(OPT_NONE) == "none"
    assert encode_value(True) is True
    assert encode_value((0, Fraction(1, 2))) == [0, "1/2"]
    assert encode_value(None) is None
    assert repr(OPT_NONE) == "OPT_NONE"
    # A value of no shipped type is rendered by ``str``.
    assert encode_value(Kleenean.TRUE) == "Kleenean.TRUE"

