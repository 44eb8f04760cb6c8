import itertools
import random
from collections import Counter
from fractions import Fraction

from _families import logged, per_round
from contmach import associates
from contmach.alphabets import _scale
from contmach import (FiniteMultifunction, INVERSION_POINTS, MonotoneMachine,
                      OPT_NONE, SIGN_POINTS, check_realizer, chooses_through,
                      constant_oracle, dialogue_trace, evaluate,
                      evaluate_traced, exact_name, grid_name,
                      inversion_machine, load_corpus, machine_to_associate,
                      mf_compose, override_oracle,
                      rational_reals, restriction_eq, sign_kleenean,
                      sign_machine, standard_corpus, kleeneans, tightens,
                      use_first)


# ---------------------------------------------------------------------------
# Inversion machine


def test_inversion_hand_evaluated_example():
    cm = inversion_machine()
    phi = exact_name(Fraction(2))
    # margin 1 at effort 0, query point min(1, 1)/2 = 1/2.
    assert cm.machine(phi, 0, Fraction(1)) == Fraction(1, 2)
    assert cm.modulus(phi, 0, Fraction(1)) == [Fraction(1), Fraction(1, 2)]


def test_inversion_silent_on_zero():
    cm = inversion_machine()
    zero = exact_name(Fraction(0))
    for effort in range(64):
        assert cm.machine(zero, effort, Fraction(1, 8)) is None
        assert cm.modulus(zero, effort, Fraction(1, 8)) == [Fraction(1, 2 ** effort)]


def test_inversion_correctness_bound_sampled():
    cm = inversion_machine()
    for x in (Fraction(2), Fraction(-3), Fraction(1, 3), Fraction(7, 5)):
        for name in (exact_name(x), grid_name(x)):
            for eps in (Fraction(1), Fraction(1, 2 ** 10)):
                for effort in range(12):
                    value = cm.machine(name, effort, eps)
                    if value is not None:
                        assert abs(value - 1 / x) <= eps


def test_inversion_is_properly_multivalued():
    # Different efforts query different points, so grid names can answer
    # differently; nothing may assume effort-independence.
    cm = inversion_machine()
    name = grid_name(Fraction(7, 5))
    eps = Fraction(1, 2 ** 10)
    values = {cm.machine(name, effort, eps) for effort in range(2, 12)}
    values.discard(None)
    assert len(values) > 1


def test_inversion_zero_denominator_surfaces():
    cm = inversion_machine()
    # Not a name of a nonzero real: claims margin but answers 0 at the
    # follow-up query.  The machine stays silent instead of dividing by 0,
    # and its modulus still lists both questions.
    broken = override_oracle(constant_oracle(Fraction(0)), [(Fraction(1), Fraction(2))])
    assert cm.machine(broken, 0, Fraction(1)) is None
    assert cm.modulus(broken, 0, Fraction(1)) == [Fraction(1), Fraction(1, 2)]


def test_inversion_modulus_soundness_and_self_modulation():
    cm = inversion_machine()
    rng = random.Random(3)
    for x in (Fraction(2), Fraction(-3), Fraction(7, 5)):
        phi = exact_name(x)
        for effort in range(6):
            for eps in (Fraction(1), Fraction(1, 64)):
                consulted = cm.modulus(phi, effort, eps)
                junk = [(q + Fraction(1, 997), Fraction(rng.randrange(1, 9)))
                        for q in consulted]
                psi = override_oracle(phi, junk)
                assert restriction_eq(phi, psi, consulted)
                assert cm.machine(psi, effort, eps) == cm.machine(phi, effort, eps)
                assert cm.modulus(psi, effort, eps) == consulted


# ---------------------------------------------------------------------------
# Sign machine


def test_sign_on_zero_stays_unsettled():
    cm = sign_machine()
    zero = exact_name(Fraction(0))
    for index in range(64):
        assert cm.machine(zero, 0, index) is OPT_NONE


def test_sign_threshold_on_one():
    cm = sign_machine()
    one = exact_name(Fraction(1))
    assert cm.machine(one, 0, 0) is OPT_NONE
    assert cm.machine(one, 0, 1) is OPT_NONE
    for index in range(2, 16):
        assert cm.machine(one, 0, index) is True


def test_sign_outputs_are_monotone_names():
    cm = sign_machine()
    for k in range(0, 21, 4):
        for x in (Fraction(1, 2 ** k), -Fraction(1, 2 ** k)):
            name = exact_name(x)
            settled = None
            for index in range(k + 8):
                value = cm.machine(name, 0, index)
                if settled is None and value is not OPT_NONE:
                    settled = value
                elif settled is not None:
                    assert value is settled


def test_sign_modulus_self_modulating():
    cm = sign_machine()
    phi = exact_name(Fraction(1, 1000))
    psi = override_oracle(phi, [(Fraction(1, 3), Fraction(5))])
    for index in (0, 3, 11, 12):
        assert cm.modulus(phi, 0, index) == cm.modulus(psi, 0, index)
        assert cm.machine(phi, 0, index) == cm.machine(psi, 0, index)


# ---------------------------------------------------------------------------
# The integer silence and sign tests against the Fraction-margin formulas


def reference_inversion(phi, effort, accuracy):
    # (machine, modulus) at one effort, by the margin |a| - 2^-n as a Fraction.
    scale = Fraction(1, 2 ** effort)
    margin = abs(Fraction(phi(scale))) - scale
    if margin <= 0:
        return None, [scale]
    point = min(margin, accuracy * margin * margin) / 2
    approximation = Fraction(phi(point))
    return (None if approximation == 0 else 1 / approximation), [scale, point]


def reference_sign(phi, index):
    scale = Fraction(1, 2 ** index)
    approx = Fraction(phi(scale))
    if abs(approx) > 3 * scale:
        return approx > 0
    return OPT_NONE


KERNEL_SEED = 20_261_018


def kernel_value(rng, boundary):
    # An oracle answer at, next to or far from ``boundary``, as a Fraction or
    # an int, with either sign.
    kind = rng.randrange(6)
    if kind == 0:
        value = boundary
    elif kind == 1:
        # A neighbour: the boundary moved by one unit of a finer grid.
        value = boundary + rng.choice((-1, 1)) * Fraction(1, 2 ** rng.randrange(1, 260))
    elif kind == 2:
        # The nearest fractions with one more or one less in the numerator.
        value = Fraction(boundary.numerator * 7 + rng.choice((-1, 1)),
                         boundary.denominator * 7)
    elif kind == 3:
        value = 0
    elif kind == 4:
        value = rng.randrange(-5, 6)
    else:
        value = Fraction(rng.randrange(-10 ** 6, 10 ** 6),
                         rng.randrange(1, 2 ** rng.randrange(1, 220)))
    return rng.choice((-1, 1)) * value


def test_inversion_kernel_equals_fraction_margin():
    rng = random.Random(KERNEL_SEED)
    cm = inversion_machine()
    for _ in range(4000):
        effort = rng.randrange(201)
        first = kernel_value(rng, Fraction(1, 2 ** effort))
        later = rng.choice((first, 0, 1, kernel_value(rng, Fraction(1, 2 ** effort))))
        accuracy = Fraction(rng.randrange(1, 10 ** 4), rng.randrange(1, 10 ** 4))
        scale = Fraction(1, 2 ** effort)

        def phi(question):
            return first if question == scale else later

        expected = reference_inversion(phi, effort, accuracy)
        assert (cm.machine(phi, effort, accuracy),
                cm.modulus(phi, effort, accuracy)) == expected, (first, effort)


def answering_value(rng, scale):
    # An approximation past the silence boundary, by a margin from far below
    # the scale to far above it, with either sign; an int when it is one.
    kind = rng.randrange(3)
    if kind == 0:
        margin = scale * Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
    elif kind == 1:
        margin = Fraction(1, 2 ** rng.randrange(1400))
    else:
        margin = Fraction(rng.randrange(1, 6), rng.randrange(1, 50))
    value = rng.choice((-1, 1)) * (scale + margin)
    return int(value) if value.denominator == 1 else value


def kernel_accuracy(rng, margin):
    # Ints, 0 and negatives, the tie 1/margin, and Fractions either side of it.
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-4, 7)
    if kind == 1:
        tie = 1 / margin
        return int(tie) if tie.denominator == 1 else tie
    if kind == 2:
        return rng.choice((-1, 1)) * Fraction(rng.randrange(1, 10 ** 4),
                                              rng.randrange(1, 10 ** 4))
    return (1 / margin) * Fraction(rng.randrange(1, 2 ** 20), 2 ** 19)


def test_inversion_answers_equal_the_fraction_formula():
    # Answering efforts, on both sides of the scale bound, checked by the
    # machine before and after the modulus fills the slot.
    rng = random.Random(KERNEL_SEED + 3)
    cm = inversion_machine()
    branches = Counter()
    for _ in range(4800):
        effort = rng.choice((rng.randrange(64), rng.randrange(1024, 1301)))
        scale = Fraction(1, 2 ** effort)
        first = answering_value(rng, scale)
        margin = abs(Fraction(first)) - scale
        accuracy = kernel_accuracy(rng, margin)
        later = rng.choice((first, -first, 0, rng.randrange(-5, 6),
                            kernel_value(rng, scale)))

        def phi(question):
            return first if question == scale else later

        expected = reference_inversion(phi, effort, accuracy)
        fresh = cm.machine(phi, effort, accuracy)
        modulus = cm.modulus(phi, effort, accuracy)
        assert (fresh, modulus) == expected, (first, effort, accuracy)
        assert cm.machine(phi, effort, accuracy) == fresh, (first, effort, accuracy)
        point = expected[1][1]
        branches[(margin <= accuracy * margin * margin,
                  margin == accuracy * margin * margin, point > 0)] += 1
    # Each side of the comparison, the tie, and points <= 0 are all reached.
    assert min(branches[key] for key in ((True, False, True), (False, False, True),
                                         (True, True, True), (False, False, False))) > 100


FRACTION_ARITHMETIC = ("__abs__", "__sub__", "__mul__", "__truediv__",
                       "__rtruediv__", "__lt__", "__le__", "__eq__")


#: The public properties of a Fraction's terms; the exact type also keeps
#: them in the slots ``_numerator`` and ``_denominator``.
FRACTION_TERMS = ("numerator", "denominator")


def forbid(monkeypatch, names, calls):
    # Each named Fraction method or property records its name in ``calls``
    # and raises when used.
    def forbidden(name):
        def raising(*args):
            calls.append(name)
            raise AssertionError(f"Fraction.{name} called")
        return raising

    for name in names:
        wrapped = forbidden(name)
        if name in FRACTION_TERMS:
            wrapped = property(wrapped)
        monkeypatch.setattr(Fraction, name, wrapped)


def run_inversions(cases):
    # Each case on a fresh machine: its answer, its modulus list, and its
    # answer asked again after the list.
    got = []
    for name, effort, accuracy in cases:
        cm = inversion_machine()
        got.append((cm.machine(name, effort, accuracy),
                    cm.modulus(name, effort, accuracy),
                    cm.machine(name, effort, accuracy)))
    return got


def test_inversion_calls_no_fraction_arithmetic(monkeypatch):
    # The machine and its modulus compute on integers and only construct
    # Fractions, at silent and answering efforts alike.
    cases = [(exact_name(x), effort, accuracy)
             for x in (Fraction(7, 5), Fraction(-1, 10 ** 6), 3, -2, 0)
             for accuracy in (Fraction(1, 8), Fraction(-3, 2), 1, 0, 4)
             for effort in (0, 1, 5, 30, 1100)]
    calls = []
    forbid(monkeypatch, FRACTION_ARITHMETIC, calls)
    got = run_inversions(cases)
    monkeypatch.undo()
    assert calls == []
    for (name, effort, accuracy), (fresh, modulus, held) in zip(cases, got):
        expected = reference_inversion(name, effort, accuracy)
        assert (fresh, modulus) == expected and held == fresh
    silent = sum(len(modulus) == 1 for _, modulus, _ in got)
    assert 0 < silent < len(got)
    assert any(value is not None for value, _, _ in got)


def test_inversion_reads_fraction_terms_from_their_slots(monkeypatch):
    # As above, and the terms of each Fraction are read from the exact
    # type's slots, never through the numerator and denominator properties;
    # an oracle that answers an int is read as the Fraction of it.
    cases = [(name, effort, accuracy)
             for x in (Fraction(7, 5), Fraction(-1, 10 ** 6), 3, -2, 0)
             for name in (exact_name(x), constant_oracle(int(x)))
             for accuracy in (Fraction(1, 8), Fraction(-3, 2), 1, 0, 4)
             for effort in (0, 1, 5, 30, 1100)]
    calls = []
    forbid(monkeypatch, FRACTION_ARITHMETIC + FRACTION_TERMS, calls)
    got = run_inversions(cases)
    monkeypatch.undo()
    assert calls == []
    for (name, effort, accuracy), (fresh, modulus, held) in zip(cases, got):
        assert (fresh, modulus) == reference_inversion(name, effort, accuracy)
        assert held == fresh
    assert 0 < sum(len(modulus) == 1 for _, modulus, _ in got) < len(got)
    assert any(value is not None for value, _, _ in got)


def test_sign_reads_fraction_terms_from_their_slots(monkeypatch):
    # The sign machine's test runs on the slots of one Fraction per call,
    # with no Fraction arithmetic, for Fraction and int answers alike.
    cases = [(name, index)
             for x in (Fraction(7, 5), Fraction(-1, 10 ** 6), Fraction(1, 1000),
                       3, -2, 0)
             for name in (exact_name(x), constant_oracle(int(x)))
             for index in (0, 1, 5, 12, 30, 1100)]
    calls = []
    forbid(monkeypatch, FRACTION_ARITHMETIC + FRACTION_TERMS, calls)
    cm = sign_machine()
    got = [(cm.machine(name, 0, index), cm.modulus(name, 0, index))
           for name, index in cases]
    monkeypatch.undo()
    assert calls == []
    for (name, index), (value, modulus) in zip(cases, got):
        assert value is reference_sign(name, index), (name(1), index)
        assert modulus == [Fraction(1, 2 ** index)]
    assert {value for value, _ in got} == {True, False, OPT_NONE}


def test_sign_kernel_equals_fraction_margin():
    rng = random.Random(KERNEL_SEED + 1)
    cm = sign_machine()
    for _ in range(4000):
        index = rng.randrange(201)
        value = kernel_value(rng, 3 * Fraction(1, 2 ** index))
        phi = constant_oracle(value)
        assert cm.machine(phi, 0, index) is reference_sign(phi, index), \
            (value, index)
        assert cm.modulus(phi, 0, index) == [Fraction(1, 2 ** index)]


def test_moduli_ask_one_shared_question_per_effort():
    # Built by alphabets._scale: the same object across calls and across
    # separately built machines, so a trace encodes it once.
    phi = exact_name(Fraction(7, 5))
    for build in (inversion_machine, sign_machine):
        first, second = build(), build()
        for effort in (0, 5, 31, 256):
            question = first.modulus(phi, effort, effort)[0]
            assert question == Fraction(1, 2 ** effort)
            assert first.modulus(phi, effort, effort)[0] is question
            assert second.modulus(phi, effort, effort)[0] is question


# ---------------------------------------------------------------------------
# The inversion machine's query slot


def test_query_slot_never_returns_a_stale_point():
    # ``modulus`` fills the slot and ``machine`` reads it: every call, in
    # any order, must read as the Fraction-margin reference does.
    rng = random.Random(KERNEL_SEED + 2)
    cm = inversion_machine()
    names = [exact_name(Fraction(7, 5)), grid_name(Fraction(-2, 3))]
    eighths = [Fraction(1, 8), Fraction(1, 8), Fraction(1, 3)]
    assert eighths[0] is not eighths[1]

    def draw(name, effort, accuracy):
        # Keep each argument of the previous call or draw it afresh; a fresh
        # name is a new object that no slot can hold.
        kept = rng.random() < 0.7
        if rng.random() < 0.1:
            name = exact_name(Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)))
        elif not kept or rng.random() < 0.2:
            name = rng.choice(names)
        if not kept or rng.random() < 0.3:
            effort = rng.randrange(12)
        if not kept or rng.random() < 0.3:
            accuracy = rng.choice(eighths)
        return name, effort, accuracy

    args = (names[0], 0, eighths[0])
    for _ in range(4000):
        args = draw(*args)
        calls = [("modulus", args), ("machine", draw(*args))]
        if rng.random() < 0.2:
            calls.reverse()
        for kind, (name, effort, accuracy) in calls:
            got = getattr(cm, kind)(name, effort, accuracy)
            value, modulus = reference_inversion(name, effort, accuracy)
            assert got == (value if kind == "machine" else modulus), \
                (kind, effort, accuracy)


def test_associate_walk_asks_each_scale_once_per_effort(monkeypatch):
    # At each effort the walk asks the modulus and then the machine on one
    # padded name; the machine reuses the modulus's scale query.  Consulted
    # per round, each consultation walks from effort 0; dialogue_trace
    # resumes each walk at the effort where the previous one stopped.
    pad, padded_names = associates.extend_with_default, []

    def extend(state, default):
        padded_names.append([])
        return logged(pad(state, default), padded_names[-1])

    monkeypatch.setattr(associates, "extend_with_default", extend)
    effort_of = {id(_scale(n)): n for n in range(64)}
    for x in (Fraction(0), Fraction(7, 5), Fraction(1, 10 ** 6)):
        for resumed in (False, True):
            padded_names.clear()
            associate = machine_to_associate(inversion_machine(), 0, 0)
            if not resumed:
                associate = per_round(associate)
            transcript = dialogue_trace(associate, exact_name(x),
                                        Fraction(1, 8), 40)
            assert len(padded_names) == len(transcript.rounds)
            stopped = 0
            for asked in padded_names:
                efforts = [effort_of[id(q)] for q in asked if id(q) in effort_of]
                first = stopped if resumed else 0
                assert efforts == list(range(first, first + len(efforts))), x
                assert max(Counter(asked).values()) == 1, x
                stopped = efforts[-1]
            assert transcript.answered == (x != 0)


def reference_queries(name, effort, accuracy):
    asked = []
    reference_inversion(logged(name, asked), effort, accuracy)
    return len(asked)


def test_machine_only_scans_query_as_the_reference_does():
    # ``machine`` never fills the slot, so a scan that calls only the
    # machine asks the name once per query, as without the slot.
    accuracy = Fraction(1, 8)
    for x in (Fraction(0), Fraction(7, 5), Fraction(1, 10 ** 6)):
        asked = []
        name = logged(exact_name(x), asked)
        cm = inversion_machine()
        for effort in list(range(40)) * 2:
            cm.machine(name, effort, accuracy)
        assert len(asked) == 2 * sum(reference_queries(exact_name(x), effort, accuracy)
                                     for effort in range(40))
    # A settled evaluation on 0 runs the machine once per effort.
    asked = []
    name = logged(exact_name(0), asked)
    assert evaluate(use_first(inversion_machine()), name, accuracy, 256) is None
    assert len(asked) == 257
    # A trace reads the modulus after the machine at each effort.
    asked = []
    name = logged(exact_name(Fraction(1, 10 ** 6)), asked)
    evaluate_traced(use_first(inversion_machine()), name, accuracy, 32)
    assert len(asked) == 2 * 21 + 1


# ---------------------------------------------------------------------------
# Finite multifunctions


def mf(table):
    return FiniteMultifunction(tuple(sorted(table)), dict(table))


def test_tightens_reflexive():
    F = mf({0: (1, 2), 1: (), 2: (3,)})
    assert tightens(F, F)


def test_tightens_subassignment():
    G = mf({0: ("a", "b"), 1: ("a", "b")})
    F = mf({0: ("a",), 1: ("b",)})
    assert tightens(F, G)
    assert not tightens(G, F)


def test_tightens_requires_domain_containment():
    G = mf({0: ("a",), 1: ("a",)})
    F = mf({0: ("a",), 1: ()})
    assert not tightens(F, G)


def test_compose_guard_blocks_partial_value_sets():
    # One eligible intermediate value lies outside the outer domain, so the
    # input drops out of the composite domain even though another value works.
    inner = mf({"x": ("y1", "y2")})
    outer = mf({"y1": ("z",), "y2": ()})
    composed = mf_compose(outer, inner)
    assert composed.values("x") == ()
    assert composed.domain() == ()

    total_outer = mf({"y1": ("z",), "y2": ("z", "w")})
    composed = mf_compose(total_outer, inner)
    assert set(composed.values("x")) == {"z", "w"}


def test_chooses_through_iff_singleton_tightens():
    points = (0, 1)
    values = ("a", "b")
    all_value_sets = [tuple(s) for r in range(3)
                      for s in itertools.combinations(values, r)]
    partial_maps = []
    for assignment in itertools.product((None,) + values, repeat=len(points)):
        partial_maps.append({p: v for p, v in zip(points, assignment)
                             if v is not None})
    for table0 in all_value_sets:
        for table1 in all_value_sets:
            F = mf({0: table0, 1: table1})
            for candidate in partial_maps:
                as_mf = mf({p: ((candidate[p],) if p in candidate else ())
                            for p in points})
                assert chooses_through(candidate, F) == tightens(as_mf, F)


def test_compose_respects_tightening_two_point_exhaustive():
    points = (0, 1)
    subsets = [(), (0,), (1,), (0, 1)]
    mfs = [mf({0: a, 1: b}) for a in subsets for b in subsets]
    tight_pairs = [(F1, F) for F1 in mfs for F in mfs if tightens(F1, F)]
    for F1, F in tight_pairs:
        for G1, G in tight_pairs:
            assert tightens(mf_compose(F1, G1), mf_compose(F, G))


# ---------------------------------------------------------------------------
# Realizer checking


def test_check_inversion_realizes_inverse():
    report = check_realizer(use_first(inversion_machine()), lambda x: 1 / x,
                            rational_reals(), rational_reals(),
                            standard_corpus(INVERSION_POINTS), 2 ** 10)
    assert report.failures == ()
    assert report.undecided == ()
    assert report.samples == 10


def test_check_sign_realizes_kleenean_sign():
    report = check_realizer(sign_machine(), sign_kleenean, rational_reals(),
                            kleeneans(), standard_corpus(SIGN_POINTS), 4)
    assert report.failures == ()
    assert report.undecided == ()


def test_check_flags_broken_machine():
    cm = inversion_machine()
    shifted = MonotoneMachine(
        lambda phi, n, q: None if cm.machine(phi, n, q) is None
        else cm.machine(phi, n, q) + 2 * q,
        cm.modulus)
    report = check_realizer(shifted, lambda x: 1 / x, rational_reals(),
                            rational_reals(),
                            standard_corpus((Fraction(2), Fraction(7, 5))),
                            2 ** 6)
    assert report.failures
    # Kleenean names are judged as a whole: sign's answers name the sign of
    # x, never the sign of -x where x is nonzero.
    report = check_realizer(sign_machine(), lambda x: sign_kleenean(-x),
                            rational_reals(), kleeneans(),
                            standard_corpus((Fraction(1), Fraction(-1, 1000))),
                            4)
    assert [(f["point"], f["question"]) for f in report.failures] == [
        ("1/1", "name_check"), ("1/1", "name_check"),
        ("-1/1000", "name_check"), ("-1/1000", "name_check")]
    assert report.undecided == ()


def test_check_reports_fuel_exhaustion_as_undecided():
    silent = MonotoneMachine(lambda phi, n, q: None, lambda phi, n, q: [])
    report = check_realizer(silent, lambda x: 1 / x, rational_reals(),
                            rational_reals(),
                            standard_corpus((Fraction(2),)), 16)
    assert report.failures == ()
    assert len(report.undecided) == 6
    doc = report.to_json()
    assert doc["samples"] == 2 and doc["failures"] == []


def test_corpus_loading_and_grid_names():
    corpus = load_corpus('[{"point": "7/5", "name_kind": "grid"},'
                         ' {"point": "2", "name_kind": "exact"}]')
    assert [s.kind for s in corpus] == ["grid", "exact"]
    grid = corpus[0].name
    assert abs(grid(Fraction(1, 4)) - Fraction(7, 5)) <= Fraction(1, 16)
    assert grid(Fraction(-1)) == Fraction(7, 5)
    space = rational_reals()
    assert space.is_name(grid, Fraction(7, 5))


# ---------------------------------------------------------------------------
# Grid names against their formula


def grid_formula(p, q, a, d):
    # The grid name of p/q at accuracy a/d > 0: the nearest multiple of
    # a/(2d), ties rounded up, in integers only.
    return Fraction(a * ((4 * p * d + q * a) // (2 * q * a)), 2 * d)


def test_grid_name_matches_its_integer_formula():
    rng = random.Random(2029)
    ties = negative = whole = 0
    for case in range(4000):
        if rng.randrange(3):
            accuracy = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 8)),
                                rng.choice((1, 3, 10 ** rng.randrange(6),
                                            2 ** rng.randrange(80))))
        else:
            accuracy = rng.randrange(1, 100)
        a, d = Fraction(accuracy).as_integer_ratio()
        if case % 4 == 0:
            # A tie: an odd multiple of a quarter of the accuracy.
            point = Fraction(2 * rng.randrange(-10 ** 6, 10 ** 6) + 1) * a / (4 * d)
        else:
            point = Fraction(rng.randrange(-10 ** 9, 10 ** 9),
                             rng.randrange(1, 2 ** rng.randrange(1, 64)))
        p, q = point.as_integer_ratio()
        ties += (4 * p * d + q * a) % (2 * q * a) == 0
        negative += point < 0
        whole += type(accuracy) is int
        assert grid_name(point)(accuracy) == grid_formula(p, q, a, d), \
            (point, accuracy)
    assert min(ties, negative, whole) >= 900, (ties, negative, whole)
    # Ties round up, on either side of 0.
    assert grid_name(Fraction(1, 4))(1) == Fraction(1, 2)
    assert grid_name(Fraction(-1, 4))(1) == 0
    for point in (Fraction(0), Fraction(7, 5), Fraction(-3, 8), Fraction(5)):
        for accuracy in (0, -1, Fraction(-1, 3), Fraction(0), -10 ** 20):
            assert grid_name(point)(accuracy) == point
