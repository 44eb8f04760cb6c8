"""Acceptance suite: one test per criterion, each timed against its budget.

Every test prints a single "[acceptance] <criterion>: PASS/FAIL" line; run
with -s (or read captured output) to see them.
"""

import contextlib
import itertools
import pathlib
import random
import time
from fractions import Fraction

from _families import (all_small_oracles, failure_example,
                       last_element_modulus, monotone_threshold,
                       random_threshold_spec, small_oracle, table_machine,
                       threshold_machine)
from contmach import (ContinuousMachine, FiniteMultifunction, INVERSION_POINTS,
                      OPT_NONE, SIGN_POINTS, STAR, bool_to_kleenean_realizer,
                      brute_force_min_modulus, check_realizer, chooses_through,
                      compose_monotone, constant_oracle,
                      derive_modulus_machine, dialogue_trace, embed_name,
                      evaluate, exact_name, in_F_M,
                      inversion_machine, kleenean_to_bool_machine,
                      machine_to_associate, mf_compose,
                      monotonize_kleenean_name, naturals_alphabet,
                      rational_reals, rationals_alphabet, search_translate,
                      sign_machine, standard_corpus, tightens, use_first)
from contmach.cli import main as cli_main

GOLDEN = pathlib.Path(__file__).parent / "golden"

EPS_GRID = (Fraction(1), Fraction(1, 2 ** 10), Fraction(1, 2 ** 30))

# Frozen dialogue round bounds, derived by running the dialogues once over
# the corpus and recording the worst case; regressions must not exceed them.
INVERSION_ROUND_BOUND = 24
SIGN_ROUND_BOUND = 2


@contextlib.contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    print(f"[acceptance] {label}: {'PASS' if within else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert within, f"{label} exceeded its time budget: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 1. Inversion correctness at zero tolerance


def test_criterion_1_inversion_correctness():
    with criterion("1 inversion-correctness", 1.0):
        cm = inversion_machine()
        for sample in standard_corpus(INVERSION_POINTS):
            truth = 1 / sample.point
            for eps in EPS_GRID:
                for effort in range(41):
                    value = cm.machine(sample.name, effort, eps)
                    if value is not None:
                        assert abs(value - truth) <= eps, (
                            sample.point, sample.kind, eps, effort)


# ---------------------------------------------------------------------------
# 2. Divergence on zero


def test_criterion_2_divergence_on_zero():
    with criterion("2 divergence-on-zero", 1.0):
        cm = inversion_machine()
        zero = exact_name(Fraction(0))
        eps = Fraction(1, 8)
        for effort in range(10 ** 4 + 1):
            assert cm.machine(zero, effort, eps) is None


# ---------------------------------------------------------------------------
# 3. Sign thresholds and monotone outputs


def test_criterion_3_sign_thresholds():
    with criterion("3 sign-thresholds", 1.0):
        cm = sign_machine()
        one = exact_name(Fraction(1))
        assert cm.machine(one, 0, 0) is OPT_NONE
        assert cm.machine(one, 0, 1) is OPT_NONE
        for index in range(2, 65):
            assert cm.machine(one, 0, index) is True
        zero = exact_name(Fraction(0))
        for index in range(10 ** 4 + 1):
            assert cm.machine(zero, 0, index) is OPT_NONE
        for k in range(21):
            for x in (Fraction(1, 2 ** k), Fraction(-1, 2 ** k)):
                name = exact_name(x)
                first = k + 2  # |x| > 3*2^-n exactly from n = k+2 on
                for index in range(first):
                    assert cm.machine(name, 0, index) is OPT_NONE
                expected = x > 0
                for index in range(first, first + 8):
                    assert cm.machine(name, 0, index) is expected


# ---------------------------------------------------------------------------
# 4. use_first on randomized threshold machines


def test_criterion_4_use_first():
    with criterion("4 use-first-monotonization", 5.0):
        rng = random.Random(2024)
        oracles = all_small_oracles()
        for _ in range(200):
            cm = threshold_machine(random_threshold_spec(rng, allow_dead=True))
            first = use_first(cm)
            for phi in rng.sample(oracles, 4):
                for question in (0, 2):
                    # Independent oracle: exhaustive scan for the first answer.
                    reference = None
                    for effort in range(33):
                        value = cm.machine(phi, effort, question)
                        if value is not None:
                            reference = (value, effort)
                            break
                    assert evaluate(first, phi, question, 32, "linear") == reference
                    if reference is None:
                        continue
                    value, success = reference
                    stable = first.modulus(phi, success, question)
                    for n in (success, success + 1, success + 5, 32):
                        if n > 32:
                            continue
                        for m in (n, n + 1, 32):
                            if m > 32 or m < n:
                                continue
                            assert first.machine(phi, m, question) == value
                            assert first.modulus(phi, m, question) == stable


# ---------------------------------------------------------------------------
# 5. Modulus-failure regression


def test_criterion_5_modulus_failure_regression():
    with criterion("5 modulus-failure-regression", 1.0):
        cm = failure_example()
        first = use_first(cm)
        both = (constant_oracle(False), constant_oracle(True))
        for phi in both:
            for effort in range(9):
                assert first.modulus(phi, effort, STAR) == [STAR]
        # Dropping the union for the last term breaks the modulus property:
        # at effort 1 the kept list for the all-False oracle is empty, every
        # oracle agrees on it, yet the monotonized outputs differ.
        broken = last_element_modulus(cm)
        phi_false, phi_true = both
        assert broken(phi_false, 1, STAR) == []
        assert first.machine(phi_false, 1, STAR) is True
        assert first.machine(phi_true, 1, STAR) is False
        assert broken(phi_true, 1, STAR) == [STAR]  # self-modulation fails too
        # The union modulus passes the modulus property exhaustively.
        for phi in both:
            for psi in both:
                for effort in range(9):
                    if phi(STAR) == psi(STAR):
                        assert (first.machine(phi, effort, STAR)
                                == first.machine(psi, effort, STAR))


# ---------------------------------------------------------------------------
# 6. Composition theorem at test scale


def test_criterion_6_composition_theorem():
    with criterion("6 composition-theorem", 10.0):
        # (a) inversion composed with itself realizes the identity.
        mm = use_first(inversion_machine())
        composite = compose_monotone(mm, mm, Fraction(0))
        report = check_realizer(composite, lambda x: x, rational_reals(),
                                rational_reals(),
                                standard_corpus(INVERSION_POINTS),
                                2 ** 20, schedule="powers_of_two")
        assert report.failures == () and report.undecided == ()

        # (b) finite-alphabet pairs: composite answers equal the relational
        # composition of the evaluate-derived partial functions wherever both
        # sides decide, and every composite is monotone and terminating.
        rng = random.Random(99)
        oracles = all_small_oracles()
        cap = 6
        for _ in range(36):
            inner = monotone_threshold(random_threshold_spec(rng, vary=False,
                                                             allow_dead=True))
            outer = monotone_threshold(random_threshold_spec(rng, vary=False,
                                                             allow_dead=True))
            composite = compose_monotone(outer, inner, intermediate_default=0)
            for phi in oracles:
                derived = {}
                for mid_question in range(3):
                    result = evaluate(inner, phi, mid_question, cap)
                    if result is None:
                        derived = None
                        break
                    derived[mid_question] = result.value
                for question in range(3):
                    left = evaluate(composite, phi, question, cap)
                    if derived is None:
                        continue  # relational side undecided, never disproof
                    right = evaluate(outer, lambda q: derived[q], question, cap)
                    if left is not None and right is not None:
                        assert left.value == right.value
            for phi in rng.sample(oracles, 6):
                for question in range(3):
                    for effort in range(cap + 1):
                        value = composite.machine(phi, effort, question)
                        if value is None:
                            continue
                        stable = composite.modulus(phi, effort, question)
                        for later in range(effort + 1, cap + 1):
                            assert composite.machine(phi, later, question) == value
                            assert composite.modulus(phi, later, question) == stable
                        break


# ---------------------------------------------------------------------------
# 7. Associate round trip with frozen round bounds


def test_criterion_7_associate_round_trip():
    with criterion("7 associate-round-trip", 5.0):
        zero = Fraction(0)
        cases = (
            (use_first(inversion_machine()), standard_corpus(INVERSION_POINTS),
             EPS_GRID, INVERSION_ROUND_BOUND),
            (use_first(sign_machine()), standard_corpus(SIGN_POINTS),
             (0, 2, 5, 12, 13), SIGN_ROUND_BOUND),
        )
        for machine, corpus, questions, bound in cases:
            associate = machine_to_associate(machine, zero, zero)
            for sample in corpus:
                for question in questions:
                    transcript = dialogue_trace(associate, sample.name,
                                                question, bound)
                    assert transcript.answered, (sample.point, sample.kind,
                                                 question)
                    membership = in_F_M(machine, sample.name,
                                        constant_oracle(transcript.final_answer),
                                        [question], 2 ** 10)
                    assert membership.holds, (sample.point, sample.kind,
                                              question)


# ---------------------------------------------------------------------------
# 8. Brute-force minimal-modulus oracle over all small table machines


def test_criterion_8_brute_force_certificates():
    with criterion("8 brute-force-certificates", 30.0):
        alpha = naturals_alphabet()
        tables = list(itertools.product((0, 1), repeat=2))
        oracles = [small_oracle(t) for t in tables]
        for index in range(10 ** 4):
            machine = table_machine(index)
            minimal = brute_force_min_modulus(machine, oracles, 2, alpha)
            cm = ContinuousMachine(machine, minimal)
            first = use_first(cm)
            derived = derive_modulus_machine(first)
            for phi, table in zip(oracles, tables):
                for effort in range(4):
                    reference = machine(phi, effort, 0)
                    segment = minimal(phi, effort, 0)
                    for psi, other in zip(oracles, tables):
                        if all(other[q] == table[q] for q in segment):
                            assert machine(psi, effort, 0) == reference
                    # Monotonized modulus certifies the monotonized machine.
                    first_value = first.machine(phi, effort, 0)
                    first_segment = first.modulus(phi, effort, 0)
                    cert = derived.machine(phi, effort, 0)
                    assert cert == (None if first_value is None
                                    else tuple(first_segment))
                    for psi, other in zip(oracles, tables):
                        if all(other[q] == table[q] for q in first_segment):
                            assert first.machine(psi, effort, 0) == first_value


# ---------------------------------------------------------------------------
# 9. Multifunction algebra, exhaustively over three-point sets


def _all_multifunctions(points, values):
    subsets = [tuple(c) for r in range(len(values) + 1)
               for c in itertools.combinations(values, r)]
    mfs = []
    for assignment in itertools.product(subsets, repeat=len(points)):
        table = dict(zip(points, assignment))
        mfs.append(FiniteMultifunction(points, table))
    return mfs


def test_criterion_9_multifunction_algebra():
    with criterion("9 multifunction-algebra", 10.0):
        points = (0, 1, 2)
        values = (0, 1, 2)
        mfs = _all_multifunctions(points, values)
        assert len(mfs) == 512

        # Independent oracle for tightening: the choice-function
        # characterization.  A partial map is a tuple of values-or-None.
        partial_maps = list(itertools.product((None,) + values,
                                              repeat=len(points)))

        def chooses(pm, mf):
            for x in points:
                allowed = mf.table[x]
                if allowed and (pm[x] is None or pm[x] not in allowed):
                    return False
            return True

        choice_sets = [frozenset(i for i, pm in enumerate(partial_maps)
                                 if chooses(pm, mf)) for mf in mfs]

        for i, tighter in enumerate(mfs):
            tight_choices = choice_sets[i]
            for j, looser in enumerate(mfs):
                assert tightens(tighter, looser) == (tight_choices <= choice_sets[j])

        # chooses_through agrees with the oracle on every (map, mf) pair.
        for i, pm in enumerate(partial_maps):
            as_map = {x: v for x, v in zip(points, pm) if v is not None}
            for j, mf in enumerate(mfs):
                assert chooses_through(as_map, mf) == (i in choice_sets[j])

        # Independent oracle for composition: relational composition of the
        # restriction to inputs whose whole value set is usable.
        domains = [frozenset(x for x in points if mf.table[x]) for mf in mfs]
        value_sets = [{x: frozenset(mf.table[x]) for x in points} for mf in mfs]

        for oi, outer in enumerate(mfs):
            outer_dom = domains[oi]
            outer_vals = value_sets[oi]
            for ii, inner in enumerate(mfs):
                composed = mf_compose(outer, inner)
                for x in points:
                    mids = value_sets[ii][x]
                    if mids and mids <= outer_dom:
                        expected = frozenset().union(*(outer_vals[y] for y in mids))
                    else:
                        expected = frozenset()
                    assert frozenset(composed.table[x]) == expected

        # Tightening is preserved under composition: exhaustive over
        # two-point instances, sampled over three-point ones.
        two_mfs = _all_multifunctions((0, 1), (0, 1))
        tight_pairs = [(a, b) for a in two_mfs for b in two_mfs if tightens(a, b)]
        for fa, fb in tight_pairs:
            for ga, gb in tight_pairs:
                assert tightens(mf_compose(fa, ga), mf_compose(fb, gb))
        rng = random.Random(5)
        for _ in range(400):
            fb, gb = rng.choice(mfs), rng.choice(mfs)
            fa = FiniteMultifunction(points, {
                x: tuple(v for v in fb.table[x] if rng.random() < 0.7) or fb.table[x]
                for x in points})
            ga = FiniteMultifunction(points, {
                x: tuple(v for v in gb.table[x] if rng.random() < 0.7) or gb.table[x]
                for x in points})
            assert tightens(fa, fb) and tightens(ga, gb)
            assert tightens(mf_compose(fa, ga), mf_compose(fb, gb))


# ---------------------------------------------------------------------------
# 10. Precompletion round trip and Kleenean translations


def test_criterion_10_precompletion_and_kleeneans():
    with criterion("10 precompletion-kleeneans", 1.0):
        rng = random.Random(17)
        rationals = rationals_alphabet()
        translate = search_translate()
        for _ in range(100):
            table = [(rationals.enumerate(rng.randrange(50)),
                      rationals.enumerate(rng.randrange(50)))
                     for _ in range(rng.randrange(4))]
            phi = lambda q, t=tuple(table): next(
                (a for qq, a in t if qq == q), Fraction(7))
            question = rationals.enumerate(rng.randrange(60))
            embedded = embed_name(phi)
            assert translate.machine(embedded, 0, question) == phi(question)

        for _ in range(40):
            prefix = [rng.choice((OPT_NONE, True, False)) for _ in range(8)]
            name = lambda i, p=tuple(prefix): p[i] if i < len(p) else OPT_NONE
            once = monotonize_kleenean_name(name)
            twice = monotonize_kleenean_name(once)
            for i in range(10):
                assert twice(i) == once(i)

        forward = bool_to_kleenean_realizer()
        backward = kleenean_to_bool_machine()
        composite = compose_monotone(backward, forward,
                                     intermediate_default=OPT_NONE)
        for value in (False, True):
            result = evaluate(composite, constant_oracle(value), STAR, 4)
            assert result is not None and result.value is value


# ---------------------------------------------------------------------------
# 11. CLI golden outputs and exit codes


def test_criterion_11_cli_golden(capsys):
    with criterion("11 cli-golden", 10.0):
        runs = (
            (["invert", "--value", "2", "--eps", "1", "--max-effort", "64"],
             0, "invert_two_eps_one.json"),
            (["invert", "--value", "0", "--eps", "1/8", "--max-effort", "1024"],
             2, "invert_zero_eps_eighth.json"),
            (["sign", "--value", "1", "--max-effort", "4"],
             0, "sign_one_effort_four.json"),
        )
        for argv, expected_code, golden_name in runs:
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == expected_code, argv
            assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")
        # Usage errors exit 1.
        try:
            cli_main(["invert", "--value", "one half", "--eps", "1"])
        except SystemExit as err:
            assert err.code == 1
        else:
            raise AssertionError("malformed rational must exit 1")
        capsys.readouterr()
