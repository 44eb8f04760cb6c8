import dataclasses
import gc
import json
import random
from fractions import Fraction

import pytest

from _families import (all_small_oracles, assert_records_encode_their_lists,
                       composite_chain, counted, counting_machine,
                       failure_example, last_element_modulus,
                       monotone_threshold, random_threshold_spec, scan_twin,
                       table_machine, threshold_machine, ThresholdSpec,
                       traced_by_attempts, two_point_oracles)
from contmach import (INVERSION_POINTS, OPT_NONE, SIGN_POINTS,
                      ContinuousMachine, MembershipResult, ModulusSearchError,
                      MonotoneMachine, STAR, brute_force_min_modulus,
                      compose_monotone, constant_oracle,
                      derive_modulus_machine, effort_schedule, encode_value,
                      evaluate, evaluate_traced, exact_name, grid_name,
                      in_F_M, inversion_machine, kleenean_to_bool_machine,
                      machine_to_associate, naturals_alphabet,
                      restriction_eq, sign_machine, use_first)


def step_machine(threshold, value="a"):
    return lambda phi, effort, question: value if effort >= threshold else None


def scan_first_success(machine, phi, question, cap):
    # Independent oracle for evaluate: exhaustive linear scan.
    for effort in range(cap + 1):
        value = machine(phi, effort, question)
        if value is not None:
            return value, effort
    return None


# ---------------------------------------------------------------------------
# evaluate / in_F_M


def test_evaluate_immediate_success():
    machine = lambda phi, n, q: "a"
    assert evaluate(machine, constant_oracle(0), "q", 0) == ("a", 0)


def test_evaluate_total_divergence():
    machine = lambda phi, n, q: None
    assert evaluate(machine, constant_oracle(0), "q", 50) is None
    assert evaluate(machine, constant_oracle(0), "q", 50, "powers_of_two") is None


def test_evaluate_schedules_against_scan():
    machine = step_machine(5)
    phi = constant_oracle(0)
    assert scan_first_success(machine, phi, "q", 10) == ("a", 5)
    assert evaluate(machine, phi, "q", 10, "linear") == ("a", 5)
    assert evaluate(machine, phi, "q", 10, "powers_of_two") == ("a", 8)
    assert evaluate(machine, phi, "q", 4, "linear") is None
    assert evaluate(machine, phi, "q", 4, "powers_of_two") is None


def test_effort_schedule_shapes():
    assert list(effort_schedule(5, "linear")) == [0, 1, 2, 3, 4, 5]
    assert list(effort_schedule(10, "powers_of_two")) == [0, 1, 2, 4, 8]
    assert list(effort_schedule(0, "powers_of_two")) == [0]
    # A negative cap visits no effort on either schedule.
    assert list(effort_schedule(-1, "linear")) == []
    assert list(effort_schedule(-1, "powers_of_two")) == []
    with pytest.raises(ValueError):
        effort_schedule(3, "fibonacci")


def test_trace_attempt_count_matches_schedule():
    machine = lambda phi, n, q: None
    result, trace = evaluate_traced(machine, constant_oracle(0), "q", 10,
                                    "powers_of_two")
    assert result is None
    assert len(trace["attempts"]) == len(effort_schedule(10, "powers_of_two"))
    assert trace["final"] is None
    assert all(a["result"] == "none" for a in trace["attempts"])

    result, trace = evaluate_traced(step_machine(3), constant_oracle(0), "q",
                                    10, "linear")
    assert result == ("a", 3)
    assert [a["n"] for a in trace["attempts"]] == [0, 1, 2, 3]
    assert trace["final"] == "a"


def test_in_F_M_constant_machine():
    machine = lambda phi, n, q: q * 2
    candidate = lambda q: q * 2
    result = in_F_M(machine, constant_oracle(0), candidate, [1, 2, 3], 4)
    assert result.holds and result.undecided == ()


def test_in_F_M_divergent_is_undecided():
    machine = lambda phi, n, q: None
    result = in_F_M(machine, constant_oracle(0), constant_oracle(7), [1, 2], 8)
    assert not result.holds
    assert result.undecided == (1, 2)


def test_in_F_M_wrong_value_not_undecided():
    machine = lambda phi, n, q: 0
    result = in_F_M(machine, constant_oracle(0), constant_oracle(7), [1], 8)
    assert not result.holds and result.undecided == ()


def test_in_F_M_self_consistency_on_monotone_machine():
    mm = monotone_threshold(ThresholdSpec(0, 1, base=2, spread=2, salt=1))
    for phi in all_small_oracles()[:9]:
        answers = {q: evaluate(mm, phi, q, 16).value for q in range(3)}
        result = in_F_M(mm, phi, lambda q: answers[q], range(3), 16)
        assert result.holds


def scan_membership(machine_like, phi, candidate, questions, fuel_cap):
    # Independent oracle for in_F_M: every effort 0..cap in one nested loop,
    # stopping at the first answer that matches the candidate's.
    machine = getattr(machine_like, "machine", machine_like)
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
            if value == wanted:
                matched = True
                break
        if not matched:
            holds = False
            if not answered:
                undecided.append(question)
    return MembershipResult(holds, tuple(undecided))


def recorded(machine, calls):
    # ``machine``, logging each raw call as (effort, question, value).
    def logged(phi, effort, question):
        value = machine(phi, effort, question)
        calls.append((effort, question, value))
        return value

    return logged


MEMBERSHIP_CAPS = (0, 3, 9, 24)


def assert_member_like_scan(build, phi, candidate, questions):
    # ``build(calls)`` makes the machine whose raw calls go to ``calls``;
    # in_F_M must give the reference's result with the same raw calls.
    # Returns the number of cases compared.
    for cap in MEMBERSHIP_CAPS:
        got_calls, want_calls = [], []
        got = in_F_M(build(got_calls), phi, candidate, questions, cap)
        want = scan_membership(build(want_calls), phi, candidate, questions,
                               cap)
        assert got == want, cap
        assert got_calls == want_calls, cap
    return len(MEMBERSHIP_CAPS)


def test_in_F_M_matches_scan_on_threshold_families():
    rng = random.Random(17)
    specs = [random_threshold_spec(rng, allow_dead=True) for _ in range(16)]
    assert any(spec.vary for spec in specs)
    assert any(spec.dead_stride for spec in specs)
    oracles = all_small_oracles()
    cases = 0
    for spec in specs:
        cm = threshold_machine(spec)

        def build(calls, cm=cm):
            return ContinuousMachine(recorded(cm.machine, calls), cm.modulus)

        for phi in rng.sample(oracles, 9):
            for candidate in rng.sample(oracles, 4):
                cases += assert_member_like_scan(build, phi, candidate,
                                                 range(3))
    assert cases >= 2000


@pytest.mark.parametrize("point", [Fraction(0), Fraction(7, 5),
                                   Fraction(1, 10 ** 6)])
def test_in_F_M_matches_scan_on_inversion(point):
    cm = inversion_machine()
    questions = (Fraction(1), Fraction(1, 8), Fraction(1, 2 ** 30))

    def first(calls):
        return use_first(ContinuousMachine(recorded(cm.machine, calls),
                                           cm.modulus))

    def raw(calls):
        return recorded(cm.machine, calls)

    for phi in (exact_name(point), grid_name(point)):
        settled = {q: evaluate(use_first(cm), phi, q, 24) for q in questions}
        last = {q: cm.machine(phi, 24, q) for q in questions}
        candidates = (lambda q: getattr(settled[q], "value", None),
                      last.get, constant_oracle(Fraction(99)))
        for candidate in candidates:
            for build in (first, raw):
                assert_member_like_scan(build, phi, candidate, questions)


def test_in_F_M_resumes_after_a_wrong_answer():
    # Multivalued: answers 1 at effort 0 and 7 at effort 3, silent elsewhere.
    def machine(phi, effort, question):
        return {0: 1, 3: 7}.get(effort)

    phi, candidate = constant_oracle(0), constant_oracle(7)
    assert in_F_M(machine, phi, candidate, ["q"], 5) == (True, ())
    assert in_F_M(machine, phi, candidate, ["q"], 2) == (False, ())
    assert in_F_M(machine, phi, constant_oracle(1), ["q"], 5) == (True, ())
    assert_member_like_scan(lambda calls: recorded(machine, calls), phi,
                            candidate, ["q", "r"])


# ---------------------------------------------------------------------------
# use_first


def test_use_first_on_already_monotone_machine_is_pointwise_equal():
    mm = monotone_threshold(ThresholdSpec(0, 2, base=1, spread=3, salt=0))
    first = use_first(mm)
    for phi in all_small_oracles()[:12]:
        for effort in range(8):
            for question in range(3):
                assert (first.machine(phi, effort, question)
                        == mm.machine(phi, effort, question))


def test_use_first_success_at_zero_changes_nothing():
    cm = ContinuousMachine(lambda phi, n, q: "a", lambda phi, n, q: [])
    first = use_first(cm)
    for effort in range(5):
        assert first.machine(constant_oracle(0), effort, "q") == "a"
        assert first.modulus(constant_oracle(0), effort, "q") == []


def test_use_first_modulus_on_failure_example():
    # The monotonized modulus is the one-point list at every effort, for
    # both oracles over the one-point question alphabet.
    first = use_first(failure_example())
    for value in (False, True):
        phi = constant_oracle(value)
        for effort in range(9):
            assert first.modulus(phi, effort, STAR) == [STAR]


def test_last_element_modulus_violates_modulus_property():
    cm = failure_example()
    first = use_first(cm)
    broken = last_element_modulus(cm)
    phi_false = constant_oracle(False)
    phi_true = constant_oracle(True)
    # At effort 1 the kept term is the empty list for the all-False oracle,
    # so the two oracles agree on it vacuously, yet the monotonized machine
    # answers differently: the modulus property fails.
    assert broken(phi_false, 1, STAR) == []
    assert restriction_eq(phi_false, phi_true, broken(phi_false, 1, STAR))
    assert first.machine(phi_false, 1, STAR) != first.machine(phi_true, 1, STAR)
    # Self-modulation fails as well: agreement on the kept term does not force
    # equal kept terms.
    assert broken(phi_true, 1, STAR) == [STAR]
    assert broken(phi_false, 1, STAR) != broken(phi_true, 1, STAR)


def test_use_first_monotone_and_terminating_on_random_machines():
    rng = random.Random(7)
    oracles = all_small_oracles()
    for _ in range(25):
        cm = threshold_machine(random_threshold_spec(rng))
        first = use_first(cm)
        for phi in rng.sample(oracles, 4):
            for question in range(3):
                reference = scan_first_success(cm.machine, phi, question, 16)
                got = evaluate(first, phi, question, 16, "linear")
                assert got == reference
                if reference is None:
                    continue
                value, effort = reference
                stable = first.modulus(phi, effort, question)
                for later in (effort + 1, effort + 3, 16):
                    assert first.machine(phi, later, question) == value
                    assert first.modulus(phi, later, question) == stable


# ---------------------------------------------------------------------------
# derive_modulus_machine


@pytest.mark.parametrize("combinator", [
    use_first, derive_modulus_machine,
    lambda machine: machine_to_associate(machine, 0, 0),
    pytest.param(lambda machine: compose_monotone(machine, inversion_machine(), 0),
                 id="compose_monotone_outer"),
    pytest.param(lambda machine: compose_monotone(inversion_machine(), machine, 0),
                 id="compose_monotone_inner"),
])
def test_combinators_need_a_modulus(combinator):
    with pytest.raises(ValueError, match="needs a machine with a modulus$"):
        combinator(only_at_three)


def test_derive_modulus_machine_of_silent_machine_is_silent():
    cm = ContinuousMachine(lambda phi, n, q: None, lambda phi, n, q: [])
    derived = derive_modulus_machine(cm)
    assert derived.machine(constant_oracle(0), 5, "q") is None


def test_derive_modulus_machine_on_inversion():
    cm = use_first(inversion_machine())
    derived = derive_modulus_machine(cm)
    phi = exact_name(Fraction(2))
    certificate = derived.machine(phi, 0, Fraction(1))
    assert certificate == (Fraction(1), Fraction(1, 2))
    # Perturbing the name anywhere off the certificate leaves the output alone.
    from contmach import override_oracle
    perturbed = override_oracle(phi, [(Fraction(1, 8), Fraction(17))])
    assert cm.machine(perturbed, 0, Fraction(1)) == cm.machine(phi, 0, Fraction(1))


def test_derive_modulus_machine_certificates_exhaustively():
    alpha = naturals_alphabet()
    oracles = two_point_oracles()
    machine = table_machine(31415)
    minimal = brute_force_min_modulus(machine, oracles, 2, alpha)
    cm = ContinuousMachine(machine, minimal)
    derived = derive_modulus_machine(use_first(cm))
    for phi in oracles:
        for effort in range(4):
            certificate = derived.machine(phi, effort, 0)
            if certificate is None:
                continue
            for psi in oracles:
                if restriction_eq(phi, psi, certificate):
                    assert (use_first(cm).machine(psi, effort, 0)
                            == use_first(cm).machine(phi, effort, 0))


# ---------------------------------------------------------------------------
# compose_monotone


def identity_lift():
    # Echo the intermediate oracle: answers at every effort.
    return MonotoneMachine(lambda phi, n, q: phi(q), lambda phi, n, q: [q])


def test_compose_with_identity_outer_equals_inner():
    inner = monotone_threshold(ThresholdSpec(0, 1, base=1, spread=2, salt=1))
    composite = compose_monotone(identity_lift(), inner, intermediate_default=-1)
    for phi in all_small_oracles()[:9]:
        for effort in range(6):
            for question in range(3):
                assert (composite.machine(phi, effort, question)
                        == inner.machine(phi, effort, question))


def test_compose_with_silent_inner():
    silent = MonotoneMachine(lambda phi, n, q: None, lambda phi, n, q: [q])
    asking_outer = identity_lift()
    composite = compose_monotone(asking_outer, silent, intermediate_default=0)
    assert composite.machine(constant_oracle(1), 5, 2) is None

    # An outer that never asks anything defers to the default-padded oracle.
    oblivious_outer = MonotoneMachine(lambda phi, n, q: phi(q) + 100,
                                       lambda phi, n, q: [])
    deferred = compose_monotone(oblivious_outer, silent, intermediate_default=0)
    assert deferred.machine(constant_oracle(1), 0, 2) == 100


def test_compose_alignment_rejected():
    inner = MonotoneMachine(lambda phi, n, q: phi(q), lambda phi, n, q: [q],
                             in_space="a_names", out_space="b_names")
    outer = MonotoneMachine(lambda phi, n, q: phi(q), lambda phi, n, q: [q],
                             in_space="c_names", out_space="d_names")
    with pytest.raises(ValueError):
        compose_monotone(outer, inner, intermediate_default=0)


def test_compose_preserves_monotone_invariants():
    rng = random.Random(11)
    oracles = all_small_oracles()
    for _ in range(10):
        inner = monotone_threshold(random_threshold_spec(rng, vary=False))
        outer = monotone_threshold(random_threshold_spec(rng, vary=False))
        composite = compose_monotone(outer, inner, intermediate_default=0)
        for phi in rng.sample(oracles, 3):
            for question in range(3):
                for effort in range(6):
                    value = composite.machine(phi, effort, question)
                    if value is None:
                        continue
                    stable = composite.modulus(phi, effort, question)
                    for later in (effort + 1, 6):
                        assert composite.machine(phi, later, question) == value
                        assert composite.modulus(phi, later, question) == stable
                    break


def test_modulus_soundness_and_self_modulation_exhaustive():
    # Over every pair of the 27 small oracles: agreement on the modulus list
    # forces equal machine outputs and equal modulus lists.
    specs = [ThresholdSpec(0, 1, base=1, spread=2, salt=1, vary=True),
             ThresholdSpec(2, 0, base=0, spread=3, salt=2, vary=True,
                           dead_stride=4)]
    machines = []
    for spec in specs:
        cm = threshold_machine(spec)
        machines.append(cm)
        machines.append(use_first(cm))
    inner = monotone_threshold(ThresholdSpec(1, 2, base=1, spread=2, salt=1))
    outer = monotone_threshold(ThresholdSpec(0, 1, base=0, spread=2, salt=2))
    machines.append(compose_monotone(outer, inner, intermediate_default=0))

    oracles = all_small_oracles()
    for cm in machines:
        for phi in oracles:
            for effort in (0, 1, 3):
                for question in (0, 2):
                    needed = cm.modulus(phi, effort, question)
                    output = cm.machine(phi, effort, question)
                    for psi in oracles:
                        if restriction_eq(phi, psi, needed):
                            assert cm.machine(psi, effort, question) == output
                            assert cm.modulus(psi, effort, question) == needed


def test_composite_answers_at_the_later_stage_threshold():
    # Spread 1 fixes each stage's threshold, so the composition rule is
    # known: the composite first answers at the later of the two, with the
    # outer value on the inner answers, and never where a question on the
    # outer list (0, then 0 and 1) is one the inner stage never answers,
    # which dead_stride makes question 0 wherever phi(2) is 0.
    for t_outer, t_inner in ((0, 0), (1, 4), (4, 1), (3, 3)):
        outer = ThresholdSpec(0, 1, base=t_outer, spread=1, salt=1)
        inner = ThresholdSpec(2, 0, base=t_inner, spread=1, salt=2,
                              dead_stride=4)
        composite = compose_monotone(use_first(threshold_machine(outer)),
                                     use_first(threshold_machine(inner)), 0)
        settled = max(t_outer, t_inner)
        for phi in all_small_oracles():
            for question in range(3):
                result = evaluate(composite, phi, question, 6, "linear")
                if phi(2) == 0:
                    assert result is None
                    continue
                watched = (phi(0) + 2 * 1) % 3  # the inner answer to 1
                assert result == ((watched + question) % 3, settled)
                assert evaluate(composite, phi, question, settled - 1,
                                "linear") is None


# ---------------------------------------------------------------------------
# Settling: evaluate's one-pass path for use_first and compose_monotone


def corpus_names(points):
    return [name(point) for point in points for name in (exact_name, grid_name)]


NEAR_ZERO = (Fraction(1, 10 ** 6), Fraction(0))
FAR_NAMES = corpus_names(p for p in INVERSION_POINTS if p not in NEAR_ZERO)
NEAR_NAMES = corpus_names(NEAR_ZERO)
CAPS = {"linear": (0, 3, 24), "powers_of_two": (0, 100, 2 ** 12)}
EPSILONS = (Fraction(1), Fraction(1, 2 ** 30))


def assert_settles_like_scan(mm, names, questions, caps=CAPS):
    twin = scan_twin(mm)
    for schedule, schedule_caps in caps.items():
        for cap in schedule_caps:
            for phi in names:
                for question in questions:
                    assert (evaluate(mm, phi, question, cap, schedule)
                            == evaluate(twin, phi, question, cap, schedule)), \
                        (schedule, cap, question)


def test_settle_matches_scan_use_first_inversion():
    assert_settles_like_scan(use_first(inversion_machine()),
                             FAR_NAMES + NEAR_NAMES,
                             EPSILONS + (Fraction(1, 1024),))


def test_settle_matches_scan_use_first_sign():
    assert_settles_like_scan(use_first(sign_machine()),
                             corpus_names(SIGN_POINTS), (0, 3, 12))


@pytest.mark.parametrize("depth, near_caps", [
    (2, {"linear": (0, 3, 24), "powers_of_two": (0, 100)}),
    (3, {"linear": (0, 3, 8), "powers_of_two": (0, 20)}),
    (4, {"linear": (0, 3, 6), "powers_of_two": (0, 8)}),
])
def test_settle_matches_scan_inversion_chains(depth, near_caps):
    # The scan's cost multiplies per stage and grows steeply with the cap on
    # names of 0 and of 1e-6 (first answer at effort 20): small caps there.
    chain = composite_chain(depth)
    assert_settles_like_scan(chain, FAR_NAMES, EPSILONS)
    assert_settles_like_scan(chain, NEAR_NAMES, EPSILONS, near_caps)


def test_settle_matches_scan_kleenean_to_bool_after_sign():
    composite = compose_monotone(kleenean_to_bool_machine(),
                                 use_first(sign_machine()), OPT_NONE)
    assert_settles_like_scan(composite, corpus_names(SIGN_POINTS), (STAR,),
                             {"linear": (0, 3, 24), "powers_of_two": (0, 100)})


def test_settle_matches_scan_threshold_families():
    rng = random.Random(23)
    names = all_small_oracles()
    caps = {"linear": (0, 2, 7), "powers_of_two": (0, 3, 8)}
    for _ in range(12):
        first = use_first(threshold_machine(random_threshold_spec(
            rng, allow_dead=True)))
        # Monotone thresholds without a settle of their own, as either
        # stage, and dead questions the outer machine may need.
        inner = monotone_threshold(random_threshold_spec(rng, vary=False,
                                                         allow_dead=True))
        for mm in (first, compose_monotone(first, inner, 0),
                   compose_monotone(inner, first, 0)):
            assert_settles_like_scan(mm, names, range(3), caps)
            assert_records_encode_their_lists(mm, names, range(3),
                                              caps["linear"])


def test_settle_empty_and_zero_caps():
    calls = [0, 0]
    first = use_first(counting_machine(ContinuousMachine(
        step_machine(0), lambda phi, n, q: []), calls))
    phi = constant_oracle(0)
    assert evaluate(first, phi, "q", -1, "linear") is None
    assert calls[0] == 0
    for schedule in ("linear", "powers_of_two"):
        assert evaluate(first, phi, "q", 0, schedule) == ("a", 0)
        assert evaluate(first, phi, "q", -1, schedule) is None
        assert evaluate(scan_twin(first), phi, "q", -1, schedule) is None
        result, trace = evaluate_traced(first, phi, "q", -1, schedule)
        assert result is None and trace["attempts"] == []
    late = use_first(ContinuousMachine(step_machine(1), lambda phi, n, q: []))
    assert evaluate(late, phi, "q", 0, "linear") is None
    assert evaluate(late, phi, "q", 0, "powers_of_two") is None


def test_settle_respects_powers_of_two_cap_between_powers():
    # The schedule for cap 100 stops at 64: an answer first given at 80 is
    # beyond it, although 80 <= 100.
    first = use_first(ContinuousMachine(step_machine(80), lambda phi, n, q: []))
    phi = constant_oracle(0)
    assert evaluate(first, phi, "q", 100, "powers_of_two") is None
    assert evaluate(first, phi, "q", 128, "powers_of_two") == ("a", 128)
    assert evaluate(first, phi, "q", 100, "linear") == ("a", 80)


def test_settle_raw_call_counts():
    calls = [0, 0]
    first = use_first(counting_machine(inversion_machine(), calls))
    assert evaluate(first, exact_name(Fraction(0)), Fraction(1, 8), 1024,
                    "linear") is None
    assert calls[0] == 1025

    calls = [0, 0]
    result = evaluate(composite_chain(4, calls), exact_name(Fraction(1, 10 ** 6)),
                      Fraction(1, 2 ** 30), 2 ** 20, "powers_of_two")
    assert result is not None
    assert calls[0] < 1000
    # Exact raw machine and modulus calls: an intermediate question settled
    # twice would raise them, and so would a composite's first answer
    # scanning the outer stage again instead of reading the modulus off its
    # record.
    for depth, expected in ((1, [21, 0]), (2, [43, 1]), (3, [127, 43]),
                            (4, [171, 66]), (5, [299, 152]), (6, [365, 197])):
        calls = [0, 0]
        assert evaluate(composite_chain(depth, calls),
                        exact_name(Fraction(1, 10 ** 6)), Fraction(1, 2 ** 30),
                        2 ** 20, "powers_of_two") is not None
        assert calls == expected, depth


# ---------------------------------------------------------------------------
# evaluate_traced renders evaluate's result


def only_at_three(phi, effort, question):
    # Not monotone: answers at effort 3 and nowhere else.
    return "a" if effort == 3 else None


def assert_traced_like_attempt_loop(machine_like, points, caps, schedule):
    for point in points:
        phi = exact_name(point)
        for cap in caps:
            result, trace = evaluate_traced(machine_like, phi, Fraction(1, 8),
                                            cap, schedule)
            expected = traced_by_attempts(machine_like, phi, Fraction(1, 8),
                                          cap, schedule)
            assert (result, trace) == expected, (point, cap)
            assert list(trace) == list(expected[1])
            assert all(list(got) == list(want) for got, want
                       in zip(trace["attempts"], expected[1]["attempts"]))


@pytest.mark.parametrize("machine_like, points", [
    (only_at_three, (Fraction(0),)),
    (ContinuousMachine(only_at_three, lambda phi, n, q: [n, q]), (Fraction(0),)),
    (use_first(inversion_machine()), (Fraction(0), Fraction(7, 5))),
    (composite_chain(2), (Fraction(7, 5), Fraction(1, 10 ** 6))),
])
@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
def test_evaluate_traced_matches_attempt_loop(machine_like, points, schedule):
    assert_traced_like_attempt_loop(machine_like, points, (-1, 0, 5, 64),
                                    schedule)


@pytest.mark.parametrize("depth, points", [
    (2, (Fraction(0),)),
    (3, (Fraction(0), Fraction(7, 5), Fraction(1, 10 ** 6))),
])
@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
def test_evaluate_traced_matches_attempt_loop_on_chains(depth, points, schedule):
    # On 0 the reference's per-attempt composite modulus alone takes seconds
    # at cap 64.
    assert_traced_like_attempt_loop(composite_chain(depth), points,
                                    (-1, 0, 5, 16), schedule)


@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
def test_composite_settles_a_listed_question_the_outer_stage_never_reads(
        schedule):
    # The outer stage is oblivious and self-modulating: it answers "a" from
    # effort 1 and lists 1/3 without ever reading it, so the composite's
    # record settles 1/3 on the inner stage although the padded oracle was
    # never asked it.  On 7/5 the inner stage answers 1/3 at effort 0; on 0
    # it never does, so the composite never answers.
    outer = use_first(ContinuousMachine(
        lambda phi, n, q: "a" if n >= 1 else None,
        lambda phi, n, q: [Fraction(1, 3)]))
    composite = compose_monotone(outer, use_first(inversion_machine()),
                                 Fraction(0))
    assert_traced_like_attempt_loop(composite, (Fraction(7, 5), Fraction(0)),
                                    (8,), schedule)
    for point, expected in ((Fraction(7, 5), ("a", 1)), (Fraction(0), None)):
        assert evaluate(composite, exact_name(point), Fraction(1, 8), 8,
                        schedule) == expected, point


def fresh_questions_modulus(phi, effort, question):
    # New Fraction objects on every call, with values that change with the
    # effort: once a list is dropped, the next call's objects may take the
    # ids its objects had.
    return [Fraction(effort, 3), Fraction(effort + 1, 7), Fraction(2 * effort, 5)]


@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
def test_evaluate_traced_with_fresh_questions_every_attempt(schedule):
    # The trace's encode memo is keyed by identity, so an id reused within
    # one trace would print an earlier question's text.
    machine_like = ContinuousMachine(step_machine(40), fresh_questions_modulus)
    assert_traced_like_attempt_loop(machine_like, (Fraction(0),), (16, 64),
                                    schedule)


def test_evaluate_traced_reuses_texts_of_an_identical_prefix_only():
    # A machine without a settle has each attempt's list encoded afresh,
    # through the trace's memo keyed by object identity.  1, Fraction(1) and
    # True are equal but print as 1, "1/1" and true, so texts matched by ==
    # would print an earlier object's text; so would texts kept from an
    # earlier attempt for a list that since shrank, was reordered or changed
    # in place.
    one, whole, true, half = 1, Fraction(1), True, Fraction(1, 2)
    grown = [one]
    lists = [
        lambda: [one],
        lambda: [one, half],  # extends by identity
        lambda: [whole, half, true],  # an equal prefix of other objects
        lambda: [whole, half, true, one],  # extends by identity
        lambda: [true, half],  # shrinks
        lambda: [half, true],  # reordered
        lambda: [half],  # shrinks to an identical prefix
        lambda: (half, true, one, whole),  # grows again, as a tuple
        lambda: grown,
        lambda: grown.append(whole) or grown,  # the same list, grown in place
        lambda: grown.__setitem__(0, true) or grown,  # and changed in place
    ]
    seen = []

    def modulus(phi, effort, question):
        listed = lists[effort]()
        seen.append(list(listed))
        return listed

    machine_like = ContinuousMachine(lambda phi, effort, question: None, modulus)
    result, trace = evaluate_traced(machine_like, constant_oracle(0), "q",
                                    len(lists) - 1)
    assert result is None and len(seen) == len(lists)
    texts = [attempt["modulus"] for attempt in trace["attempts"]]
    expected = [[encode_value(needed) for needed in listed] for listed in seen]
    # json.dumps tells 1 from true, which == does not.
    assert json.dumps(texts) == json.dumps(expected)


def test_use_first_records_encode_their_lists():
    assert_records_encode_their_lists(use_first(inversion_machine()),
                                      FAR_NAMES + NEAR_NAMES, EPSILONS,
                                      (0, 5, 24))
    assert_records_encode_their_lists(use_first(sign_machine()),
                                      corpus_names(SIGN_POINTS), (0, 3, 12),
                                      (0, 5, 24))


def test_composite_records_encode_their_lists():
    assert_records_encode_their_lists(composite_chain(2), FAR_NAMES + NEAR_NAMES,
                                      EPSILONS, (0, 5, 16))
    assert_records_encode_their_lists(composite_chain(3), FAR_NAMES + NEAR_NAMES,
                                      EPSILONS, (0, 5, 8))
    assert_records_encode_their_lists(
        compose_monotone(kleenean_to_bool_machine(), use_first(sign_machine()),
                         OPT_NONE), corpus_names(SIGN_POINTS), (STAR,), (0, 5, 24))


def test_composite_records_encode_their_lists_on_re_settled_lists():
    # On -1/131072 some intermediate questions first answer above an effort
    # whose outer list needs them, so both composites settle their outer
    # stage again: the counts show the branch was taken.  The helper settles
    # the chain afresh for each of its three orders of asks.
    settles = [0, 0, 0]

    def stage(index):
        first = use_first(inversion_machine())
        return dataclasses.replace(
            first, settle=counted(first.settle, settles, index))

    chain = compose_monotone(stage(2), compose_monotone(stage(1), stage(0),
                                                        Fraction(0)),
                             Fraction(0))
    assert_records_encode_their_lists(chain, [exact_name(Fraction(-1, 131072))],
                                      (Fraction(1),), (24,))
    assert settles[0] == 3 and settles[1] > 3 and settles[2] > 3


def holds_a_list(record):
    return any(isinstance(held, list) for held in gc.get_referents(record))


def test_an_untraced_evaluate_makes_no_modulus_list():
    # Records hold what they were settled from and make their lists on the
    # first ask.  An untraced evaluate asks no use_first record of the inner
    # stage and no composite record; it asks an outer record for its list
    # only where that record answers, to find the composite's effort.
    def kept(mm, records):
        def settle(phi, cap):
            settled = mm.settle(phi, cap)

            def record(question):
                records.append(settled(question))
                return records[-1]

            return record

        return dataclasses.replace(mm, settle=settle)

    inners, outers, composites = [], [], []
    inner = kept(use_first(inversion_machine()), inners)
    outer = kept(use_first(inversion_machine()), outers)
    composite = kept(compose_monotone(outer, inner, Fraction(0)), composites)
    for point in (Fraction(0), Fraction(7, 5), Fraction(-1, 131072)):
        for records in (inners, outers, composites):
            records.clear()
        evaluate(composite, exact_name(point), Fraction(1, 8), 24)
        evaluate(inner, exact_name(point), Fraction(1, 8), 24)
        assert inners and outers and composites
        assert not any(map(holds_a_list, inners + composites)), point
        assert [holds_a_list(record) for record in outers] == [
            record.found is not None for record in outers], point
        for record in inners + composites:
            record.modulus(24)
        assert all(map(holds_a_list, inners)), point
        assert not any(map(holds_a_list, composites)), point


def encode_value_calls(monkeypatch):
    calls = [0]
    monkeypatch.setattr("contmach.machines.encode_value",
                        counted(encode_value, calls))
    return calls


@pytest.mark.parametrize("depth, encodings", [(1, 17), (2, 289)])
def test_a_record_encodes_each_entry_once_in_either_order(depth, encodings):
    # A record extends its texts as n grows, so asking it every effort up to
    # 16 on 0, rising or falling, encodes each entry of its longest list
    # once; encoding the whole list on each ask would make 153 and 1,785.
    mm = composite_chain(depth)
    for efforts in (range(17), range(16, -1, -1)):
        calls = [0]
        encode = counted(repr, calls)
        record = mm.settle(exact_name(0), 16)(Fraction(1, 8))
        for n in efforts:
            record.modulus(n, encode)
        assert calls == [encodings], efforts


def test_untraced_evaluate_encodes_nothing(monkeypatch):
    calls = encode_value_calls(monkeypatch)
    for mm in (use_first(inversion_machine()), composite_chain(2),
               composite_chain(3)):
        for point in (Fraction(0), Fraction(7, 5), Fraction(-1, 131072)):
            evaluate(mm, exact_name(point), Fraction(1), 24, "linear")
    assert calls == [0]


def test_a_trace_encodes_each_question_object_once(monkeypatch):
    # One encoder serves every record of the trace: its 1,785 entries are 17
    # distinct dyadic questions, one shared object each, so 17 encodings.
    calls = encode_value_calls(monkeypatch)
    result, trace = evaluate_traced(composite_chain(2), exact_name(Fraction(0)),
                                    Fraction(1, 8), 16, "linear")
    assert result is None
    entries = [text for attempt in trace["attempts"]
               for text in attempt["modulus"]]
    assert len(entries) == 1785 and len(set(entries)) == 17
    assert calls == [17]


# The grid name of 0 answers every question like its exact name.
TRACE_NAMES = [exact_name(Fraction(0))] + corpus_names((Fraction(7, 5),
                                                         Fraction(1, 10 ** 6)))


@pytest.mark.parametrize("mm, question, caps", [
    (use_first(inversion_machine()), Fraction(1, 8), (-1, 0, 5, 16, 64)),
    (use_first(sign_machine()), 3, (-1, 0, 5, 16, 64)),
    (composite_chain(2), Fraction(1, 8), (-1, 0, 5, 16)),
    (composite_chain(3), Fraction(1, 8), (-1, 0, 5, 16)),
    (compose_monotone(kleenean_to_bool_machine(), use_first(sign_machine()),
                      OPT_NONE), STAR, (-1, 0, 5, 16, 64)),
    # A stage without a settle of its own, as either stage.
    (compose_monotone(use_first(inversion_machine()),
                      scan_twin(use_first(inversion_machine())), Fraction(0)),
     Fraction(1, 8), (-1, 0, 5, 16)),
    (compose_monotone(scan_twin(use_first(inversion_machine())),
                      use_first(inversion_machine()), Fraction(0)),
     Fraction(1, 8), (-1, 0, 5, 16)),
])
@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
def test_settled_modulus_matches_per_effort_modulus(mm, question, caps, schedule):
    # The twin has no settle, so its trace calls the per-effort modulus at
    # every attempt.
    twin = scan_twin(mm)
    for phi in TRACE_NAMES:
        for cap in caps:
            assert (evaluate_traced(mm, phi, question, cap, schedule)
                    == evaluate_traced(twin, phi, question, cap, schedule)), cap


def test_evaluate_traced_raw_call_count():
    # One settle serves the answer and every attempt's modulus: 65 raw calls,
    # where a second settle for the moduli would make 130.
    calls = [0, 0]
    first = use_first(counting_machine(inversion_machine(), calls))
    result, trace = evaluate_traced(first, exact_name(Fraction(0)),
                                    Fraction(1, 8), 64, "linear")
    assert result is None
    assert len(trace["attempts"]) == 65
    assert calls[0] == 65

    calls = [0, 0]
    result, trace = evaluate_traced(composite_chain(3, calls),
                                    exact_name(Fraction(0)), Fraction(1, 8),
                                    16, "linear")
    assert result is None
    assert len(trace["attempts"]) == 17
    assert calls[0] == 595


@pytest.mark.parametrize("depth, cap, expected", [(2, 32, 1122), (3, 16, 595),
                                                   (4, 6, 154)])
def test_divergent_composite_trace_makes_only_the_settles_calls(depth, cap,
                                                                expected):
    # On 0 no intermediate question is ever answered, so every attempt's
    # modulus is read off the outer records of the one settle: the trace
    # makes exactly evaluate's raw machine calls, and one raw modulus call
    # per raw machine call.
    phi = exact_name(Fraction(0))
    evaluated, traced = [0, 0], [0, 0]
    assert evaluate(composite_chain(depth, evaluated), phi, Fraction(1, 8), cap,
                    "linear") is None
    result, trace = evaluate_traced(composite_chain(depth, traced), phi,
                                    Fraction(1, 8), cap, "linear")
    assert result is None
    assert len(trace["attempts"]) == cap + 1
    assert evaluated[0] == traced[0] == traced[1] == expected


@pytest.mark.parametrize("twin_outer, settled, on_zero, on_seven_fifths", [
    (True, (43, 1), (578, 442), (8, 8)),
    (False, (463, 1), (4250, 1802), (8, 6)),
])
def test_composite_with_scan_stage_raw_call_counts(twin_outer, settled,
                                                   on_zero, on_seven_fifths):
    # One stage has no settle of its own and is scanned effort by effort;
    # both stages' raw machine and modulus calls are counted together.
    def composite(calls):
        outer, inner = (use_first(counting_machine(inversion_machine(), calls))
                        for _ in range(2))
        if twin_outer:
            return compose_monotone(scan_twin(outer), inner, Fraction(0))
        return compose_monotone(outer, scan_twin(inner), Fraction(0))

    calls = [0, 0]
    assert evaluate(composite(calls), exact_name(Fraction(1, 10 ** 6)),
                    Fraction(1, 2 ** 30), 2 ** 20, "powers_of_two") is not None
    assert tuple(calls) == settled
    for point, expected in ((Fraction(0), on_zero),
                            (Fraction(7, 5), on_seven_fifths)):
        calls = [0, 0]
        result, _ = evaluate_traced(composite(calls), exact_name(point),
                                    Fraction(1, 8), 16, "linear")
        assert (result is None) == (point == 0)
        assert tuple(calls) == expected, point


# ---------------------------------------------------------------------------
# brute_force_min_modulus


def test_brute_force_on_oblivious_machine_is_empty():
    machine = lambda phi, n, q: "a"
    minimal = brute_force_min_modulus(machine, two_point_oracles(), 2,
                                      naturals_alphabet())
    assert minimal(two_point_oracles()[0], 1, 0) == []


def test_brute_force_on_echo_machine_is_enumeration_prefix():
    # Watching question 1 forces the full prefix [0, 1] of the enumeration.
    machine = lambda phi, n, q: phi(1)
    minimal = brute_force_min_modulus(machine, two_point_oracles(), 2,
                                      naturals_alphabet())
    for phi in two_point_oracles():
        assert minimal(phi, 0, 0) == [0, 1]
    watching_zero = lambda phi, n, q: phi(0)
    minimal = brute_force_min_modulus(watching_zero, two_point_oracles(), 2,
                                      naturals_alphabet())
    for phi in two_point_oracles():
        assert minimal(phi, 0, 0) == [0]


def test_brute_force_on_failure_example():
    from contmach import one_point_alphabet
    cm = failure_example()
    domain = [constant_oracle(False), constant_oracle(True)]
    minimal = brute_force_min_modulus(cm.machine, domain, 1, one_point_alphabet())
    assert minimal(constant_oracle(False), 0, STAR) == [STAR]
    assert minimal(constant_oracle(True), 0, STAR) == [STAR]
    assert minimal(constant_oracle(False), 1, STAR) == []


def test_brute_force_bound_exceeded_raises():
    machine = lambda phi, n, q: phi(1)
    with pytest.raises(ModulusSearchError):
        minimal = brute_force_min_modulus(machine, two_point_oracles(), 1,
                                          naturals_alphabet())
        minimal(two_point_oracles()[0], 0, 0)
