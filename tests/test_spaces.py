import itertools
from fractions import Fraction

from _families import counted, logged
from contmach import (FiniteFunction, Kleenean, OPT_NONE, STAR,
                      booleans_alphabet, bool_to_kleenean_realizer, compose_monotone,
                      constant_oracle, discrete_space, embed_name, evaluate,
                      exact_name, extend_with_default, kleenean_from_bool,
                      kleenean_to_bool_machine, kleeneans,
                      monotonize_kleenean_name, override_oracle,
                      precompletion, rational_reals, search_translate,
                      sign_kleenean, use_first)
from contmach.spaces import (KLEENEAN_PREFIX, PRECOMPLETION_SEARCH_BOUND,
                             RATIONAL_NAME_SCALES)


def kleenean_name(prefix, tail=OPT_NONE):
    values = tuple(prefix)
    return lambda index: values[index] if index < len(values) else tail


# ---------------------------------------------------------------------------
# Discrete spaces


def test_discrete_space_names():
    space = discrete_space(booleans_alphabet())
    assert space.is_name(constant_oracle(True), True)
    assert not space.is_name(constant_oracle(False), True)
    assert space.answer_ok(True, STAR, True)
    assert not space.answer_ok(True, STAR, False)


# ---------------------------------------------------------------------------
# Rational reals


def test_rational_reals_exact_name():
    space = rational_reals()
    x = Fraction(7, 5)
    assert space.is_name(exact_name(x), x)


def test_rational_reals_rejects_systematic_overshoot():
    space = rational_reals()
    x = Fraction(1, 3)
    overshoot = lambda eps: x + 2 * eps
    assert not space.is_name(overshoot, x)
    for eps in RATIONAL_NAME_SCALES:
        assert not space.answer_ok(x, eps, overshoot(eps))


def test_rational_answer_ok_examples():
    space = rational_reals()
    assert space.answer_ok(Fraction(1, 3), Fraction(1, 10), Fraction(3, 10))
    assert space.answer_ok(Fraction(5), Fraction(0), Fraction(-999))
    assert space.answer_ok(Fraction(5), Fraction(-1), Fraction(0))
    # |1/3 - 3/10| = 1/30: inside at accuracy 1/30, outside at anything tighter.
    assert space.answer_ok(Fraction(1, 3), Fraction(1, 30), Fraction(3, 10))
    assert not space.answer_ok(Fraction(1, 3), Fraction(1, 31), Fraction(3, 10))


def test_rational_answer_separation_splice():
    # Any individually-correct answer can be spliced into any name of the
    # point without breaking namehood.
    space = rational_reals()
    x = Fraction(-3, 7)
    for eps, answer in ((Fraction(1), x + Fraction(1, 2)),
                        (Fraction(1, 8), x - Fraction(1, 16)),
                        (Fraction(1, 1024), x)):
        assert space.answer_ok(x, eps, answer)
        spliced = override_oracle(exact_name(x), [(eps, answer)])
        assert space.is_name(spliced, x)


# ---------------------------------------------------------------------------
# Kleeneans


def test_kleenean_names():
    space = kleeneans()
    assert space.is_name(constant_oracle(OPT_NONE), Kleenean.BOTTOM)
    name = kleenean_name([OPT_NONE, True, OPT_NONE, False])
    assert space.is_name(name, Kleenean.TRUE)
    assert not space.is_name(name, Kleenean.FALSE)
    assert space.answer_ok is None


def reference_kleenean_is_name(phi, point):
    # The name check as a hand-written loop over the prefix.
    for index in range(KLEENEAN_PREFIX):
        value = phi(index)
        if value is not OPT_NONE:
            return point is kleenean_from_bool(value)
    return point is Kleenean.BOTTOM


def test_kleenean_name_check_matches_hand_written_loop():
    edge = [OPT_NONE] * (KLEENEAN_PREFIX - 1)
    prefixes = list(kleenean_prefixes()) + [edge + [True], edge + [OPT_NONE, False]]
    assert len(prefixes) == 121 + 2
    space = kleeneans()
    for prefix in prefixes:
        name = kleenean_name(prefix)
        for point in Kleenean:
            got_asked, want_asked = [], []
            got = space.is_name(logged(name, got_asked), point)
            want = reference_kleenean_is_name(logged(name, want_asked), point)
            assert got == want, (prefix, point)
            assert got_asked == want_asked


def test_sign_kleenean_values():
    assert sign_kleenean(Fraction(3)) is Kleenean.TRUE
    assert sign_kleenean(Fraction(-1, 9)) is Kleenean.FALSE
    assert sign_kleenean(0) is Kleenean.BOTTOM
    assert kleenean_from_bool(True) is Kleenean.TRUE


def test_monotonize_first_hit_rule():
    name = kleenean_name([OPT_NONE, True, OPT_NONE, False])
    monotone = monotonize_kleenean_name(name)
    assert [monotone(i) for i in range(5)] == [OPT_NONE, True, True, True, True]
    space = kleeneans()
    assert space.is_name(monotone, Kleenean.TRUE)


def test_monotonize_idempotent_on_monotone_names():
    name = kleenean_name([OPT_NONE, OPT_NONE, False], tail=False)
    once = monotonize_kleenean_name(name)
    twice = monotonize_kleenean_name(once)
    for index in range(12):
        assert once(index) == name(index)
        assert twice(index) == once(index)


def test_monotonize_preserves_bottom():
    bottom = constant_oracle(OPT_NONE)
    monotone = monotonize_kleenean_name(bottom)
    assert all(monotone(i) is OPT_NONE for i in range(10))


# ---------------------------------------------------------------------------
# Booleans as Kleeneans


def test_bool_to_kleenean_forward():
    forward = bool_to_kleenean_realizer()
    phi = constant_oracle(True)
    produced = lambda index: forward.machine(phi, 0, index)
    assert kleeneans().is_name(produced, Kleenean.TRUE)
    # Every entry reads the Boolean name's one question.
    assert all(forward.modulus(phi, effort, index) == [STAR]
               for effort in (0, 3) for index in (0, 5))


def test_kleenean_to_bool_backward():
    backward = kleenean_to_bool_machine()
    assert evaluate(backward, constant_oracle(OPT_NONE), STAR, 50) is None
    name = kleenean_name([OPT_NONE, OPT_NONE, False], tail=False)
    result = evaluate(backward, name, STAR, 10)
    assert result == (False, 2)
    assert backward.machine(name, 1, STAR) is None


def test_backward_forward_round_trip_and_composition():
    forward = bool_to_kleenean_realizer()
    backward = kleenean_to_bool_machine()
    composite = compose_monotone(backward, forward, intermediate_default=OPT_NONE)
    for value in (False, True):
        phi = constant_oracle(value)
        # Direct composition by hand: materialize the intermediate name.
        intermediate = lambda index: forward.machine(phi, 0, index)
        direct = evaluate(backward, intermediate, STAR, 8)
        composed = evaluate(composite, phi, STAR, 8)
        assert direct is not None and composed is not None
        assert direct.value == composed.value == value


def test_backward_forward_after_monotonization():
    forward = use_first(bool_to_kleenean_realizer())
    backward = use_first(kleenean_to_bool_machine())
    composite = compose_monotone(backward, forward, intermediate_default=OPT_NONE)
    for value in (False, True):
        result = evaluate(composite, constant_oracle(value), STAR, 8)
        assert result is not None and result.value == value


# ---------------------------------------------------------------------------
# Precompletion


def test_embed_then_search_is_identity_at_effort_zero():
    machine = search_translate()
    phi = extend_with_default(FiniteFunction(((0, "a"), (1, "b"))), "z")
    embedded = embed_name(phi)
    for question in (0, 1, 5):
        assert machine.machine(embedded, 0, question) == phi(question)


def test_search_threshold_column():
    def staged(pair):
        stage, question = pair
        if question == "q" and stage >= 3:
            return "late"
        return OPT_NONE

    machine = search_translate()
    assert machine.machine(staged, 2, "q") is None
    assert machine.machine(staged, 3, "q") == "late"
    assert machine.modulus(staged, 3, "q") == [(0, "q"), (1, "q"), (2, "q"), (3, "q")]


def test_search_all_none_column_diverges():
    machine = search_translate()
    assert evaluate(machine, constant_oracle(OPT_NONE), "q", 30) is None


def test_precompleted_space_membership():
    space = precompletion(discrete_space(booleans_alphabet()))
    phi = constant_oracle(True)
    assert space.is_name(embed_name(phi), True)
    assert not space.is_name(embed_name(phi), False)
    assert not space.is_name(constant_oracle(OPT_NONE), True)
    assert space.answer_ok is None
    assert space.question_alphabet.enumerate(0) == (0, STAR)


def test_precompleted_rationals_with_stalled_stages():
    space = precompletion(rational_reals())
    x = Fraction(2, 3)
    base = exact_name(x)

    def staged(pair):
        stage, question = pair
        return base(question) if stage >= 2 else OPT_NONE

    assert space.is_name(staged, x)


def test_precompletion_search_bound_is_the_stage_count():
    x = Fraction(2, 3)
    base = exact_name(x)

    def settled_at(first_stage):
        def staged(pair):
            stage, question = pair
            return base(question) if stage >= first_stage else OPT_NONE
        return staged

    assert PRECOMPLETION_SEARCH_BOUND == 64
    space = precompletion(rational_reals())
    assert space.is_name(settled_at(63), x)
    assert not space.is_name(settled_at(64), x)


# ---------------------------------------------------------------------------
# Search machines against their hand-written form


def scan_search(key):
    # Independent reference: the search written out as machine and modulus.
    def machine(phi, effort, question):
        for step in range(effort + 1):
            value = phi(key(step, question))
            if value is not OPT_NONE:
                return value
        return None

    def modulus(phi, effort, question):
        consulted = []
        for step in range(effort + 1):
            consulted.append(key(step, question))
            if phi(key(step, question)) is not OPT_NONE:
                break
        return consulted

    return machine, modulus


def kleenean_prefixes(max_length=4):
    for length in range(max_length + 1):
        yield from itertools.product((OPT_NONE, True, False), repeat=length)


def assert_search_matches_scan(machine_like, key, names, questions):
    reference = scan_search(key)
    for name in names:
        for effort in range(6):
            for question in questions:
                for got_fn, want_fn in zip((machine_like.machine,
                                            machine_like.modulus), reference):
                    got_calls, want_calls = [0], [0]
                    got = got_fn(counted(name, got_calls), effort, question)
                    want = want_fn(counted(name, want_calls), effort, question)
                    assert got == want, (effort, question)
                    assert got_calls[0] <= want_calls[0]


def test_kleenean_to_bool_matches_hand_written_search():
    names = [kleenean_name(prefix) for prefix in kleenean_prefixes()]
    assert_search_matches_scan(kleenean_to_bool_machine(),
                               lambda step, question: step, names, [STAR])


def test_search_translate_matches_hand_written_search():
    def staged(prefix):
        column = kleenean_name(prefix)
        return lambda pair: column(pair[0]) if pair[1] == "q" else OPT_NONE

    names = [staged(prefix) for prefix in kleenean_prefixes()]
    assert_search_matches_scan(search_translate(),
                               lambda step, question: (step, question),
                               names, ["q", "r"])
