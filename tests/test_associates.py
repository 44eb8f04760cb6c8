import itertools
import random
from fractions import Fraction

import pytest

from _families import (all_small_oracles, counting_machine,
                       monotone_threshold, random_threshold_spec,
                       threshold_machine, ThresholdSpec, traced_by_attempts)
from contmach import (Answer, ContinuousMachine, FiniteFunction, Query,
                      compose_monotone, constant_oracle, dialogue_machine,
                      dialogue_trace, evaluate, evaluate_traced, exact_name,
                      extend_with_default, grid_name, in_F_M,
                      inversion_machine, lookup, machine_to_associate,
                      monotone_machine, override_oracle, sign_machine,
                      use_first)


def constant_answer_associate(value):
    return lambda state, question: Answer(value)


def head_associate(question0):
    def associate(state, question):
        found = lookup(state, question0)
        if found is None:
            return Query((question0,))
        return Answer(found)
    return associate


def divergent_associate(question0):
    return lambda state, question: Query((question0,))


# ---------------------------------------------------------------------------
# dialogue_machine


def test_zero_query_associate():
    cm = dialogue_machine(constant_answer_associate("a"))
    assert cm.machine(constant_oracle(0), 0, "q") == "a"
    assert cm.modulus(constant_oracle(0), 0, "q") == []


def test_head_associate_two_step_dialogue():
    cm = dialogue_machine(head_associate("q0"))
    phi = constant_oracle(42)
    assert cm.machine(phi, 0, "q") is None
    assert cm.machine(phi, 1, "q") == 42
    assert cm.modulus(phi, 1, "q") == ["q0"]


def test_divergent_associate_accumulates_questions():
    cm = dialogue_machine(divergent_associate("q0"))
    phi = constant_oracle(3)
    for effort in range(6):
        assert cm.machine(phi, effort, "q") is None
        assert cm.modulus(phi, effort, "q") == ["q0"] * effort


def test_dialogue_modulus_self_modulation_by_perturbation():
    cm = dialogue_machine(head_associate("q0"))
    phi = constant_oracle(1)
    # Changing the oracle off the recorded transcript changes nothing.
    perturbed = override_oracle(phi, [("elsewhere", 99)])
    for effort in range(4):
        assert (cm.modulus(phi, effort, "q")
                == cm.modulus(perturbed, effort, "q"))
        assert (cm.machine(phi, effort, "q")
                == cm.machine(perturbed, effort, "q"))


def test_dialogue_machines_freeze_after_answering():
    cm = dialogue_machine(head_associate("q0"))
    phi = constant_oracle(42)
    for effort in range(2, 7):
        assert cm.machine(phi, effort, "q") == 42
        assert cm.modulus(phi, effort, "q") == ["q0"]


def replayed_dialogue(associate):
    # Independent reference: grow the transcript for as many rounds as there
    # is effort (an Answer freezes it), then consult once more.
    def state_after(phi, effort, question):
        state = FiniteFunction()
        for _ in range(effort):
            step = associate(state, question)
            if isinstance(step, Answer):
                break
            state = state.append_pairs(tuple((q, phi(q)) for q in step.questions))
        return state

    def machine(phi, effort, question):
        step = associate(state_after(phi, effort, question), question)
        return step.value if isinstance(step, Answer) else None

    def modulus(phi, effort, question):
        return [q for q, _ in state_after(phi, effort, question).entries]

    return machine, modulus


def counting_calls(fn, calls):
    def counted(*args):
        calls[0] += 1
        return fn(*args)
    return counted


def dialogue_fns(associate):
    cm = dialogue_machine(associate)
    return cm.machine, cm.modulus


def run_counted(make_fns, associate, phi, effort, question):
    # (machine value, modulus list), associate consultations, oracle queries.
    consulted, queried = [0], [0]
    fns = make_fns(counting_calls(associate, consulted))
    values = [fn(counting_calls(phi, queried), effort, question) for fn in fns]
    return values, consulted[0], queried[0]


def dialogue_cases():
    inverse = machine_to_associate(use_first(inversion_machine()),
                                   Fraction(0), Fraction(0))
    return [(constant_answer_associate("a"), constant_oracle(0), "q"),
            (head_associate("q0"), constant_oracle(42), "q"),
            (divergent_associate("q0"), constant_oracle(3), "q"),
            (inverse, exact_name(Fraction(2)), Fraction(1)),
            (inverse, exact_name(Fraction(0)), Fraction(1, 8))]


def test_dialogue_machine_matches_replayed_dialogue():
    # Equal values and modulus lists, never more associate consultations or
    # oracle queries than the replayed reference.
    for associate, phi, question in dialogue_cases():
        for effort in range(6):
            got, got_consulted, got_queried = run_counted(
                dialogue_fns, associate, phi, effort, question)
            want, want_consulted, want_queried = run_counted(
                replayed_dialogue, associate, phi, effort, question)
            assert got == want, (question, effort)
            assert got_consulted <= want_consulted
            assert got_queried <= want_queried


def counted_run(run, associate, phi):
    # run(dialogue machine, oracle), associate consultations, oracle queries.
    consulted, queried = [0], [0]
    cm = dialogue_machine(counting_calls(associate, consulted))
    return run(cm, counting_calls(phi, queried)), consulted[0], queried[0]


@pytest.mark.parametrize("schedule", ["linear", "powers_of_two"])
def test_dialogue_machine_settle_matches_per_effort_scan(schedule):
    # evaluate and evaluate_traced settle the dialogue in one pass; the
    # references call the per-effort machine and modulus at every attempt.
    for associate, phi, question in dialogue_cases():
        for cap in (-1, 0, 5, 64):
            pairs = [
                (lambda cm, oracle: evaluate(cm, oracle, question, cap, schedule),
                 lambda cm, oracle: evaluate(
                     monotone_machine(cm.machine, cm.modulus), oracle,
                     question, cap, schedule)),
                (lambda cm, oracle: evaluate_traced(cm, oracle, question, cap,
                                                    schedule),
                 lambda cm, oracle: traced_by_attempts(cm, oracle, question,
                                                       cap, schedule)),
            ]
            for settled, scanned in pairs:
                got, got_consulted, got_queried = counted_run(
                    settled, associate, phi)
                want, want_consulted, want_queried = counted_run(
                    scanned, associate, phi)
                assert got == want, (question, cap)
                assert got_consulted <= want_consulted
                assert got_queried <= want_queried


def test_round_trip_consults_once_per_round():
    calls = [0]
    associate = machine_to_associate(use_first(inversion_machine()),
                                     Fraction(0), Fraction(0))
    rebuilt = dialogue_machine(counting_calls(associate, calls))
    result = evaluate(rebuilt, exact_name(Fraction(0)), Fraction(1, 8), 64)
    assert result is None
    assert calls == [65]


# ---------------------------------------------------------------------------
# machine_to_associate


def oblivious_machine(value="a"):
    return ContinuousMachine(lambda phi, n, q: value, lambda phi, n, q: [])


def echo_machine(answer_on_default):
    # Answers with the oracle's value at question 0; the variant controls
    # whether the all-default oracle satisfies the answering guard.
    def machine(phi, effort, question):
        if not answer_on_default and phi(0) == 0:
            return None
        return phi(0)

    return ContinuousMachine(machine, lambda phi, n, q: [0])


def test_associate_of_oblivious_machine_answers_immediately():
    associate = machine_to_associate(oblivious_machine(), 0, 0)
    assert associate(FiniteFunction(), "q") == Answer("a")


def test_associate_queries_before_trusting_padded_data():
    # Both echo variants must ask for question 0 on the empty transcript:
    # the modulus is uncovered, so the machine's output on padded data is
    # not consulted, whether or not it would answer.
    for variant in (True, False):
        associate = machine_to_associate(echo_machine(variant), 9, 0)
        assert associate(FiniteFunction(), "q") == Query((0,))
        bound = FiniteFunction(((0, 5),))
        assert associate(bound, "q") == Answer(5)


def test_associate_case_selection_exhaustive_two_point():
    # Exhaustive over transcripts of size <= 2 with answers in {0, 5}:
    # uncovered modulus asks, covered-and-answering answers, and a covered
    # but silent machine falls back to the default question.
    entries = [(0, 0), (0, 5)]
    transcripts = [FiniteFunction(c) for n in range(3)
                   for c in itertools.product(entries, repeat=n)]
    for variant in (True, False):
        associate = machine_to_associate(echo_machine(variant), 9, 0)
        for state in transcripts:
            step = associate(state, "q")
            if state.size == 0:
                assert step == Query((0,))
                continue
            first_answer = state.entries[0][1]
            if variant or first_answer != 0:
                assert step == Answer(first_answer)
            else:
                assert step == Query((9,))


def test_associate_stalls_with_default_question_when_covered_but_silent():
    silent = ContinuousMachine(lambda phi, n, q: None, lambda phi, n, q: [])
    associate = machine_to_associate(silent, "qd", 0)
    assert associate(FiniteFunction(), "q") == Query(("qd",))
    grown = FiniteFunction((("qd", 0), ("qd", 0)))
    assert associate(grown, "q") == Query(("qd",))


def test_associate_query_preserves_modulus_order():
    cm = ContinuousMachine(lambda phi, n, q: None,
                           lambda phi, n, q: [3, 1, 2, 1])
    associate = machine_to_associate(cm, 0, 0)
    assert associate(FiniteFunction(((1, 0),)), "q") == Query((3, 2))


def test_associate_is_unchanged_by_use_first():
    # The associate walks efforts in order and stops at the first uncovered
    # modulus or the first answer, so committing to the first answer first
    # changes no consultation, even of a non-monotone machine.  That is why
    # the associate of use_first(cm) may walk cm; the third associate walks
    # use_first's own functions.
    rng = random.Random(6)
    specs = [random_threshold_spec(rng, allow_dead=True) for _ in range(10)]
    specs += [ThresholdSpec(1, 2, base=1, spread=2, salt=1, vary=True),
              ThresholdSpec(0, 1, base=0, spread=3, salt=2, dead_stride=4)]
    entries = [(q, a) for q in range(3) for a in range(3)]
    transcripts = [FiniteFunction(c) for n in range(3)
                   for c in itertools.product(entries, repeat=n)]
    for spec in specs:
        cm = threshold_machine(spec)
        raw = machine_to_associate(cm, 0, 0)
        mm = use_first(cm)
        first = machine_to_associate(mm, 0, 0)
        scanned = machine_to_associate(monotone_machine(mm.machine, mm.modulus),
                                       0, 0)
        for state in transcripts:
            for question in range(3):
                want = raw(state, question)
                assert first(state, question) == want, (spec, state)
                assert scanned(state, question) == want, (spec, state)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(7, 5), Fraction(1, 10 ** 6),
                               Fraction(-3)])
def test_inversion_dialogue_is_unchanged_by_use_first(x):
    # On 0 the dialogue never answers and runs all 48 rounds; the use_first
    # associate walks the raw machine, so both build the same transcript.
    raw = machine_to_associate(inversion_machine(), Fraction(0), Fraction(0))
    first = machine_to_associate(use_first(inversion_machine()),
                                 Fraction(0), Fraction(0))
    for eps in (Fraction(1), Fraction(1, 2 ** 30)):
        assert (dialogue_trace(first, exact_name(x), eps, 48)
                == dialogue_trace(raw, exact_name(x), eps, 48))


def test_associate_of_use_first_makes_the_raw_calls_of_the_raw_machine():
    # Each consultation reads effort E in ~E raw calls; rescanning efforts
    # 0..e through use_first at every e made 10,912 machine and 5,984
    # modulus calls here.
    for wrap in (lambda cm: cm, use_first, lambda cm: use_first(use_first(cm))):
        calls = [0, 0]
        associate = machine_to_associate(
            wrap(counting_machine(inversion_machine(), calls)),
            Fraction(0), Fraction(0))
        trace = dialogue_trace(associate, exact_name(Fraction(0)),
                               Fraction(1, 8), 32)
        assert not trace.answered and len(trace.rounds) == 32
        assert calls == [496, 528]


def scan_associate(machine_like, question_default, answer_default):
    # Reference: the associate with linear first-match scans of the
    # transcript, both in the padded oracle and in the unbound-question check.
    machine_like = getattr(machine_like, "_first_of", None) or machine_like
    machine, modulus = machine_like.machine, machine_like.modulus

    def associate(state, question):
        def padded(asked):
            for bound, answer in state.entries:
                if bound == asked:
                    return answer
            return answer_default

        bound = [q for q, _ in state.entries]
        for effort in range(state.size + 1):
            missing = [q for q in modulus(padded, effort, question)
                       if q not in bound]
            if missing:
                return Query(tuple(missing))
            value = machine(padded, effort, question)
            if value is not None:
                return Answer(value)
        return Query((question_default,))

    return associate


def test_associate_matches_scan_reference_on_threshold_families():
    rng = random.Random(11)
    specs = [random_threshold_spec(rng, allow_dead=True) for _ in range(12)]
    specs += [ThresholdSpec(1, 2, base=1, spread=2, salt=1, vary=True),
              ThresholdSpec(0, 1, base=0, spread=3, salt=2, dead_stride=4)]
    machines = [threshold_machine(spec) for spec in specs]
    machines += [monotone_threshold(spec) for spec in specs if not spec.vary]
    machines += [use_first(threshold_machine(spec)) for spec in specs]
    assert any(spec.vary for spec in specs)
    for mm in machines:
        for default_question in (0, 2):
            indexed = machine_to_associate(mm, default_question, 1)
            scanned = scan_associate(mm, default_question, 1)
            for phi in all_small_oracles():
                for question in range(3):
                    assert (dialogue_trace(indexed, phi, question, 12)
                            == dialogue_trace(scanned, phi, question, 12))


@pytest.mark.parametrize("x", [Fraction(0), Fraction(7, 5), Fraction(1, 10 ** 6)])
def test_inversion_associate_matches_scan_reference(x):
    mm = use_first(inversion_machine())
    indexed = machine_to_associate(mm, Fraction(0), Fraction(0))
    scanned = scan_associate(mm, Fraction(0), Fraction(0))
    trace = dialogue_trace(indexed, exact_name(x), Fraction(1, 8), 128)
    assert trace == dialogue_trace(scanned, exact_name(x), Fraction(1, 8), 128)
    assert trace.answered == (x != 0)
    assert len(trace.rounds) == 128 or trace.answered


def test_sign_associate_matches_scan_reference():
    mm = use_first(sign_machine())
    indexed = machine_to_associate(mm, Fraction(0), Fraction(0))
    scanned = scan_associate(mm, Fraction(0), Fraction(0))
    for x in (Fraction(1), Fraction(-3, 7), Fraction(1, 10 ** 6), Fraction(0)):
        for name in (exact_name(x), grid_name(x)):
            for index in (0, 1, 6, 24):
                assert (dialogue_trace(indexed, name, index, 24)
                        == dialogue_trace(scanned, name, index, 24))


class CountedQuestion:
    """A question equal to another with the same value; ``==`` calls are
    counted in the shared ``tally``."""

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __eq__(self, other):
        self.tally[0] += 1
        return isinstance(other, CountedQuestion) and self.value == other.value

    def __hash__(self):
        return hash(self.value)


def transcript_comparisons(size):
    # == calls made by padded-oracle and table lookups and by one associate
    # consultation on a transcript of ``size`` entries; the lookups ask for
    # fresh questions equal to the first, middle and last entries and for
    # one unbound question.
    tally = [0]
    state = FiniteFunction()
    for i in range(size):
        state = state.append_pairs([(CountedQuestion(i, tally), i)])
    probes = [size - 1, size // 2, 0]
    asked = lambda: [CountedQuestion(i, tally) for i in probes]
    cm = ContinuousMachine(lambda phi, n, q: sum(phi(p) for p in asked()),
                           lambda phi, n, q: asked())
    associate = machine_to_associate(cm, 0, -1)
    padded = extend_with_default(state, -1)
    spliced = override_oracle(constant_oracle(-1), state.entries)
    tally[0] = 0
    for oracle in (padded, spliced, lambda q: lookup(state, q)):
        assert [oracle(q) for q in asked()] == probes
        assert oracle(CountedQuestion(size, tally)) in (-1, None)
    assert associate(state, "q") == Answer(sum(probes))
    return tally[0]


def test_transcript_lookups_compare_a_bounded_number_of_times():
    # Each lookup hashes its question and compares it with the one entry of
    # equal hash, so the count does not grow with the transcript; a scan of
    # the transcript made ~size comparisons per lookup.
    small, large = transcript_comparisons(10), transcript_comparisons(1000)
    # At most one per bound question asked: 3 oracles x 3 questions, then 3
    # in the bound check and 3 machine reads in the consultation.
    assert small == large <= 15


PADDING = object()


def padding_guard():
    # Raises when its machine runs at an effort whose modulus lists a
    # question the transcript does not bind (the padded oracle answers
    # PADDING there).  It answers from effort 3 on.
    def modulus(phi, effort, question):
        return list(range(effort + 1))

    def machine(phi, effort, question):
        read = [phi(needed) for needed in modulus(phi, effort, question)]
        if PADDING in read:
            raise AssertionError(f"machine read the padding at effort {effort}")
        return read[-1] if effort >= 3 else None

    return ContinuousMachine(machine, modulus)


def test_associate_never_runs_the_machine_on_the_padding():
    phi = lambda question: question * 10
    for mm in (padding_guard(), use_first(padding_guard()),
               use_first(use_first(padding_guard()))):
        associate = machine_to_associate(mm, 0, PADDING)
        trace = dialogue_trace(associate, phi, "q", 16)
        assert trace.answered and trace.final_answer == 30
        assert [r.payload for r in trace.rounds[:-1]] == [[0], [1], [2], [3]]


@pytest.mark.parametrize("x", [Fraction(7, 5), Fraction(-3)])
def test_associate_of_inversion_composite(x):
    # The composite's modulus runs the inner inversion on the padded
    # transcript, where its follow-up approximation is the padding 0; the
    # inversion stays silent there instead of dividing by 0.
    composite = compose_monotone(use_first(inversion_machine()),
                                 use_first(inversion_machine()), Fraction(0))
    associate = machine_to_associate(composite, Fraction(0), Fraction(0))
    trace = dialogue_trace(associate, exact_name(x), Fraction(1, 8), 24)
    assert trace.answered and trace.final_answer == x
    assert len(trace.rounds) == 5


def test_associate_effort_is_bounded_by_transcript_size():
    mm = monotone_threshold(ThresholdSpec(0, 1, base=2, spread=1, salt=0))
    associate = machine_to_associate(mm, 0, 0)
    # Threshold 2 machine: the dialogue needs the transcript to grow to
    # size 2 before the machine is allowed enough effort to answer.
    phi = all_small_oracles()[14]
    trace = dialogue_trace(associate, phi, 0, 10)
    assert trace.answered
    assert trace.final_answer == mm.machine(phi, 2, 0)


def test_dialogue_progress_on_finite_alphabets():
    # Wherever the machine eventually answers, the dialogue answers too, and
    # every query round either binds fresh questions or is the default
    # question buying one more effort level.
    specs = [ThresholdSpec(0, 1, base=2, spread=2, salt=1),
             ThresholdSpec(2, 0, base=1, spread=3, salt=0, dead_stride=4),
             ThresholdSpec(1, 1, base=4, spread=1, salt=2)]
    default_question = 0
    for spec in specs:
        mm = monotone_threshold(spec)
        associate = machine_to_associate(mm, default_question, 0)
        for phi in all_small_oracles():
            for question in range(3):
                answers = any(mm.machine(phi, n, question) is not None
                              for n in range(9))
                trace = dialogue_trace(associate, phi, question, 16)
                assert trace.answered == answers
                bound = []
                for r in trace.rounds[:-1]:
                    fresh = [x for x in r.payload if x not in bound]
                    assert fresh == list(r.payload) or r.payload == [default_question]
                    bound.extend(r.payload)
                if answers:
                    assert trace.final_answer == evaluate(
                        mm, phi, question, 16).value


# ---------------------------------------------------------------------------
# dialogue_trace


def test_trace_zero_query():
    trace = dialogue_trace(constant_answer_associate("a"), constant_oracle(0),
                           "q", 8)
    assert trace.answered and len(trace.rounds) == 1
    assert trace.rounds[0].tag == "answer"


def test_trace_head_associate():
    trace = dialogue_trace(head_associate("q0"), constant_oracle(5), "q", 8)
    assert trace.answered and len(trace.rounds) == 2
    assert trace.rounds[0].tag == "query"
    assert trace.final_answer == 5


def test_trace_respects_round_cap():
    trace = dialogue_trace(divergent_associate("q0"), constant_oracle(0), "q", 5)
    assert not trace.answered
    assert len(trace.rounds) == 5
    assert all(r.tag == "query" for r in trace.rounds)
    doc = trace.to_json()
    assert doc["answered"] is False
    assert [r["size"] for r in doc["rounds"]] == [0, 1, 2, 3, 4]
    empty = dialogue_trace(constant_answer_associate("a"), constant_oracle(0),
                           "q", 0)
    assert empty.rounds == () and not empty.answered
    assert empty.to_json() == {"rounds": [], "answered": False}


# ---------------------------------------------------------------------------
# Round trips through the shipped machines


def test_round_trip_inversion_answers_are_operator_values():
    mm = use_first(inversion_machine())
    associate = machine_to_associate(mm, Fraction(0), Fraction(0))
    for name in (exact_name(Fraction(7, 5)), grid_name(Fraction(-3))):
        for eps in (Fraction(1), Fraction(1, 2 ** 10)):
            trace = dialogue_trace(associate, name, eps, 64)
            assert trace.answered
            membership = in_F_M(mm, name, constant_oracle(trace.final_answer),
                                [eps], 2 ** 10)
            assert membership.holds


def test_round_trip_through_dialogue_machine():
    mm = use_first(inversion_machine())
    associate = machine_to_associate(mm, Fraction(0), Fraction(0))
    rebuilt = dialogue_machine(associate)
    phi = exact_name(Fraction(2))
    result = evaluate(rebuilt, phi, Fraction(1), 16)
    assert result is not None
    assert result.value == Fraction(1, 2)


def test_round_trip_sign_machine():
    mm = use_first(sign_machine())
    associate = machine_to_associate(mm, Fraction(0), Fraction(0))
    phi = exact_name(Fraction(1))
    for index in (0, 1, 2, 6):
        trace = dialogue_trace(associate, phi, index, 8)
        assert trace.answered
        assert trace.final_answer == mm.machine(phi, 0, index)
