"""Scaling pins: exact raw machine / modulus call counts of the costs that
grow with composition depth and dialogue rounds.

Each chain nests ``compose_monotone(use_first(inv), chain, 0)`` over raw
``inversion_machine`` stages (``composite_chain``), and every raw stage counts
into one shared pair of counters.  A change that moves one of these counts
on purpose re-pins it here, and says so."""

from fractions import Fraction

import pytest

from _families import composite_chain
from contmach import (dialogue_trace, evaluate, evaluate_traced, exact_name,
                      machine_to_associate)

MILLIONTH = Fraction(1, 10 ** 6)


@pytest.mark.parametrize("schedule, cap, depth, expected", [
    ("powers_of_two", 32, 3, [909, 845]),
    ("powers_of_two", 32, 4, [7444, 7044]),
    ("powers_of_two", 32, 5, [98377, 97977]),
    ("linear", 20, 3, [3606, 3587]),
    ("linear", 20, 4, [48567, 48149]),
    ("powers_of_two", 32, 1, [21, 21]),
    ("powers_of_two", 32, 2, [416, 352]),
    ("linear", 20, 1, [21, 21]),
    ("linear", 20, 2, [652, 633]),
])
def test_convergent_composite_trace_raw_calls(schedule, cap, depth, expected):
    # The answer comes at the cap's effort; the trace's modulus lists make
    # the counts grow ~8-16x per stage.
    calls = [0, 0]
    result, _ = evaluate_traced(composite_chain(depth, calls),
                                exact_name(MILLIONTH), MILLIONTH, cap, schedule)
    assert result is not None and result.effort == cap
    assert calls == expected


DIALOGUE_ROWS = [
    (2, Fraction(0), 16, None, [6786, 3112], [306, 0]),
    (2, Fraction(0), 32, None, [54530, 23376], [1122, 0]),
    (3, Fraction(0), 16, None, [116762, 39984], [595, 0]),
    (2, Fraction(0), 64, None, [436738, 180896], [4290, 0]),
    (3, Fraction(1, 2 ** 20), 32, 26, [519615, 172680], [155, 45]),
]


# Each row is named by its depth, its rounds and its place in the list, so
# rows added at the end leave the names of the others as they were.
@pytest.mark.parametrize(
    "depth, point, rounds, answered_in, expected, floor", DIALOGUE_ROWS,
    ids=[f"{row[0]}-{row[2]}-expected{i}" for i, row in enumerate(DIALOGUE_ROWS)])
def test_composite_associate_dialogue_raw_calls(depth, point, rounds,
                                                answered_in, expected, floor):
    # On 0 nothing answers, so every round walks the composite's per-effort
    # machine and modulus, each re-running every stage from effort 0.  On
    # 2^-20 the same walk runs until the dialogue answers, in round
    # ``answered_in``.  The floor is one untraced evaluation of the same
    # composite at the rounds as its cap, settled once.
    calls = [0, 0]
    zero = Fraction(0)
    associate = machine_to_associate(composite_chain(depth, calls), zero, zero)
    trace = dialogue_trace(associate, exact_name(point), Fraction(1, 1024),
                           rounds)
    assert trace.answered == (answered_in is not None)
    assert len(trace.rounds) == (rounds if answered_in is None else answered_in)
    assert calls == expected
    calls = [0, 0]
    result = evaluate(composite_chain(depth, calls), exact_name(point),
                      Fraction(1, 1024), rounds, "linear")
    assert (result is not None) == trace.answered
    assert calls == floor
