"""Times at a reference machine speed.

On a shared two-core machine the speed of pure Python code drifts by a
factor of up to two within a second and by tens of percent between minutes,
and CPU time drifts with wall time.  Raw wall times of two runs of the same
code therefore differ by more than the regressions the benchmark must
catch.  The clock re-measures a fixed calibration loop (stdlib only, never
the program under test) every ``INTERVAL`` seconds, and reports every
duration multiplied by ``REFERENCE_S`` / (the calibration time around it):
seconds on a machine that runs the loop in ``REFERENCE_S``.  Two versions of
the program measured this way compare like for like, whatever the machine's
speed was while each ran.

The loop mixes the kinds of work the program does (small and big exact
rationals, closures scanning first-match tables, JSON encoding) because the
machine's slow phases do not slow every kind of work alike.  With this mix
and a quarter-second interval, four runs of one op mix whose raw times
differed by 66% agreed within 4%.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

#: The calibration loop's duration on the reference machine.
REFERENCE_S = 0.006

#: Seconds between calibrations.
INTERVAL = 0.25


def _big_rationals() -> None:
    acc = Fraction(0)
    for i in range(1, 130):
        acc += Fraction(i * i + 1, 3 ** (i % 40) + i)
        acc = Fraction(acc.numerator % 10 ** 40, acc.denominator % 10 ** 30 + 1)


def _small_rationals() -> None:
    for i in range(1, 200):
        value = Fraction(1, 2 ** (i % 20)) + Fraction(i, 7)
        if abs(value) > Fraction(3, 2 ** (i % 9)):
            value = -value


def _first_match_calls() -> None:
    entries = tuple((Fraction(1, 2 ** i), Fraction(i)) for i in range(40))

    def lookup(question):
        for bound, answer in entries:
            if bound == question:
                return answer
        return None

    def machine(effort, question):
        return lookup(question) if effort >= 0 else None

    for effort in range(20):
        for i in range(0, 40, 3):
            machine(effort, Fraction(1, 2 ** i))


def _json_encoding() -> None:
    rows = [{"n": i, "value": f"{i}/{i + 1}", "list": list(range(i % 7))}
            for i in range(100)]
    json.dumps({"rows": rows}, indent=2)


def calibration_loop() -> None:
    _big_rationals()
    _small_rationals()
    _first_match_calls()
    _json_encoding()


def calibrate() -> float:
    """Median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        start = perf_counter()
        calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Calibrations interleaved with the measured work.

    ``tick`` is called after each measured interval and returns its epoch;
    ``close`` takes the final calibration; ``scale(seconds, epoch)`` converts
    a raw duration to reference seconds using the two calibrations that
    bracket its epoch.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.last = perf_counter()

    def tick(self) -> int:
        epoch = len(self.samples) - 1
        if perf_counter() - self.last >= INTERVAL:
            self.samples.append(calibrate())
            self.last = perf_counter()
        return epoch

    def close(self) -> None:
        self.samples.append(calibrate())
        self.last = perf_counter()

    def scale(self, seconds: float, epoch: int) -> float:
        around = (self.samples[epoch] + self.samples[epoch + 1]) / 2
        return seconds * REFERENCE_S / around
