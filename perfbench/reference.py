"""Expected outcomes computed from the mathematics, independently of contmach.

Nothing here calls into the package: every bound is re-derived from the
paper's definitions with exact ``Fraction`` arithmetic, so a defect in the
library's own predicates (``answer_ok``, ``is_name``) cannot hide a wrong
answer.  Each ``check_*`` function returns a list of problems; an empty list
means the outcome is correct.
"""

from __future__ import annotations

from fractions import Fraction

#: Largest distance between a grid name's answer and the point, as a share of
#: the requested accuracy (the grid rounds to half the accuracy).
GRID_SLACK = Fraction(1, 4)


def fmt(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def schedule(cap: int, kind: str) -> list:
    """Efforts an effort search visits up to ``cap``."""
    if kind == "linear":
        return list(range(cap + 1))
    efforts, power = [0], 1
    while power <= cap:
        efforts.append(power)
        power *= 2
    return efforts


def first_scheduled(effort: int, cap: int, kind: str):
    """The first visited effort at or above ``effort``, or None past the cap."""
    for visited in schedule(cap, kind):
        if visited >= effort:
            return visited
    return None


def first_margin_effort(x: Fraction, factor: Fraction = Fraction(1)) -> int:
    """Smallest n with |x| > factor * 2^-n; x must be nonzero."""
    n = 0
    while abs(x) <= factor / 2 ** n:
        n += 1
    return n


def pipeline_target(x: Fraction, depth: int) -> Fraction:
    """invert composed ``depth`` times: the identity for even depths."""
    return x if depth % 2 == 0 else 1 / x


def sign_entry(x: Fraction, index: int):
    """Entry ``index`` of the Kleenean sign name read off an exact name of x."""
    scale = Fraction(1, 2 ** index)
    if abs(x) > 3 * scale:
        return x > 0
    return "none"


def sign_entry_problems(x: Fraction, index: int, kind: str, got) -> list:
    """Entry ``index`` of a sign name read off a name of x of the given kind.

    Exact names fix the entry.  A grid name's answer lies within a quarter of
    the scale of x, so the entry must settle with the right sign above
    3.25 scales, stay unsettled below 2.75 scales, and may do either between.
    """
    if kind == "exact":
        want = sign_entry(x, index)
        return [] if got == want else [f"sign entry {index}: {got!r} != {want!r}"]
    scale = Fraction(1, 2 ** index)
    if abs(x) > (3 + GRID_SLACK) * scale:
        allowed = (x > 0,)
    elif abs(x) <= (3 - GRID_SLACK) * scale:
        allowed = ("none",)
    else:
        allowed = ("none", x > 0)
    return [] if got in allowed else [f"sign entry {index}: {got!r} not in {allowed!r}"]


def within(answer: str, target: Fraction, eps: Fraction, what: str) -> list:
    if answer is None:
        return [f"{what}: no answer"]
    if abs(Fraction(answer) - target) > eps:
        return [f"{what}: {answer} is not within {fmt(eps)} of {fmt(target)}"]
    return []


# ---------------------------------------------------------------------------
# Library outcomes: {"value": encoded or None, "effort": int or None}


def check_pipeline(out: dict, x: Fraction, depth: int, eps: Fraction,
                   kind: str, cap: int, sched: str) -> list:
    """Depth-k inversion: the answer is within eps of x or 1/x, or diverges on 0."""
    if x == 0:
        return [] if out["value"] is None else [f"answer {out['value']} on 0"]
    problems = within(out["value"], pipeline_target(x, depth), eps, "answer")
    if problems:
        return problems
    if depth == 1:
        # One inversion answers at the first effort with a positive margin.
        if kind == "exact":
            want = first_scheduled(first_margin_effort(x), cap, sched)
            if out["effort"] != want:
                return [f"effort {out['effort']} != {want}"]
        else:
            latest = first_scheduled(first_margin_effort(x, 1 + GRID_SLACK), cap, sched)
            if latest is not None and out["effort"] > latest:
                return [f"effort {out['effort']} past the grid margin"]
    return []


def check_kleenean_bool(out: dict, x: Fraction, kind: str) -> list:
    """Boolean read off the sign name: x > 0, never an answer on 0."""
    if x == 0:
        return [] if out["value"] is None else [f"answer {out['value']} on 0"]
    if out["value"] != (x > 0):
        return [f"answer {out['value']!r} != {x > 0!r}"]
    if kind == "exact":
        want = first_margin_effort(x, Fraction(3))
        if out["effort"] != want:
            return [f"effort {out['effort']} != {want}"]
    return []


def check_sign_prefix(values: list, x: Fraction, kind: str) -> list:
    problems = []
    for index, got in enumerate(values):
        problems += sign_entry_problems(x, index, kind, got)
    return problems


def check_name_answer(out: dict, x: Fraction, accuracy: Fraction, kind: str) -> list:
    """A translated precompleted name answers like the embedded name."""
    bound = accuracy * GRID_SLACK if kind == "grid" else Fraction(0)
    problems = within(out["value"], x, bound, "translated answer")
    if out["effort"] != 0:
        problems.append(f"effort {out['effort']} != 0")
    return problems


def check_dialogue(out: dict, max_rounds: int, final_problems) -> list:
    """Transcript shape, then the final answer (``final_problems(payload)``).

    ``final_problems`` is None when the dialogue must not answer.
    """
    rounds = out["rounds"]
    problems = []
    sizes = [size for size, _, _ in rounds]
    if sizes != sorted(sizes) or (sizes and sizes[0] != 0):
        problems.append(f"transcript sizes {sizes} do not grow from 0")
    if any(tag != "query" for _, tag, _ in rounds[:-1]):
        problems.append("an answer before the last round")
    if final_problems is None:
        if out["answered"] or len(rounds) != max_rounds:
            problems.append(f"answered={out['answered']} after {len(rounds)} of "
                            f"{max_rounds} rounds on a divergent input")
        return problems
    if not out["answered"] or rounds[-1][1] != "answer":
        return problems + [f"no answer within {max_rounds} rounds"]
    return problems + final_problems(rounds[-1][2])


def check_report(out: dict, expected_failing: set, allowed_failing: set) -> list:
    """Realizer verdict: failing questions, per sample, as the maths dictates.

    ``expected_failing`` questions must fail on every sample and
    ``allowed_failing`` ones may; nothing may be undecided.
    """
    problems = []
    if out["undecided"]:
        problems.append(f"undecided {out['undecided']}")
    failing = {}
    for failure in out["failures"]:
        key = (failure["point"], failure["name_kind"])
        failing.setdefault(key, set()).add(failure["question"])
    if out["samples"] != len(out["corpus"]):
        problems.append(f"{out['samples']} samples reported for {len(out['corpus'])}")
    for sample in out["corpus"]:
        got = failing.get(tuple(sample), set())
        if not expected_failing <= got <= expected_failing | allowed_failing:
            problems.append(f"sample {sample}: failing {sorted(got)}, expected "
                            f"{sorted(expected_failing)}")
    return problems


# ---------------------------------------------------------------------------
# CLI outcomes: {"exit": code, "stdout": text, "stderr": text, "crash": str}


def check_exit(out: dict, code: int) -> list:
    if out["crash"] is not None:
        return [f"traceback: {out['crash']}"]
    if out["exit"] != code:
        return [f"exit {out['exit']} != {code}"]
    return []


def check_cli_usage_error(out: dict) -> list:
    problems = check_exit(out, 1)
    if not problems and (out["stdout"] or "error:" not in out["stderr"]):
        problems.append("usage error without a message, or with output")
    return problems


def check_cli_evaluation(doc: dict, code: int, x: Fraction, depth: int,
                         eps, cap: int, sched: str) -> list:
    """An ``invert`` or ``compose`` document: answer, effort and attempt trace."""
    trace = doc["trace"]
    attempts = trace["attempts"]
    visited = [a["n"] for a in attempts]
    if visited != schedule(cap, sched)[:len(visited)]:
        return [f"attempts visit {visited[:8]}…, not the {sched} schedule"]
    if x == 0:
        problems = [] if code == 2 else [f"exit {code} on 0"]
        if doc["answer"] is not None or len(attempts) != len(schedule(cap, sched)):
            problems.append("divergent run did not spend the whole cap")
        return problems
    if code != 0:
        return [f"exit {code} on {fmt(x)}"]
    if doc["effort"] != visited[-1] or trace["final"] != doc["answer"]:
        return ["answer and trace disagree"]
    if depth == 0:  # a single sign stage: the answer is a sign entry
        return sign_entry_problems(x, doc["question"], "exact", doc["answer"])
    out = {"value": doc["answer"], "effort": doc["effort"]}
    return check_pipeline(out, x, depth, eps, "exact", cap, sched)
