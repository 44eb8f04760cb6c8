"""Batch front end: run the shipped realizers, compose them, inspect dialogues.

Exit codes: 0 on success, 2 when the fuel cap ran out before an answer (or a
corpus check recorded failures), 1 on usage or parse errors.  Output is
byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .alphabets import encode_value, format_rational, parse_rational
from .associates import dialogue_trace, machine_to_associate
from .machines import compose_monotone, evaluate_traced, use_first
from .realizers import (check_realizer, exact_name, inversion_machine,
                        load_corpus, sign_machine)
from .spaces import kleeneans, rational_reals, sign_kleenean

DEFAULT_FUEL_CAP = 2 ** 20
DEFAULT_SCHEDULE = "powers_of_two"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this front end reserves 2 for
    # fuel exhaustion, so usage errors exit 1 instead.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """Argument type for integer flags that must not be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _builtin(name: str):
    """Built-in monotone machines by name, with their space endpoints."""
    if name == "invert":
        mm = use_first(inversion_machine())
        return mm, rational_reals(), rational_reals(), Fraction(0)
    if name == "sign":
        mm = use_first(sign_machine())
        return mm, rational_reals(), kleeneans(), Fraction(0)
    raise ValueError(f"unknown machine: {name!r}")


def _point_map(name: str):
    if name == "invert":
        return lambda x: 1 / x
    return sign_kleenean


def _emit(doc: dict, fmt: str, output) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "".join(_text_lines(doc))
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _text_lines(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield f"{prefix}{key}:\n"
            yield from _text_lines(value, prefix + "  ")
        else:
            yield f"{prefix}{key}: {json.dumps(value)}\n"



def _add_common(parser, with_eps: bool = True):
    parser.add_argument("--value", required=True, help="rational, as p/q or a decimal literal")
    if with_eps:
        parser.add_argument("--eps", required=True, help="output accuracy, a positive rational")
    parser.add_argument("--max-effort", type=_count, default=DEFAULT_FUEL_CAP)
    parser.add_argument("--schedule", choices=("linear", "powers_of_two"),
                        default=DEFAULT_SCHEDULE)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="contmach")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("invert", help="approximate a multiplicative inverse"))

    sign = sub.add_parser("sign", help="print the Kleenean sign-name prefix")
    sign.add_argument("--value", required=True)
    sign.add_argument("--max-effort", type=_count, default=64)
    sign.add_argument("--format", choices=("json", "text"), default="json")
    sign.add_argument("--output", default=None)

    compose = sub.add_parser("compose", help="chain built-in machines, e.g. invert|invert")
    compose.add_argument("--pipeline", required=True)
    compose.add_argument("--value", required=True)
    compose.add_argument("--eps", default=None,
                         help="question when the pipeline ends in rational names")
    compose.add_argument("--index", type=_count, default=0,
                         help="question when the pipeline ends in Kleenean names")
    compose.add_argument("--max-effort", type=_count, default=DEFAULT_FUEL_CAP)
    compose.add_argument("--schedule", choices=("linear", "powers_of_two"),
                         default=DEFAULT_SCHEDULE)
    compose.add_argument("--format", choices=("json", "text"), default="json")
    compose.add_argument("--output", default=None)

    trace = sub.add_parser("associate-trace",
                           help="dialogue transcript of a built-in machine's associate")
    trace.add_argument("--machine", required=True, choices=("invert", "sign"))
    trace.add_argument("--value", required=True)
    trace.add_argument("--eps", default=None, help="question for invert")
    trace.add_argument("--index", type=_count, default=0, help="question for sign")
    trace.add_argument("--max-rounds", type=_count, default=128)
    trace.add_argument("--format", choices=("json", "text"), default="json")
    trace.add_argument("--output", default=None)

    check = sub.add_parser("check", help="run a realizer check over a corpus file")
    check.add_argument("--machine", required=True, choices=("invert", "sign"))
    check.add_argument("--corpus", required=True)
    check.add_argument("--fuel-cap", type=_count, default=2 ** 10)
    check.add_argument("--format", choices=("json", "text"), default="json")
    check.add_argument("--output", default=None)
    return parser


def _parse_value(parser, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        parser.error(str(exc))


def _require_positive(parser, value: Fraction, flag: str) -> Fraction:
    if value <= 0:
        parser.error(f"{flag} must be positive")
    return value


def _run_invert(parser, args) -> int:
    value = _parse_value(parser, args.value)
    eps = _require_positive(parser, _parse_value(parser, args.eps), "--eps")
    machine = use_first(inversion_machine())
    result, trace = evaluate_traced(machine, exact_name(value), eps,
                                    args.max_effort, args.schedule)
    doc = {
        "command": "invert",
        "value": format_rational(value),
        "eps": format_rational(eps),
        "schedule": args.schedule,
        "fuel_cap": args.max_effort,
        "answer": None if result is None else format_rational(result.value),
        "effort": None if result is None else result.effort,
        "trace": trace,
    }
    _emit(doc, args.format, args.output)
    return EXIT_OK if result is not None else EXIT_UNDECIDED


def _run_sign(parser, args) -> int:
    value = _parse_value(parser, args.value)
    machine = sign_machine()
    name = exact_name(value)
    prefix = [encode_value(machine.machine(name, 0, index))
              for index in range(args.max_effort + 1)]
    doc = {
        "command": "sign",
        "value": format_rational(value),
        "max_effort": args.max_effort,
        "prefix": prefix,
    }
    _emit(doc, args.format, args.output)
    return EXIT_OK


def _run_compose(parser, args) -> int:
    value = _parse_value(parser, args.value)
    stage_names = [s.strip() for s in args.pipeline.split("|") if s.strip()]
    if not stage_names:
        parser.error("empty pipeline")
    stages = []
    for name in stage_names:
        try:
            stages.append(_builtin(name))
        except ValueError as exc:
            parser.error(str(exc))
    composite, space_out = stages[0][0], stages[0][2]
    for machine, _, next_out, _ in stages[1:]:
        try:
            composite = compose_monotone(machine, composite,
                                         space_out.answer_alphabet.default)
        except ValueError as exc:
            parser.error(str(exc))
        space_out = next_out
    if space_out.name == "rational_reals":
        if args.eps is None:
            parser.error("--eps is required when the pipeline ends in rational names")
        question = _require_positive(parser, _parse_value(parser, args.eps), "--eps")
    else:
        question = args.index
    result, trace = evaluate_traced(composite, exact_name(value), question,
                                    args.max_effort, args.schedule)
    doc = {
        "command": "compose",
        "pipeline": "|".join(stage_names),
        "value": format_rational(value),
        "question": encode_value(question),
        "schedule": args.schedule,
        "fuel_cap": args.max_effort,
        "answer": None if result is None else encode_value(result.value),
        "effort": None if result is None else result.effort,
        "trace": trace,
    }
    _emit(doc, args.format, args.output)
    return EXIT_OK if result is not None else EXIT_UNDECIDED


def _run_associate_trace(parser, args) -> int:
    value = _parse_value(parser, args.value)
    machine, space_in, _, _ = _builtin(args.machine)
    if args.machine == "invert":
        if args.eps is None:
            parser.error("--eps is required for invert")
        question = _require_positive(parser, _parse_value(parser, args.eps), "--eps")
    else:
        question = args.index
    associate = machine_to_associate(machine,
                                     space_in.question_alphabet.default,
                                     space_in.answer_alphabet.default)
    transcript = dialogue_trace(associate, exact_name(value), question,
                                args.max_rounds)
    doc = {
        "command": "associate-trace",
        "machine": args.machine,
        "value": format_rational(value),
        "question": encode_value(question),
        "max_rounds": args.max_rounds,
        "transcript": transcript.to_json(),
    }
    _emit(doc, args.format, args.output)
    return EXIT_OK if transcript.answered else EXIT_UNDECIDED


def _run_check(parser, args) -> int:
    try:
        with open(args.corpus, "r", encoding="utf-8") as handle:
            corpus = load_corpus(handle.read())
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot load corpus: {exc}")
    machine, space_in, space_out, _ = _builtin(args.machine)
    report = check_realizer(machine, _point_map(args.machine), space_in,
                            space_out, corpus, args.fuel_cap)
    doc = {
        "command": "check",
        "machine": args.machine,
        "corpus": args.corpus,
        "fuel_cap": args.fuel_cap,
        "report": report.to_json(),
    }
    _emit(doc, args.format, args.output)
    return EXIT_OK if not report.failures else EXIT_UNDECIDED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "invert": _run_invert,
        "sign": _run_sign,
        "compose": _run_compose,
        "associate-trace": _run_associate_trace,
        "check": _run_check,
    }
    return runners[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
