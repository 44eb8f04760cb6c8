"""Batch front end: run the shipped realizers, compose them, inspect dialogues.

Exit codes: 0 on success, 2 when the fuel cap ran out before an answer (or a
corpus check recorded failures), 1 on usage or parse errors.  Output is
byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .alphabets import (_RationalTooLong, _check_power_of_two, encode_value,
                        format_rational, parse_rational)
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


#: Built-in machines by name.  An entry builds, in ``check_realizer``'s
#: argument order, the raw machine, the point map it realizes and its input
#: and output spaces, looking the library names up when it runs.  Runs that
#: evaluate the machine take ``use_first`` of it; its associate is built from
#: the raw machine, which ``machine_to_associate`` would walk for the
#: ``use_first`` machine as well.
_BUILTINS = {
    "invert": lambda: (inversion_machine(), lambda x: 1 / x,
                       rational_reals(), rational_reals()),
    "sign": lambda: (sign_machine(), sign_kleenean,
                     rational_reals(), kleeneans()),
}


_encode_str = json.encoder.encode_basestring_ascii

#: The ASCII characters a JSON string escapes: the controls, DEL, the quote
#: and the backslash.  An ASCII text is printable and free of the quote and
#: the backslash when deleting these from its bytes leaves its length; that
#: one pass of ``bytes.translate`` costs a third of ``str.isprintable``.
_ESCAPED = bytes([*range(32), 127]) + b'"\\'


def _json_indent2(value) -> str:
    """Exactly ``json.dumps(value, indent=2)``, for the types the CLI prints.

    It takes dicts with ``str`` keys, lists and tuples, ``str``, ``int``,
    ``bool`` and None, and raises ``TypeError`` on any other type (the
    escaper raises it for a key that is not a string).  On Python 3.11
    ``json.dumps`` encodes in C only without ``indent``; this writer
    escapes each string in C and appends the document's text to one list
    of parts, joined once at the end.  A list or tuple of strings whose
    concatenation is ASCII, printable and free of ``"`` and ``\\``, such as
    a trace's modulus list, needs no escaping and is written in one join;
    any other list of strings is escaped item by item.
    """
    parts = []
    _write_json(value, "", parts)
    return "".join(parts)


def _write_json(value, pad: str, parts: list) -> None:
    """Append ``_json_indent2(value)`` to ``parts``, in pieces, indented as
    if it starts on a line indented by ``pad``."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = pad + "  "
        separator = ",\n" + inner
        parts.append("[\n" + inner)
        try:
            text = "".join(value)
        except TypeError:  # an item that is not a string
            for index, item in enumerate(value):
                if index:
                    parts.append(separator)
                _write_json(item, inner, parts)
        else:
            if text.isascii() and len(text.encode().translate(None, _ESCAPED)) == len(text):
                parts.append('"' + ('"' + separator + '"').join(value) + '"')
            else:
                parts.append(separator.join(map(_encode_str, value)))
        parts.append("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        separator = ",\n" + inner
        parts.append("{\n" + inner)
        for index, (key, item) in enumerate(value.items()):
            if index:
                parts.append(separator)
            parts.append(_encode_str(key) + ": ")
            _write_json(item, inner, parts)
        parts.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(parser, args, doc: dict) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2)`` or as text lines, to
    stdout or ``--output``; the JSON comes from ``_json_indent2``, whose cost
    follows the size of the document."""
    if args.format == "json":
        text = _json_indent2(doc) + "\n"
    else:
        text = "".join(_text_lines(doc))
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        parser.error(f"cannot write output: {exc}")


def _text_lines(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield f"{prefix}{key}:\n"
            yield from _text_lines(value, prefix + "  ")
        else:
            yield f"{prefix}{key}: {json.dumps(value)}\n"


def _add_effort(parser) -> None:
    parser.add_argument("--max-effort", type=_count, default=DEFAULT_FUEL_CAP)
    parser.add_argument("--schedule", choices=("linear", "powers_of_two"),
                        default=DEFAULT_SCHEDULE)


def build_parser() -> _Parser:
    parser = _Parser(prog="contmach")
    sub = parser.add_subparsers(dest="command", required=True)

    invert = sub.add_parser("invert", help="approximate a multiplicative inverse")
    invert.add_argument("--value", required=True,
                        help="rational, as p/q or a decimal literal")
    invert.add_argument("--eps", required=True,
                        help="output accuracy, a positive rational")
    _add_effort(invert)

    sign = sub.add_parser("sign", help="print the Kleenean sign-name prefix")
    sign.add_argument("--value", required=True)
    sign.add_argument("--max-effort", type=_count, default=64)

    compose = sub.add_parser("compose", help="chain built-in machines, e.g. invert|invert")
    compose.add_argument("--pipeline", required=True)
    compose.add_argument("--value", required=True)
    compose.add_argument("--eps", default=None,
                         help="question when the pipeline ends in rational names")
    compose.add_argument("--index", type=_count, default=0,
                         help="question when the pipeline ends in Kleenean names")
    _add_effort(compose)

    trace = sub.add_parser("associate-trace",
                           help="dialogue transcript of a built-in machine's associate")
    trace.add_argument("--machine", required=True, choices=tuple(_BUILTINS))
    trace.add_argument("--value", required=True)
    trace.add_argument("--eps", default=None, help="question for invert")
    trace.add_argument("--index", type=_count, default=0, help="question for sign")
    trace.add_argument("--max-rounds", type=_count, default=128)

    check = sub.add_parser("check", help="run a realizer check over a corpus file")
    check.add_argument("--machine", required=True, choices=tuple(_BUILTINS))
    check.add_argument("--corpus", required=True)
    check.add_argument("--fuel-cap", type=_count, default=2 ** 10)

    # Every subcommand ends with the same output flags.
    for command in sub.choices.values():
        command.add_argument("--format", choices=("json", "text"), default="json")
        command.add_argument("--output", default=None)
    return parser


def _parse_value(parser, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        parser.error(str(exc))


def _question(parser, args, space_out):
    """The question put to a machine whose outputs name points of ``space_out``.

    Rational-real names are asked a positive accuracy ``--eps``; any other
    output space is asked the natural number ``--index``, which the sign
    stage turns into the accuracy 2^-index: an index whose power of two has
    more digits than Python prints is refused before that power is built.
    """
    if space_out.name != "rational_reals":
        _check_power_of_two(args.index)
        return args.index
    if args.eps is None:
        parser.error("--eps is required when the output is rational names")
    eps = _parse_value(parser, args.eps)
    if eps <= 0:
        parser.error("--eps must be positive")
    return eps


def _run_pipeline(parser, args, pipeline: str, head) -> tuple[dict, bool]:
    """Evaluate the built-in machines named in ``pipeline`` (``a|b`` runs
    ``a`` first), each through ``use_first``, on the exact name of
    ``--value``, and document the trace under ``head(stage_names, value,
    question)``."""
    value = _parse_value(parser, args.value)
    stage_names = [s.strip() for s in pipeline.split("|") if s.strip()]
    if not stage_names:
        parser.error("empty pipeline")
    stages = []
    for name in stage_names:
        if name not in _BUILTINS:
            parser.error(f"unknown machine: {name!r}")
        machine, _, _, space_out = _BUILTINS[name]()
        stages.append((use_first(machine), space_out))
    composite, space_out = stages[0]
    for machine, next_out in stages[1:]:
        try:
            composite = compose_monotone(machine, composite,
                                         space_out.answer_alphabet.default)
        except ValueError as exc:
            parser.error(str(exc))
        space_out = next_out
    question = _question(parser, args, space_out)
    result, trace = evaluate_traced(composite, exact_name(value), question,
                                    args.max_effort, args.schedule)
    doc = {
        **head(stage_names, value, question),
        "schedule": args.schedule,
        "fuel_cap": args.max_effort,
        "answer": None if result is None else encode_value(result.value),
        "effort": None if result is None else result.effort,
        "trace": trace,
    }
    return doc, result is not None


def _run_invert(parser, args) -> tuple[dict, bool]:
    return _run_pipeline(parser, args, "invert", lambda _, value, eps: {
        "command": "invert", "value": format_rational(value),
        "eps": format_rational(eps)})


def _run_sign(parser, args) -> tuple[dict, bool]:
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
    return doc, True


def _run_compose(parser, args) -> tuple[dict, bool]:
    return _run_pipeline(parser, args, args.pipeline, lambda stages, value, question: {
        "command": "compose", "pipeline": "|".join(stages),
        "value": format_rational(value), "question": encode_value(question)})


def _run_associate_trace(parser, args) -> tuple[dict, bool]:
    value = _parse_value(parser, args.value)
    machine, _, space_in, space_out = _BUILTINS[args.machine]()
    question = _question(parser, args, space_out)
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
    return doc, transcript.answered


def _run_check(parser, args) -> tuple[dict, bool]:
    try:
        with open(args.corpus, "r", encoding="utf-8") as handle:
            corpus = load_corpus(handle.read())
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot load corpus: {exc}")
    machine, point_map, space_in, space_out = _BUILTINS[args.machine]()

    def target(point):
        try:
            return point_map(point)
        except ZeroDivisionError:
            parser.error(f"point {point} is outside the domain of {args.machine}")

    report = check_realizer(use_first(machine), target, space_in, space_out,
                            corpus, args.fuel_cap)
    doc = {
        "command": "check",
        "machine": args.machine,
        "corpus": args.corpus,
        "fuel_cap": args.fuel_cap,
        "report": report.to_json(),
    }
    return doc, not report.failures


@functools.cache
def _parser() -> _Parser:
    # Built on first use, not at import; parsing neither mutates it nor keeps
    # state between calls, and it holds no library callable.
    return build_parser()


def main(argv=None) -> int:
    """Run one command; call it repeatedly, its parser is built on first use; exit 0/1/2."""
    parser = _parser()
    args = parser.parse_args(argv)
    runners = {
        "invert": _run_invert,
        "sign": _run_sign,
        "compose": _run_compose,
        "associate-trace": _run_associate_trace,
        "check": _run_check,
    }
    try:
        doc, answered = runners[args.command](parser, args)
    except _RationalTooLong as exc:
        # Inputs are checked when parsed; this is a rational the run derived.
        parser.error(f"the run derived a {exc}")
    except RecursionError as exc:
        # A corpus nested deeper, or a pipeline longer, than Python's stack.
        parser.error(f"input nested too deeply to run: {exc}")
    _emit(parser, args, doc)
    return EXIT_OK if answered else EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
