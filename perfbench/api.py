"""The two ways the benchmark calls contmach: directly, or through meters.

``Plain`` hands every call straight to the package.  ``Traced`` builds the
same machines from the package's public constructors (``ContinuousMachine``,
``monotone_machine``, names, associates, ``RepresentedSpace``) around
wrapped functions, so that every raw machine, combinator, oracle and
associate call is counted and timed where it happens, without a line of the
package changing.  Ops only ever talk to one of these two objects, so the
traced and untraced runs execute identical op code.

Self time: every wrapped call pushes a frame; its duration minus the time
of the wrapped calls nested inside it is charged to its layer.  Counts and
self times accumulate per op in memory, never one record per
call: the deep workload makes millions of raw calls.  Spans — one per op
and one per call into ``evaluate``, ``dialogue_trace``, ``check_realizer``
and ``cli.main`` — are kept in a list for one traced pass and then written out.
"""

from __future__ import annotations

import io
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

LAYERS = ("alphabets", "realizers", "machines", "associates", "spaces", "cli")


def run_cli(main, argv) -> dict:
    """Run ``main(argv)`` in-process, capturing output, exit code and crashes."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a stop
            code, crash = None, f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "crash": crash}


class Plain:
    """Direct calls: the untraced run."""

    def __init__(self, cm, cli):
        self.cm = cm
        self.cli = cli

    def begin_op(self, op) -> None:
        pass

    def end_op(self) -> dict:
        return {}

    def name(self, phi):
        return phi

    def raw(self, machine, layer):
        return machine

    def use_first(self, machine, stage=None):
        return self.cm.use_first(machine)

    def compose(self, outer, inner, default):
        return self.cm.compose_monotone(outer, inner, default)

    def associate(self, machine, question_default, answer_default):
        return self.cm.machine_to_associate(machine, question_default,
                                            answer_default)

    def dialogue_machine(self, associate):
        return self.cm.dialogue_machine(associate)

    def space(self, space):
        return space

    def evaluate(self, machine, phi, question, cap, schedule):
        return self.cm.evaluate(machine, phi, question, cap, schedule)

    def dialogue_trace(self, associate, phi, question, max_rounds):
        return self.cm.dialogue_trace(associate, phi, question, max_rounds)

    def check_realizer(self, machine, point_map, space_in, space_out, samples,
                       cap, schedule):
        return self.cm.check_realizer(machine, point_map, space_in, space_out,
                                      samples, cap, None, schedule)

    def run_cli(self, argv, depth=1):
        return run_cli(self.cli.main, argv)


class Traced(Plain):
    """Calls through wrappers that count and time each layer boundary.

    ``counts``, ``self_s`` (seconds per layer), the frame ``stack`` and the
    input-name ``questions`` belong to the op in progress; wrappers hold on
    to these objects, so ``begin_op`` empties them in place.
    """

    def __init__(self, cm, cli):
        super().__init__(cm, cli)
        self.counts = Counter()
        self.self_s = Counter()
        self.stack = [[0.0]]
        self.questions = set()
        self.spans = []
        self.keep_spans = True
        self.op_id = None
        self.op_start = 0.0
        self.names = {}  # id -> wrapped input name, alive for the op
        self.cli_depth = 1
        self.cli_stages = 0

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op) -> None:
        self.op_id = op.index
        self.counts.clear()
        self.self_s.clear()
        self.questions.clear()
        self.stack[:] = [[0.0]]
        self.names.clear()
        self.cli_stages = 0
        self.op_start = perf_counter()

    def end_op(self) -> dict:
        counts = dict(self.counts)
        counts["alphabets.distinct_questions"] = len(self.questions)
        if self.keep_spans:
            self.spans.append((self.op_id, "op", self.op_start, perf_counter()))
        return {"counts": counts, "self_s": dict(self.self_s)}

    def _span(self, name, layer, fn, *args):
        start = perf_counter()
        try:
            return self._wrap(layer, f"{layer}.{name}_calls", fn)(*args)
        finally:
            if self.keep_spans:
                self.spans.append((self.op_id, name, start, perf_counter()))

    def _wrap(self, layer, key, fn):
        """``fn``, counted under ``key``, its self time charged to ``layer``."""
        counts, self_s, stack = self.counts, self.self_s, self.stack

        def wrapper(*args):
            counts[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed

        return wrapper

    def _derived(self, phi):
        """An oracle built inside the package: charge it to the layer that built it."""
        module = getattr(phi, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if not module.startswith("contmach.") or layer not in LAYERS:
            raise RuntimeError(f"oracle {phi!r} from unknown module {module!r}")
        label = "alphabets.oracle" if layer == "alphabets" else layer
        return self._wrap(label, f"{layer}.derived_queries", phi)

    def _raw_fn(self, layer, key, fn, answers_key=None):
        """A raw machine or modulus; oracles it is handed from inside the
        package (padded transcripts, intermediate names) are wrapped too."""
        counts, names, derived = self.counts, self.names, self._derived
        timed = self._wrap(layer, key, fn)

        def wrapper(phi, effort, question):
            if id(phi) not in names:
                phi = derived(phi)
            value = timed(phi, effort, question)
            if answers_key is not None and value is not None:
                counts[answers_key] += 1
            return value

        return wrapper

    def _with_fns(self, like, machine, modulus):
        """Rebuild ``like`` (continuous or monotone) around new functions."""
        if isinstance(like, self.cm.MonotoneMachine):
            return self.cm.monotone_machine(machine, modulus, like.in_space,
                                            like.out_space)
        return self.cm.ContinuousMachine(machine, modulus, like.in_space,
                                         like.out_space)

    # -- constructors -------------------------------------------------------

    def name(self, phi):
        """An input name: queries counted, distinct questions recorded."""
        questions = self.questions
        timed = self._wrap("alphabets.oracle", "alphabets.oracle_queries", phi)

        def name(question):
            questions.add((id(name), question))
            return timed(question)

        self.names[id(name)] = name
        return name

    def raw(self, machine, layer):
        if layer == "realizers":
            fns = (self._raw_fn(layer, "realizers.machine_calls", machine.machine,
                                "realizers.answers"),
                   self._raw_fn(layer, "realizers.modulus_calls", machine.modulus))
        else:
            fns = (self._raw_fn(layer, f"{layer}.machine_calls", machine.machine),
                   self._raw_fn(layer, f"{layer}.machine_calls", machine.modulus))
        return self._with_fns(machine, *fns)

    def _monotone(self, mm, stage):
        def wrap(fn):
            inner = self._wrap("machines", "machines.use_first_calls", fn)
            if stage is None:
                return inner
            counts, key = self.counts, f"machines.compose_stage_calls.{stage}"

            def staged(*args):
                counts[key] += 1
                return inner(*args)

            return staged

        return self._with_fns(mm, wrap(mm.machine), wrap(mm.modulus))

    def use_first(self, machine, stage=None):
        return self._monotone(self.cm.use_first(machine), stage)

    def compose(self, outer, inner, default):
        mm = self.cm.compose_monotone(outer, inner, default)
        return self._with_fns(
            mm, self._wrap("machines", "machines.compose_calls", mm.machine),
            self._wrap("machines", "machines.compose_calls", mm.modulus))

    def associate(self, machine, question_default, answer_default):
        associate = self.cm.machine_to_associate(machine, question_default,
                                                 answer_default)
        counts, answer_type = self.counts, self.cm.Answer
        timed = self._wrap("associates", "associates.consultations", associate)

        def consult(state, question):
            before = counts["realizers.machine_calls"] + counts["realizers.modulus_calls"]
            step = timed(state, question)
            counts["associates.raw_calls"] += (counts["realizers.machine_calls"]
                                               + counts["realizers.modulus_calls"]
                                               - before)
            if isinstance(step, answer_type):
                counts["associates.answers"] += 1
            return step

        return consult

    def dialogue_machine(self, associate):
        cm = self.cm.dialogue_machine(associate)
        return self._with_fns(
            cm, self._wrap("associates", "associates.dialogue_machine_calls", cm.machine),
            self._wrap("associates", "associates.dialogue_machine_calls", cm.modulus))

    def space(self, space):
        answer_ok = space.answer_ok
        if answer_ok is not None:
            answer_ok = self._wrap("spaces", "spaces.answer_ok_calls", answer_ok)
        return self.cm.RepresentedSpace(
            space.name, space.question_alphabet, space.answer_alphabet,
            self._wrap("spaces", "spaces.is_name_calls", space.is_name),
            answer_ok, space.test_questions)

    # -- entry points -------------------------------------------------------

    def _attempts(self, machine):
        counts, fn = self.counts, machine.machine

        def attempt(*args):
            counts["machines.evaluate_attempts"] += 1
            return fn(*args)

        return self._with_fns(machine, attempt, machine.modulus)

    def evaluate(self, machine, phi, question, cap, schedule):
        return self._span("evaluate", "machines", self.cm.evaluate,
                          self._attempts(machine), phi, question, cap, schedule)

    def _dialogue_trace(self, fn, associate, phi, question, max_rounds):
        transcript = self._span("dialogue_trace", "associates", fn, associate,
                                phi, question, max_rounds)
        self.counts["associates.rounds"] += len(transcript.rounds)
        self.counts["associates.dialogues"] += 1
        self.counts["associates.answered_dialogues"] += transcript.answered
        return transcript

    def dialogue_trace(self, associate, phi, question, max_rounds):
        return self._dialogue_trace(self.cm.dialogue_trace, associate, phi,
                                    question, max_rounds)

    def _check_realizer(self, fn, machine, *args):
        self.counts["realizers.check_calls"] += 1
        return self._span("check_realizer", "realizers", fn,
                          self._attempts(machine), *args)

    def check_realizer(self, machine, point_map, space_in, space_out, samples,
                       cap, schedule):
        return self._check_realizer(self.cm.check_realizer, machine, point_map,
                                    space_in, space_out, samples, cap, None,
                                    schedule)

    def run_cli(self, argv, depth=1):
        self.cli_depth = depth
        counts = self.counts
        with self._patched_cli():
            main = self.cli.main
            out = self._span("cli.main", "cli", run_cli, main, argv)
        counts["cli.runs"] += 1
        counts["cli.output_bytes"] += len(out["stdout"].encode())
        if out["crash"] is not None:
            counts["cli.tracebacks"] += 1
        else:
            counts[f"cli.exit.{out['exit']}"] += 1
        return out

    # -- the CLI's imports --------------------------------------------------

    def _cli_wrappers(self) -> dict:
        """Replacement for every library name ``contmach.cli`` imports."""
        cm = self.cm

        def generic(layer, fn):
            label = "alphabets.codec" if layer == "alphabets" else layer
            return self._wrap(label, f"{layer}.cli_calls", fn)

        def use_first(machine):
            stage = None
            if self.cli_depth >= 2:
                self.cli_stages += 1
                stage = self.cli_stages
            return self.use_first(machine, stage)

        def evaluate_traced(machine, *args):
            return self._span("evaluate", "machines", cm.evaluate_traced,
                              self._attempts(machine), *args)

        def dialogue_trace(*args):
            return self._dialogue_trace(cm.dialogue_trace, *args)

        def check_realizer(machine, *args):
            return self._check_realizer(cm.check_realizer, machine, *args)

        def load_corpus(doc):
            return [cm.CorpusSample(s.point, self.name(s.name), s.kind)
                    for s in cm.load_corpus(doc)]

        return {
            "encode_value": generic("alphabets", cm.encode_value),
            "format_rational": generic("alphabets", cm.format_rational),
            "parse_rational": generic("alphabets", cm.parse_rational),
            "dialogue_trace": dialogue_trace,
            "machine_to_associate": self.associate,
            "compose_monotone": self.compose,
            "evaluate_traced": evaluate_traced,
            "use_first": use_first,
            "check_realizer": check_realizer,
            "exact_name": lambda x: self.name(cm.exact_name(x)),
            "inversion_machine": lambda: self.raw(cm.inversion_machine(), "realizers"),
            "load_corpus": load_corpus,
            "sign_machine": lambda: self.raw(cm.sign_machine(), "realizers"),
            "kleeneans": lambda: self.space(cm.kleeneans()),
            "rational_reals": lambda: self.space(cm.rational_reals()),
            "sign_kleenean": generic("spaces", cm.sign_kleenean),
        }

    @contextmanager
    def _patched_cli(self):
        """Swap the CLI's library imports for wrapped ones, loudly.

        Every library callable the CLI module imports must have a wrapper and
        every wrapper must replace an import, so that a refactor of the CLI
        cannot silently drop a span.
        """
        wrappers = self._cli_wrappers()
        imported = {name for name, value in vars(self.cli).items()
                    if callable(value) and not name.startswith("_")
                    and (getattr(value, "__module__", "") or "").startswith("contmach.")
                    and value.__module__ != self.cli.__name__}
        if imported != set(wrappers):
            raise RuntimeError(
                "contmach.cli imports changed: unwrapped "
                f"{sorted(imported - set(wrappers))}, missing "
                f"{sorted(set(wrappers) - imported)}")
        originals = {name: getattr(self.cli, name) for name in wrappers}
        for name, original in originals.items():
            if original is not getattr(self.cm, name):
                raise RuntimeError(f"contmach.cli.{name} is not contmach.{name}")
        try:
            for name, wrapper in wrappers.items():
                setattr(self.cli, name, wrapper)
            yield
        finally:
            for name, original in originals.items():
                setattr(self.cli, name, original)
