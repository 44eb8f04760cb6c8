"""``contmach.cli.main`` on argument vectors chosen to break it: every one
ends in exit code 0, 1 or 2, never in another exception, and a huge
``--index`` is refused at once.

The fuzzed vectors are drawn from a ``random.Random`` with a fixed seed, so
every run tries the same vectors, whichever other modules are loaded.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

import pytest

from contmach.cli import main

SEED = 20_250_611
VECTORS = 250

#: Characters of free text: those rationals are written with, and the rest
#: of printable ASCII; ``_text`` adds arbitrary code points as well.
RATIONAL_CHARS = "0123456789/.-+eE_ "
PRINTABLE = "".join(map(chr, range(0x20, 0x7F)))
#: Rationals near the limits: plain, tiny, just printable, too long to
#: print and an exponent bomb.
SPECIAL_RATIONALS = ["0", "7/5", "-3", "1e-6", "1/1024", "1e-4299",
                     "1e-5000", "1e99999999"]
MACHINES = ["invert", "sign"]
SCHEDULES = ["linear", "powers_of_two"]


def _code_point(rng):
    # Any code point but the surrogates, which no UTF-8 text can hold.
    while True:
        point = rng.randrange(sys.maxunicode + 1)
        if not 0xD800 <= point <= 0xDFFF:
            return chr(point)


def _text(rng, max_size):
    """Free text of up to ``max_size`` characters."""
    pools = [lambda: rng.choice(RATIONAL_CHARS), lambda: rng.choice(PRINTABLE),
             lambda: _code_point(rng)]
    return "".join(rng.choice(pools)()
                   for _ in range(rng.randint(0, max_size)))


def _rational(rng):
    """Free text, a ``p/q`` form of any size, or a literal near the limits."""
    kind = rng.random()
    if kind < 0.25:
        return _text(rng, 12)
    if kind < 0.6:
        numerator = rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30))
        return str(Fraction(numerator, rng.randint(1, 10 ** rng.randint(0, 30))))
    return rng.choice(SPECIAL_RATIONALS)


def _index(rng):
    """Any natural number, with the powers of two just below and above the
    printable limit and indices far past it."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(0, 64)
    if kind == 1:
        return rng.randint(14_280, 14_290)
    if kind == 2:
        return rng.randint(0, 10 ** rng.randint(1, 30))
    return rng.randint(10 ** 20, 10 ** 40)


def _pipeline(rng):
    stages = [rng.choice(MACHINES) if rng.random() < 0.75
              else _text(rng, 8) for _ in range(rng.randint(0, 3))]
    return "|".join(stages)


def _flag(rng, name, draw):
    """``--name=value``, or nothing when the flag is left out."""
    return [f"--{name}={draw(rng)}"] if rng.random() < 0.5 else []


def argument_vector(rng, workdir):
    """One argument vector, and the corpus text a ``check`` run reads."""
    command = rng.choice(["invert", "sign", "compose", "associate-trace", "check"])
    value = f"--value={_rational(rng)}"
    effort = f"--max-effort={rng.randint(0, 16)}"
    corpus = None
    if command == "invert":
        argv = [value, f"--eps={_rational(rng)}", effort,
                *_flag(rng, "schedule", lambda r: r.choice(SCHEDULES))]
    elif command == "sign":
        argv = [value, effort]
    elif command == "compose":
        argv = [f"--pipeline={_pipeline(rng)}", value, effort,
                *_flag(rng, "eps", _rational), *_flag(rng, "index", _index),
                *_flag(rng, "schedule", lambda r: r.choice(SCHEDULES))]
    elif command == "associate-trace":
        argv = [f"--machine={rng.choice(MACHINES)}", value,
                f"--max-rounds={rng.randint(0, 24)}",
                *_flag(rng, "eps", _rational), *_flag(rng, "index", _index)]
    else:
        if rng.random() < 0.5:
            points = [{"point": _rational(rng),
                       "name_kind": (rng.choice(["exact", "grid"])
                                     if rng.random() < 0.5 else _text(rng, 5))}
                      for _ in range(rng.randint(0, 3))]
            corpus = json.dumps(points)
        else:
            corpus = _text(rng, 12)
        argv = [f"--machine={rng.choice(MACHINES)}",
                f"--corpus={os.path.join(workdir, 'corpus.json')}",
                f"--fuel-cap={rng.randint(0, 8)}"]
    argv += _flag(rng, "format", lambda r: r.choice(["json", "text"]))
    argv += _flag(rng, "output", lambda r: r.choice(
        [os.path.join(workdir, "out.json"),
         os.path.join(workdir, "missing", "out.json")]))
    return [command, *argv], corpus


@contextlib.contextmanager
def _address_space_cap(extra: int):
    """Cap this process's address space at its present size plus ``extra``
    bytes, where the platform allows it, so a power of two that a defect
    builds from a huge index fails with ``MemoryError`` instead of filling
    the machine's memory."""
    try:
        import resource
        with open("/proc/self/statm", encoding="ascii") as statm:
            size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_no_argument_vector_raises():
    started = time.perf_counter()
    rng = random.Random(SEED)
    commands = set()
    with tempfile.TemporaryDirectory(prefix="contmach-fuzz-") as workdir, \
            _address_space_cap(2 ** 30):
        for _ in range(VECTORS):
            argv, corpus = argument_vector(rng, workdir)
            commands.add(argv[0])
            if corpus is not None:
                with open(os.path.join(workdir, "corpus.json"), "w",
                          encoding="utf-8") as handle:
                    handle.write(corpus)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), argv
    assert commands == {"invert", "sign", "compose", "associate-trace", "check"}
    assert time.perf_counter() - started < 10


def test_fuzz_vectors_are_seeded_and_reach_every_range():
    # The same seed gives the same vectors; they reach every index range,
    # three-stage pipelines, 0 and the exponent bomb.
    rng_a, rng_b = random.Random(SEED), random.Random(SEED)
    vectors = [argument_vector(rng_a, "w") for _ in range(VECTORS)]
    assert vectors == [argument_vector(rng_b, "w") for _ in range(VECTORS)]
    flags = [arg for argv, _ in vectors for arg in argv]
    indices = [int(arg.split("=", 1)[1]) for arg in flags
               if arg.startswith("--index=")]
    assert any(index >= 10 ** 20 for index in indices)
    assert any(14_280 <= index <= 14_290 for index in indices)
    assert any(index <= 64 for index in indices)
    assert any(arg.startswith("--pipeline=") and arg.count("|") == 2
               for arg in flags)
    values = {arg.split("=", 1)[1] for arg in flags if arg.startswith("--value=")}
    assert values >= {"0", "1e99999999"}


DERIVED_TOO_LONG = ("contmach: error: the run derived a rational too long to "
                    "print as p/q\n")


@pytest.mark.parametrize("argv", [
    ["compose", "--pipeline", "sign", "--value", "1",
     "--index", "99999999999999999999", "--max-effort", "2"],
    ["associate-trace", "--machine", "sign", "--value", "1",
     "--index", "99999999999999999999", "--max-rounds", "2"],
    ["compose", "--pipeline", "sign", "--value", "1", "--index", "1000000000"],
    # Refused although the silent invert stage would never ask for 2^-14285.
    ["compose", "--pipeline", "invert|sign", "--value", "0", "--index", "14285"],
])
def test_index_too_long_to_print_exits_one_at_once(argv, capsys):
    # 2^14285 is the first power of two with more digits than Python prints
    # (4,300); the sign stage would build 2^index to ask for 2^-index.
    started = time.perf_counter()
    with _address_space_cap(2 ** 30), pytest.raises(SystemExit) as err:
        main(argv)
    assert time.perf_counter() - started < 1
    assert err.value.code == 1
    assert capsys.readouterr() == ("", DERIVED_TOO_LONG)


def test_index_at_the_limit_still_runs(capsys):
    assert main(["compose", "--pipeline", "sign", "--value", "1",
                 "--index", "14284"]) == 0
    assert '"answer": true' in capsys.readouterr().out


#: ~125 invert stages outgrow Python's stack, as each settles the one before.
LONG_PIPELINE = "|".join(["invert"] * 1000)


@pytest.mark.parametrize("argv, corpus, message", [
    (["check", "--machine", "invert", "--corpus", "corpus.json"],
     "[" * 100_000 + "]" * 100_000,
     "input nested too deeply to run: maximum recursion depth exceeded"),
    (["compose", "--pipeline", LONG_PIPELINE, "--value", "2", "--eps", "1",
      "--max-effort", "0"], None,
     "input nested too deeply to run: maximum recursion depth exceeded"),
    (["invert", "--value", "2", "--eps", "1", "--output", "a\0b"], None,
     "cannot write output: embedded null byte"),
], ids=["deep-corpus", "long-pipeline", "nul-output"])
def test_input_past_the_stack_or_the_file_system_exits_one(
        argv, corpus, message, tmp_path, monkeypatch, capsys):
    # Vectors the seeded generator does not reach: JSON nested deeper than
    # the decoder's stack, a pipeline deeper than the evaluator's, and an
    # output path no file system accepts.
    monkeypatch.chdir(tmp_path)
    if corpus is not None:
        (tmp_path / "corpus.json").write_text(corpus, encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.startswith(f"contmach: error: {message}")
    assert errors.count("\n") == 1 and errors.endswith("\n")
