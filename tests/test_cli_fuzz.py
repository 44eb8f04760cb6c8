"""``contmach.cli.main`` on argument vectors chosen to break it: every one
ends in exit code 0, 1 or 2, never in another exception, and a huge
``--index`` is refused at once.

The fuzzed examples are derandomized and no example database is kept, so every run
tries the same vectors.  Hypothesis's own cache of the constants it reads in
local source files goes to the temporary directory the runs work in, so the
test writes nothing outside it.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from contmach.cli import main  # noqa: E402

#: Rational texts: free text, ``p/q`` forms, and literals near the limits.
RATIONALS = st.one_of(
    st.text(max_size=12),
    st.fractions().map(str),
    st.sampled_from(["0", "7/5", "-3", "1e-6", "1/1024", "1e-4299",
                     "1e-5000", "1e99999999"]),
)
#: Any natural number, with the powers of two just below and above the
#: printable limit and indices far past it.
INDICES = st.one_of(st.integers(min_value=0, max_value=64),
                    st.integers(min_value=14_280, max_value=14_290),
                    st.integers(min_value=0),
                    st.integers(min_value=10 ** 20, max_value=10 ** 40))
PIPELINES = st.lists(st.one_of(st.sampled_from(["invert", "sign"]),
                               st.text(max_size=8)),
                     max_size=3).map("|".join)
SCHEDULES = st.sampled_from(["linear", "powers_of_two"])
MACHINES = st.sampled_from(["invert", "sign"])


def _flag(name, strategy):
    """``--name=value``, or nothing when the flag is left out."""
    return st.one_of(st.just([]), strategy.map(lambda value: [f"--{name}={value}"]))


@st.composite
def argument_vectors(draw, workdir):
    """One argument vector, and the corpus text a ``check`` run reads."""
    command = draw(st.sampled_from(
        ["invert", "sign", "compose", "associate-trace", "check"]))
    value = f"--value={draw(RATIONALS)}"
    effort = f"--max-effort={draw(st.integers(0, 16))}"
    corpus = None
    if command == "invert":
        argv = [value, f"--eps={draw(RATIONALS)}", effort,
                *draw(_flag("schedule", SCHEDULES))]
    elif command == "sign":
        argv = [value, effort]
    elif command == "compose":
        argv = [f"--pipeline={draw(PIPELINES)}", value, effort,
                *draw(_flag("eps", RATIONALS)), *draw(_flag("index", INDICES)),
                *draw(_flag("schedule", SCHEDULES))]
    elif command == "associate-trace":
        argv = [f"--machine={draw(MACHINES)}", value,
                f"--max-rounds={draw(st.integers(0, 24))}",
                *draw(_flag("eps", RATIONALS)), *draw(_flag("index", INDICES))]
    else:
        points = st.fixed_dictionaries({
            "point": RATIONALS,
            "name_kind": st.one_of(st.sampled_from(["exact", "grid"]),
                                   st.text(max_size=5)),
        })
        corpus = draw(st.one_of(st.lists(points, max_size=3).map(json.dumps),
                                st.text(max_size=12)))
        argv = [f"--machine={draw(MACHINES)}",
                f"--corpus={os.path.join(workdir, 'corpus.json')}",
                f"--fuel-cap={draw(st.integers(0, 8))}"]
    argv += draw(_flag("format", st.sampled_from(["json", "text"])))
    argv += draw(_flag("output", st.sampled_from(
        [os.path.join(workdir, "out.json"),
         os.path.join(workdir, "missing", "out.json")])))
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
    with tempfile.TemporaryDirectory(prefix="contmach-fuzz-") as workdir:

        @settings(derandomize=True, max_examples=250, deadline=None,
                  database=None)
        @given(argument_vectors(workdir))
        def run(case):
            argv, corpus = case
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

        set_hypothesis_home_dir(workdir)
        try:
            with _address_space_cap(2 ** 30):
                run()
        finally:
            set_hypothesis_home_dir(None)
    assert time.perf_counter() - started < 10


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
