"""``tools/bench_pairs.py``'s verdict on one metric, its reading of a run's
stderr and the environment of its runs, without running a benchmark."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def metric(better, bound=0.2):
    return {"unit": "x", "better": better, "bound": bound}


# Ten runs per side, as the tool makes; a tight parent spread.
PARENT = [100.0] * 10


@pytest.mark.parametrize("better, at_bound, beyond", [
    ("lower", 120.0, 121.0),
    ("higher", 80.0, 79.0),
])
def test_change_at_the_bound_is_within_it(better, at_bound, beyond):
    verdict = bench_pairs.compare(metric(better), PARENT, [at_bound] * 10)
    assert verdict["within_bound"]
    assert verdict["relative_change"] == pytest.approx(at_bound / 100 - 1)
    assert verdict["pairs_change_better"] == 0
    assert not verdict["unresolved"]
    assert not bench_pairs.compare(metric(better), PARENT,
                                   [beyond] * 10)["within_bound"]


@pytest.mark.parametrize("better, gain", [("lower", 90.0), ("higher", 110.0)])
def test_better_change_counts_its_pairs(better, gain):
    change = [gain] * 9 + [100.0]
    verdict = bench_pairs.compare(metric(better), PARENT, change)
    assert verdict["within_bound"] and not verdict["unresolved"]
    assert verdict["pairs_change_better"] == 9
    assert verdict["parent"]["median"] == 100.0
    assert verdict["change"]["runs"] == change


# Relative interquartile distance 45 / 105 ~ 0.43, wider than the bound.
WIDE = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]


@pytest.mark.parametrize("better, separated", [("lower", 59.0), ("higher", 151.0)])
def test_wide_parent_spread_is_unresolved_unless_separated(better, separated):
    same = bench_pairs.compare(metric(better), WIDE, list(WIDE))
    assert same["parent_relative_iqr"] == pytest.approx(45 / 105)
    assert same["within_bound"] and same["unresolved"]
    apart = bench_pairs.compare(metric(better), WIDE, [separated] * 10)
    assert not apart["unresolved"]
    assert apart["pairs_change_better"] == 10


# The summary ``perfbench/run.py`` prints on stderr, as of a 20 s run.
STDERR = (
    "dialogue seed 301: 66 ops x 393 passes in 20.0 s, 7 ops beyond p90, "
    "error_rate 0.0000; unscaled ops_per_s 3243.10, p50 0.2101 ms, "
    "p90 0.6312 ms; calibration 1.02 ms [0.98, 1.30]; python 3.11.7, "
    "nproc 2, loadavg 0.52 0.40 0.33\n")


def test_pass_count_is_read_from_the_summary():
    assert bench_pairs.passes(STDERR) == 393
    assert bench_pairs.passes("warming up\n" + STDERR.replace("393", "7")) == 7


def test_missing_pass_count_is_an_error():
    with pytest.raises(RuntimeError, match="no pass count"):
        bench_pairs.passes("dialogue seed 301: 66 ops in 20.0 s\n")


def test_both_sides_run_without_cached_bytecode(monkeypatch, tmp_path):
    # A checkout's ``__pycache__`` must not speed up its side: each run gets
    # writing off and a fresh, empty bytecode cache outside both checkouts.
    parent, change = tmp_path / "parent", bench_pairs.ROOT
    calls = []

    def run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        calls.append((cwd, env["PYTHONDONTWRITEBYTECODE"], cache,
                      cache.is_dir() and not any(cache.iterdir())))
        result = {"correct": True, "failed": 0,
                  "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}
        return SimpleNamespace(returncode=0, stdout=json.dumps(result) + "\n",
                               stderr=STDERR)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for checkout in (parent, change, change, parent):
        run_ = bench_pairs.run_once(checkout, "dialogue", 301, 1)
        assert run_["passes"] == 393 and run_["metrics"] == {"ops_per_s": 1.0}
    assert [cwd for cwd, *_ in calls] == [parent, change, change, parent]
    caches = [cache for _, _, cache, _ in calls]
    assert len(set(caches)) == len(caches)
    for _, dont_write, cache, empty in calls:
        assert dont_write == "1" and empty
        for checkout in (parent, change):
            assert checkout.resolve() not in cache.resolve().parents
        assert not cache.exists()


@pytest.mark.parametrize("better, gain", [("lower", 90.0), ("higher", 110.0)])
def test_gain_needs_nine_of_ten_pairs(better, gain):
    nine = bench_pairs.compare(metric(better), PARENT, [gain] * 9 + [100.0])
    assert nine["pairs_change_better"] == 9 and nine["gain"]
    eight = bench_pairs.compare(metric(better), PARENT, [gain] * 8 + [100.0] * 2)
    assert eight["pairs_change_better"] == 8 and not eight["gain"]
    assert eight["relative_change"] == pytest.approx(gain / 100 - 1)


@pytest.mark.parametrize("better, step", [("lower", -1.0), ("higher", 1.0)])
def test_gain_needs_the_median_to_move_beyond_the_parent_iqr(better, step):
    # Every pair won by a step far inside the parent's relative IQR (~0.43).
    near = bench_pairs.compare(metric(better), WIDE, [p + step for p in WIDE])
    assert near["pairs_change_better"] == 10
    assert abs(near["relative_change"]) < near["parent_relative_iqr"]
    assert not near["gain"]
    # A move of exactly the IQR is not more than it; one unit further is.
    iqr = 45.0
    at = bench_pairs.compare(metric(better), WIDE,
                             [p + step * iqr for p in WIDE])
    assert abs(at["relative_change"]) == pytest.approx(at["parent_relative_iqr"])
    assert at["pairs_change_better"] == 10 and not at["gain"]
    beyond = bench_pairs.compare(metric(better), WIDE,
                                 [p + step * (iqr + 1) for p in WIDE])
    assert beyond["gain"]


@pytest.mark.parametrize("better, worse", [("lower", 110.0), ("higher", 90.0)])
def test_a_worse_change_is_no_gain(better, worse):
    verdict = bench_pairs.compare(metric(better), PARENT, [worse] * 10)
    assert verdict["pairs_change_better"] == 0 and not verdict["gain"]
    # The same runs read the other way round are a gain.
    assert bench_pairs.compare(metric(better), [worse] * 10, PARENT)["gain"]
