"""``tools/bench_pairs.py``'s verdict on one metric, without running a benchmark."""

import importlib.util
from pathlib import Path

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
