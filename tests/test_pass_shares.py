"""``tools/pass_shares.py`` on one Plain pass of the ``dialogue`` workload."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import contmach  # noqa: E402
import contmach.cli  # noqa: E402
from pass_shares import pass_shares, workloads  # noqa: E402


def test_one_dialogue_pass_splits_into_the_workloads_kinds(monkeypatch):
    # Ops that write corpora write them under perfbench/out of the checkout.
    monkeypatch.chdir(ROOT)
    total, shares = pass_shares(contmach, contmach.cli, "dialogue", 301, 1)
    assert total > 0
    assert set(shares) == {op.kind for op in workloads.generate("dialogue", 301)}
    assert all(share > 0 for share in shares.values())
    assert sum(shares.values()) == pytest.approx(1)
