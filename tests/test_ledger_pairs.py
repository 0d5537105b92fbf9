"""The verdicts ``scripts/ledger_pairs.py`` ends with, one per metric."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ledger_pairs.py"
_spec = importlib.util.spec_from_file_location("ledger_pairs", _SCRIPT)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

BASE = [1.00, 1.01, 1.02, 0.99, 1.00, 1.01, 0.98, 1.00, 1.02, 0.99]


def _verdict(change, sign=1, bound=0.25):
    wins = sum(sign * c < sign * b for c, b in zip(change, BASE))
    return ledger_pairs.verdict(BASE, change, wins, sign, bound)


@pytest.mark.parametrize(
    ("change", "sign", "bound", "expected"),
    [
        ([b - 0.1 for b in BASE], 1, 0.25, "gain"),
        ([b + 0.1 for b in BASE], -1, 0.25, "gain"),  # higher is better
        ([b + 0.001 * (i % 2) for i, b in enumerate(BASE)], 1, 0.25, "within bound"),
        ([b + 0.1 for b in BASE], 1, 0.05, "worse than bound"),
        ([b * (1 + (i % 2)) for i, b in enumerate(BASE)], 1, 0.25, "unresolved"),
    ],
    ids=["lower-better gain", "higher-better gain", "noise", "worse", "wide spread"],
)
def test_verdict(change, sign, bound, expected):
    assert _verdict(change, sign, bound) == expected


def test_eight_wins_of_ten_are_no_gain():
    change = [b - 0.1 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
    assert _verdict(change) == "within bound"
