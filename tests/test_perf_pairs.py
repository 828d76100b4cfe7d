"""The verdict of tools/perf_pairs.py on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _TOOL)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _shifted(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize(
    "change, better, want",
    [
        (_shifted(PARENT, 0.90), "lower", "gain"),  # faster in every pair, by more than the IQR
        (_shifted(PARENT, 0.90), "higher", "no regression"),  # 10% lower, inside a 25% bound
        (_shifted(PARENT, 1.10), "higher", "gain"),
        (_shifted(PARENT, 1.30), "lower", "worse"),  # median 30% worse, over the 25% bound
        (_shifted(PARENT, 0.70), "higher", "worse"),
        (list(PARENT), "lower", "no regression"),  # ties count for neither side
        (_shifted(PARENT, 0.99), "lower", "no regression"),  # wins every pair, but by less than the IQR
        ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1], "lower", "unresolved"),  # the change's IQR > 25%
    ],
)
def test_verdict(change, better, want):
    assert perf_pairs.verdict(PARENT, change, better, 0.25) == want


def test_a_wide_spread_is_unresolved_unless_every_change_run_is_better():
    parent = [1.0, 2.0, 1.2, 1.8, 1.4, 1.6, 1.1, 1.9, 1.3, 1.7]  # IQR 0.65, over 25% of the median 1.45
    assert perf_pairs.verdict(parent, list(parent), "lower", 0.25) == "unresolved"
    # every change run beats every parent run, by less than the parent's IQR: resolved, but no gain
    assert perf_pairs.verdict(parent, [0.9] * 10, "lower", 0.25) == "no regression"
    assert perf_pairs.verdict(parent, [0.5] * 10, "lower", 0.25) == "gain"


def test_gain_needs_nine_pairs_in_ten():
    change = _shifted(PARENT, 0.90)
    change[:2] = [PARENT[0], PARENT[1] * 1.01]  # a tie and a loss: 8 of 10 won
    assert perf_pairs.verdict(PARENT, change, "lower", 0.25) == "no regression"


def test_no_gain_when_the_change_fails_a_larger_share_of_operations():
    change = _shifted(PARENT, 0.90)  # a gain on the timings alone
    assert perf_pairs.verdict(PARENT, change, "lower", 0.25, failed=(0.0, 0.0)) == "gain"
    assert perf_pairs.verdict(PARENT, change, "lower", 0.25, failed=(0.01, 0.01)) == "gain"
    assert perf_pairs.verdict(PARENT, change, "lower", 0.25, failed=(0.0, 0.001)) == "no regression"
