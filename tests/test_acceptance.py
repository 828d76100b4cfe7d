"""End-to-end release gate: every numbered check must pass in full mode.

The heavy work runs once per session; each test reports one check so a
failure names the exact criterion and its measured values.
"""

import hashlib

import pytest

from muxkit import acceptance

PROBE_SHA256 = "099f8e1e541393d4cbc9a52daa33eda84cb8805c84256b7be98cc20aa93581c4"

EXPECTED_NAMES = [
    "device classification",
    "device permutations",
    "swing reduction and six-vector settings",
    "quarter-swing orthogonality bound",
    "pattern-coverage fractions",
    "full routability of the two-layer networks",
    "yield maxima",
    "six-photon supply improvement",
    "bell-generator success probability",
    "mux-count reduction factor",
    "rastering",
    "sequence-driven delay mux",
    "grid-mux yield bounds",
    "temporal permutations",
    "feedforward tables",
    "reproducibility",
]


@pytest.fixture(scope="session")
def results():
    return acceptance.run_all(quick=False)


def _check(results, index):
    r = results[index - 1]
    print(f"[{'PASS' if r.passed else 'FAIL'}] check {r.index:02d} {r.name}: {r.detail}")
    assert r.index == index
    assert r.name == EXPECTED_NAMES[index - 1]
    assert r.in_budget, f"check {index} took {r.seconds:.1f}s, budget {r.budget}s"
    assert r.passed, r.detail


def test_suite_shape(results):
    assert [r.index for r in results] == list(range(1, 17))
    assert [r.name for r in results] == EXPECTED_NAMES


def test_01_device_classification(results):
    _check(results, 1)


def test_02_device_permutations(results):
    _check(results, 2)


def test_03_swing_reduction_and_six_vector_settings(results):
    _check(results, 3)


def test_04_quarter_swing_orthogonality_bound(results):
    _check(results, 4)


def test_05_pattern_coverage_fractions(results):
    _check(results, 5)


def test_06_full_routability_of_two_layer_networks(results):
    _check(results, 6)


def test_07_yield_maxima(results):
    _check(results, 7)


def test_08_six_photon_supply_improvement(results):
    _check(results, 8)


def test_09_bell_generator_success_probability(results):
    _check(results, 9)


def test_10_mux_count_reduction_factor(results):
    _check(results, 10)


def test_11_rastering(results):
    _check(results, 11)


def test_12_sequence_driven_delay_mux(results):
    _check(results, 12)


def test_13_grid_mux_yield_bounds(results):
    _check(results, 13)


def test_14_temporal_permutations(results):
    _check(results, 14)


def test_15_feedforward_tables(results):
    _check(results, 15)


def test_16_reproducibility(results):
    _check(results, 16)


def test_reproducibility_probe_is_frozen():
    # pins the same bytes as check 16, from a literal of its own
    probe = acceptance.reproducibility_probe()
    assert hashlib.sha256(probe.encode()).hexdigest() == PROBE_SHA256
