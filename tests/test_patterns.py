"""Pattern routing: coverage searches, two-layer routers, rail fractions."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from muxkit import patterns


def test_mask_helpers():
    assert patterns.mask_from_modes([0, 3, 5]) == 0b101001
    assert patterns.modes_from_mask(0b101001) == (0, 3, 5)
    with pytest.raises(ValueError):
        patterns.mask_from_modes([1, 1])


def test_modes_from_mask_refuses_a_negative_mask():
    # -1 >> i stays -1, so a bit loop over a negative mask never ends
    with pytest.raises(ValueError, match="mask must be >= 0"):
        patterns.modes_from_mask(-1)


def test_paired_usable_patterns():
    pats = patterns.paired_usable_patterns(8)
    assert len(pats) == 16
    assert patterns.mask_from_modes([0, 1, 2, 3]) in pats
    assert patterns.mask_from_modes([4, 5, 6, 7]) in pats
    for mask in pats:
        assert bin(mask).count("1") == 4
        assert patterns.is_paired_usable(mask, 8)
        # exactly one of {i, i+4} per column
        for i in range(4):
            assert ((mask >> i) & 1) ^ ((mask >> (i + 4)) & 1) == 1
    # both members of a pair occupied is not usable
    assert not patterns.is_paired_usable(patterns.mask_from_modes([0, 4, 1, 2]), 8)
    with pytest.raises(ValueError):
        patterns.paired_usable_patterns(7)


def test_enumerate_perfect_matchings():
    fours = list(patterns.enumerate_perfect_matchings(4))
    assert fours == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]
    assert sum(1 for _ in patterns.enumerate_perfect_matchings(8)) == 105  # 7!!


def test_routable_patterns_universal_usable_set():
    # when every balanced pattern is acceptable, any layer covers them all
    n = 6
    every = [patterns.mask_from_modes(c) for c in itertools.combinations(range(n), n // 2)]
    for layer in itertools.islice(patterns.enumerate_perfect_matchings(n), 5):
        assert patterns.count_routable(n, layer, every) == len(every)


def test_eight_mode_search_yields_66_of_70():
    res = patterns.search_optimal_coupler_layer(8)
    assert res.n_layers_searched == 105
    assert res.n_patterns == math.comb(8, 4) == 70
    assert res.n_routable == 66
    assert res.fraction == Fraction(33, 35)
    assert res.layer == patterns.optimal_coupler_layer(8)
    # every reported-routable pattern has 4 photons and maps into the usable set
    routable = patterns.routable_patterns(8, res.layer)
    assert len(routable) == 66
    for mask in routable:
        assert bin(mask).count("1") == 4


def test_eight_mode_unroutable_patterns_occupy_two_couplers():
    layer = patterns.optimal_coupler_layer(8)
    routable = patterns.routable_patterns(8, layer)
    missing = [
        patterns.mask_from_modes(c)
        for c in itertools.combinations(range(8), 4)
        if patterns.mask_from_modes(c) not in routable
    ]
    assert len(missing) == 4
    for mask in missing:
        # photons fill exactly two couplers completely
        filled = [pair for pair in layer if all((mask >> m) & 1 for m in pair)]
        assert len(filled) == 2


def test_coverage_invariant_under_usable_set_symmetry():
    # swapping the two halves maps the usable set onto itself, so coverage
    # counts are preserved under the same relabeling of any layer
    def relabel(m: int) -> int:
        return ((m & 0b1111) << 4) | (m >> 4)

    usable = patterns.paired_usable_patterns(8)
    assert sorted(map(relabel, usable)) == sorted(usable)
    rng = np.random.default_rng(5)
    layers = list(patterns.enumerate_perfect_matchings(8))
    for idx in rng.choice(len(layers), size=8, replace=False):
        layer = layers[idx]
        mapped = tuple(tuple(sorted((a + 4) % 8 for a in pair)) for pair in layer)
        n0 = patterns.count_routable(8, layer, usable)
        n1 = patterns.count_routable(8, mapped, usable)
        assert n0 == n1


def _oracle_search(n_modes):
    """Score every matching by the size of its routable set, first maximum wins: the reference search."""
    usable = patterns.paired_usable_patterns(n_modes)
    best_layer, best, searched = None, -1, 0
    for layer in patterns.enumerate_perfect_matchings(n_modes):
        searched += 1
        n = len(patterns.routable_patterns(n_modes, layer, usable))
        if n > best:
            best, best_layer = n, layer
    return patterns.LayerSearchResult(best_layer, best, math.comb(n_modes, n_modes // 2), searched)


@pytest.mark.parametrize("n_modes", [2, 4, 6, 8, 10])
def test_search_equals_the_oracle_loop(n_modes):
    res, want = patterns.search_optimal_coupler_layer(n_modes), _oracle_search(n_modes)
    assert res == want
    assert repr(res) == repr(want)  # plain int modes, as the oracle's


def test_twelve_mode_search_yields_666_of_924():
    res = patterns.search_optimal_coupler_layer(12)
    assert res.n_layers_searched == 10395  # 11!!
    assert res.n_patterns == math.comb(12, 6) == 924
    assert res.n_routable == 666
    assert res.layer == patterns.optimal_coupler_layer(12)


def test_subpattern_coverage():
    layer = patterns.optimal_coupler_layer(8)
    routable = patterns.routable_patterns(8, layer)
    # any pattern of more than 4 photons contains a routable 4-subpattern
    for k in (5, 6, 7, 8):
        assert patterns.subpattern_coverage(8, k, routable) == 1
    assert patterns.subpattern_coverage(8, 4, routable) == Fraction(66, 70)
    # too few photons can never cover
    assert patterns.subpattern_coverage(8, 3, routable) == 0
    assert patterns.subpattern_coverage(8, 0, routable) == 0


@pytest.mark.parametrize("n_modes, n_photons", [(4, 9), (4, -1), (-1, 0)])
def test_subpattern_coverage_refuses_photons_outside_the_modes(n_modes, n_photons):
    # (4, 9) has no pattern at all, which was Fraction(0, 0)
    with pytest.raises(ValueError, match="need 0 <= n_photons <= n_modes"):
        patterns.subpattern_coverage(n_modes, n_photons, [])


def test_route_two_layer_four_all_patterns():
    # every 4-photon pattern on 16 modes routes to one photon per label
    for combo in itertools.combinations(range(16), 4):
        route = patterns.route_two_layer_four(combo)
        hit = patterns.replay_two_layer_four(combo, route)
        assert sorted(hit) == [1, 2, 3, 4]
        assert all(len(wires) == 1 for wires in hit.values())
        assert sorted(w for (w,) in hit.values()) == sorted(hit[k][0] for k in hit)


def test_route_two_layer_four_identity_friendly_case():
    # one photon per unit, already split across sides: plain settings work
    combo = (0, 2, 5, 7)
    route = patterns.route_two_layer_four(combo)
    hit = patterns.replay_two_layer_four(combo, route)
    assert sorted(hit) == [1, 2, 3, 4]


def test_route_two_layer_four_concentrated_matches_brute_force():
    # all four photons inside two adjacent couplers of one unit: compare the
    # algorithm against exhaustive enumeration of the swap settings
    combo = (0, 1, 2, 3)
    route = patterns.route_two_layer_four(combo)
    assert sorted(patterns.replay_two_layer_four(combo, route)) == [1, 2, 3, 4]
    found = False
    for l1 in itertools.product((0, 1), repeat=8):
        for l2 in itertools.product((0, 1), repeat=8):
            cand = patterns.FourGroupRoute(l1, l2, {})
            hit = patterns.replay_two_layer_four(combo, cand)
            if sorted(hit) == [1, 2, 3, 4]:
                found = True
                break
        if found:
            break
    assert found


def test_route_two_layer_four_rejects_bad_patterns():
    with pytest.raises(ValueError):
        patterns.route_two_layer_four((0, 1, 2))
    with pytest.raises(ValueError):
        patterns.route_two_layer_four((0, 1, 2, 16))


def test_route_six_all_patterns():
    # every 6-photon pattern on 18 modes lands one photon on each label
    for combo in itertools.combinations(range(18), 6):
        route = patterns.route_gmzi3_layer_six(combo)
        hit = patterns.replay_gmzi3_layer_six(combo, route)
        assert sorted(hit) == [1, 2, 3, 4, 5, 6]
        assert all(len(wires) == 1 for wires in hit.values())


def test_route_six_triple_unit():
    # three photons piled into one 3-mode unit still distribute fine
    combo = (0, 1, 2, 5, 9, 13)
    route = patterns.route_gmzi3_layer_six(combo)
    assert sorted(patterns.replay_gmzi3_layer_six(combo, route)) == list(range(1, 7))
    assert all(0 <= s < 3 for s in route.unit_shifts)


def test_route_six_rejects_bad_patterns():
    with pytest.raises(ValueError):
        patterns.route_gmzi3_layer_six((0, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        patterns.route_gmzi3_layer_six((0, 1, 2, 3, 4, 18))


def test_rail_fractions():
    assert patterns.rail_pairing_success_fraction() == Fraction(45, 64)
    assert patterns.paired_coupler_success_fraction() == Fraction(33, 35)
    assert patterns.paired_coupler_success_fraction() == Fraction(66, 70)


def test_distinct_bin_fraction():
    assert patterns.distinct_bin_fraction() == Fraction(3, 32)
    assert float(patterns.distinct_bin_fraction()) == 0.09375
    # enumeration oracle: 4 rails into 4 bins, all distinct
    good = sum(
        1
        for bins in itertools.product(range(4), repeat=4)
        if len(set(bins)) == 4
    )
    assert patterns.distinct_bin_fraction() == Fraction(good, 4 ** 4)
    assert patterns.distinct_bin_fraction(1) == 1
    # the bound: n!/n^n still prints at n = 1,000, within the default int-to-str digit limit
    assert len(str(patterns.distinct_bin_fraction(1000))) == 4623
    for n in (0, 1001, 10**9):
        with pytest.raises(ValueError):
            patterns.distinct_bin_fraction(n)


def test_rail_pairing_enumeration_oracle():
    # independent check: count type assignments admitting a perfect matching
    # between photons and labels via brute force over label permutations
    good = 0
    for types in itertools.product(range(4), repeat=4):
        ok = False
        for perm in itertools.permutations((1, 2, 3, 4)):
            if all(perm[i] in patterns.COUPLER_OUTPUT_LABEL_PAIRS[t] for i, t in enumerate(types)):
                ok = True
                break
        good += ok
    assert Fraction(good, 256) == patterns.rail_pairing_success_fraction()
