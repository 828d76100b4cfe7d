"""Closed-form probability and yield engine against independent oracles."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from muxkit import analytics


def _tail_fraction(n: int, p: Fraction, m: int) -> Fraction:
    # exact binomial survival function
    q = 1 - p
    return sum(
        math.comb(n, k) * p ** k * q ** (n - k) for k in range(m, n + 1)
    ) if m <= n else Fraction(0)


def test_p_mux_single_frozen_and_limits():
    assert analytics.p_mux_single(16, 0.0) == 0.0
    assert analytics.p_mux_single(16, 1.0) == 1.0
    assert analytics.p_mux_single(64, 0.05) == pytest.approx(0.9624758607888839, abs=1e-15)
    with pytest.raises(ValueError):
        analytics.p_mux_single(16, 1.2)
    with pytest.raises(ValueError, match="n_sources"):
        analytics.p_mux_single(-1, 0.1)


def test_group_pmux_against_exact_tails():
    # naive: all m branches fire; optimal: any m of N sources fire
    assert analytics.naive_group_pmux(16, 0.25, 4) == pytest.approx(
        float(Fraction(175, 256) ** 4), abs=1e-15
    )
    assert analytics.naive_group_pmux(8, 0.5, 4) == pytest.approx((0.75) ** 4, abs=1e-15)
    assert analytics.naive_group_pmux(16, 0.0, 4) == 0.0
    assert analytics.optimal_group_pmux(16, 1.0, 4) == 1.0
    assert analytics.optimal_group_pmux(16, 0.25, 4) == pytest.approx(
        float(_tail_fraction(16, Fraction(1, 4), 4)), rel=1e-12
    )
    assert analytics.optimal_group_pmux(48, 0.05, 6) == pytest.approx(
        float(_tail_fraction(48, Fraction(1, 20), 6)), rel=1e-12
    )
    assert analytics.optimal_group_pmux(48, 0.05, 6) == pytest.approx(0.0321, abs=5e-4)
    # non-divisible counts split as evenly as possible
    assert analytics.naive_group_pmux(10, 0.1, 4) == pytest.approx(
        analytics.p_mux_single(3, 0.1) ** 2 * analytics.p_mux_single(2, 0.1) ** 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        analytics.naive_group_pmux(3, 0.1, 4)
    for m in (0, -2):
        with pytest.raises(ValueError, match="m must be >= 1"):
            analytics.optimal_group_pmux(16, 0.1, m)


def test_optimal_dominates_naive_on_grid():
    for n, m in [(16, 4), (48, 6), (64, 4), (96, 8)]:
        for p in np.linspace(0.01, 0.99, 25):
            assert analytics.optimal_group_pmux(n, p, m) >= analytics.naive_group_pmux(n, p, m) - 1e-12


def test_binom_tail_matches_fraction_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, n + 1))
        p = Fraction(int(rng.integers(0, 33)), 32)
        assert analytics.binom_tail(n, float(p), m) == pytest.approx(
            float(_tail_fraction(n, p, m)), rel=1e-10, abs=1e-300
        )


@pytest.mark.parametrize(
    "n, p, m",
    [(2000, 0.5, 1001), (2000, 0.5, 1000), (2400, 0.375, 900), (3000, 0.8125, 2400), (3000, 0.5, 1500)],
)
def test_binom_tail_beyond_float_binomial_coefficients(n, p, m):
    # math.comb(n, k) overflows a float for these n; the 1 - fsum(head) side keeps its cancellation
    assert abs(analytics.binom_tail(n, p, m) - float(_tail_fraction(n, Fraction(p), m))) <= 1e-12


def test_optimal_group_pmux_beyond_float_binomial_coefficients():
    # mean 1500, sd 32: the tail at 2000 is below 1e-40
    assert abs(analytics.optimal_group_pmux(5000, 0.3, 2000)) <= 1e-12


def test_closed_forms_reject_bad_input():
    nan = float("nan")
    for n in (0, -12, 6):
        with pytest.raises(ValueError, match="n_sources"):
            analytics.ghz_improvement_factors(n, 0.05)
    with pytest.raises(ValueError, match="p > 0"):
        analytics.ghz_improvement_factors(48, 0.0)
    for lam in (nan, -1.0, -1e-300, math.inf):
        for call in (
            lambda: analytics.poisson_pmf(lam, 2),
            lambda: analytics.poisson_tail(lam, 2),
            lambda: analytics.yield_multi_generator(lam, 4, 1),
            lambda: analytics.yield_multi_generator(lam, 4, 2, sharing=False),
        ):
            with pytest.raises(ValueError, match="lam"):
                call()
    for m in (0, 1, 2):
        with pytest.raises(ValueError, match="n must be"):
            analytics.binom_tail(-1, 0.5, m)
    # lam = 0 is an empty bank, as the grid bound reads it at p = 0
    assert analytics.poisson_pmf(0.0, 0) == 1.0
    assert analytics.poisson_tail(0.0, 2) == 0.0
    assert analytics.yield_multi_generator(0.0, 4, 1) == 0.0
    assert analytics.binom_tail(0, 0.5, 0) == 1.0


def test_poisson_approximates_binomial_tail():
    # large N, small p: tails agree to 0.01
    for n in (100, 200, 400):
        for p in (0.01, 0.03, 0.05):
            for m in (1, 2, 4, 8):
                b = analytics.binom_tail(n, p, m)
                q = analytics.poisson_tail(n * p, m)
                assert abs(b - q) <= 0.01, (n, p, m)


def test_poisson_pmf_normalizes():
    lam = 3.7
    total = sum(analytics.poisson_pmf(lam, k) for k in range(80))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_yield_multi_generator_bounds_and_maxima():
    for lam in np.linspace(0.2, 30, 12):
        for g in (1, 2, 3):
            for sharing in (False, True):
                y = analytics.yield_multi_generator(lam, 4, g, sharing)
                assert 0.0 <= y <= 1.0
    lam1, y1 = analytics.max_yield(4, 1)
    lam2, y2 = analytics.max_yield(4, 2)
    lam3, y3 = analytics.max_yield(4, 3)
    assert y1 == pytest.approx(0.5882979747905925, abs=1e-9)
    assert y2 == pytest.approx(0.7554134250537626, abs=1e-9)
    assert y3 == pytest.approx(0.8292226937240279, abs=1e-9)
    # two-decimal anchors
    assert abs(y1 - 0.59) <= 0.01
    assert abs(y2 - 0.76) <= 0.01
    assert abs(y3 - 0.83) <= 0.01
    assert lam1 < lam2 < lam3
    for m, g in ((0, 1), (4, 0), (-1, 2)):
        for sharing in (False, True):
            with pytest.raises(ValueError, match="m >= 1 and g >= 1"):
                analytics.yield_multi_generator(5.0, m, g, sharing)


def test_six_photon_groups_keep_the_ordering():
    # same structure at group size 6: sharing with more generators wins
    for lam in np.linspace(1.0, 30, 8):
        non = analytics.yield_multi_generator(lam, 6, 3, sharing=False)
        sh = analytics.yield_multi_generator(lam, 6, 3, sharing=True)
        assert sh >= non - 1e-12
    _, y61 = analytics.max_yield(6, 1)
    _, y63 = analytics.max_yield(6, 3)
    assert y63 >= y61


def test_required_sources_ratio():
    n_naive, n_opt, ratio = analytics.required_sources_ratio(0.05, 0.99, 4)
    assert (n_naive, n_opt) == (467, 198)
    assert ratio == pytest.approx(2.3585858585858586, abs=1e-12)
    assert abs(ratio - 2.3) <= 0.1
    # checks that the minimal counts actually sit on the boundary
    assert analytics.naive_group_pmux(n_naive, 0.05, 4) >= 0.99
    assert analytics.naive_group_pmux(n_naive - 1, 0.05, 4) < 0.99
    assert analytics.optimal_group_pmux(n_opt, 0.05, 4) >= 0.99
    assert analytics.optimal_group_pmux(n_opt - 1, 0.05, 4) < 0.99
    _, _, r9 = analytics.required_sources_ratio(0.05, 0.9, 4)
    assert 2.0 < r9 < 2.6
    with pytest.raises(ValueError):
        analytics.required_sources_ratio(0.0, 0.99, 4)
    for target in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="target must be in"):
            analytics.required_sources_ratio(0.05, target, 4)


def test_squeezed_source():
    r0, v0 = analytics.squeezed_source(0.0)
    assert (r0, v0) == (0.0, 1.0)
    _, v25 = analytics.squeezed_source(0.25)
    assert v25 == pytest.approx(0.5, abs=1e-12)
    r, v = analytics.squeezed_source(0.05)
    assert v == pytest.approx(0.9472135954999579, abs=1e-12)
    # herald probability back from r: p = tanh^2 r / cosh^2 r
    assert math.tanh(r) ** 2 / math.cosh(r) ** 2 == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ValueError):
        analytics.squeezed_source(0.3)


def _per_source_dist(p: float) -> tuple[float, float, float]:
    # squeezed source photon-number classes: 0, 1, >= 2
    _, p_vac = analytics.squeezed_source(p)
    return p_vac, p, 1.0 - p_vac - p


def test_p4_ballistic_enumeration_oracle():
    # 8 sources in 4 pairs; success = 4 pairs each holding exactly one single
    for p in (0.02, 0.05, 0.1):
        probs = _per_source_dist(p)
        total = 0.0
        for outcome in itertools.product(range(3), repeat=8):
            ok = all(
                sorted((outcome[2 * i], outcome[2 * i + 1])) == [0, 1] for i in range(4)
            )
            if ok:
                total += math.prod(probs[o] for o in outcome)
        assert analytics.p4_ballistic(8, p) == pytest.approx(total, rel=1e-12)
    assert analytics.p4_ballistic(8, 0.0) == 0.0
    assert analytics.p4_ballistic(8, 0.05) == pytest.approx(8.049922359499621e-05, rel=1e-12)
    with pytest.raises(ValueError):
        analytics.p4_ballistic(7, 0.05)
    with pytest.raises(ValueError):
        analytics.p4_ballistic(8, 0.3)
    with pytest.raises(ValueError):
        analytics.p4_ballistic(6, 0.05)


def test_p4_blocking_tail_oracle_and_dominance():
    # blocking pair fires iff either source heralds
    for n in (8, 12, 16):
        for p in (0.02, 0.05, 0.1, 0.25):
            pair = 1.0 - (1.0 - p) ** 2
            assert analytics.p4_blocking(n, p) == pytest.approx(
                analytics.binom_tail(n // 2, pair, 4), rel=1e-12
            )
    assert analytics.p4_blocking(8, 1.0) == 1.0
    assert analytics.p4_blocking(8, 0.05) == pytest.approx(9.036878906265589e-05, rel=1e-12)
    for p in np.linspace(0.0, 0.25, 11):
        assert analytics.p4_blocking(8, p) >= analytics.p4_ballistic(8, p) - 1e-15
    for n in (9, 11, 6, 0):
        with pytest.raises(ValueError, match="even n_sources >= 8"):
            analytics.p4_blocking(n, 0.1)


def test_p4_with_premux():
    assert analytics.p4_with_premux(32, 0.05, 1) == analytics.p4_blocking(32, 0.05)
    assert analytics.p4_with_premux(32, 0.05, 2) == pytest.approx(
        analytics.p4_blocking(16, 1.0 - 0.95 ** 2), rel=1e-12
    )
    with pytest.raises(ValueError):
        analytics.p4_with_premux(32, 0.05, 3)


def test_p_bsg():
    assert analytics.p_bsg(8) == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert analytics.p_bsg(16) == pytest.approx(0.1125, abs=1e-12)
    assert analytics.p_bsg(512) == pytest.approx(3.0 / 32.0, rel=0.01)
    assert analytics.p_bsg(10 ** 6) == pytest.approx(3.0 / 32.0, rel=1e-4)
    with pytest.raises(ValueError):
        analytics.p_bsg(6)
    with pytest.raises(ValueError):
        analytics.p_bsg(9)


def test_footprint():
    fp = analytics.footprint(64, 0.05, 0.3, 3.0 / 32.0, 0.99)
    assert fp.sources == pytest.approx(64 * fp.copies, rel=1e-12)
    assert abs(fp.sources_approx / fp.sources - 1.0) < 0.05
    # approximation converges as the per-shot success shrinks
    tiny = analytics.footprint(64, 0.0005, 0.3, 3.0 / 32.0, 0.99)
    assert abs(tiny.sources_approx / tiny.sources - 1.0) < 0.005
    # vanishing target needs a vanishing system
    small = analytics.footprint(64, 0.05, 0.3, 3.0 / 32.0, 1e-9)
    assert small.sources < 1e-5
    with pytest.raises(ValueError):
        analytics.footprint(64, 0.0, 0.3, 3.0 / 32.0, 0.99)


def test_raster_yield_rejects_bad_input():
    assert analytics.raster_yield("one-mux", 16, 0.0) == 0.0
    for n in (0, -4):
        with pytest.raises(ValueError):
            analytics.raster_yield("one-mux", n, 0.1)
    # p = 0 still resolves the strategy and checks that m divides n
    for strategy, n in (("bogus", 16), ("two-mux", 15), ("four-mux", 18)):
        for p in (0.0, 0.1):
            with pytest.raises(ValueError):
                analytics.raster_yield(strategy, n, p)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            analytics.raster_yield("one-mux", 16, p)


def test_raster_rates():
    assert analytics.raster_rate("one-mux", 16, 1.0) == pytest.approx(1.0)
    assert analytics.raster_rate("four-mux", 16, 1.0) == pytest.approx(4.0)
    for n in (16, 64):
        for p in (0.05, 0.2):
            r1 = analytics.raster_rate("one-mux", n, p)
            assert r1 == pytest.approx(analytics.p_mux_single(n, p) ** 4, rel=1e-12)
            r2 = analytics.raster_rate("two-mux", n, p)
            assert r2 == pytest.approx(2 * analytics.p_mux_single(n // 2, p) ** 4, rel=1e-12)
            r3 = analytics.raster_rate("four-mux", n, p)
            r4 = analytics.raster_rate("four-mux-interleaved", n, p)
            assert r3 == r4 == pytest.approx(4 * analytics.p_mux_single(n // 4, p) ** 4, rel=1e-12)
    with pytest.raises(ValueError):
        analytics.raster_rate("two-mux", 15, 0.05)
    with pytest.raises(ValueError):
        analytics.raster_rate("four-mux", 18, 0.05)
    with pytest.raises(ValueError):
        analytics.raster_rate("bogus", 16, 0.05)


def test_max_raster_yield():
    x, y = analytics.max_raster_yield()
    assert y == pytest.approx(0.28498948965807586, abs=1e-9)
    assert abs(y - 0.29) <= 0.01
    # all four strategies peak at the same per-photon yield
    for strat in ("two-mux", "four-mux"):
        _, ys = analytics.max_raster_yield(strat)
        assert ys == pytest.approx(y, abs=1e-6)
    assert x > 0
    # the aliases name the one-mux and two-mux strategies
    assert analytics.max_raster_yield("i") == analytics.max_raster_yield("one-mux")
    assert analytics.max_raster_yield("ii") == analytics.max_raster_yield("two-mux")
    with pytest.raises(ValueError):
        analytics.max_raster_yield("bogus")


def test_raster_crossover():
    n = analytics.raster_crossover(0.05)
    assert n == pytest.approx(94.27818440743465, abs=1e-6)
    assert 80 <= n <= 112
    # rates really cross there
    lo = analytics.raster_rate("one-mux", 88, 0.05) - analytics.raster_rate("four-mux", 88, 0.05)
    hi = analytics.raster_rate("one-mux", 104, 0.05) - analytics.raster_rate("four-mux", 104, 0.05)
    assert lo > 0 > hi
    with pytest.raises(ValueError):
        analytics.raster_crossover(0.05, lo=512.0, hi=1024.0)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            analytics.raster_crossover(p)


def test_ghz_improvement_factors():
    f = analytics.ghz_improvement_factors()
    assert f["mzi-layer"] == pytest.approx(7.04275878392184, rel=1e-9)
    assert f["optimal"] == pytest.approx(21.810352404795946, rel=1e-9)
    assert f["doubled"] == pytest.approx(21.184205900888763, rel=1e-9)
    assert abs(f["mzi-layer"] - 7.0) <= 0.2
    assert abs(f["optimal"] - 22.0) <= 1.0
    assert abs(f["doubled"] - 21.0) <= 1.0


def test_enlarged_gmzi_mux_reduction():
    r = analytics.enlarged_gmzi_mux_reduction()
    assert r == pytest.approx(1.5549853910541198, abs=1e-12)
    assert abs(r - 1.555) <= 0.005
    assert r == pytest.approx(math.log(1 - 3 / 16) / math.log(1 - 1 / 8), rel=1e-12)
    # same quality both sides: no reduction
    assert analytics.enlarged_gmzi_mux_reduction(q_base=0.125, q_boosted=0.125) == pytest.approx(1.0)
    # target-independent in the continuous form
    assert analytics.enlarged_gmzi_mux_reduction(target=0.5) == pytest.approx(r, rel=1e-12)
    for target in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="target must be in"):
            analytics.enlarged_gmzi_mux_reduction(target=target)
    for kw in (dict(q_base=0.0), dict(q_base=1.0), dict(q_boosted=0.0), dict(q_boosted=1.5), dict(q_boosted=float("nan"))):
        with pytest.raises(ValueError, match="group rates"):
            analytics.enlarged_gmzi_mux_reduction(**kw)


def test_closed_forms_against_monte_carlo():
    # 1e6-draw vectorized checks, three parameter points each, 3 sigma slack
    rng = np.random.default_rng(123)
    trials = 1_000_000

    def within(sample_mean, expected, n=trials):
        se = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
        assert abs(sample_mean - expected) <= 3 * se + 1e-9

    for p in (0.02, 0.05, 0.1):
        hits = rng.binomial(16, p, size=trials) >= 1
        within(hits.mean(), analytics.p_mux_single(16, p))
    for p in (0.05, 0.1, 0.25):
        counts = rng.binomial(48, p, size=trials)
        within((counts >= 4).mean(), analytics.optimal_group_pmux(48, p, 4))
        branches = rng.binomial(12, p, size=(trials, 4))
        within((branches >= 1).all(axis=1).mean(), analytics.naive_group_pmux(48, p, 4))
    for lam in (2.0, 4.881281598710384, 9.0):
        x = rng.poisson(lam, size=trials)
        y = 4 * np.minimum(2, x // 4) / lam
        mc = float(y.mean())
        se = float(y.std(ddof=1)) / math.sqrt(trials)
        assert abs(mc - analytics.yield_multi_generator(lam, 4, 2, True)) <= 3 * se
        xg = rng.poisson(lam / 2, size=(trials, 2))
        yg = 4 * (xg >= 4).sum(axis=1) / lam
        mcg = float(yg.mean())
        seg = float(yg.std(ddof=1)) / math.sqrt(trials)
        assert abs(mcg - analytics.yield_multi_generator(lam, 4, 2, False)) <= 3 * seg


# Each closed form at two fixed arguments, every float pinned by float.hex:
# the CLI's CSV rows print 12 significant digits, so a one-ulp move would
# still pass tests/cli_frozen.json.  Ints in a result are pinned as ints.
CLOSED_FORM_BITS = [
    ('p_mux_single', (16, 0.1), ['0x1.a120180202be9p-1']),
    ('p_mux_single', (7, 0.37), ['0x1.ebd5196b8106ep-1']),
    ('binom_tail', (20, 0.1, 3), ['0x1.4ad3b317b3b0ap-2']),
    ('binom_tail', (64, 0.3, 17), ['0x1.887cd7fc0d71cp-1']),
    ('poisson_pmf', (0.8, 2), ['0x1.2678e40f6f2e9p-3']),
    ('poisson_pmf', (3.5, 7), ['0x1.3bcb7ab4a3312p-5']),
    ('poisson_tail', (0.8, 2), ['0x1.8797fd292e9b0p-3']),
    ('poisson_tail', (3.5, 7), ['0x1.0b6b8818eb3c0p-4']),
    ('naive_group_pmux', (24, 0.1, 2), ['0x1.07a1f05639b9cp-1']),
    ('naive_group_pmux', (48, 0.05, 4), ['0x1.6da562fb9aa31p-5']),
    ('optimal_group_pmux', (24, 0.1, 2), ['0x1.6a4075cd8e127p-1']),
    ('optimal_group_pmux', (48, 0.05, 4), ['0x1.be642fdc78b84p-3']),
    ('required_sources_ratio', (0.1, 0.9, 2), [57, 38, '0x1.8000000000000p+0']),
    ('required_sources_ratio', (0.05, 0.95, 4), [341, 153, '0x1.1d47f29d47f2ap+1']),
    ('yield_multi_generator', (1.5, 3, 2, True), ['0x1.909b87b889613p-2']),
    ('yield_multi_generator', (2.5, 4, 3, False), ['0x1.999eef0870280p-5']),
    ('max_yield', (2, 2, True), ['0x1.712c561966cfcp+1', '0x1.89fdfede009e6p-1']),
    ('max_yield', (3, 2, False), ['0x1.b11b4745d4bd1p+2', '0x1.2a497a23eba75p-1']),
    ('squeezed_source', (0.1,), ['0x1.65a1ecb67edb5p-2', '0x1.c64bf7a1fb924p-1']),
    ('squeezed_source', (0.25,), ['0x1.c34366179d428p-1', '0x1.0000000000000p-1']),
    ('p4_ballistic', (16, 0.1), ['0x1.b4fe12d99a1e7p-6']),
    ('p4_ballistic', (32, 0.05), ['0x1.4697188f59f73p-5']),
    ('p4_blocking', (16, 0.1), ['0x1.85a11d37e0ae0p-5']),
    ('p4_blocking', (32, 0.05), ['0x1.0393a49b154f0p-4']),
    ('p4_with_premux', (16, 0.1, 2), ['0x1.ca5493510911ap-7']),
    ('p4_with_premux', (32, 0.05, 4), ['0x1.a488a8c0d7ce4p-7']),
    ('p_bsg', (8,), ['0x1.8000000000000p-3']),
    ('p_bsg', (14,), ['0x1.e000000000000p-4']),
    ('footprint', (16, 0.1, 0.5, 0.25, 0.9), ['0x1.671fe1d7d80b0p+5', '0x1.671fe1d7d80b0p+9', '0x1.7069e2aa2aa5bp+9']),
    ('footprint', (32, 0.05, 0.8, 0.1875, 0.99), ['0x1.29b4be53d1cf7p+6', '0x1.29b4be53d1cf7p+11', '0x1.3302e78dce349p+11']),
    ('raster_rate', ('one-mux', 16, 0.1), ['0x1.c31d3d83ea702p-2']),
    ('raster_rate', ('four-mux', 32, 0.05), ['0x1.a488a8c0d7ce4p-5']),
    ('raster_yield', ('two-mux', 16, 0.1), ['0x1.0d5944f39f963p-3']),
    ('raster_yield', ('four-mux-interleaved', 32, 0.05), ['0x1.06d5697886e0ep-5']),
    ('max_raster_yield', ('one-mux',), ['0x1.2b1812e0482bap+1', '0x1.23d448e724029p-2']),
    ('max_raster_yield', ('four-mux',), ['0x1.2b17eeab9e5fdp+3', '0x1.23d448e72f108p-2']),
    ('raster_crossover', (0.05,), ['0x1.791cdc5f90c18p+6']),
    ('raster_crossover', (0.1,), ['0x1.6f2f232e296a0p+5']),
    ('ghz_improvement_factors', (48, 0.05), ['0x1.52f281e300c26p+4', '0x1.c2bc8f56a3e80p+2', '0x1.5cf734154d563p+4']),
    ('ghz_improvement_factors', (24, 0.2), ['0x1.f60f45541850dp+2', '0x1.21198f6730717p+2', '0x1.03fee3fee802ep+3']),
    ('enlarged_gmzi_mux_reduction', (), ['0x1.8e1385c855d0bp+0']),
    ('enlarged_gmzi_mux_reduction', (0.9, 0.1, 0.3), ['0x1.b150e2a704fa3p+1']),
]


def _bits(value) -> list:
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, dict):
        value = [value[key] for key in sorted(value)]
    if not isinstance(value, (tuple, list)):
        value = [value]
    return [v.hex() if isinstance(v, float) else v for v in value]


@pytest.mark.parametrize("name, args, bits", CLOSED_FORM_BITS, ids=[f"{n}{a}" for n, a, _ in CLOSED_FORM_BITS])
def test_closed_forms_hold_every_bit(name, args, bits):
    assert _bits(getattr(analytics, name)(*args)) == bits
