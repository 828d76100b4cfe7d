"""Closed-form success probabilities, yields and resource counts.

Conventions: p is the per-source heralding probability per shot, m the
photons per output group, g the number of generators sharing a source bank,
lam the expected photon number per shot.  Yields follow the ratio-of-means
convention: (photons leaving in complete groups) / (photons generated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from ._limits import check_finite, check_probability, check_size

__all__ = [
    "p_mux_single",
    "check_probability",
    "binom_tail",
    "poisson_pmf",
    "poisson_tail",
    "naive_group_pmux",
    "optimal_group_pmux",
    "required_sources_ratio",
    "yield_multi_generator",
    "max_yield",
    "golden_section_max",
    "squeezed_source",
    "p4_ballistic",
    "p4_blocking",
    "p4_with_premux",
    "p_bsg",
    "footprint",
    "Footprint",
    "raster_muxes",
    "raster_rate",
    "raster_yield",
    "max_raster_yield",
    "raster_crossover",
    "ghz_improvement_factors",
    "enlarged_gmzi_mux_reduction",
    "RASTER_MUXES",
    "RASTER_ALIASES",
    "RASTER_STRATEGIES",
]


def p_mux_single(n_sources: int, p: float) -> float:
    """Probability that an n-to-1 mux has at least one photon to select."""
    if n_sources < 0:
        raise ValueError("n_sources must be >= 0")
    check_probability(p)
    return -math.expm1(n_sources * math.log1p(-p)) if p < 1.0 else (1.0 if n_sources else 0.0)


def _binom_pmf(n: int, p: float, k: int) -> float:
    """P[Binomial(n, p) = k]."""
    c = math.comb(n, k)
    try:
        return c * p ** k * (1.0 - p) ** (n - k)
    except OverflowError:  # C(n, k) does not fit a float, so 0 < k < n
        if not 0.0 < p < 1.0:
            return 0.0
        # log of the exact integer: lgamma's rounding would cost ~2e-12 on a tail at n = 3000
        return math.exp(math.log(c) + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_tail(n: int, p: float, m: int) -> float:
    """P[Binomial(n, p) >= m], summed from the smaller tail with fsum."""
    check_probability(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    if m <= n - m + 1:
        return 1.0 - math.fsum(_binom_pmf(n, p, k) for k in range(m))
    return math.fsum(_binom_pmf(n, p, k) for k in range(m, n + 1))


def _check_lam(lam: float) -> None:
    check_finite("lam", lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")


def poisson_pmf(lam: float, k: int) -> float:
    _check_lam(lam)
    if k < 0:
        return 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) if lam > 0 else (1.0 if k == 0 else 0.0)


def poisson_tail(lam: float, m: int) -> float:
    """P[Poisson(lam) >= m]."""
    _check_lam(lam)
    if m <= 0:
        return 1.0
    return 1.0 - math.fsum(poisson_pmf(lam, k) for k in range(m))


def naive_group_pmux(n_sources: int, p: float, m: int) -> float:
    """All m branch muxes fire, sources split as evenly as possible."""
    if m < 1 or n_sources < m:
        raise ValueError("need n_sources >= m >= 1")
    base, extra = divmod(n_sources, m)
    larger, smaller = p_mux_single(base + 1, p), p_mux_single(base, p)
    return math.prod(chain(repeat(larger, extra), repeat(smaller, m - extra)))  # one per branch, larger first


def optimal_group_pmux(n_sources: int, p: float, m: int) -> float:
    """Any m of the n sources fire: requires a switch network routing any pattern."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return binom_tail(n_sources, p, m)


def required_sources_ratio(p: float, target: float, m: int) -> tuple[int, int, float]:
    """Smallest source counts reaching a target group probability.

    Returns (n_naive, n_optimal, ratio): minimal integer n with
    naive_group_pmux >= target, minimal n with optimal_group_pmux >= target,
    and their ratio.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    check_size("scan-sources", m)  # p is checked by the first scan step

    def scan(fn) -> int:
        n = m
        while fn(n) < target:
            n *= 2
            check_size("scan-sources", n)
        lo, hi = max(m, n // 2), n
        while lo < hi:
            mid = (lo + hi) // 2
            if fn(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    n_naive = scan(lambda n: naive_group_pmux(n, p, m))
    n_opt = scan(lambda n: optimal_group_pmux(n, p, m))
    return n_naive, n_opt, n_naive / n_opt


def yield_multi_generator(lam: float, m: int, g: int, sharing: bool = True) -> float:
    """Yield of g generators of m-photon groups fed from one shot of sources.

    sharing=True: one bank with mean lam feeds all g generators, which take
    groups of m while photons remain: m E[min(g, floor(X/m))] / lam.
    sharing=False: the bank is split into g equal sub-banks, each feeding
    one generator: m g P[X' >= m] / lam with X' ~ Poisson(lam/g).
    """
    if lam == 0:
        return 0.0
    if m < 1 or g < 1:
        raise ValueError("need m >= 1 and g >= 1")
    if sharing:
        cap = m * g
        exp_groups = math.fsum(
            poisson_pmf(lam, k) * (k // m) for k in range(cap)
        ) + g * poisson_tail(lam, cap)
        return m * exp_groups / lam
    sub = lam / g
    return m * g * poisson_tail(sub, m) / lam


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-4) -> tuple[float, float]:
    """Locate the maximum of a unimodal function on [lo, hi]; returns (x, fn(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def max_yield(m: int, g: int, sharing: bool = True, lo: float = 0.1, hi: float = 50.0) -> tuple[float, float]:
    """Maximize yield_multi_generator over lam in [lo, hi]; returns (lam*, Y*)."""
    return golden_section_max(lambda lam: yield_multi_generator(lam, m, g, sharing), lo, hi)


def squeezed_source(p: float) -> tuple[float, float]:
    """Squeezing parameter and vacuum probability of a heralded pair source.

    Solves p = tanh^2(r) / cosh^2(r); the vacuum amplitude of the idler arm
    is p_vac = (1 + sqrt(1 - 4p)) / 2.  Valid for p <= 1/4.
    """
    if not 0.0 <= p <= 0.25:
        raise ValueError("pair sources satisfy p <= 1/4")
    t = (1.0 - math.sqrt(1.0 - 4.0 * p)) / 2.0  # tanh^2 r
    r = math.atanh(math.sqrt(t)) if t > 0 else 0.0
    p_vac = (1.0 + math.sqrt(1.0 - 4.0 * p)) / 2.0
    return r, p_vac


def p4_ballistic(n_sources: int, p: float) -> float:
    """Four photons in distinct pairs, all other sources in vacuum (no switching)."""
    if n_sources % 2 or n_sources < 8:
        raise ValueError("need an even n_sources >= 8")
    _, p_vac = squeezed_source(p)
    pairs = n_sources // 2
    return 2 ** 4 * math.comb(pairs, 4) * p ** 4 * p_vac ** (n_sources - 4)


def p4_blocking(n_sources: int, p: float) -> float:
    """At least 4 of the n/2 pair slots occupied; excess photons blockable."""
    if n_sources % 2 or n_sources < 8:
        raise ValueError("need an even n_sources >= 8")
    check_probability(p)
    return binom_tail(n_sources // 2, 1.0 - (1.0 - p) ** 2, 4)


def p4_with_premux(n_sources: int, p: float, n_mux: int) -> float:
    """Blocking architecture fed by n_mux-to-1 pre-multiplexing per slot."""
    if n_mux < 1 or n_sources % n_mux:
        raise ValueError("n_mux must divide n_sources")
    return p4_blocking(n_sources // n_mux, p_mux_single(n_mux, p))


def p_bsg(n_modes: int) -> float:
    """Bell-state generator success with rail-pair rearrangement.

    Inputs are 4 photons on n_modes/2 pair slots; when all four land on
    distinct slots that can be paired into two rails each (weight
    C(n/2,3)/C(n/2,4) for one colliding slot pattern) the boosted success
    3/16 applies, otherwise the dual-rail 3/32.
    """
    if n_modes % 2 or n_modes < 8:
        raise ValueError("need an even n_modes >= 8")
    pairs = n_modes // 2
    w = 0.25 * math.comb(pairs, 3) / math.comb(pairs, 4)
    return w * (3.0 / 16.0) + (1.0 - w) * (3.0 / 32.0)


@dataclass(frozen=True)
class Footprint:
    copies: float
    sources: float
    sources_approx: float


def footprint(n_sources: int, p: float, yield_: float, p_group: float, p_out: float) -> Footprint:
    """Source count for at least one output group with probability p_out.

    copies K solves 1 - (1 - q)^K = p_out with per-copy success
    q = n p yield_ p_group / 4; sources = n K.  The small-q approximation
    -4 ln(1-p_out) / (p p_group yield_) should agree within a few percent.
    Raises ValueError unless n_sources >= 1, p, yield_ and p_group lie in
    (0, 1], p_out in [0, 1) and q < 1.
    """
    if not n_sources >= 1:
        raise ValueError("footprint needs n_sources >= 1")
    for name, value in (("p", p), ("yield", yield_), ("p_group", p_group)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"footprint needs {name} in (0, 1], not {value}")
    if not 0.0 <= p_out < 1.0:
        raise ValueError(f"footprint needs p_out in [0, 1), not {p_out}")
    q = n_sources * p * yield_ * p_group / 4.0
    if not q < 1.0:
        raise ValueError(f"footprint needs n_sources * p * yield * p_group / 4 < 1, not {q}")
    copies = math.log1p(-p_out) / math.log1p(-q)
    approx = -4.0 * math.log1p(-p_out) / (p * p_group * yield_)
    return Footprint(copies=copies, sources=n_sources * copies, sources_approx=approx)


RASTER_MUXES = {"one-mux": 1, "two-mux": 2, "four-mux": 4, "four-mux-interleaved": 4}
RASTER_ALIASES = {"i": "one-mux", "ii": "two-mux"}
RASTER_STRATEGIES = tuple(RASTER_MUXES)


def raster_muxes(strategy: str, n_sources: int | None = None) -> tuple[str, int]:
    """Resolve a raster strategy or alias to (name, m).

    Rastering builds an N-to-4 mux from m parallel N/m-to-1 muxes that fire
    together once per step (m from RASTER_MUXES).  A group takes 4 photons,
    so it spans 4 // m steps, and a four-step period holds m groups.  The
    aliases i and ii name one-mux and two-mux.  Raises ValueError for an
    unknown name and, if n_sources is given, unless m divides n_sources >= 1.
    """
    name = RASTER_ALIASES.get(strategy, strategy)
    if name not in RASTER_MUXES:
        known = ", ".join([*RASTER_MUXES, *RASTER_ALIASES])
        raise ValueError(f"unknown raster strategy {strategy!r}; known: {known}")
    m = RASTER_MUXES[name]
    if n_sources is not None and (n_sources < 1 or n_sources % m):
        raise ValueError(f"{name} needs n_sources a positive multiple of {m}")
    return name, m


def raster_rate(strategy: str, n_sources: int, p: float) -> float:
    """Expected 4-photon groups per four-step raster period.

    Each of the m groups (see `raster_muxes`) needs its four mux firings to
    succeed, so the rate is m * p_mux_single(n/m, p)**4.
    """
    _, m = raster_muxes(strategy, n_sources)
    return m * p_mux_single(n_sources // m, p) ** 4


def raster_yield(strategy: str, n_sources: int, p: float) -> float:
    """Yield of a rastered generator: 4 x rate / (4 n p) photons out per in."""
    rate = raster_rate(strategy, n_sources, p)
    return rate / (n_sources * p) if p > 0 else 0.0


def max_raster_yield(strategy: str = "one-mux") -> tuple[float, float]:
    """Maximum raster yield over the mean photon number per firing.

    Uses the large-n limit (Poisson occupation); the maximum is identical
    for every strategy.  Returns (lam*, Y*).
    """
    _, muxes = raster_muxes(strategy)
    def y(lam: float) -> float:
        return muxes * (-math.expm1(-lam / muxes)) ** 4 / lam
    return golden_section_max(y, 0.1, 50.0)


def raster_crossover(p: float = 0.05, lo: float = 8.0, hi: float = 1024.0) -> float:
    """Source count where the one-mux raster rate overtakes the four-mux rate."""
    def gap(n: float) -> float:
        return p_mux_single(n, p) ** 4 - 4.0 * p_mux_single(n / 4.0, p) ** 4
    if gap(lo) <= 0 or gap(hi) >= 0:
        raise ValueError("no crossover bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ghz_improvement_factors(n_sources: int = 48, p: float = 0.05) -> dict[str, float]:
    """Improvement of 6-photon group supply over six independent n/6-to-1 muxes.

    Keys: "mzi-layer" (12 muxes of n/12 into the optimal single layer of
    pairwise couplers, folded over the binomial mux-success counts),
    "optimal" (any 6 of n sources), "doubled" (six n/3-to-1 muxes, twice the
    sources, for reference against the baseline at n).
    """
    if n_sources < 12 or n_sources % 12:
        raise ValueError("n_sources must be a positive multiple of 12")
    from . import patterns

    baseline = p_mux_single(n_sources // 6, p) ** 6
    if baseline == 0.0:  # at p = 0, and at a p > 0 so small that the sixth power underflows
        raise ValueError(f"improvement factors need p > 0 and a baseline that does not underflow to 0, not p = {p!r}")
    q = p_mux_single(n_sources // 12, p)
    layer = patterns.optimal_coupler_layer(12)
    routable = patterns.routable_patterns(12, layer)
    fold = 0.0
    for j in range(6, 13):
        frac = patterns.subpattern_coverage(12, j, routable)
        fold += _binom_pmf(12, q, j) * float(frac)
    return {
        "mzi-layer": fold / baseline,
        "optimal": optimal_group_pmux(n_sources, p, 6) / baseline,
        "doubled": p_mux_single(n_sources // 3, p) ** 6 / baseline,
    }


def enlarged_gmzi_mux_reduction(target: float = 0.99, q_base: float = 1.0 / 8.0, q_boosted: float = 3.0 / 16.0) -> float:
    """Mux-size ratio achieving a target success at base vs boosted group rates.

    Solving [1 - (1-q)^n] = target for n at both q values gives the
    continuous-n ratio log(1-q_boosted)/log(1-q_base), independent of the
    target; equal rates give exactly 1.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    for q in (q_base, q_boosted):
        if not 0.0 < q < 1.0:
            raise ValueError("group rates must be in (0, 1)")
    return math.log1p(-q_boosted) / math.log1p(-q_base)
