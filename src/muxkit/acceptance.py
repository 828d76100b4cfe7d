"""End-to-end self checks for the package, one per anchor result.

Each check recomputes its target quantity from the library and compares
against an independently derived expectation (closed form, exhaustive
enumeration, or replay oracle).  `run_all` returns structured results; the
CLI `verify` subcommand renders them and sets the exit code.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

import numpy as np

from . import analytics, gmzi, gridmux, logic, patterns, temporal
from .simkit import reduce_values, run_trials, substream

__all__ = ["CheckResult", "run_all", "reproducibility_probe", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float | None
    values: dict

    @property
    def in_budget(self) -> bool:
        return self.budget is None or self.seconds < self.budget


# ---------------------------------------------------------------------------
# helpers


def _partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            table[s] += table[s - part]
    return table[n]


def _abelian_group_count(n: int) -> int:
    # product over prime powers p^e || n of the partition count of e
    count = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            count *= _partition_count(e)
        d += 1
    return count


# ---------------------------------------------------------------------------
# the sixteen checks


def _check_classification(quick: bool):
    specs8 = gmzi.classify_gmzi_types(8)
    ok = len(specs8) == 3 and specs8 == [(8,), (4, 2), (2, 2, 2)]
    counts = {}
    for n in range(2, 17):
        got = len(gmzi.classify_gmzi_types(n))
        counts[n] = got
        ok = ok and got == _abelian_group_count(n)
    detail = f"8-mode device types: {len(specs8)}; counts 2..16 match the partition-product oracle"
    return ok, detail, {"n8_types": [list(s) for s in specs8], "counts": counts}


def _check_device(dev: gmzi.GmziDevice) -> tuple[bool, float]:
    """Latin-square routing, stage error <= 1e-9 and every setting matrix equal
    to its digit-shift permutation up to a global phase; returns (ok, stage error)."""
    table = gmzi.routing_table(dev)
    want = np.arange(dev.n_modes)
    latin = (np.sort(table, axis=0) == want[:, None]).all() and (np.sort(table, axis=1) == want).all()
    err = float(np.abs(gmzi.decompose_stages(dev).matrix() - dev.passive()).max())
    ok = bool(latin) and err <= 1e-9 and all(
        gmzi._global_phase(gmzi.setting_matrix(dev, k), gmzi._perm_matrix(gmzi.setting_permutation(dev, k)), 1e-9) is not None
        for k in range(dev.n_settings)
    )
    return ok, err


def _check_device_permutations(quick: bool):
    ok = True
    checked = 0
    worst = 0.0
    for n in range(2, 17):
        for spec in gmzi.classify_gmzi_types(n):
            dev = gmzi.build_gmzi(spec)
            dev_ok, err = _check_device(dev)
            ok = ok and dev_ok
            worst = max(worst, err)
            checked += dev.n_settings
    detail = f"{checked} setting matrices equal their digit-shift permutations; stage error <= {worst:.1e}"
    return ok, detail, {"settings_checked": checked, "max_stage_error": worst}


def _check_swing_and_settings(quick: bool):
    base2 = gmzi.phase_swing(gmzi.build_gmzi((2,)))
    red2 = gmzi.phase_swing(gmzi.build_gmzi((2,), offsets=(-3 * np.pi / 2, 0.0)))
    base3 = gmzi.phase_swing(gmzi.build_gmzi((3,)))
    red3 = gmzi.phase_swing(gmzi.build_gmzi((3,), offsets=(-4 * np.pi / 3, 0.0, 0.0)))
    tol = 1e-12
    ok = (
        abs(base2 - np.pi) < tol
        and abs(red2 - np.pi / 2) < tol
        and abs(base3 - 4 * np.pi / 3) < tol
        and abs(red3 - 2 * np.pi / 3) < tol
    )
    rows = gmzi.ternary_six_mode_mux_settings()
    vecs = np.exp(1j * rows) / np.sqrt(6)
    gram_dev = float(np.abs(vecs @ vecs.conj().T - np.eye(6)).max())
    ok = ok and gram_dev <= 1e-9
    alphabet = [0.0, -2 * np.pi / 3, -4 * np.pi / 3]
    sets = gmzi.search_orthogonal_phase_sets(6, alphabet, 6, max_sets=5 if quick else 50)
    ok = ok and any(len(s) >= 6 for s in sets)
    detail = (
        f"swings {base2/np.pi:.4f}pi->{red2/np.pi:.4f}pi and {base3/np.pi:.4f}pi->{red3/np.pi:.4f}pi; "
        f"six-vector gram deviation {gram_dev:.1e}; clique search found size >= 6"
    )
    values = {
        "swing_2": base2,
        "swing_2_offset": red2,
        "swing_3": base3,
        "swing_3_offset": red3,
        "gram_deviation": gram_dev,
    }
    return ok, detail, values


def _check_quarter_swing_bound(quick: bool):
    sizes = {}
    ok = True
    for n in range(2, 9):
        sets = gmzi.search_orthogonal_phase_sets(n, [0.0, -np.pi / 2], target_size=1)
        best = max(len(s) for s in sets)
        sizes[n] = best
        ok = ok and best == (2 if n % 2 == 0 else 1)
    detail = "max orthogonal set over the quarter-turn alphabet: " + ", ".join(
        f"N={n}:{s}" for n, s in sizes.items()
    )
    return ok, detail, {"max_set_sizes": sizes}


def _check_pattern_fractions(quick: bool):
    t0 = time.perf_counter()
    res8 = patterns.search_optimal_coupler_layer(8)
    t8 = time.perf_counter() - t0
    ok = res8.n_routable == 66 and res8.n_patterns == 70 and t8 < 5.0
    t12 = 0.0
    if not quick:
        t0 = time.perf_counter()
        res12 = patterns.search_optimal_coupler_layer(12)
        t12 = time.perf_counter() - t0
        ok = ok and res12.n_routable == 666 and res12.n_patterns == 924 and t12 < 600.0
    usable = patterns.paired_usable_patterns(8)
    ok = ok and len(usable) == 16
    rails = patterns.rail_pairing_success_fraction()
    paired = patterns.paired_coupler_success_fraction()
    binning = patterns.distinct_bin_fraction(4)
    ok = ok and rails == Fraction(45, 64)
    ok = ok and paired == Fraction(33, 35) == Fraction(66, 70)
    ok = ok and binning == Fraction(3, 32) and float(binning) == 0.09375
    detail = (
        f"8-mode coverage 66/70 in {t8:.1f}s"
        + ("" if quick else f"; 12-mode coverage 666/924 in {t12:.1f}s")
        + f"; 16 usable target patterns; fractions {rails}, {paired}, {binning}"
    )
    values = {
        "routable_8": res8.n_routable,
        "patterns_8": res8.n_patterns,
        "usable_8": len(usable),
        "rail_fraction": str(rails),
        "paired_fraction": str(paired),
        "binning_fraction": str(binning),
    }
    if not quick:
        values["routable_12"] = res12.n_routable
        values["patterns_12"] = res12.n_patterns
    return ok, detail, values


def _check_full_routability(quick: bool):
    from itertools import combinations

    ok = True
    n4 = 0
    for modes in combinations(range(16), 4):
        route = patterns.route_two_layer_four(modes)
        hits = patterns.replay_two_layer_four(modes, route)
        ok = ok and sorted(hits) == [1, 2, 3, 4] and all(len(v) == 1 for v in hits.values())
        n4 += 1
    n6 = 0
    for modes in combinations(range(18), 6):
        route = patterns.route_gmzi3_layer_six(modes)
        hits = patterns.replay_gmzi3_layer_six(modes, route)
        ok = ok and sorted(hits) == [1, 2, 3, 4, 5, 6] and all(len(v) == 1 for v in hits.values())
        n6 += 1
    detail = f"four-photon router: {n4}/{math.comb(16, 4)} patterns; six-photon router: {n6}/{math.comb(18, 6)}"
    return ok and n4 == math.comb(16, 4) and n6 == math.comb(18, 6), detail, {"n4": n4, "n6": n6}


def _check_yield_maxima(quick: bool):
    targets = {1: 0.59, 2: 0.76, 3: 0.83}
    got = {}
    ok = True
    for g, want in targets.items():
        lam, y = analytics.max_yield(4, g, sharing=True)
        got[g] = y
        ok = ok and abs(y - want) <= 0.01
    detail = "peak yields " + ", ".join(f"g={g}: {y:.4f}" for g, y in got.items())
    return ok, detail, {"yield_max": {str(g): y for g, y in got.items()}}


def _check_group_supply_factors(quick: bool):
    factors = analytics.ghz_improvement_factors(48, 0.05)
    ok = (
        abs(factors["mzi-layer"] - 7.0) <= 0.2
        and abs(factors["optimal"] - 22.0) <= 1.0
        and abs(factors["doubled"] - 21.0) <= 1.0
    )
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in sorted(factors.items()))
    return ok, detail, {"factors": dict(sorted(factors.items()))}


def _check_bell_success(quick: bool):
    p8 = analytics.p_bsg(8)
    p512 = analytics.p_bsg(512)
    ok = p8 == 3.0 / 16.0 and abs(p512 - 3.0 / 32.0) <= 0.01 * (3.0 / 32.0)
    detail = f"8 modes: {p8} (= 3/16); 512 modes: {p512:.6f} (3/32 = {3/32})"
    return ok, detail, {"p8": p8, "p512": p512}


def _check_reduction_factor(quick: bool):
    f = analytics.enlarged_gmzi_mux_reduction()
    ok = abs(f - 1.555) <= 0.005
    return ok, f"mux-count reduction factor {f:.6f}", {"reduction": f}


def _check_rastering(quick: bool):
    trials = 20_000 if quick else 100_000
    ok = True
    sigmas = {}
    for strategy in ("one-mux", "two-mux"):
        res = temporal.raster_simulate(strategy, 64, 0.05, enhanced=False, trials=trials, seed=101)
        want = analytics.raster_rate(strategy, 64, 0.05)
        pull = abs(res.groups_per_period.mean - want) / res.groups_per_period.stderr
        sigmas[strategy] = pull
        ok = ok and pull <= 3.0
    lam, ymax = analytics.max_raster_yield("one-mux")
    ok = ok and abs(ymax - 0.29) <= 0.01
    grid = (8, 16, 24, 32, 48, 64, 96, 128)
    mc_trials = 5_000 if quick else 20_000
    strict_gap = None
    for n in grid:
        enh = temporal.raster_simulate("one-mux", n, 0.05, enhanced=True, trials=mc_trials, seed=202)
        reg = temporal.raster_simulate("one-mux", n, 0.05, enhanced=False, trials=mc_trials, seed=202)
        # same seed -> same firing streams, and the enhanced count dominates pathwise
        diff = enh.yield_per_photon.mean - reg.yield_per_photon.mean
        ok = ok and diff >= 0.0
        if n <= 48:
            ok = ok and diff > 0.0
            strict_gap = diff if strict_gap is None else min(strict_gap, diff)
    detail = (
        f"closed-form pulls {sigmas['one-mux']:.2f} / {sigmas['two-mux']:.2f} sigma; "
        f"peak raster yield {ymax:.4f}; enhanced >= regular on grid, strict gap >= {strict_gap:.4f} at N <= 48"
    )
    values = {"max_raster_yield": ymax, "lam_star": lam, "strict_gap": strict_gap}
    return ok, detail, values


def _check_sequence_mux(quick: bool):
    ok = True
    pairs = [(k, L) for k in range(2, 17) for L in range(2, 13) if k ** L <= 4096]
    for k, L in pairs:
        seq = temporal.de_bruijn(k, L)
        wins = temporal.cyclic_windows(seq.symbols, L)
        ok = ok and len(seq.symbols) == k ** L and len(set(wins)) == k ** L
        red = temporal.reduced_de_bruijn(k, L)
        want_len = k ** L - (k - 1) ** L
        rwins = temporal.cyclic_windows(red, L)
        ok = ok and len(red) == want_len and len(set(rwins)) == want_len
        ok = ok and all(0 in w for w in rwins)
    exact = temporal.non_tetris_success_probability(4, 4, 0.25)
    # exact value is (175/256)^4 = 0.2183697...; the 5-decimal display
    # target 0.21839 is off by ~2e-5, so compare at last-digit slop
    ok = ok and exact == float(Fraction(175, 256) ** 4) and abs(exact - 0.21839) < 3e-5
    tet = float(temporal.tetris_success_probability(4, 4, Fraction(1, 4)))
    ok = ok and abs(tet - 0.56) <= 0.03
    detail = (
        f"{len(pairs)} window oracles passed; single-shift success {exact:.8f} "
        f"(= (175/256)^4); per-bin-shift success {tet:.8f}"
    )
    return ok, detail, {"non_tetris": exact, "tetris": tet, "oracle_pairs": len(pairs)}


def _check_grid_mux(quick: bool):
    cfg = gridmux.default_config()
    trials = 5_000 if quick else 100_000
    ok = True
    points = []
    for i, p in enumerate((0.05, 0.10, 0.15)):
        pt = gridmux.simulate_grid_yield(cfg, p, trials=trials, seed=404 + i)
        ok = ok and pt.estimate.mean <= pt.bound + 3 * pt.estimate.stderr
        ok = ok and pt.estimate.mean >= pt.naive - 3 * pt.estimate.stderr
        points.append(pt)
    detail = "; ".join(
        f"p={pt.p:g}: {pt.estimate.mean:.4f} in [{pt.naive:.4f}, {pt.bound:.4f}]" for pt in points
    )
    values = {
        f"p={pt.p:g}": {"yield": pt.estimate.mean, "stderr": pt.estimate.stderr, "bound": pt.bound, "naive": pt.naive}
        for pt in points
    }
    return ok, detail, values


def _check_temporal_permutations(quick: bool):
    ok = True
    count = 0
    for r in range(1, 6):
        timings = set()
        for perm in permutations(range(r)):
            sched = temporal.temporal_permutation(r, perm, variant="arbitrary")
            arrivals = temporal.replay_temporal_permutation(sched)
            for i in range(r):
                port, t = arrivals[i]
                ok = ok and port == 0 and t == sched.output_bin(perm[i])
            timings.add(tuple(sorted(t for _, t in arrivals.values())))
            count += 1
        ok = ok and len(timings) == 1  # output window independent of the permutation
    detail = f"{count} permutation schedules replayed; output timing permutation-independent"
    return ok, detail, {"schedules": count}


def _check_feedforward_tables(quick: bool):
    ok = True
    for width in range(1, 13):
        for n in range(0, width + 1):
            table = logic.wildcard_reduce(width, n)
            ok = ok and len(table.rows) == math.comb(width, n)
        ones = np.array([x.bit_count() for x in range(1 << width)])
        for n in {0, min(4, width), width}:
            # one row matches every input with >= n ones, none matches the rest
            counts = logic.wildcard_reduce(width, n).match_counts()
            ok = ok and np.array_equal(counts, ones >= n)
    detail = "row counts C(B, n) for all B <= 12; exhaustive single-match sweep at n in {0, 4, B}"
    return ok, detail, {"widths": 12}


# sha256 of the probe's bytes as released; check 16 fails when any probed output moves
PROBE_SHA256 = "c13fe4f16dfec87b0371ebb928cb43372e1c68e5e7f8f8c4baa465d7c743a1ce"


def reproducibility_probe() -> str:
    """Serialized numeric outputs from fixed seeds across every module."""
    cfg = gridmux.default_config()
    grid_pt = gridmux.simulate_grid_yield(cfg, 0.05, trials=300, seed=11)
    raster = temporal.raster_simulate("one-mux", 64, 0.05, enhanced=True, trials=500, seed=3)
    mc = reduce_values(run_trials(lambda u: (u < 0.1).any(axis=1).astype(np.float64), (16,), 0.1, 2_000, 5), 5)
    occ = substream(9, 2).random((4, 4)) < 0.3
    probe = {
        "pmux_64_005": analytics.p_mux_single(64, 0.05),
        "yield_max_43": list(analytics.max_yield(4, 3)),
        "p_bsg_8": analytics.p_bsg(8),
        "reduction": analytics.enlarged_gmzi_mux_reduction(),
        "crossover": analytics.raster_crossover(),
        "routable_8": len(patterns.routable_patterns(8, patterns.optimal_coupler_layer(8))),
        "grid_yield": [grid_pt.estimate.mean, grid_pt.estimate.stderr, grid_pt.estimate.seed],
        "raster_groups": [raster.groups_per_period.mean, raster.groups_per_period.stderr],
        "mc_any": [mc.mean, mc.stderr, mc.seed],
        "occupancy": [[int(x) for x in row] for row in occ],
        "reduced_seq_44": list(temporal.reduced_de_bruijn(4, 4)),
        "device_42": json.loads(gmzi.device_to_json(gmzi.build_gmzi((4, 2)))),
        "wildcard_6_3": logic.wildcard_reduce(6, 3).to_csv(),
    }
    return json.dumps(probe, sort_keys=True)


def _check_reproducibility(quick: bool):
    import hashlib

    probe = reproducibility_probe()
    sha = hashlib.sha256(probe.encode()).hexdigest()
    ok = sha == PROBE_SHA256
    detail = f"sha256 of the {len(json.loads(probe))}-output probe {'matches' if ok else 'differs from'} the frozen {PROBE_SHA256[:12]}"
    return ok, detail, {"probe_sha256": sha}


CHECKS: tuple[tuple[str, Callable, float | None], ...] = (
    ("device classification", _check_classification, 1.0),
    ("device permutations", _check_device_permutations, 10.0),
    ("swing reduction and six-vector settings", _check_swing_and_settings, 60.0),
    ("quarter-swing orthogonality bound", _check_quarter_swing_bound, 60.0),
    ("pattern-coverage fractions", _check_pattern_fractions, 605.0),
    ("full routability of the two-layer networks", _check_full_routability, 60.0),
    ("yield maxima", _check_yield_maxima, 1.0),
    ("six-photon supply improvement", _check_group_supply_factors, 60.0),
    ("bell-generator success probability", _check_bell_success, 5.0),
    ("mux-count reduction factor", _check_reduction_factor, 5.0),
    ("rastering", _check_rastering, 120.0),
    ("sequence-driven delay mux", _check_sequence_mux, 60.0),
    ("grid-mux yield bounds", _check_grid_mux, 300.0),
    ("temporal permutations", _check_temporal_permutations, 60.0),
    ("feedforward tables", _check_feedforward_tables, 30.0),
    ("reproducibility", _check_reproducibility, None),
)


def run_all(quick: bool = False, echo: Callable[[str], None] | None = None) -> list[CheckResult]:
    """Run all checks; pass requires both the assertion and the time budget."""
    results = []
    for idx, (name, fn, budget) in enumerate(CHECKS, start=1):
        t0 = time.perf_counter()
        try:
            ok, detail, values = fn(quick)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail, values = False, f"raised {type(exc).__name__}: {exc}", {}
        seconds = time.perf_counter() - t0
        res = CheckResult(
            index=idx,
            name=name,
            passed=bool(ok) and (budget is None or seconds < budget or quick),
            detail=detail,
            seconds=seconds,
            budget=budget,
            values=values,
        )
        results.append(res)
        if echo is not None:
            mark = "PASS" if res.passed else "FAIL"
            echo(f"{mark} [{idx:2d}] {name}: {detail} ({seconds:.2f}s)")
    return results
