"""Grid multiplexer: config shape, greedy routing, yield simulation."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxkit import analytics, gmzi, gridmux, simkit
from muxkit.gmzi import _mixed_radix, binary_spec


def _occupancy(config, p, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        tuple(bool(config.grid[r][c] and rng.random() < p) for c in range(len(config.columns)))
        for r in range(len(config.rows))
    )


def test_default_config_counts():
    cfg = gridmux.default_config()
    assert cfg.n_cells == 256
    assert len(cfg.rows) == 20
    assert len(cfg.columns) == 16
    assert cfg.group_size == 4 and cfg.generators == 5
    assert set(cfg.columns) == {16}
    assert sorted(set(s for s, _ in cfg.rows)) == [4, 8, 12, 16]
    for c in range(16):
        assert len(cfg.column_rows(c)) == 16
    for r, (size, _) in enumerate(cfg.rows):
        assert len(cfg.row_columns(r)) == size


def test_config_validation():
    with pytest.raises(ValueError):
        gridmux.GridMuxConfig(
            columns=(2,), rows=((1, 0),), grid=((True,), (True,)), group_size=1, generators=1
        )
    with pytest.raises(ValueError):
        gridmux.GridMuxConfig(
            columns=(1,), rows=((2, 0),), grid=((True,),), group_size=1, generators=1
        )
    for kw, fragment in [
        (dict(columns=(1,), rows=((1, 0),), grid=((True,),), group_size=1, generators=2), "generators groups"),
        (dict(columns=(2,), rows=((1, 1), (1, 0)), grid=((True,), (True,)), group_size=1, generators=2), "consecutively"),
        (dict(columns=(1,), rows=((1, 0), (1, 0)), grid=((True,), (True,)), group_size=2, generators=1), "column 0 size 1 != marked"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            gridmux.GridMuxConfig(**kw)


def test_config_json_roundtrip():
    cfg = gridmux.default_config()
    back = gridmux.config_from_json(gridmux.config_to_json(cfg))
    assert back == cfg


def test_config_from_json_reads_sizes_as_ints():
    cfg = gridmux.default_config()
    doc = json.loads(gridmux.config_to_json(cfg))
    doc["columns"] = [float(c) for c in doc["columns"]]
    back = gridmux.config_from_json(json.dumps(doc))
    assert back == cfg and {type(c) for c in back.columns} == {int}


def test_config_from_json_names_a_missing_key():
    doc = json.loads(gridmux.config_to_json(gridmux.default_config()))
    del doc["generators"]
    with pytest.raises(ValueError, match="generators"):
        gridmux.config_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["[]", "[1, 2]", "5", "null", '"grid"'])
def test_config_from_json_needs_an_object(text):
    with pytest.raises(ValueError, match="JSON object"):
        gridmux.config_from_json(text)


@pytest.mark.parametrize(
    "edit",
    [
        {"grid": 5},
        {"grid": [5] * 20},
        {"columns": 5},
        {"rows": [5] * 20},
        {"rows": [[16, [0]]] * 20},
        {"group_size": None},
        {"generators": [5]},
    ],
)
def test_config_from_json_rejects_malformed_payloads(edit):
    doc = json.loads(gridmux.config_to_json(gridmux.default_config()))
    doc.update(edit)
    with pytest.raises(ValueError):
        gridmux.config_from_json(json.dumps(doc))


def test_route_empty_and_full():
    cfg = gridmux.default_config()
    nrows, ncols = len(cfg.rows), len(cfg.columns)
    empty = tuple((False,) * ncols for _ in range(nrows))
    out = gridmux.route(cfg, empty)
    assert out.group_success == (False,) * 5
    assert not out.row_sources
    full = cfg.grid
    out = gridmux.route(cfg, full)
    assert out.group_success == (True,) * 5
    assert sorted(out.row_sources) == list(range(20))


def test_route_determinism_and_purity():
    cfg = gridmux.default_config()
    occ = _occupancy(cfg, 0.12, seed=3)
    first = gridmux.route(cfg, occ)
    again = gridmux.route(cfg, occ)
    assert first == again


def test_route_rejects_occupancy_off_grid():
    cfg = gridmux.default_config()
    bad = [list(row) for row in cfg.grid]
    r = next(i for i, row in enumerate(cfg.grid) if not all(row))
    c = cfg.grid[r].index(False)
    bad[r][c] = True
    with pytest.raises(ValueError):
        gridmux.route(cfg, tuple(tuple(x) for x in bad))
    with pytest.raises(ValueError):
        gridmux.route(cfg, cfg.grid[:-1])  # a row short


def test_route_settings_replay():
    # applying the emitted column permutations must place one photon on every
    # claimed (row, column) cell
    cfg = gridmux.default_config()
    for seed in range(30):
        occ = _occupancy(cfg, 0.1 + 0.02 * (seed % 5), seed)
        out = gridmux.route(cfg, occ)
        for g, ok in enumerate(out.group_success):
            rows = range(g * cfg.group_size, (g + 1) * cfg.group_size)
            if ok:
                assert all(r in out.row_sources for r in rows)
            else:
                assert not any(r in out.row_sources for r in rows)
        for r, c in out.row_sources.items():
            setting = out.column_settings[c]
            rows_of = cfg.column_rows(c)
            fac = binary_spec(len(rows_of))
            rad = _mixed_radix(fac)[1].tolist()
            target_pos = rows_of.index(r)
            # undo the shift digit by digit: source digits = target digits - setting
            src_pos = sum(((target_pos // q) % f - s) % f * q for s, f, q in zip(setting, fac, rad))
            assert occ[rows_of[src_pos]][c], "claimed cell has no photon"
        # a column serves at most as many rows as it has photons
        for c, setting in out.column_settings.items():
            served = [r for r, cc in out.row_sources.items() if cc == c]
            have = sum(occ[r][c] for r in cfg.column_rows(c))
            assert len(served) <= have


def _brute_force_route(columns, occ):
    # tiny oracle: 2 columns x 2 rows, one group; any per-column shift allowed
    for s0 in range(2):
        for s1 in range(2):
            settings = (s0, s1)
            ok = True
            for r in range(2):
                if not any(occ[r ^ settings[c]][c] for c in range(2)):
                    ok = False
                    break
            if ok:
                return True
    return False


def test_route_matches_brute_force_on_tiny_grid():
    cfg = gridmux.GridMuxConfig(
        columns=(2, 2),
        rows=((2, 0), (2, 0)),
        grid=((True, True), (True, True)),
        group_size=2,
        generators=1,
    )
    for bits in itertools.product((False, True), repeat=4):
        occ = (bits[:2], bits[2:])
        got = gridmux.route(cfg, occ).group_success[0]
        want = _brute_force_route((2, 2), occ)
        assert got == want, occ


def test_simulate_yield_endpoints():
    cfg = gridmux.default_config()
    pt = gridmux.simulate_grid_yield(cfg, 1.0, trials=10, seed=0)
    assert pt.estimate.mean == pytest.approx(20.0 / 256.0, abs=1e-15)
    assert pt.estimate.stderr == 0.0
    pt0 = gridmux.simulate_grid_yield(cfg, 0.0, trials=10, seed=0)
    assert pt0.estimate.mean == 0.0
    for trials, seed in ((1, 0), (16.0, 1), (16, 1.5)):
        with pytest.raises(ValueError):
            gridmux.simulate_grid_yield(cfg, 0.1, trials=trials, seed=seed)


def test_simulate_yield_reproducible():
    cfg = gridmux.default_config()
    a = gridmux.simulate_grid_yield(cfg, 0.08, trials=300, seed=11)
    b = gridmux.simulate_grid_yield(cfg, 0.08, trials=300, seed=11)
    assert a.estimate.mean == b.estimate.mean
    assert a.estimate.stderr == b.estimate.stderr


def test_yield_bounded_by_sharing_and_naive_curves():
    cfg = gridmux.default_config()
    for i, p in enumerate((0.05, 0.1, 0.15)):
        pt = gridmux.simulate_grid_yield(cfg, p, trials=4000, seed=100 + i)
        se = pt.estimate.stderr
        assert pt.estimate.mean <= pt.bound + 3 * se, f"p={p}: above the sharing bound"
        assert pt.estimate.mean >= pt.naive - 3 * se, f"p={p}: below the naive reference"
        assert pt.bound == gridmux.bound_curve(cfg, p)
        assert pt.naive == gridmux.naive_curve(cfg, p)


def test_yield_monotone_below_the_peak():
    # yield rises with p until the sharing bound peaks (lam ~ 10, p ~ 0.04)
    # and falls beyond it, so monotonicity only holds on the sub-peak grid
    cfg = gridmux.default_config()
    means = []
    for i, p in enumerate((0.01, 0.02, 0.03, 0.04)):
        pt = gridmux.simulate_grid_yield(cfg, p, trials=4000, seed=200 + i)
        means.append((pt.estimate.mean, pt.estimate.stderr))
    for (m0, s0), (m1, s1) in zip(means, means[1:]):
        assert m1 >= m0 - 3 * (s0 + s1)


def test_bound_curve_saturation():
    cfg = gridmux.default_config()
    assert gridmux.bound_curve(cfg, 0.999999) == pytest.approx(20.0 / 256.0, rel=1e-4)
    assert gridmux.bound_curve(cfg, 1e-9) < 1e-6
    # definition: shared multi-generator yield at lam = n_cells * p
    p = 0.07
    assert gridmux.bound_curve(cfg, p) == pytest.approx(
        analytics.yield_multi_generator(256 * p, 4, 5, sharing=True), rel=1e-12
    )
    assert gridmux.naive_curve(cfg, p) == pytest.approx(
        4 * analytics.p_mux_single(64, p) ** 4 / (256 * p), rel=1e-12
    )


# sha256 of the outcomes of 12 seeded occupancies per p in (0.02, 0.1, 0.4,
# 0.8), frozen from the digit-by-digit implementation of route
ROUTE_DIGESTS = {
    None: "85e655ae5425ca05aed75894f5b776a2633caf6bb6d2549f06143631b2f7275d",
    (4, 4): "8bbd7e7c015a1883b854a858a39b99af731bb01faa7e53f07892b9f4be1545d1",
    (16,): "a344b88b7cb0567094551c876313c52fe9331a106c20fc8ec99729c191360a80",
    (2, 8): "b4febea309222792243e2b5f987ad9a668ceb43e303e014ab7c6ad0a12120d80",
    (2, 2, 4): "c97f15569c646b2eea384bd3a86513f65c71efa2c7b903044e65c351d8b2a5a8",
}


def _public_route(cfg, occ, group_type):
    out = gridmux.route(cfg, occ, group_type)
    return out.group_success, out.column_settings, out.row_sources


def _route_digest(cfg, group_type, router=_public_route):
    h = hashlib.sha256()
    for p in (0.02, 0.1, 0.4, 0.8):
        for seed in range(12):
            success, settings, sources = router(cfg, _occupancy(cfg, p, seed), group_type)
            record = [
                list(success),
                sorted([c, list(s)] for c, s in settings.items()),
                sorted(sources.items()),
            ]
            h.update(json.dumps(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("group_type", list(ROUTE_DIGESTS))
def test_route_outcomes_are_frozen(group_type):
    assert _route_digest(gridmux.default_config(), group_type) == ROUTE_DIGESTS[group_type]


def test_column_group_factors_must_be_positive():
    # (-4, -4) and (-1, -16) multiply to the column size but name no cyclic group
    cfg = gridmux.default_config()
    for group_type in ((-4, -4), (-1, -16)):
        with pytest.raises(ValueError, match="factor"):
            gridmux.route(cfg, cfg.grid, group_type)
        with pytest.raises(ValueError, match="factor"):
            gridmux.simulate_grid_yield(cfg, 0.1, trials=4, seed=0, column_group_type=group_type)


@pytest.mark.parametrize("group_type", [(2.5, 6.4), (True, 16), (4.0, 4.0), (4, 2, 2, 1.0)])
def test_column_group_factors_must_be_ints(group_type):
    # (2.5, 6.4) and (True, 16) multiply to 16 but name no cyclic group
    cfg = gridmux.default_config()
    with pytest.raises(ValueError, match="factor"):
        gridmux.route(cfg, cfg.grid, group_type)
    with pytest.raises(ValueError, match="factor"):
        gridmux.simulate_grid_yield(cfg, 0.1, trials=4, seed=0, column_group_type=group_type)


def test_float_group_type_is_rejected_after_its_int_twin_is_cached():
    # (4.0, 4.0) == (4, 4) and hashes the same, so the check must precede the layout cache
    cfg = gridmux.default_config()
    gridmux.route(cfg, cfg.grid, (4, 4))
    gridmux.simulate_grid_yield(cfg, 0.1, trials=4, seed=0, column_group_type=(4, 4))
    with pytest.raises(ValueError, match="factor"):
        gridmux.route(cfg, cfg.grid, (4.0, 4.0))
    with pytest.raises(ValueError, match="factor"):
        gridmux.simulate_grid_yield(cfg, 0.1, trials=4, seed=0, column_group_type=(4.0, 4.0))


def test_group_type_must_fit_every_column():
    cfg = gridmux.GridMuxConfig(
        columns=(2, 1), rows=((2, 0), (1, 0)), grid=((True, True), (True, False)), group_size=2, generators=1
    )
    with pytest.raises(ValueError, match="order 1"):
        gridmux.route(cfg, cfg.grid, (2,))


def test_zero_size_columns_are_rejected():
    doc = {"columns": [2, 0, 2], "rows": [[2, 0], [2, 0]], "grid": [[1, 0, 1], [1, 0, 1]], "group_size": 2, "generators": 1}
    with pytest.raises(ValueError, match="column 1 "):
        gridmux.GridMuxConfig(
            columns=(2, 0, 2),
            rows=((2, 0), (2, 0)),
            grid=((True, False, True),) * 2,
            group_size=2,
            generators=1,
        )
    with pytest.raises(ValueError, match="column 1 "):
        gridmux.config_from_json(json.dumps(doc))


def _column_shift_table(factors):
    """gridmux's table for one column of this type: [a, b] is the setting that moves cell a onto cell b."""
    n = math.prod(factors)
    cfg = gridmux.GridMuxConfig(
        columns=(n,), rows=tuple((1, r) for r in range(n)), grid=((True,),) * n, group_size=1, generators=n
    )
    claim = gridmux._layout(cfg, tuple(factors)).claim  # one column: claim[b][0, a] is that setting
    return np.array([claim[b][0] for b in range(n)]).T


def test_column_tables_invert_the_gmzi_routing_table():
    types = [spec for n in range(1, 65) for spec in gmzi.classify_gmzi_types(n)]
    types += [binary_spec(n) for n in range(1, 65)]
    for spec in types:
        table = gmzi.routing_table(gmzi.build_gmzi(spec or (1,)))
        n = len(table)
        a, b = np.indices((n, n))
        assert np.array_equal(table[_column_shift_table(spec)[a, b], a], b), spec


def test_simulate_yield_rejects_bad_p():
    cfg = gridmux.default_config()
    for p in (-1.0, -1e-12, 1.5, float("nan")):
        with pytest.raises(ValueError):
            gridmux.simulate_grid_yield(cfg, p, trials=4, seed=0)


def _oracle_route(cfg, occupancy, factors=None):
    """Scalar greedy lock/release routing, digit by digit: the reference for gridmux's router.

    Returns (group success, column -> setting digits, row -> source column).
    """
    col_rows = [cfg.column_rows(c) for c in range(len(cfg.columns))]
    fac = [tuple(factors) if factors is not None else binary_spec(len(rows)) for rows in col_rows]

    def digits(x, f):  # first factor most significant
        out = []
        for n in reversed(f):
            out.append(x % n)
            x //= n
        return tuple(reversed(out))

    def minus(b, a, f):  # the position with digits (b - a) mod f
        x = 0
        for da, db, n in zip(digits(a, f), digits(b, f), f):
            x = x * n + (db - da) % n
        return x

    locked, row_sources, success = {}, {}, []
    for g in range(cfg.generators):
        claimed, filled, ok = {}, {}, True
        for r in range(g * cfg.group_size, (g + 1) * cfg.group_size):
            for c in cfg.row_columns(r):
                rows, f = col_rows[c], fac[c]
                target = rows.index(r)
                setting = claimed.get(c, locked.get(c))
                if setting is not None:
                    # setting s moves position (target - s) onto target
                    if occupancy[rows[minus(target, setting, f)]][c]:
                        break
                elif any(occupancy[q][c] for q in rows):
                    lowest = next(i for i, q in enumerate(rows) if occupancy[q][c])
                    claimed[c] = minus(target, lowest, f)  # moves the lowest photon onto target
                    break
            else:
                ok = False
                break
            filled[r] = c
        success.append(ok)
        if ok:
            locked.update(claimed)
            row_sources.update(filled)
    return tuple(success), {c: digits(s, fac[c]) for c, s in locked.items()}, row_sources


def _factorizations(n):
    if n == 1:
        return [()]
    return [(d,) + rest for d in range(2, n + 1) if n % d == 0 for rest in _factorizations(n // d)]


@st.composite
def _grid_cases(draw):
    """A small config (column sizes >= 1), an optional factor type valid for it, and occupancies."""
    generators = draw(st.integers(1, 3))
    group_size = draw(st.integers(2 if generators == 1 else 1, 3))
    n_rows = group_size * generators
    n_cols = draw(st.integers(1, 5))
    uniform = draw(st.booleans())
    size = draw(st.integers(1, n_rows))
    grid = [[False] * n_cols for _ in range(n_rows)]
    for c in range(n_cols):
        rows = draw(st.permutations(range(n_rows)))
        for r in rows[: size if uniform else draw(st.integers(1, n_rows))]:
            grid[r][c] = True
    cfg = gridmux.GridMuxConfig(
        columns=tuple(sum(grid[r][c] for r in range(n_rows)) for c in range(n_cols)),
        rows=tuple((sum(row), r // group_size) for r, row in enumerate(grid)),
        grid=tuple(map(tuple, grid)),
        group_size=group_size,
        generators=generators,
    )
    factors = draw(st.sampled_from([None] + _factorizations(size))) if uniform else None
    n_trials = draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=n_rows * n_cols * n_trials, max_size=n_rows * n_cols * n_trials))
    occs = np.array(bits, dtype=bool).reshape(n_trials, n_rows, n_cols) & np.array(grid, dtype=bool)
    return cfg, factors, occs


@settings(max_examples=300, deadline=None)
@given(_grid_cases())
def test_route_matches_the_scalar_oracle(case):
    cfg, factors, occs = case
    layout = gridmux._layout(cfg, None if factors is None else tuple(factors))
    success, settings, sources = gridmux._route_batch(layout, occs)
    for t, occ in enumerate(occs.tolist()):
        want = _oracle_route(cfg, occ, factors)
        out = gridmux.route(cfg, occ, factors)
        assert (out.group_success, out.column_settings, out.row_sources) == want
        batched = (
            tuple(success[t].tolist()),
            {c: layout.digits[c][s] for c, s in enumerate(settings[t].tolist()) if s >= 0},
            {r: c for r, c in enumerate(sources[t].tolist()) if c >= 0},
        )
        assert batched == want


def test_one_cell_column_routes_as_the_trivial_group():
    cfg = gridmux.GridMuxConfig(
        columns=(1, 2), rows=((1, 0), (2, 1)), grid=((False, True), (True, True)), group_size=1, generators=2
    )
    out = gridmux.route(cfg, [[False, True], [True, False]])
    assert out == gridmux.RoutingOutcome((True, True), {0: (), 1: (0,)}, {0: 1, 1: 0})
    point = gridmux.simulate_grid_yield(cfg, 0.5, trials=64, seed=3)
    assert np.mean(_per_trial_yields(cfg, 0.5, 3, 64)) == point.estimate.mean


def _per_trial_yields(cfg, p, seed, trials):
    """Per-trial yields through substreams and the scalar oracle."""
    mask = np.array(cfg.grid, dtype=bool)
    values = []
    for t in range(trials):
        hits = simkit.substream(seed, t).random(int(mask.sum())) < p
        occ = np.zeros(mask.shape, dtype=bool)
        occ[mask] = hits
        success, _, _ = _oracle_route(cfg, occ.tolist())
        values.append(cfg.group_size * sum(success) / int(hits.sum()) if hits.any() else 0.0)
    return np.array(values)


def test_simulate_yield_across_block_boundaries():
    # every trial count around the block size must equal a per-trial loop
    # over substreams through the scalar oracle, bit for bit
    cfg = gridmux.default_config()
    chunk = simkit._BLOCK_BYTES // (8 * cfg.n_cells)
    p, seed = 0.1, 77
    values = _per_trial_yields(cfg, p, seed, 2 * chunk + 3)
    for trials in (2, chunk, chunk + 1, 2 * chunk + 3):
        want = simkit.reduce_values(values[:trials], seed)
        assert gridmux.simulate_grid_yield(cfg, p, trials, seed).estimate == want, trials
    # on a 2 x 2 grid many trials hold exactly group_size photons
    tiny = gridmux.GridMuxConfig(
        columns=(2, 2), rows=((2, 0), (2, 0)), grid=((True, True), (True, True)), group_size=2, generators=1
    )
    for p in (0.3, 0.5):
        want = simkit.reduce_values(_per_trial_yields(tiny, p, seed, 400), seed)
        assert gridmux.simulate_grid_yield(tiny, p, 400, seed).estimate == want, p


@pytest.mark.parametrize("group_type", [None, (2, 2, 4)])
def test_scalar_oracle_reproduces_the_frozen_route_digests(group_type):
    assert _route_digest(gridmux.default_config(), group_type, _oracle_route) == ROUTE_DIGESTS[group_type]
