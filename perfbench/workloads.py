"""Seeded inputs, operations and correctness checks of the three workloads.

A workload is a fixed list of operations ("one pass").  Each operation is one
top-level call into a public muxkit function; the benchmark times it and then
checks its output.  Every input (p grids, trial seeds, occupancies, input
orders) is drawn from ``random.Random`` keyed by the workload name and the
``--seed`` argument, so the same seed gives the same pass, bit for bit.

Two scales exist: ``full`` is what the benchmark measures, ``tiny`` is the
self-test and the untimed warm-up that ends set-up.  Tiny passes call the same
entry points on small inputs and keep the full-scale metric labels.

Checks come in two kinds:

* invariants that hold for every seed (Latin squares, JSON round trips, the
  ``match_rows`` single-hit rule, manifest digests, pathwise dominance, ...);
* frozen digests (``digests.json``): a sha256 of the canonical form of every
  output, grouped, recorded at the seed commit for the default seed and for
  every operation whose inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from muxkit import analytics, cli, gmzi, gridmux, logic, networks, patterns, temporal
from tracing import gather_replay, grid_replay

WORKLOADS = ("mc-bulk", "mc-sweep", "exact-design")
DEFAULT_SEED = 0

# tetris_success_probability(4, 4, 1/4) at the seed commit
TETRIS_44_QUARTER = Fraction(2504542567, 4294967296)

# gmzi devices of exact-design: metric label -> factors, per scale
GMZI_SPECS = {
    "full": (("n16", (2, 2, 2, 2)), ("n64", (4, 4, 4)), ("n256", (2,) * 8), ("n16x16", (16, 16))),
    "tiny": (("n16", (2, 2)), ("n64", (2, 2, 2)), ("n256", (4, 2)), ("n16x16", (4, 4))),
}


@dataclass
class Op:
    """One timed top-level call and what the gate checks about its output."""

    name: str  # public entry point, "<module>.<function>"
    layer: str  # layer its span is charged to
    group: str  # digest group
    call: Callable[[dict], Any]  # ctx -> output
    check: Callable[[Any, dict], str | None] | None = None  # failure message or None
    store: str | None = None  # ctx key the output is kept under
    trials: int = 0  # Monte-Carlo trials the call runs
    label: str = ""  # per-layer metric label, e.g. "n256"
    replay: Callable[[Any, Any], str | None] | None = None  # (output, tracer) -> mismatch
    tally: Callable[[Any], dict] | None = None  # counts a traced pass takes from the output
    direct: Callable[[dict], Any] | None = None  # the same library work without the CLI


# ---------------------------------------------------------------------------
# canonical digests


def canon(x):
    """JSON-ready canonical form: floats as hex, arrays as dtype/shape/sha256."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        out = {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
        out["__type__"] = type(x).__name__
        return out
    if isinstance(x, np.ndarray):
        data = np.ascontiguousarray(x)
        return {"dtype": str(data.dtype), "shape": list(data.shape), "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if x is None or isinstance(x, (bool, np.bool_, str)):
        return x if not isinstance(x, np.bool_) else bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in x.items()]
    if isinstance(x, (frozenset, set)):
        return sorted(canon(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def fingerprint(x) -> bytes:
    return json.dumps(canon(x), sort_keys=True, separators=(",", ":")).encode()


def load_digests(path: Path) -> dict[str, str]:
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# invariants


def _band(pt, _ctx) -> str | None:
    """Grid yield inside [naive - 3 sigma, bound + 3 sigma]."""
    e = pt.estimate
    if not pt.naive - 3 * e.stderr <= e.mean <= pt.bound + 3 * e.stderr:
        return f"grid yield {e.mean!r} outside [{pt.naive!r}, {pt.bound!r}] +- 3 x {e.stderr!r} at p={pt.p}"
    return None


def _grid_sane(cfg, p, trials, seed):
    def check(pt, _ctx):
        e = pt.estimate
        if (pt.p, e.trials, e.seed) != (p, trials, seed):
            return f"grid point echoes {(pt.p, e.trials, e.seed)} for {(p, trials, seed)}"
        if not (0.0 <= e.mean <= 1.0 and e.stderr >= 0.0):
            return f"grid yield {e.mean!r} +- {e.stderr!r} not a probability"
        if pt.bound != gridmux.bound_curve(cfg, p) or pt.naive != gridmux.naive_curve(cfg, p):
            return "grid point curves differ from bound_curve / naive_curve"
        return None

    return check


def _same_as(key, field):
    def check(out, ctx):
        want = getattr(ctx[key], field)
        return None if out == want else f"{out!r} != {field} {want!r} of the simulated point"

    return check


def _raster_sane(steps_per_group):
    def check(res, _ctx):
        g = res.groups_per_period
        if not 0.0 <= g.mean <= 4 / steps_per_group or g.stderr < 0:
            return f"raster groups per period {g.mean!r} out of range"
        return None

    return check


def _raster_dominates(regular_key, steps_per_group):
    """Enhanced rastering never finds fewer groups than regular on one seed."""
    sane = _raster_sane(steps_per_group)

    def check(res, ctx):
        reg = ctx[regular_key].groups_per_period.mean
        if res.groups_per_period.mean < reg:
            return f"enhanced raster {res.groups_per_period.mean!r} < regular {reg!r}"
        return sane(res, ctx)

    return check


def _gather_sane(est, _ctx):
    means = [est[k].mean for k in sorted(est)]
    if any(not 0.0 <= m <= 1.0 for m in means) or any(a < b for a, b in zip(means, means[1:])):
        return f"P(at least k groups) not a non-increasing probability: {means}"
    return None


def _latin(table, _ctx) -> str | None:
    n = table.shape[0]
    want = np.arange(n)
    if table.shape != (n, n):
        return f"routing table shape {table.shape}"
    if not (np.sort(table, axis=0) == want[:, None]).all() or not (np.sort(table, axis=1) == want[None, :]).all():
        return "routing table is not a Latin square"
    return None


def _device_roundtrip(dev_key):
    def check(dev, ctx):
        ref = ctx[dev_key]
        same = (
            dev.factors == ref.factors
            and dev.n_modes == ref.n_modes
            and (dev.offsets is None) == (ref.offsets is None)
            and (dev.offsets is None or np.array_equal(dev.offsets, ref.offsets))
            and np.array_equal(dev.setting_phases, ref.setting_phases)
        )
        return None if same else f"device JSON round trip changed {ref.factors}"

    return check


def _network_roundtrip(text_key):
    def check(net, ctx):
        return None if networks.network_to_json(net) == ctx[text_key] else "network JSON round trip is not an identity"

    return check


def _single_hit(bits, n_photons):
    ones = [i for i, b in enumerate(bits) if b]

    def check(hits, ctx):
        table = ctx["table"]
        if len(ones) < n_photons:
            return None if hits == [] else f"input {bits} below {n_photons} ones matched rows {hits}"
        if len(hits) != 1:
            return f"input {bits} matched {len(hits)} rows"
        pattern = table.rows[hits[0]][0]
        if [i for i, c in enumerate(pattern) if c == "1"] != ones[:n_photons]:
            return f"input {bits} matched row {pattern}"
        return None

    return check


def _debruijn_sane(occ, net):
    def check(route, _ctx):
        if route.success:
            temporal.replay_debruijn_route(net, route)
            return None
        if temporal.debruijn_mux_route(occ, net, tetris=False).success:
            return "per-bin shifts failed where one shift succeeds"
        return None

    return check


def _csv_matches_manifest(out, _ctx) -> str | None:
    rc, text, recorded = out
    if rc != 0:
        return f"cli exit code {rc}"
    have = hashlib.sha256(text.encode()).hexdigest()
    return None if recorded == have else f"CSV sha256 {have} != manifest {recorded}"


def _run_cli(argv, csv_path):
    """cli.main with stdout captured; returns (exit code, CSV text, its manifest sha256)."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    text = Path(csv_path).read_text()
    manifest = json.loads(Path(str(csv_path) + ".manifest.json").read_text())
    return rc, text, manifest["outputs"].get(str(csv_path))


# ---------------------------------------------------------------------------
# workloads


def build(workload: str, seed: int, scale: str) -> list[Op]:
    """The operations of one pass of a workload, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")

    def seeded(label: str) -> str:
        return f"{workload}/{scale}/s{seed}/{label}"

    def fixed(label: str) -> str:
        return f"fixed/{scale}/{label}"

    return _BUILDERS[workload](rng, scale == "tiny", seeded, fixed)


def _mc_bulk(rng, tiny, seeded, fixed) -> list[Op]:
    """Few calls, many trials: per-trial sampling and routing do the work."""
    cfg = gridmux.default_config()
    # three calls of each kind, each with its own seed, give the call-latency
    # deciles enough samples; trial counts are sized so that every call costs
    # about the same (~0.1 s) at the seed commit, keeping the deciles off the
    # gaps between call kinds
    repeats = 3
    grid_trials = 20 if tiny else 170
    raster_trials = {"one-mux": 200, "two-mux": 200} if tiny else {"one-mux": 4_000, "two-mux": 3_600}
    gather_trials = 50 if tiny else 700
    ops = []
    for p in (0.05, 0.10, 0.15):
        for k in range(repeats):
            s = rng.getrandbits(31)
            ops.append(Op(
                "gridmux.simulate_grid_yield", "gridmux", seeded(f"grid.p{p}"),
                lambda ctx, p=p, s=s: gridmux.simulate_grid_yield(cfg, p, grid_trials, s),
                check=_band, trials=grid_trials,
                replay=grid_replay(cfg, p, grid_trials, s, None) if p == 0.10 and k == 0 else None,
            ))
    for strategy, run in temporal.RASTER_GROUP_STEPS.items():
        for _ in range(repeats):
            s = rng.getrandbits(31)
            for enhanced in (False, True):
                ops.append(Op(
                    "temporal.raster_simulate", "temporal", seeded(f"raster.{strategy}.{int(enhanced)}"),
                    lambda ctx, st=strategy, e=enhanced, s=s: temporal.raster_simulate(st, 64, 0.05, e, raster_trials[st], s),
                    check=_raster_dominates(f"raster.{strategy}", run) if enhanced else _raster_sane(run),
                    store=None if enhanced else f"raster.{strategy}", trials=raster_trials[strategy],
                ))
    for k in range(repeats):
        s = rng.getrandbits(31)
        ops.append(Op(
            "temporal.simulate_group_extraction", "temporal", seeded("gather"),
            lambda ctx, s=s: temporal.simulate_group_extraction(8, 4, 16, 0.25, gather_trials, s),
            check=_gather_sane, trials=gather_trials,
            replay=gather_replay(8, 4, 16, 0.25, gather_trials, s) if k == 0 else None,
        ))
    return ops


def _small_config() -> gridmux.GridMuxConfig:
    """64 cells: 8 columns of 8, 12 rows in 3 groups of 4 (cyclic cell sweep)."""
    sizes = [8, 6, 4, 4, 8, 6, 4, 4, 8, 6, 4, 2]
    grid = [[False] * 8 for _ in sizes]
    ptr = 0
    for r, size in enumerate(sizes):
        for _ in range(size):
            grid[r][ptr % 8] = True
            ptr += 1
    return gridmux.GridMuxConfig(
        columns=(8,) * 8,
        rows=tuple((size, i // 4) for i, size in enumerate(sizes)),
        grid=tuple(tuple(row) for row in grid),
        group_size=4,
        generators=3,
    )


def _mc_sweep(rng, tiny, seeded, fixed) -> list[Op]:
    """Many calls, few trials: per-call set-up, curves and CLI formatting."""
    cfg = gridmux.default_config()
    small = _small_config()
    n_points = 6 if tiny else 30
    trials = 4 if tiny else 16
    raster_trials = 20 if tiny else 200
    raster_sizes = range(8, 33 if tiny else 129, 8)
    ps = [round(0.01 * (i + 1) + rng.uniform(-0.004, 0.004), 6) for i in range(n_points)]
    ops = []
    for group_type in (None, (4, 4)):
        tag = "default" if group_type is None else "4x4"
        for i, p in enumerate(ps):
            s = rng.getrandbits(31)
            key = f"pt.{tag}.{i}"
            ops.append(Op(
                "gridmux.simulate_grid_yield", "gridmux", seeded(f"sweep.grid.{tag}"),
                lambda ctx, p=p, s=s, gt=group_type: gridmux.simulate_grid_yield(cfg, p, trials, s, column_group_type=gt),
                check=_grid_sane(cfg, p, trials, s), store=key, trials=trials,
                replay=grid_replay(cfg, p, trials, s, None) if group_type is None else None,
            ))
            if group_type is None:
                ops.append(Op("gridmux.bound_curve", "analytics", seeded("sweep.bound"),
                              lambda ctx, p=p: gridmux.bound_curve(cfg, p), check=_same_as(key, "bound")))
                ops.append(Op("gridmux.naive_curve", "analytics", seeded("sweep.naive"),
                              lambda ctx, p=p: gridmux.naive_curve(cfg, p), check=_same_as(key, "naive")))
    ops.append(Op("gridmux.config_to_json", "gridmux", fixed("sweep.config_to_json"),
                  lambda ctx: gridmux.config_to_json(small), store="small_json"))
    ops.append(Op("gridmux.config_from_json", "gridmux", fixed("sweep.config_from_json"),
                  lambda ctx: gridmux.config_from_json(ctx["small_json"]), store="small",
                  check=lambda out, ctx: None if out == small else "config JSON round trip changed the layout"))
    for p in ps[::3]:
        s = rng.getrandbits(31)
        ops.append(Op(
            "gridmux.simulate_grid_yield", "gridmux", seeded("sweep.grid.small"),
            lambda ctx, p=p, s=s: gridmux.simulate_grid_yield(ctx["small"], p, trials, s),
            check=_grid_sane(small, p, trials, s), trials=trials,
        ))
    p_raster = round(rng.uniform(0.03, 0.08), 6)
    for n in raster_sizes:
        for strategy, run in temporal.RASTER_GROUP_STEPS.items():
            s = rng.getrandbits(31)
            for enhanced in (False, True):
                ops.append(Op(
                    "temporal.raster_simulate", "temporal", seeded(f"sweep.raster.{strategy}.{int(enhanced)}"),
                    lambda ctx, st=strategy, n=n, e=enhanced, s=s: temporal.raster_simulate(st, n, p_raster, e, raster_trials, s),
                    check=_raster_dominates(f"raster.{strategy}", run) if enhanced else _raster_sane(run),
                    store=None if enhanced else f"raster.{strategy}", trials=raster_trials,
                ))
            ops.append(Op("analytics.raster_yield", "analytics", seeded("sweep.raster_yield"),
                          lambda ctx, st=strategy, n=n: analytics.raster_yield(st, n, p_raster),
                          check=lambda y, ctx: None if 0.0 <= y <= 1.0 else f"raster yield {y!r}"))
    ops.extend(_cli_ops(rng, tiny, seeded))
    return ops


def _cli_ops(rng, tiny, seeded) -> list[Op]:
    """Three CLI runs, each writing a CSV and its manifest into the run's temporary directory."""
    trials = 4 if tiny else 16
    s = rng.getrandbits(31)
    lo = round(rng.uniform(0.02, 0.06), 4)
    p_grid = [round(lo + 0.04 * i, 12) for i in range(3)]
    p_raster = round(rng.uniform(0.03, 0.08), 4)
    p_group = round(rng.uniform(0.02, 0.1), 4)
    hi = 32 if tiny else 128
    cfg = gridmux.default_config()

    def grid_direct(ctx):
        for i, p in enumerate(p_grid):
            gridmux.simulate_grid_yield(cfg, p, trials, s + i)

    def raster_direct(ctx):
        for i, n in enumerate(range(8, hi + 1, 8)):
            temporal.raster_simulate("one-mux", n, p_raster, False, 10 * trials, s + i)
            analytics.raster_yield("one-mux", n, p_raster)

    def group_direct(ctx):
        for n in range(8, 4 * hi + 1, 8):
            analytics.naive_group_pmux(n, p_group, 4)
            analytics.optimal_group_pmux(n, p_group, 4)

    runs = [
        ("gridmux", ["gridmux", "--p-range", f"{p_grid[0]}:{p_grid[-1]}:0.04", "--trials", str(trials), "--seed", str(s)],
         grid_direct, len(p_grid) * trials),
        ("raster", ["temporal", "--scheme", "raster", "--n-range", f"8:{hi}:8", "--p", str(p_raster),
                    "--trials", str(10 * trials), "--seed", str(s)], raster_direct, hi // 8 * 10 * trials),
        ("group", ["analyze", "--curve", "group", "--n-range", f"8:{4 * hi}:8", "--p", str(p_group), "--m", "4"],
         group_direct, 0),
    ]
    ops = []
    for tag, argv, direct, n_trials in runs:
        def call(ctx, tag=tag, argv=argv):
            path = Path(ctx["tmp"]) / f"{tag}.csv"
            return _run_cli(argv + ["--csv", str(path)], path)

        ops.append(Op(
            "cli.main", "cli", seeded(f"cli.{tag}"), call,
            check=_csv_matches_manifest, trials=n_trials, direct=direct,
        ))
    return ops


def _exact_design(rng, tiny, seeded, fixed) -> list[Op]:
    """No Monte-Carlo: exact enumerators, device algebra, network builders."""
    ops = []
    # de Bruijn delay multiplexing, exact and per-occupancy
    m44, b44 = (2, 3) if tiny else (4, 4)
    m35, b35 = (2, 2) if tiny else (3, 5)
    p35 = Fraction(rng.randint(2, 8), 20)
    ops.append(Op(
        "temporal.tetris_success_probability", "temporal", fixed(f"tetris.{m44}x{b44}"),
        lambda ctx: temporal.tetris_success_probability(m44, b44, Fraction(1, 4)), label="m4b4",
        check=None if tiny else (lambda f, ctx: None if f == TETRIS_44_QUARTER else f"tetris(4,4,1/4) = {f}"),
    ))
    ops.append(Op(
        "temporal.tetris_success_probability", "temporal", seeded(f"tetris.{m35}x{b35}"),
        lambda ctx: temporal.tetris_success_probability(m35, b35, p35), label="m3b5",
        check=lambda f, ctx: (
            None if temporal.non_tetris_success_probability(m35, b35, float(p35)) <= float(f) <= 1.0
            else f"tetris({m35},{b35}) = {f} below the single-shift probability"
        ),
    ))
    side = 3 if tiny else 5
    net = temporal.default_delay_network(side, side)
    for _ in range(8 if tiny else 100):
        fill = rng.uniform(0.2, 0.5)
        cells = [(j, t) for j in range(side) for t in range(side) if rng.random() < fill]
        occ = temporal.SpaceTimeOccupancy.from_photons(side, side, cells)
        ops.append(Op(
            "temporal.debruijn_mux_route", "temporal", seeded("debruijn"),
            lambda ctx, occ=occ: temporal.debruijn_mux_route(occ, net, tetris=True),
            check=_debruijn_sane(occ, net), tally=lambda r: {"temporal.debruijn_success": int(r.success)},
        ))
    # coupler-layer search
    n_search = 6 if tiny else 10
    ops.append(Op(
        "patterns.search_optimal_coupler_layer", "patterns", fixed(f"search.n{n_search}"),
        lambda ctx: patterns.search_optimal_coupler_layer(n_search), label="n10",
        tally=lambda r: {"patterns.layers_searched": r.n_layers_searched},
        check=lambda r, ctx: (
            None if r.n_layers_searched == math.prod(range(n_search - 1, 0, -2)) and 0 < r.n_routable <= r.n_patterns
            else f"search({n_search}) searched {r.n_layers_searched} layers"
        ),
    ))
    # wildcard-reduced truth table over every input, in seeded order
    width, n_photons = (8, 3) if tiny else (12, 4)
    ops.append(Op(
        "logic.wildcard_reduce", "logic", fixed(f"wildcard.{width}.{n_photons}"),
        lambda ctx: logic.wildcard_reduce(width, n_photons), store="table",
        check=lambda t, ctx: None if len(t.rows) == math.comb(width, n_photons) else f"{len(t.rows)} rows",
    ))
    inputs = list(range(1 << width))
    rng.shuffle(inputs)
    for x in inputs:
        bits = [bool(x >> i & 1) for i in range(width)]
        ops.append(Op(
            "logic.match_rows", "logic", seeded("match_rows"),
            lambda ctx, bits=bits: ctx["table"].match_rows(bits),
            check=_single_hit(bits, n_photons),
        ))
    # device algebra: build, route, serialize, parse, verify
    for label, factors in GMZI_SPECS["tiny" if tiny else "full"]:
        tag = "x".join(map(str, factors))
        dev_key, text_key = f"dev.{label}", f"json.{label}"
        ops += [
            Op("gmzi.build_gmzi", "gmzi", fixed(f"gmzi.{tag}.build"), lambda ctx, f=factors: gmzi.build_gmzi(f),
               store=dev_key, label=label),
            Op("gmzi.routing_table", "gmzi", fixed(f"gmzi.{tag}.routing_table"),
               lambda ctx, k=dev_key: gmzi.routing_table(ctx[k]), check=_latin, label=label),
            Op("gmzi.device_to_json", "gmzi", fixed(f"gmzi.{tag}.device_to_json"),
               lambda ctx, k=dev_key: gmzi.device_to_json(ctx[k]), store=text_key, label=label),
            Op("gmzi.device_from_json", "gmzi", fixed(f"gmzi.{tag}.device_from_json"),
               lambda ctx, k=text_key: gmzi.device_from_json(ctx[k]), check=_device_roundtrip(dev_key), label=label),
            Op("gmzi.check_mux_lemma", "gmzi", fixed(f"gmzi.{tag}.check_mux_lemma"),
               lambda ctx, k=dev_key: gmzi.check_mux_lemma(ctx[k]), label=label,
               check=lambda rep, ctx: None if rep.ok else "mux lemma fails"),
        ]
    # network builder, cost metrics and JSON round trip
    size, outs = (16, 4) if tiny else (64, 16)
    ops += [
        Op("networks.build_spanke", "networks", fixed(f"spanke.{size}.{outs}.build"),
           lambda ctx: networks.build_spanke(size, outs), store="net",
           tally=lambda net: {"networks.components": len(net.components)}),
        Op("networks.metrics", "networks", fixed(f"spanke.{size}.{outs}.metrics"),
           lambda ctx: networks.metrics(ctx["net"]),
           check=lambda m, ctx: None if (m.n_inputs, m.n_outputs) == (size * outs, outs) else f"metrics {m}"),
        Op("networks.network_to_json", "networks", fixed(f"spanke.{size}.{outs}.to_json"),
           lambda ctx: networks.network_to_json(ctx["net"]), store="net_json"),
        Op("networks.network_from_json", "networks", fixed(f"spanke.{size}.{outs}.from_json"),
           lambda ctx: networks.network_from_json(ctx["net_json"]), check=_network_roundtrip("net_json")),
    ]
    # closed-form curves
    p_curve = round(rng.uniform(0.02, 0.08), 6)
    for n in range(8, (200 if tiny else 1000) + 1, 8):
        ops += [
            Op("analytics.p_mux_single", "analytics", seeded("curve.pmux"),
               lambda ctx, n=n: analytics.p_mux_single(n, p_curve), store="pmux",
               check=lambda v, ctx: None if 0.0 <= v <= 1.0 else f"p_mux {v!r}"),
            Op("analytics.naive_group_pmux", "analytics", seeded("curve.naive"),
               lambda ctx, n=n: analytics.naive_group_pmux(n, p_curve, 4), store="naive",
               check=lambda v, ctx: None if 0.0 <= v <= ctx["pmux"] else f"naive group {v!r}"),
            Op("analytics.optimal_group_pmux", "analytics", seeded("curve.optimal"),
               lambda ctx, n=n: analytics.optimal_group_pmux(n, p_curve, 4),
               check=lambda v, ctx: None if ctx["naive"] <= v + 1e-12 and v <= 1.0 + 1e-12 else f"optimal {v!r} < naive"),
        ]
    return ops


_BUILDERS = {"mc-bulk": _mc_bulk, "mc-sweep": _mc_sweep, "exact-design": _exact_design}
