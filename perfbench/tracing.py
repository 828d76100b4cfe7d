"""Spans around the benchmark's calls into muxkit, replays and per-layer metrics.

Spans are recorded by the benchmark around each top-level call it makes; the
library itself is not instrumented.  To split a Monte-Carlo call into sampling
and routing from outside, a traced pass replays chosen calls trial by trial
through the public pieces (``simkit.substream(seed, t).random``,
``gridmux.route``, ``temporal.extract_photon_groups``) and asserts that the
replay rebuilds the call's ``Estimate`` values bit for bit, so the replay
measures the same work.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from muxkit import gridmux, temporal
from muxkit.simkit import Estimate, substream

LAYERS = ("simkit", "gridmux", "temporal", "patterns", "logic", "gmzi", "networks", "analytics", "cli")


class Tracer:
    """In-memory spans: [name, layer, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of each layer's spans not covered by their child spans.

    The benchmark is single-threaded, so the children of one span never
    overlap and their durations add up to the covered part.
    """
    covered = defaultdict(float)
    for name, layer, start, end, parent, op in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        out[layer] += (end - start) - covered[i]
    return out


# ---------------------------------------------------------------------------
# replays


def _estimate(vals: np.ndarray, trials: int, seed: int) -> Estimate:
    # the reduction simulate_grid_yield and simulate_group_extraction use
    mean = float(vals.mean())
    std = float(vals.std(ddof=1))
    return Estimate(mean=mean, stderr=std / math.sqrt(trials), trials=trials, seed=seed)


def grid_replay(cfg, p, trials, seed, group_type):
    """Replay of simulate_grid_yield(cfg, p, trials, seed, group_type)."""
    marked = [(r, c) for r in range(len(cfg.rows)) for c in range(len(cfg.columns)) if cfg.grid[r][c]]
    n_rows, n_cols = len(cfg.rows), len(cfg.columns)

    def replay(point, tracer: Tracer) -> str | None:
        vals = np.empty(trials, dtype=np.float64)
        for trial in range(trials):
            i = tracer.begin("simkit.random", "simkit")
            u = substream(seed, trial).random(len(marked))
            tracer.end(i)
            occupancy = [[False] * n_cols for _ in range(n_rows)]
            n_photons = 0
            for (r, c), h in zip(marked, u < p):
                if h:
                    occupancy[r][c] = True
                    n_photons += 1
            if n_photons == 0:
                vals[trial] = 0.0
                continue
            i = tracer.begin("gridmux.route", "gridmux")
            outcome = gridmux.route(cfg, occupancy, group_type)
            tracer.end(i)
            tracer.counts["gridmux.groups_succeeded"] += sum(outcome.group_success)
            tracer.counts["gridmux.groups_attempted"] += len(outcome.group_success)
            vals[trial] = cfg.group_size * sum(outcome.group_success) / n_photons
        if _estimate(vals, trials, seed) != point.estimate:
            return f"grid replay at p={p} does not rebuild the Estimate"
        return None

    return replay


def gather_replay(modes, group_size, bins, p, trials, seed, max_groups=4):
    """Replay of simulate_group_extraction with its default delay/crossing limits."""

    def replay(estimates, tracer: Tracer) -> str | None:
        hits = np.zeros((max_groups, trials), dtype=np.float64)
        for trial in range(trials):
            i = tracer.begin("simkit.random", "simkit")
            u = substream(seed, trial).random((modes, bins))
            tracer.end(i)
            grid = u < p
            occ = temporal.SpaceTimeOccupancy(modes, bins, tuple(tuple(bool(x) for x in row) for row in grid))
            i = tracer.begin("temporal.extract_photon_groups", "temporal")
            found = len(temporal.extract_photon_groups(modes, group_size, occ, max_groups=max_groups))
            tracer.end(i)
            tracer.counts["temporal.groups_found"] += found
            tracer.counts["temporal.groups_wanted"] += max_groups
            hits[:found, trial] = 1.0
        rebuilt = {k: _estimate(hits[k - 1], trials, seed) for k in range(1, max_groups + 1)}
        return None if rebuilt == estimates else "gather replay does not rebuild the Estimates"

    return replay


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

GMZI_CALLS = ("routing_table", "device_to_json", "device_from_json", "check_mux_lemma")


def layer_metrics(tracer: Tracer, ops) -> dict[str, float]:
    """Per-layer metrics of one traced pass (only those the pass exercises)."""
    spans = tracer.spans
    by_name = defaultdict(list)
    for name, layer, start, end, parent, op in spans:
        by_name[name].append((end - start, op))

    def total(name, label=None):
        return sum(d for d, op in by_name[name] if label is None or ops[op].label == label)

    def mean_us(name):
        return 1e6 * statistics.fmean(d for d, _ in by_name[name])

    out: dict[str, float] = {}
    for layer, busy in self_times(spans).items():
        if layer in LAYERS:
            out[f"{layer}.busy_s"] = busy
    counts = tracer.counts
    if by_name["simkit.random"]:
        out["simkit.draw_us"] = mean_us("simkit.random")
        out["simkit.draws"] = len(by_name["simkit.random"])
    if by_name["gridmux.route"]:
        replayed = {i for i, op in enumerate(ops) if op.name == "gridmux.simulate_grid_yield" and op.replay}
        simulate = sum(d for d, op in by_name["gridmux.simulate_grid_yield"] if op in replayed)
        draws = sum(d for d, op in by_name["simkit.random"] if op in replayed)
        out["gridmux.route_us"] = mean_us("gridmux.route")
        out["gridmux.route_calls"] = len(by_name["gridmux.route"])
        out["gridmux.glue_s"] = simulate - draws - total("gridmux.route")
        out["gridmux.group_success_ratio"] = counts["gridmux.groups_succeeded"] / counts["gridmux.groups_attempted"]
    if by_name["temporal.raster_simulate"]:
        out["temporal.raster_s"] = total("temporal.raster_simulate")
    if by_name["temporal.extract_photon_groups"]:
        out["temporal.extract_us"] = mean_us("temporal.extract_photon_groups")
        out["temporal.groups_found_ratio"] = counts["temporal.groups_found"] / counts["temporal.groups_wanted"]
    if by_name["temporal.tetris_success_probability"]:
        out["temporal.tetris_s.m4b4"] = total("temporal.tetris_success_probability", "m4b4")
    if by_name["temporal.debruijn_mux_route"]:
        out["temporal.debruijn_route_us"] = mean_us("temporal.debruijn_mux_route")
        out["temporal.debruijn_success_ratio"] = counts["temporal.debruijn_success"] / len(by_name["temporal.debruijn_mux_route"])
    if by_name["patterns.search_optimal_coupler_layer"]:
        out["patterns.search_s.n10"] = total("patterns.search_optimal_coupler_layer", "n10")
        out["patterns.layers_searched"] = counts["patterns.layers_searched"]
    if by_name["logic.match_rows"]:
        out["logic.match_rows_us"] = mean_us("logic.match_rows")
        out["logic.match_calls"] = len(by_name["logic.match_rows"])
    if by_name["gmzi.routing_table"]:
        for call in GMZI_CALLS:
            for label in sorted({ops[op].label for _, op in by_name[f"gmzi.{call}"]}):
                out[f"gmzi.{call}_s.{label}"] = total(f"gmzi.{call}", label)
    if by_name["networks.build_spanke"]:
        out["networks.build_s"] = total("networks.build_spanke")
        out["networks.metrics_s"] = total("networks.metrics")
        out["networks.json_roundtrip_s"] = total("networks.network_to_json") + total("networks.network_from_json")
        out["networks.components"] = counts["networks.components"]
    n_analytics = sum(1 for s in spans if s[1] == "analytics")
    if n_analytics:
        out["analytics.calls"] = n_analytics
    if by_name["cli.main"]:
        out["cli.overhead_s"] = total("cli.main") - total("cli.direct")
    return out
