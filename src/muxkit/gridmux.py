"""Two-layer grid multiplexer: output rows drawing from shared input columns.

Sources sit on a grid of cells.  Each column is one first-layer switch whose
group of cyclic permutations moves photons between the column's cells; each
row hosts one second-layer n-to-1 switch delivering a single output.  Rows
are grouped, and a group succeeds when all of its rows receive a photon.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytics
from .gmzi import _group_table, _mixed_radix, binary_spec, cyclic_spec
from .simkit import Estimate, reduce_values, run_trials

__all__ = [
    "GridMuxConfig",
    "default_config",
    "config_to_json",
    "config_from_json",
    "RoutingOutcome",
    "route",
    "simulate_grid_yield",
    "GridYieldPoint",
    "bound_curve",
    "naive_curve",
]


@dataclass(frozen=True)
class GridMuxConfig:
    columns: tuple[int, ...]  # first-layer switch sizes, one per column
    rows: tuple[tuple[int, int], ...]  # (second-layer size, group id) per row
    grid: tuple[tuple[bool, ...], ...]  # marks[row][column]
    group_size: int
    generators: int

    def __post_init__(self):
        n_rows, n_cols = len(self.rows), len(self.columns)
        if len(self.grid) != n_rows or any(len(r) != n_cols for r in self.grid):
            raise ValueError("grid shape mismatch")
        if self.group_size * self.generators != n_rows:
            raise ValueError("rows must form generators groups of group_size")
        for i, (size, gid) in enumerate(self.rows):
            if gid != i // self.group_size:
                raise ValueError("rows must be grouped consecutively")
            if sum(self.grid[i]) != size:
                raise ValueError(f"row {i} size {size} != marked cells")
        for c, size in enumerate(self.columns):
            if size < 1:
                raise ValueError(f"column {c} size {size} must be >= 1")
            if sum(self.grid[r][c] for r in range(n_rows)) != size:
                raise ValueError(f"column {c} size {size} != marked cells")

    @property
    def n_cells(self) -> int:
        return sum(self.columns)

    def column_rows(self, c: int) -> tuple[int, ...]:
        """Rows of column c's cells, ascending; index = position in the switch."""
        return tuple(r for r in range(len(self.rows)) if self.grid[r][c])

    def row_columns(self, r: int) -> tuple[int, ...]:
        return tuple(c for c in range(len(self.columns)) if self.grid[r][c])


def default_config() -> GridMuxConfig:
    """256 cells: 16 columns of 16, 20 rows in 5 groups of 4.

    Only the counts are pinned down (row sizes drawn from {4, 8, 12, 16},
    16 cells per column); cells are assigned to columns by a cyclic sweep,
    which balances every column exactly.
    """
    sizes = [16, 16, 12, 8] * 4 + [16, 16, 12, 4]
    assert sum(sizes) == 256
    n_cols = 16
    grid = [[False] * n_cols for _ in sizes]
    ptr = 0
    for r, s in enumerate(sizes):
        for _ in range(s):
            grid[r][ptr % n_cols] = True
            ptr += 1
    return GridMuxConfig(
        columns=(16,) * n_cols,
        rows=tuple((s, i // 4) for i, s in enumerate(sizes)),
        grid=tuple(tuple(row) for row in grid),
        group_size=4,
        generators=5,
    )


def config_to_json(config: GridMuxConfig) -> str:
    doc = {
        "columns": list(config.columns),
        "rows": [list(r) for r in config.rows],
        "grid": [[int(x) for x in row] for row in config.grid],
        "group_size": config.group_size,
        "generators": config.generators,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def config_from_json(text: str) -> GridMuxConfig:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("grid config must be a JSON object")
    missing = [key for key in ("columns", "rows", "grid", "group_size", "generators") if key not in doc]
    if missing:
        raise ValueError(f"grid config is missing {', '.join(missing)}")
    try:
        return GridMuxConfig(
            columns=tuple(map(int, doc["columns"])),
            rows=tuple((int(a), int(b)) for a, b in doc["rows"]),
            grid=tuple(tuple(bool(x) for x in row) for row in doc["grid"]),
            group_size=int(doc["group_size"]),
            generators=int(doc["generators"]),
        )
    except TypeError as err:
        raise ValueError(f"malformed grid config: {err}") from None


# ---------------------------------------------------------------------------
# routing


@dataclass(frozen=True)
class _Layout:
    """Per-(config, factors) routing tables.

    Cells are numbered row * columns + column; number cells + c is a virtual
    cell that holds whether column c has any photon.  The router keeps one
    state per column: s * columns + c while it holds setting s, and the
    negative c - columns while it is free.  ``source[r]``, indexed by a
    column's state, is the cell that the column moves onto row r's cell; a
    free state wraps to the last block, the column's virtual cell.
    ``claim[r][j, q]`` is the state of column ``cols[r][j]`` that moves row
    q's cell onto row r's cell.
    """

    groups: tuple  # per group: the range of its rows
    digits: tuple  # per column: setting index -> digit tuple
    marked: np.ndarray  # (rows, columns) grid of marked cells
    cols: tuple  # per row: (k,) serving columns, ascending
    source: tuple  # per row: (max column size + 1) * columns cells, by state
    claim: tuple  # per row: (k, rows) state claiming each row's cell


@functools.lru_cache(maxsize=64)
def _layout(config: GridMuxConfig, factors: tuple[int, ...] | None) -> _Layout:
    n_rows, n_cols = len(config.rows), len(config.columns)
    source = np.empty((n_rows, max(config.columns, default=0) + 1, n_cols), dtype=np.int64)  # [r, s, c]
    source[...] = n_rows * n_cols + np.arange(n_cols)  # the virtual cells, until overwritten
    claim = np.full((n_rows, n_cols, n_rows), -1, dtype=np.int64)  # [r, c, q]
    digits = []
    for c, size in enumerate(config.columns):
        f = factors if factors is not None else binary_spec(size)
        # inverse[b, a] = b - a: the setting moving position a onto b, and the source that setting a moves onto b
        inverse = np.argsort(_group_table(f), axis=0)
        rows = np.array(config.column_rows(c), dtype=np.int64)
        digits.append(tuple(map(tuple, _mixed_radix(f)[0].tolist())))
        source[rows, :size, c] = rows[inverse] * n_cols + c
        claim[rows[:, None], c, rows[None, :]] = inverse * n_cols + c
    cols = tuple(np.array(config.row_columns(r), dtype=np.int64) for r in range(n_rows))
    source = tuple(source[r].ravel() for r in range(n_rows))
    claim = tuple(claim[r, cols[r]] for r in range(n_rows))
    marked = np.array(config.grid, dtype=bool)
    for table in (marked, *cols, *source, *claim):
        table.flags.writeable = False  # shared by every caller through the cache
    groups = tuple(range(g * config.group_size, (g + 1) * config.group_size) for g in range(config.generators))
    return _Layout(groups, tuple(digits), marked, cols, source, claim)


def _checked_layout(config: GridMuxConfig, column_group_type: Sequence[int] | None) -> _Layout:
    """`_layout` after checking an explicit group type on each column; uncached, as (4.0, 4.0) hits (4, 4)'s entry."""
    if column_group_type is not None:
        for size in dict.fromkeys(config.columns):
            cyclic_spec(column_group_type, order=size)
        column_group_type = cyclic_spec(column_group_type)
    return _layout(config, column_group_type)


@dataclass(frozen=True)
class RoutingOutcome:
    group_success: tuple[bool, ...]
    column_settings: dict[int, tuple[int, ...]]  # locked column -> shift digits
    row_sources: dict[int, int]  # filled row -> selected column


def route(
    config: GridMuxConfig,
    occupancy: Sequence[Sequence[bool]],
    column_group_type: Sequence[int] | None = None,
) -> RoutingOutcome:
    """Greedy group-by-group lock/release routing.

    For each group in order and each of its rows, columns are scanned by
    ascending index: a locked column serves the row if its frozen permutation
    drops a photon on the row's cell; an unlocked column with any photon is
    claimed, its shift chosen to move its lowest occupied cell into the row.
    A group that cannot fill some row releases every column it claimed.
    """
    layout = _checked_layout(config, column_group_type)
    occ = np.array(occupancy, dtype=bool)
    if occ.shape != (len(config.rows), len(config.columns)):
        raise ValueError(f"occupancy shape {occ.shape} does not match the grid")
    stray = np.argwhere(occ & ~layout.marked)
    if len(stray):
        r, c = stray[0]
        raise ValueError(f"occupancy on unmarked cell ({r}, {c})")
    success, settings, sources = _route_batch(layout, occ[None])
    return RoutingOutcome(
        tuple(success[0].tolist()),
        {c: layout.digits[c][s] for c, s in enumerate(settings[0].tolist()) if s >= 0},
        {r: c for r, c in enumerate(sources[0].tolist()) if c >= 0},
    )


def _route_batch(layout: _Layout, occ: np.ndarray):
    """``route`` on a (T, rows, columns) stack of occupancies, one trial per row.

    Returns (T, groups) group success, (T, columns) locked setting indices
    and (T, rows) source columns, both -1 where unset.  A group works on a
    copy of the locked settings (its claims overlay them); on success the
    copy is kept, on failure it is dropped.
    """
    trials, n_rows, n_cols = occ.shape
    # per trial: occupied cells, then each column's virtual "has a photon"
    # cell, flattened so that trial t's cells start at base[t]
    cells = np.concatenate([occ.reshape(trials, n_rows * n_cols), occ.any(axis=1)], axis=1).ravel()
    base = np.arange(trials)[:, None] * (n_rows + 1) * n_cols
    lowest = occ.argmax(axis=1)  # (T, C): first occupied row of each column
    every = np.arange(trials)
    locked = np.repeat(np.arange(-n_cols, 0)[None], trials, axis=0)  # every column free
    sources = np.empty((trials, n_rows), dtype=np.int64)
    success = np.zeros((trials, len(layout.groups)), dtype=bool)
    for g, rows in enumerate(layout.groups):
        state = locked.copy()
        alive = np.ones(trials, dtype=bool)
        for r in rows:
            cols = layout.cols[r]
            if not len(cols):  # a row without cells is never filled
                alive[:] = False
                break
            current = state[:, cols]  # (T, k)
            served = cells[base + layout.source[r][current]]
            j = served.argmax(axis=1)  # first serving column in scan order
            alive &= served[every, j]
            if not alive.any():
                break
            column = cols[j]
            sources[:, r] = column
            # keep a set column's state, claim a free one; what this writes
            # for a trial whose group already failed is dropped with the group
            picked = current[every, j]
            claimed = layout.claim[r][j, lowest[every, column]]
            state[every, column] = np.where(picked < 0, claimed, picked)
        success[:, g] = alive
        np.copyto(locked, state, where=alive[:, None])
    sources[~np.repeat(success, [len(rows) for rows in layout.groups], axis=1)] = -1
    locked //= n_cols  # setting index, -1 where free
    return success, locked, sources


# ---------------------------------------------------------------------------
# yield simulation


@dataclass(frozen=True)
class GridYieldPoint:
    p: float
    estimate: Estimate
    bound: float
    naive: float


def simulate_grid_yield(
    config: GridMuxConfig,
    p: float,
    trials: int,
    seed: int,
    column_group_type: Sequence[int] | None = None,
) -> GridYieldPoint:
    """Per-trial yield (group_size x successes / photons), averaged.

    Empty trials contribute zero.  Cells are sampled in row-major order over
    the marked cells so results are reproducible per (seed, trial).
    """
    layout = _checked_layout(config, column_group_type)
    mask = layout.marked

    def kernel(u: np.ndarray) -> np.ndarray:
        hits = u < p
        photons = hits.sum(axis=1)
        # a group takes group_size distinct photons, so only those trials are routed
        busy = np.flatnonzero(photons >= config.group_size)
        occ = np.zeros((len(busy), *mask.shape), dtype=bool)
        occ[:, mask] = hits[busy]  # marked cells in row-major order
        successes = np.zeros(len(u), dtype=np.int64)
        successes[busy] = _route_batch(layout, occ)[0].sum(axis=1)
        # empty trials contribute zero
        return np.divide(config.group_size * successes, photons, out=np.zeros(len(u)), where=photons > 0)

    est = reduce_values(run_trials(kernel, (int(mask.sum()),), p, trials, seed), seed)
    return GridYieldPoint(p=p, estimate=est, bound=bound_curve(config, p), naive=naive_curve(config, p))


def bound_curve(config: GridMuxConfig, p: float) -> float:
    """Sharing bound: all photons in one bank feeding every generator."""
    lam = config.n_cells * p
    return analytics.yield_multi_generator(lam, config.group_size, config.generators, sharing=True)


def naive_curve(config: GridMuxConfig, p: float) -> float:
    """One generator fed by group_size independent even muxes over the cells."""
    n = config.n_cells
    m = config.group_size
    if p <= 0:
        return 0.0
    return m * analytics.p_mux_single(n // m, p) ** m / (n * p)
