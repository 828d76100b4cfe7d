"""Two-layer grid multiplexer: output rows drawing from shared input columns.

Sources sit on a grid of cells.  Each column is one first-layer switch whose
group of cyclic permutations moves photons between the column's cells; each
row hosts one second-layer n-to-1 switch delivering a single output.  Rows
are grouped, and a group succeeds when all of its rows receive a photon.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytics
from .gmzi import _mixed_radix
from .simkit import Estimate, TrialStreams, reduce_values

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
    return GridMuxConfig(
        columns=tuple(doc["columns"]),
        rows=tuple((int(a), int(b)) for a, b in doc["rows"]),
        grid=tuple(tuple(bool(x) for x in row) for row in doc["grid"]),
        group_size=int(doc["group_size"]),
        generators=int(doc["generators"]),
    )


# ---------------------------------------------------------------------------
# routing


def _default_factors(size: int) -> tuple[int, ...]:
    if size & (size - 1) == 0 and size > 0:
        return (2,) * (size.bit_length() - 1)
    # fall back to a single cyclic stage for non powers of two
    return (size,)


@functools.lru_cache(maxsize=64)
def _shift_table(factors: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Digit tuples of every position, and the (N, N) shift-index table.

    Positions and settings share one mixed-radix numbering (first factor most
    significant).  ``table[a, b]`` is the setting that moves position a onto
    position b, digit-wise (b - a) mod factors.  The same entry, with a read
    as a setting, is the source position that setting moves onto b.
    """
    digits, place = _mixed_radix(factors)
    table = ((digits[None, :, :] - digits[:, None, :]) % factors) @ place
    table.flags.writeable = False  # shared by every caller through the cache
    return tuple(map(tuple, digits.tolist())), table


@dataclass(frozen=True)
class _Layout:
    """Per-(config, factors) routing data, with settings as integer indices."""

    digits: tuple  # per column: setting index -> digit tuple
    claim: tuple  # per column: [row][b] -> setting moving the row's cell onto position b
    source_row: tuple  # per column: [s][b] -> row of the cell setting s moves onto position b
    scan: tuple  # per row: (column, target position) by ascending column
    unmarked: tuple  # (row, column) cells outside the grid


@functools.lru_cache(maxsize=64)
def _layout(config: GridMuxConfig, factors: tuple[int, ...] | None) -> _Layout:
    n_rows = len(config.rows)
    digits, claim, source_row, position = [], [], [], []
    for c, size in enumerate(config.columns):
        f = factors if factors is not None else _default_factors(size)
        if math.prod(f) != size:
            raise ValueError("column group order must equal column size")
        col_digits, table = _shift_table(f)
        rows_of = config.column_rows(c)
        rows = np.array(rows_of, dtype=np.int64)
        by_row = np.full((n_rows, size), -1, dtype=np.int64)  # unmarked rows never hold a photon
        by_row[rows] = table
        digits.append(col_digits)
        claim.append(tuple(map(tuple, by_row.tolist())))
        source_row.append(tuple(map(tuple, rows[table].tolist())))
        position.append({r: i for i, r in enumerate(rows_of)})
    scan = tuple(tuple((c, position[c][r]) for c in config.row_columns(r)) for r in range(n_rows))
    unmarked = tuple(
        (r, c) for r in range(n_rows) for c in range(len(config.columns)) if not config.grid[r][c]
    )
    return _Layout(tuple(digits), tuple(claim), tuple(source_row), scan, unmarked)


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
    layout = _layout(config, None if column_group_type is None else tuple(column_group_type))
    occupancy = [tuple(map(bool, row)) for row in occupancy]
    for r, c in layout.unmarked:
        if occupancy[r][c]:
            raise ValueError(f"occupancy on unmarked cell ({r}, {c})")
    success, locked, row_sources = _route(config, layout, occupancy)
    settings = {c: layout.digits[c][s] for c, s in locked.items()}
    return RoutingOutcome(success, settings, row_sources)


def _route(config: GridMuxConfig, layout: _Layout, occupancy: Sequence[Sequence[bool]]):
    """route on a validated occupancy of bools: (group success, column -> setting index, row sources)."""
    columns = list(zip(*occupancy))  # columns[c][r]
    claim, source_row = layout.claim, layout.source_row
    locked: dict[int, int] = {}
    row_sources: dict[int, int] = {}
    success = []
    for g in range(config.generators):
        claimed: dict[int, int] = {}
        filled: dict[int, int] = {}
        ok = True
        for r in range(g * config.group_size, (g + 1) * config.group_size):
            for c, target in layout.scan[r]:
                setting = claimed.get(c, locked.get(c))
                if setting is not None:
                    if columns[c][source_row[c][setting][target]]:
                        break
                elif True in columns[c]:
                    # positions ascend with rows, so the first occupied row
                    # is the column's lowest occupied cell
                    claimed[c] = claim[c][columns[c].index(True)][target]
                    break
            else:
                ok = False
                break
            filled[r] = c
        success.append(ok)
        if ok:
            locked.update(claimed)
            row_sources.update(filled)
    return tuple(success), locked, row_sources


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
    analytics.check_probability(p)
    if trials < 2:
        raise ValueError("trials must be >= 2")
    layout = _layout(config, None if column_group_type is None else tuple(column_group_type))
    mask = np.array(config.grid, dtype=bool)
    n_marked = int(mask.sum())
    occupancy = np.zeros(mask.shape, dtype=bool)
    streams = TrialStreams(seed)
    vals = np.empty(trials, dtype=np.float64)
    for trial in range(trials):
        hits = streams.trial(trial).random(n_marked) < p
        n_photons = int(hits.sum())
        if n_photons == 0:
            vals[trial] = 0.0
            continue
        occupancy[mask] = hits  # marked cells in row-major order
        success, _, _ = _route(config, layout, occupancy.tolist())
        vals[trial] = config.group_size * sum(success) / n_photons
    est = reduce_values(vals, seed)
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
