"""Time-multiplexed switching: rastered muxes, cyclic delay networks driven
by de Bruijn sequences, and temporal permutation networks.

Occupancies are (mode, bin) grids of heralded photons.  Delay networks pair a
cyclic mode shifter with a bank of fixed delays whose values follow a de
Bruijn (or reduced de Bruijn) sequence, so that any needed word of delays
appears as a contiguous window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import analytics
from ._limits import check_int, check_probability, check_size
from .simkit import Estimate, reduce_values, run_trials

__all__ = [
    "SpaceTimeOccupancy",
    "DeBruijnSequence",
    "de_bruijn",
    "reduced_de_bruijn",
    "cyclic_windows",
    "DelayNetwork",
    "default_delay_network",
    "DeBruijnRoute",
    "debruijn_mux_route",
    "replay_debruijn_route",
    "non_tetris_success_probability",
    "tetris_success_probability",
    "GatherRoute",
    "spatiotemporal_debruijn",
    "extract_photon_groups",
    "simulate_group_extraction",
    "RasterResult",
    "raster_simulate",
    "PermutationSchedule",
    "temporal_permutation",
    "replay_temporal_permutation",
]


# ---------------------------------------------------------------------------
# occupancy grids


@dataclass(frozen=True)
class SpaceTimeOccupancy:
    modes: int
    bins: int
    grid: tuple[tuple[bool, ...], ...]  # grid[mode][bin]

    def __post_init__(self):
        if self.modes < 1 or self.bins < 1:
            raise ValueError("dims must be positive")
        if len(self.grid) != self.modes or any(len(r) != self.bins for r in self.grid):
            raise ValueError("grid shape mismatch")

    @classmethod
    def from_photons(cls, modes: int, bins: int, cells: Iterable[tuple[int, int]]) -> "SpaceTimeOccupancy":
        grid = [[False] * bins for _ in range(modes)]
        for j, t in cells:
            if not (0 <= j < modes and 0 <= t < bins):
                raise ValueError(f"photon cell {(j, t)} is outside the {modes} x {bins} grid")
            grid[j][t] = True
        return cls(modes, bins, tuple(tuple(r) for r in grid))

    def photons(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, t) for j in range(self.modes) for t in range(self.bins) if self.grid[j][t])


# ---------------------------------------------------------------------------
# de Bruijn sequences


@dataclass(frozen=True)
class DeBruijnSequence:
    alphabet: int
    word_length: int
    symbols: tuple[int, ...]


def de_bruijn(k: int, length: int) -> DeBruijnSequence:
    """Lexicographically least de Bruijn sequence over {0..k-1}, words of `length`.

    Standard Lyndon-word concatenation; the cyclic result contains every word
    exactly once.
    """
    _check_db_args(k, length)
    return DeBruijnSequence(alphabet=k, word_length=length, symbols=_lyndon_concat(k, length, zero_only=False))


def _check_db_args(k: int, length: int) -> None:
    if k < 1 or length < 1:
        raise ValueError("need k >= 1 and length >= 1")
    check_size("debruijn-words", k ** min(length, 64))  # exact below length 64; from there k >= 2 is over any bound


def _lyndon_concat(k: int, length: int, zero_only: bool) -> tuple[int, ...]:
    """Lyndon words over {0..k-1} whose length divides `length`, concatenated in
    lexicographic order (Fredricksen-Maiorana); with zero_only, just the words
    that start with 0, which are the ones holding a 0 and come first.
    """
    if k == 1:
        return (0,)  # the one Lyndon word; the recursion would go `length` deep
    seq: list[int] = []
    a = [0] * (length + 1)
    first_symbols = 1 if zero_only else k

    def gen(t: int, p: int) -> None:
        if t > length:
            if length % p == 0:
                seq.extend(a[1: p + 1])
        else:
            a[t] = a[t - p]
            gen(t + 1, p)
            for j in range(a[t - p] + 1, k if t > 1 else first_symbols):
                a[t] = j
                gen(t + 1, t)

    gen(1, 1)
    return tuple(seq)


def reduced_de_bruijn(k: int, length: int) -> tuple[int, ...]:
    """Shortest cyclic sequence containing every 0-bearing word exactly once.

    Words that lack the symbol 0 are dropped, leaving k**L - (k-1)**L of them.
    The sequence is the de Bruijn Lyndon-word concatenation cut to the words
    that start with 0, which begins with L zeros; it is rotated left by L - 1
    so that it ends in L - 1 zeros and window 0 starts at the last leading
    zero.
    """
    _check_db_args(k, length)
    seq = _lyndon_concat(k, length, zero_only=True)
    return seq[length - 1:] + seq[: length - 1]


def cyclic_windows(symbols: Sequence[int], length: int) -> list[tuple[int, ...]]:
    """All cyclic windows of the given length, in position order."""
    n = len(symbols)
    ext = list(symbols) + list(symbols[: length - 1])
    return [tuple(ext[i: i + length]) for i in range(n)]


# ---------------------------------------------------------------------------
# de Bruijn delay-network muxing


@dataclass(frozen=True)
class DelayNetwork:
    """Cyclic shifter feeding delay lines whose values tile a cyclic sequence.

    A route witness references a window position w: the photon leaving
    shifter port q receives delay delays[(w + q) % len(delays)].  The delays
    must be non-empty and lie in [0, bins).
    """

    modes: int
    bins: int
    delays: tuple[int, ...]

    def __post_init__(self):
        if not self.delays or min(self.delays) < 0 or max(self.delays) >= self.bins:
            raise ValueError(f"delays must be a non-empty sequence of values in [0, {self.bins})")
        pos: dict[tuple[int, ...], int] = {}
        for i, w in enumerate(cyclic_windows(self.delays, self.modes)):
            pos.setdefault(w, i)
        object.__setattr__(self, "_positions", pos)  # first position of each window word; not a field

    def word_positions(self) -> dict[tuple[int, ...], int]:
        return dict(self._positions)


def default_delay_network(modes: int, bins: int) -> DelayNetwork:
    """Reduced-sequence network: alphabet = bins (delays 0..bins-1), words = modes."""
    return DelayNetwork(modes=modes, bins=bins, delays=reduced_de_bruijn(bins, modes))


@dataclass(frozen=True)
class DeBruijnRoute:
    success: bool
    shifts: tuple[int, ...]  # per input bin
    ports: tuple[tuple[int, int] | None, ...]  # port -> chosen (mode, bin)
    window: int
    align_time: int


def debruijn_mux_route(occ: SpaceTimeOccupancy, network: DelayNetwork, tetris: bool = False) -> DeBruijnRoute:
    """Find shifter settings aligning one photon per port at a common time.

    Without tetris a single cyclic shift applies to the whole window, so
    success needs every mode occupied; every shift maps modes one-to-one
    onto ports, so the route uses shift 0.  With tetris the shift may change
    every bin; the route uses the lexicographically first per-bin schedule
    that puts a photon on every port (see `_tetris_schedule`).  Raises
    ValueError if the network's delays lack the word that route needs.
    """
    m, b = occ.modes, occ.bins
    if network.modes != m or network.bins != b:
        raise ValueError("network dims do not match occupancy")
    bin_masks = [sum(1 << j for j in range(m) if occ.grid[j][t]) for t in range(b)]
    schedule = _tetris_schedule(bin_masks, m) if tetris else (0,) * b
    picked = None if schedule is None else _pick_ports(bin_masks, m, schedule)
    if picked is None:
        return DeBruijnRoute(False, (0,) * b, (None,) * m, -1, -1)
    align = max(t for _, t in picked)
    word = tuple(align - t for _, t in picked)
    pos = network._positions.get(word)
    if pos is None:
        raise ValueError(f"delay word {word} missing from the network's delays")
    return DeBruijnRoute(True, schedule, tuple(picked), pos, align)


def _tetris_schedule(bin_masks: Sequence[int], m: int) -> tuple[int, ...] | None:
    """Lexicographically first per-bin shift schedule covering all m ports.

    ahead[k], built backward one `_reach_step` per bin, holds the port masks
    that the last k bins can cover; a schedule exists iff the full mask is in
    ahead[b].  The forward pick gives each bin its smallest shift after which
    the bins still ahead can cover every port left open.
    """
    full = (1 << m) - 1
    shifted = [[_shift_mask(mask, c, m) for c in range(m)] for mask in bin_masks]
    ahead = [frozenset({0})]
    for options in reversed(shifted):
        ahead.append(_reach_step(ahead[-1], options))
    if full not in ahead[-1]:
        return None
    schedule, state = [], 0
    for options, rest in zip(shifted, reversed(ahead[:-1])):
        c = next(c for c, s in enumerate(options) if any(state | s | u == full for u in rest))
        schedule.append(c)
        state |= options[c]
    return tuple(schedule)


def _reach_step(reach: frozenset[int], options: Sequence[int]) -> frozenset[int]:
    """Port masks covered after one more bin that may take any of the shifted masks in options."""
    return frozenset(r | s for r in reach for s in options)


def _shift_mask(mask: int, c: int, m: int) -> int:
    return ((mask << c) | (mask >> (m - c))) & ((1 << m) - 1) if c else mask


def _pick_ports(bin_masks: list[int], m: int, schedule: Sequence[int]) -> list[tuple[int, int]] | None:
    """Latest photon reaching each port under the schedule, or None if a gap."""
    picked: list[tuple[int, int] | None] = [None] * m
    for t, (mask, c) in enumerate(zip(bin_masks, schedule)):
        for j in range(m):
            if mask >> j & 1:
                picked[(j + c) % m] = (j, t)  # later bins overwrite: latest wins
    return None if None in picked else picked  # type: ignore[return-value]


def replay_debruijn_route(network: DelayNetwork, route: DeBruijnRoute) -> tuple[int, ...]:
    """Arrival time at each port; raises if the witness does not align."""
    if not route.success:
        raise ValueError("cannot replay a failed route")
    m = network.modes
    ell = len(network.delays)
    arrivals = []
    for q, cell in enumerate(route.ports):
        assert cell is not None
        j, t = cell
        if (j + route.shifts[t]) % m != q:
            raise AssertionError("witness photon does not reach its port")
        arrivals.append(t + network.delays[(route.window + q) % ell])
    if len(set(arrivals)) != 1:
        raise AssertionError("witness photons not aligned")
    return tuple(arrivals)


def _check_window_args(modes: int, bins: int, p: Fraction | float) -> None:
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    check_probability(p)


def non_tetris_success_probability(modes: int, bins: int, p: float) -> float:
    """Every mode occupied at least once: [1 - (1-p)**bins]**modes."""
    _check_window_args(modes, bins, p)
    return analytics.p_mux_single(bins, p) ** modes


def tetris_success_probability(modes: int, bins: int, p: Fraction | float) -> Fraction:
    """Exact success probability with per-bin shifts, as a walk over reach sets.

    The state after t bins is the set of port masks that their shifts can
    cover.  Each bin takes every mode mask x, weighted p^|x| (1-p)^(m-|x|),
    and moves the state one `_reach_step`; the result is the weight of the
    states holding the full mask.  A float p becomes the nearest fraction
    with denominator <= 10^9.  A window whose modes * bins is over the
    `tetris-cells` bound (`tetris-cells-wide` above seven modes) raises ValueError.
    """
    _check_window_args(modes, bins, p)
    m, b = modes, bins
    check_size("tetris-cells" if m <= 7 else "tetris-cells-wide", m * b)
    p = Fraction(p).limit_denominator(10 ** 9) if not isinstance(p, Fraction) else p
    weight = [p ** k * (1 - p) ** (m - k) for k in range(m + 1)]  # by photon count
    states = {frozenset({0}): Fraction(1)}
    for _ in range(b):
        walked: dict[frozenset[int], Fraction] = {}
        for x in range(1 << m):
            options = [_shift_mask(x, c, m) for c in range(m)]
            wx = weight[x.bit_count()]
            for reach, w in states.items():
                nxt = _reach_step(reach, options)
                walked[nxt] = walked.get(nxt, 0) + w * wx
        states = walked
    full = (1 << m) - 1
    return sum((w for reach, w in states.items() if full in reach), Fraction(0))


# ---------------------------------------------------------------------------
# spatio-temporal gathering (cyclic shift + bounded crossings + bounded delays)


@dataclass(frozen=True)
class GatherRoute:
    photons: tuple[tuple[int, int], ...]  # selected (mode, bin), mode-ascending
    block_start: int
    displacements: tuple[int, ...]
    delays: tuple[int, ...]
    align_time: int
    output_shift: int  # final cyclic shift moving the block to modes 0..n-1


def spatiotemporal_debruijn(
    modes: int,
    group_size: int,
    occ: SpaceTimeOccupancy,
    max_delay: int = 2,
    max_crossing: int = 2,
) -> GatherRoute | None:
    """First group of photons gatherable to contiguous modes and one time.

    Scans alignment times ascending; a group needs photons on group_size
    distinct modes within the trailing delay window, movable order-preserving
    onto a contiguous block with per-photon displacement <= max_crossing.
    """
    if group_size == modes:
        raise ValueError("need group_size < modes")
    groups = extract_photon_groups(modes, group_size, occ, max_delay, max_crossing, max_groups=1)
    return groups[0] if groups else None


def _check_gather(modes: int, group_size: int, max_delay: int, max_crossing: int, max_groups: int | None) -> None:
    limits = (modes, group_size, max_delay, max_crossing) + (() if max_groups is None else (max_groups,))
    check_int("modes, group_size and each extraction limit", *limits)
    if not 1 <= group_size <= modes:
        raise ValueError("need 1 <= group_size <= modes")
    if max_delay < 0 or max_crossing < 0:
        raise ValueError("max_delay and max_crossing must be >= 0")
    if max_groups is not None and max_groups < 1:
        raise ValueError("max_groups must be >= 1")


def _extract_batch(
    occ: np.ndarray, n: int, max_delay: int, max_crossing: int, max_groups: int | None
) -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """Greedy repeated extraction on a (T, modes, bins) stack of occupancies, one trial per row.

    Sweeps alignment times ascending.  At each one, every live trial takes
    its first group again until none finds one, since the next search starts
    at the last group's align_time; a group consumes its photons, and a trial
    leaves once it holds max_groups groups (None: no limit).  Returns the
    (T,) group counts and, per step that found groups, (align, trials, block
    starts, modes (H, n), bins (H, n)) in the order found.
    """
    trials, m, bins = occ.shape
    # limits past the grid's size change no group and keep the index arithmetic in int64
    max_delay, max_crossing = min(max_delay, bins), min(max_crossing, m)
    avail = np.ascontiguousarray(occ.transpose(2, 0, 1))  # (bins, T, modes): a window is a slice
    lo = np.maximum(np.arange(bins) - max_delay, 0)  # first bin of each window
    # modes holding a photon in each window before any is consumed: an upper
    # bound on every later count, so alignments below n are never searched
    seen = np.zeros((bins + 1, trials, m), dtype=np.int32)
    np.cumsum(avail, axis=0, out=seen[1:])
    ready = (seen[1:] > seen[lo]).sum(axis=2) >= n  # (bins, T)
    cap = m * bins if max_groups is None else max_groups
    found = np.zeros(trials, dtype=np.int64)
    groups = []
    for align in np.flatnonzero(ready.any(axis=1)).tolist():
        span = slice(lo[align], align + 1)
        live = np.flatnonzero(ready[align])
        while True:
            # search trials short of max_groups whose window still offers n modes
            live = live[(found[live] < cap) & (avail[span, live].any(axis=0).sum(axis=1) >= n)]
            if not len(live):
                break
            hit, starts, modes, delays = _groups_at(avail[span, live], n, max_crossing)
            if not len(hit):
                break
            live = live[hit]
            times = align - delays
            avail[times, live[:, None], modes] = False
            found[live] += 1
            groups.append((align, live, starts, modes, times))
    return found, groups


def _groups_at(window: np.ndarray, n: int, max_crossing: int):
    """First group in each trial's window, a (w, trials, modes) slice aligned to its last bin.

    A mode offers its latest photon.  Block starts s are tried ascending; the
    greedy match gives slot s + i the lowest offered mode above the previous
    pick and at least s + i - max_crossing.  Picks ascend, so it takes the
    offered modes in order from the first at or above s - max_crossing, and
    it fills slot s + n - 1 (hence every slot) exactly when modes
    s - max_crossing .. s + n - 1 + max_crossing offer at least n photons.
    Returns the trials that found a group (indices into the window), their
    block starts and the group's modes and delays, (H, n) each.
    """
    w, trials, m = window.shape
    # 1 + the bin index of each mode's latest photon in the window, 0 for none
    latest = (window * np.arange(1, w + 1)[:, None, None]).max(axis=0)
    offered = latest > 0
    below = np.zeros((trials, m + 1), dtype=np.int64)  # below[:, j]: offered modes < j
    np.cumsum(offered, axis=1, out=below[:, 1:])
    block = np.arange(m - n + 1)
    lo, hi = np.maximum(block - max_crossing, 0), np.minimum(block + n + max_crossing, m)
    ok = below[:, hi] - below[:, lo] >= n
    hit = np.flatnonzero(ok.any(axis=1))
    starts = ok[hit].argmax(axis=1)
    first = below[hit, lo[starts]][:, None]  # rank of the first offered mode >= lo
    rank = below[hit, :m]
    chosen = offered[hit] & (rank >= first) & (rank < first + n)
    modes = np.nonzero(chosen)[1].reshape(-1, n)
    return hit, starts, modes, w - latest[hit[:, None], modes]


def extract_photon_groups(
    modes: int,
    group_size: int,
    occ: SpaceTimeOccupancy,
    max_delay: int = 2,
    max_crossing: int = 2,
    max_groups: int | None = None,
) -> list[GatherRoute]:
    """Greedy repeated extraction; each group consumes its photons.

    The routes come from the one-trial batch of the simulator's kernel.
    """
    _check_gather(modes, group_size, max_delay, max_crossing, max_groups)
    if modes != occ.modes:
        raise ValueError(f"modes {modes} does not match the occupancy's {occ.modes}")
    _, groups = _extract_batch(np.array(occ.grid, dtype=bool)[None], group_size, max_delay, max_crossing, max_groups)
    routes = []
    for align, _, starts, chosen, times in groups:
        s, js, ts = int(starts[0]), chosen[0].tolist(), times[0].tolist()
        routes.append(
            GatherRoute(
                photons=tuple(zip(js, ts)),
                block_start=s,
                displacements=tuple(s + i - j for i, j in enumerate(js)),
                delays=tuple(align - t for t in ts),
                align_time=align,
                output_shift=(-s) % modes,
            )
        )
    return routes


def simulate_group_extraction(
    modes: int,
    group_size: int,
    bins: int,
    p: float,
    trials: int,
    seed: int,
    max_delay: int = 2,
    max_crossing: int = 2,
    max_groups: int = 4,
) -> dict[int, Estimate]:
    """P(at least k groups) for k = 1..max_groups over random occupancies."""
    _check_gather(modes, group_size, max_delay, max_crossing, max_groups)
    if max_groups is None:
        raise ValueError("max_groups must be an integer >= 1")
    check_int("bins", bins)
    if bins < 1:
        raise ValueError("bins must be an integer >= 1")

    def kernel(u: np.ndarray) -> np.ndarray:
        return _extract_batch(u < p, group_size, max_delay, max_crossing, max_groups)[0]

    found = run_trials(kernel, (modes, bins), p, trials, seed)
    return {k: reduce_values((found >= k).astype(np.float64), seed) for k in range(1, max_groups + 1)}


# ---------------------------------------------------------------------------
# rastered muxes


RASTER_GROUP_STEPS = {"one-mux": 4, "two-mux": 2}


@dataclass(frozen=True)
class RasterResult:
    groups_per_period: Estimate
    yield_per_photon: Estimate
    completion_offsets: tuple[int, ...]  # completions by step offset mod 4


def raster_simulate(
    strategy: str,
    n_sources: int,
    p: float,
    enhanced: bool,
    trials: int,
    seed: int,
    steps: int = 96,
) -> RasterResult:
    """Monte-Carlo raster over `steps` firings of the strategy's m muxes.

    A step succeeds when all m muxes fire, and a group is 4 // m successful
    steps in a row (see `analytics.raster_muxes`); a period is 4 steps.
    Without enhancement only period-aligned blocks count; with enhancement a
    failed step restarts the group at the next step.  Both counts are
    greedy-disjoint, so enhancement can only add groups for any fixed
    outcome stream.
    """
    name, m = analytics.raster_muxes(strategy, n_sources)
    if name not in RASTER_GROUP_STEPS:
        supported = ", ".join([*RASTER_GROUP_STEPS, *analytics.RASTER_ALIASES])
        raise ValueError(f"cannot simulate raster strategy {strategy!r}; supported: {supported}")
    run = RASTER_GROUP_STEPS[name]
    check_int("steps", steps)
    if steps < 4 or steps % 4:
        raise ValueError("steps must be a positive multiple of the 4-step period")
    q = analytics.p_mux_single(n_sources // m, p)
    step = np.arange(steps, dtype=np.int32)

    def kernel(u: np.ndarray) -> np.ndarray:
        # per trial and step offset mod 4: completed groups
        ok = u[:, 0::m] < q
        for i in range(1, m):
            ok &= u[:, i::m] < q
        if enhanced:
            # steps since the last failure; a greedy group completes at every
            # multiple of `run` (a power of two) along a run of successes
            since = np.where(ok, -1, step)
            np.maximum.accumulate(since, axis=1, out=since)
            np.subtract(step, since, out=since)
            np.bitwise_and(since, run - 1, out=since)
            done = since == 0
            done &= ok
        else:
            # a period-aligned block completes on its last step if every step fires
            done = np.zeros_like(ok)
            blocks = done[:, run - 1::run]
            np.copyto(blocks, ok[:, 0::run])
            for i in range(1, run):
                blocks &= ok[:, i::run]
        return np.stack([np.count_nonzero(done[:, o::4], axis=1) for o in range(4)], axis=1)

    by_offset = run_trials(kernel, (m * steps,), p, trials, seed)
    counts = by_offset.sum(axis=1)
    offsets = by_offset.sum(axis=0)
    periods = steps // 4
    groups = reduce_values(counts / periods, seed)
    scale = 1.0 / (n_sources * p) if p > 0 else 0.0
    yield_ = Estimate(mean=groups.mean * scale, stderr=groups.stderr * scale, trials=trials, seed=seed)
    return RasterResult(groups, yield_, tuple(int(x) for x in offsets))


# ---------------------------------------------------------------------------
# temporal permutation networks

@dataclass(frozen=True)
class PermutationSchedule:
    """Shift settings for a shifter -> delay bank -> shifter time network.

    Photons arrive on line 0, one per bin; `first_shifts[t]` routes the bin-t
    photon into its delay line, `second_shifts[t]` routes the line arriving
    at bin t back out.  sort-to-top uses spatial outputs (one port per rank);
    arbitrary uses the single line 0 with a fixed output bin window.
    """

    variant: str
    n_inputs: int
    size: int
    delay_values: tuple[int, ...]
    inputs: tuple[int, ...]  # occupied input bins, ascending
    targets: tuple[int, ...]  # targets[r]: output slot of inputs[r]
    first_shifts: dict[int, int]
    second_shifts: dict[int, int]

    def output_bin(self, slot: int) -> int:
        return self.n_inputs - 1 + slot


def temporal_permutation(n_inputs: int, perm: Sequence[int], variant: str = "arbitrary") -> PermutationSchedule:
    """Schedule realizing a rearrangement of a length-R input pulse train.

    arbitrary: `perm` is a permutation of range(R); input i leaves in output
    slot perm[i] (bin R-1+perm[i]); needs a size 2R-1 shifter pair with
    delays 0..2R-2, and the set of output bins never depends on perm.
    sort-to-top: `perm` lists the occupied inputs; photon of rank r exits on
    port r at bin R-1+r; a size R network with delays 0..R-1 suffices.
    R must be in [1, the `perm-bins` bound]; it is checked before `perm` is
    read, so a `range` may stand for the identity at any R.
    """
    r_n = n_inputs
    if r_n < 1:
        raise ValueError("n_inputs must be >= 1")
    check_size("perm-bins", r_n)
    if variant == "arbitrary":
        if sorted(perm) != list(range(r_n)):
            raise ValueError("perm must be a permutation of range(n_inputs)")
        size = 2 * r_n - 1
        inputs = tuple(range(r_n))
        targets = tuple(perm)
    elif variant == "sort-to-top":
        inputs = tuple(perm)
        if list(inputs) != sorted(set(inputs)) or any(not 0 <= i < r_n for i in inputs):
            raise ValueError("occupied inputs must be ascending and in range")
        size = r_n
        targets = tuple(range(len(inputs)))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i, slot in zip(inputs, targets):
        line = slot + r_n - 1 - i
        if not 0 <= line < size:
            raise AssertionError("delay demand outside the bank")
        first[i] = line  # shift sending line 0 -> line (cyclic: by +line)
        second[r_n - 1 + slot] = _second_shift(variant, line, slot, size)
    return PermutationSchedule(
        variant=variant,
        n_inputs=r_n,
        size=size,
        delay_values=tuple(range(size)),
        inputs=inputs,
        targets=targets,
        first_shifts=first,
        second_shifts=second,
    )


def _second_shift(variant: str, line: int, slot: int, size: int) -> int:
    if variant == "arbitrary":
        return (-line) % size  # back to line 0
    return (slot - line) % size  # to output port = rank


def replay_temporal_permutation(schedule: PermutationSchedule) -> dict[int, tuple[int, int]]:
    """Discrete-event replay: input index -> (output port, output bin)."""
    size = schedule.size
    in_flight: dict[int, list[tuple[int, int]]] = {}  # arrival bin -> (line, input)
    for i in schedule.inputs:
        shift = schedule.first_shifts[i]
        line = (0 + shift) % size
        delay = schedule.delay_values[line]
        in_flight.setdefault(i + delay, []).append((line, i))

    out: dict[int, tuple[int, int]] = {}
    for bin_, arrivals in sorted(in_flight.items()):
        if len(arrivals) != 1:
            raise AssertionError(f"collision at bin {bin_}")
        line, i = arrivals[0]
        shift = schedule.second_shifts.get(bin_)
        if shift is None:
            raise AssertionError(f"no setting for arrival bin {bin_}")
        out[i] = ((line + shift) % size, bin_)
    return out
