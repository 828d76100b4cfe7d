"""Routing photon patterns through shallow layers of 2x2 and 3x3 switches.

Patterns are bitmasks over mode indices (bit i set = photon on mode i).
A "paired-usable" pattern on n modes places exactly one photon in each
column pair {i, i + n/2}; these are the patterns a pair-slot interferometer
accepts directly.  A layer of pairwise couplers in front widens the set of
acceptable patterns: a coupler with one occupied input can deliver the
photon to either output, one with both inputs occupied fixes both.

The exhaustive layer search does not build routable sets: it compiles each
layer to the base-3 signatures (photons per coupler) of the usable patterns
and scores a chunk of layers at once with numpy.  ``routable_patterns``
builds the sets themselves, one layer at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._limits import check_size

__all__ = [
    "mask_from_modes",
    "modes_from_mask",
    "paired_usable_patterns",
    "is_paired_usable",
    "enumerate_perfect_matchings",
    "routable_patterns",
    "count_routable",
    "LayerSearchResult",
    "search_optimal_coupler_layer",
    "optimal_coupler_layer",
    "subpattern_coverage",
    "COUPLER_OUTPUT_LABEL_PAIRS",
    "rail_pairing_success_fraction",
    "paired_coupler_success_fraction",
    "distinct_bin_fraction",
    "FourGroupRoute",
    "route_two_layer_four",
    "replay_two_layer_four",
    "SixGroupRoute",
    "route_gmzi3_layer_six",
    "replay_gmzi3_layer_six",
]


def mask_from_modes(modes: Iterable[int]) -> int:
    mask = 0
    for m in modes:
        bit = 1 << m
        if mask & bit:
            raise ValueError(f"mode {m} listed twice")
        mask |= bit
    return mask


def modes_from_mask(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError("mask must be >= 0")
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def paired_usable_patterns(n_modes: int) -> tuple[int, ...]:
    """All patterns with exactly one photon per column pair {i, i + n/2}."""
    if n_modes % 2:
        raise ValueError("n_modes must be even")
    h = n_modes // 2
    full = (1 << h) - 1
    return tuple(lo | ((lo ^ full) << h) for lo in range(1 << h))


def is_paired_usable(mask: int, n_modes: int) -> bool:
    if n_modes % 2 or mask >> n_modes:
        return False
    h = n_modes // 2
    full = (1 << h) - 1
    return ((mask & full) ^ (mask >> h)) == full


def enumerate_perfect_matchings(n_modes: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of range(n_modes) in lexicographic order.

    Each matching pairs the lowest unmatched mode first, so the sequence is
    deterministic: (n-1)!! matchings in total.
    """
    if n_modes % 2:
        raise ValueError("n_modes must be even")

    def rec(remaining: tuple[int, ...], acc: list[tuple[int, int]]):
        if not remaining:
            yield tuple(acc)
            return
        a = remaining[0]
        for i in range(1, len(remaining)):
            acc.append((a, remaining[i]))
            yield from rec(remaining[1:i] + remaining[i + 1:], acc)
            acc.pop()

    yield from rec(tuple(range(n_modes)), [])


def routable_patterns(
    n_modes: int,
    layer: Sequence[tuple[int, int]],
    usable: Sequence[int] | None = None,
) -> frozenset[int]:
    """Patterns a coupler layer can convert into some paired-usable pattern.

    Built as a union of preimages: for each usable target, couplers with both
    outputs occupied are forced, couplers with one occupied output accept the
    photon on either input.
    """
    if usable is None:
        usable = paired_usable_patterns(n_modes)
    _check_layer(n_modes, layer)
    seen: set[int] = set()
    for u in usable:
        base = 0
        free: list[tuple[int, int]] = []
        for a, b in layer:
            ua = (u >> a) & 1
            ub = (u >> b) & 1
            if ua and ub:
                base |= (1 << a) | (1 << b)
            elif ua or ub:
                free.append((1 << a, 1 << b))
        masks = [base]
        for pa, pb in free:
            masks = [m | pa for m in masks] + [m | pb for m in masks]
        seen.update(masks)
    return frozenset(seen)


def _check_layer(n_modes: int, layer: Sequence[tuple[int, int]]) -> None:
    used = mask_from_modes(m for pair in layer for m in pair)
    if used != (1 << n_modes) - 1:
        raise ValueError("layer must be a perfect matching on all modes")


def count_routable(n_modes: int, layer: Sequence[tuple[int, int]], usable: Sequence[int]) -> int:
    return len(routable_patterns(n_modes, layer, usable))


@dataclass(frozen=True)
class LayerSearchResult:
    layer: tuple[tuple[int, int], ...]
    n_routable: int
    n_patterns: int
    n_layers_searched: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.n_routable, self.n_patterns)


def search_optimal_coupler_layer(n_modes: int) -> LayerSearchResult:
    """Exhaustive search over all coupler layers for maximum pattern coverage.

    Scores every perfect matching by the number of balanced patterns
    (n/2 photons on n modes) it can route to a paired-usable pattern; ties
    resolve to the lexicographically first matching.

    A pattern routes to usable pattern u exactly when every coupler carries
    as many photons as in u, so the patterns routable to u form one class,
    keyed by the base-3 signature of per-coupler photon counts, with
    2^(couplers holding one photon) members.  A layer's score is that size
    summed over the distinct signatures of the usable patterns, computed for
    a chunk of matchings at a time as arrays of signatures.
    """
    usable = paired_usable_patterns(n_modes)
    # photon (0/1) of every usable pattern on each mode, (n_modes, usable)
    bits = (np.array(usable, dtype=np.int64)[None, :] >> np.arange(n_modes)[:, None]) & 1
    chunk = max(1, _CHUNK_BYTES // (8 * len(usable)))
    matchings = enumerate_perfect_matchings(n_modes)
    best_layer: tuple[tuple[int, int], ...] | None = None
    best = -1
    searched = 0
    while layers := list(itertools.islice(matchings, chunk)):
        searched += len(layers)
        scores = _layer_scores(layers, bits)
        i = int(np.argmax(scores))  # first maximum: the lexicographically first layer
        if scores[i] > best:
            best = int(scores[i])
            best_layer = layers[i]
    assert best_layer is not None
    return LayerSearchResult(
        layer=best_layer,
        n_routable=best,
        n_patterns=math.comb(n_modes, n_modes // 2),
        n_layers_searched=searched,
    )


_CHUNK_BYTES = 1 << 20  # one chunk's (layers, usable) signature array


def _layer_scores(layers: list[tuple[tuple[int, int], ...]], bits: np.ndarray) -> np.ndarray:
    """Routable-pattern count of each layer, given the (modes, usable) photon table of the usable patterns.

    Each usable pattern's key is its signature times 64 plus its number of
    one-photon couplers, so equal keys are equal signatures and the low
    bits give the class size.
    """
    pairs = np.array(layers, dtype=np.intp).reshape(len(layers), len(bits) // 2, 2)
    key = np.zeros((len(layers), bits.shape[1]), dtype=np.int64)
    ones = np.zeros_like(key)
    for a, b in pairs.transpose(1, 2, 0):  # one coupler at a time
        count = bits[a] + bits[b]
        key = key * 3 + count
        ones += count == 1
    key = np.sort(key * 64 + ones, axis=1)
    first = np.ones(key.shape, dtype=bool)
    first[:, 1:] = key[:, 1:] != key[:, :-1]
    return np.where(first, 1 << (key & 63), 0).sum(axis=1)


# winners of search_optimal_coupler_layer, frozen so callers skip the search
_OPTIMAL_LAYERS: dict[int, tuple[tuple[int, int], ...]] = {
    8: ((0, 1), (2, 3), (4, 6), (5, 7)),
    12: ((0, 1), (2, 3), (4, 5), (6, 8), (7, 10), (9, 11)),
}


def optimal_coupler_layer(n_modes: int) -> tuple[tuple[int, int], ...]:
    """A coverage-maximizing coupler layer (precomputed for 8 and 12 modes)."""
    try:
        return _OPTIMAL_LAYERS[n_modes]
    except KeyError:
        return search_optimal_coupler_layer(n_modes).layer


def subpattern_coverage(n_modes: int, n_photons: int, routable: Iterable[int]) -> Fraction:
    """Fraction of n_photons-patterns containing at least one routable subset.

    Models lossless blocking of excess photons before the coupler layer.
    """
    if not 0 <= n_photons <= n_modes:
        raise ValueError("need 0 <= n_photons <= n_modes")
    routable = tuple(routable)
    hits = 0
    total = 0
    for modes in itertools.combinations(range(n_modes), n_photons):
        mask = mask_from_modes(modes)
        total += 1
        if any((r & mask) == r for r in routable):
            hits += 1
    return Fraction(hits, total)


# ---------------------------------------------------------------------------
# Output-label bookkeeping for coupler layers feeding a 4-output stage.
# Coupler type t delivers to the cyclically adjacent label pair (t+1, t+2).

COUPLER_OUTPUT_LABEL_PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (2, 3), (3, 4), (4, 1))


def _has_full_label_assignment(allowed: Sequence[Sequence[int]], labels: Sequence[int]) -> bool:
    """Can each photon take a distinct label from its allowed set, covering all?"""
    if len(allowed) != len(labels):
        return False
    match: dict[int, int] = {}

    def augment(i: int, visited: set[int]) -> bool:
        for lab in allowed[i]:
            if lab in visited:
                continue
            visited.add(lab)
            if lab not in match or augment(match[lab], visited):
                match[lab] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(allowed)))


def rail_pairing_success_fraction() -> Fraction:
    """Success fraction with 4 photons on 4 independent random coupler types.

    Each photon sits on a distinct coupler whose type is uniform over the 4
    cyclic label pairs; success means the photons can exit on all four
    distinct labels.
    """
    labels = (1, 2, 3, 4)
    good = 0
    for types in itertools.product(range(4), repeat=4):
        allowed = [COUPLER_OUTPUT_LABEL_PAIRS[t] for t in types]
        if _has_full_label_assignment(allowed, labels):
            good += 1
    return Fraction(good, 4 ** 4)


def paired_coupler_success_fraction() -> Fraction:
    """Success fraction with 4 photons on the 8 inputs of 4 typed couplers.

    One coupler of each cyclic type, two inputs each; photons on the same
    coupler must take both of its labels.
    """
    labels = (1, 2, 3, 4)
    good = 0
    total = 0
    for slots in itertools.combinations(range(8), 4):
        total += 1
        allowed = [COUPLER_OUTPUT_LABEL_PAIRS[s // 2] for s in slots]
        if _has_full_label_assignment(allowed, labels):
            good += 1
    return Fraction(good, total)


def distinct_bin_fraction(n: int = 4) -> Fraction:
    """Probability that n photons dropped uniformly into n bins all separate.

    n must be at least 1 and within the `binning-n` bound of `muxkit._limits`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size("binning-n", n)
    return Fraction(math.factorial(n), n ** n)


# ---------------------------------------------------------------------------
# Two-layer router: 16 modes -> one photon on each of the 4 output labels.
# Layer 1: couplers on modes (2j, 2j+1).  Layer 2 per 4-mode unit u: the
# port-0 outputs of the unit's two layer-1 couplers feed an "upper" coupler
# with labels (1, 4), the port-1 outputs feed a "lower" coupler with labels
# (2, 3).  Output wire 4u + 2*side + port carries label (1,4,2,3)[2*side+port].

_TWO_LAYER_LABELS = (1, 4, 2, 3)


@dataclass(frozen=True)
class FourGroupRoute:
    l1_swaps: tuple[int, ...]
    l2_swaps: tuple[int, ...]
    label_wires: dict[int, int]


def route_two_layer_four(modes: Sequence[int]) -> FourGroupRoute:
    """Route any 4-photon pattern on 16 modes to distinct labels 1..4."""
    mask = mask_from_modes(modes)
    if mask >> 16 or bin(mask).count("1") != 4:
        raise ValueError("need exactly 4 photons on modes 0..15")

    occup = [[(2 * j + q) for q in range(2) if (mask >> (2 * j + q)) & 1] for j in range(8)]
    doubles = [j for j in range(8) if len(occup[j]) == 2]
    singles = [j for j in range(8) if len(occup[j]) == 1]
    need_upper = 2 - len(doubles)  # each double sends one photon to each side

    l1_swaps = [0] * 8
    arrivals: dict[tuple[int, int], list[int]] = {}  # (unit, side) -> input ports
    for j in doubles:
        u = j // 2
        arrivals.setdefault((u, 0), []).append(j % 2)
        arrivals.setdefault((u, 1), []).append(j % 2)
    for rank, j in enumerate(singles):
        side = 0 if rank < need_upper else 1
        q = occup[j][0] % 2
        l1_swaps[j] = q ^ side
        arrivals.setdefault((j // 2, side), []).append(j % 2)

    l2_swaps = [0] * 8
    label_wires: dict[int, int] = {}
    for side in range(2):
        free = list(_side_labels(side))
        for u in range(4):
            ports = sorted(arrivals.get((u, side), []))
            if len(ports) == 2:
                for o, lab in enumerate(_side_labels(side)):
                    label_wires[lab] = 4 * u + 2 * side + o
                free = []
            elif len(ports) == 1:
                lab = free.pop(0)
                o = _side_labels(side).index(lab)
                l2_swaps[2 * u + side] = ports[0] ^ o
                label_wires[lab] = 4 * u + 2 * side + o
    if sorted(label_wires) != [1, 2, 3, 4]:
        raise AssertionError("label assignment incomplete")
    return FourGroupRoute(tuple(l1_swaps), tuple(l2_swaps), label_wires)


def _side_labels(side: int) -> tuple[int, int]:
    return (1, 4) if side == 0 else (2, 3)


def replay_two_layer_four(modes: Sequence[int], route: FourGroupRoute) -> dict[int, list[int]]:
    """Push each photon through the stored swap settings; label -> wires hit."""
    out: dict[int, list[int]] = {}
    for m in modes:
        j, q = divmod(m, 2)
        side = q ^ route.l1_swaps[j]
        u, i = divmod(j, 2)
        o = i ^ route.l2_swaps[2 * u + side]
        out.setdefault(_TWO_LAYER_LABELS[2 * side + o], []).append(4 * u + 2 * side + o)
    return out


# ---------------------------------------------------------------------------
# Cyclic-unit router: 18 modes in 6 units of 3.  Each unit is a 3-mode cyclic
# shifter (setting k sends unit mode m to line (m + k) % 3); line g of unit u
# feeds input u % 2 of coupler u // 2 in label group g.  Group g's three
# couplers deliver to labels g+1 (port 0) and g+4 (port 1); success needs one
# photon on each of labels 1..6, hence exactly two photons per group.


@dataclass(frozen=True)
class SixGroupRoute:
    unit_shifts: tuple[int, ...]
    pair_swaps: tuple[int, ...]  # flat index 3 * group + coupler
    label_wires: dict[int, int]


def route_gmzi3_layer_six(modes: Sequence[int]) -> SixGroupRoute:
    """Route any 6-photon pattern on 18 modes to distinct labels 1..6."""
    mask = mask_from_modes(modes)
    if mask >> 18 or bin(mask).count("1") != 6:
        raise ValueError("need exactly 6 photons on modes 0..17")

    units = [tuple(m % 3 for m in modes if m // 3 == u) for u in range(6)]
    shifts = _assign_unit_shifts(units)
    if shifts is None:
        raise AssertionError("no shift assignment fills all label groups")

    # photons arriving per group: (coupler index, input port, unit)
    arrivals: dict[int, list[tuple[int, int]]] = {g: [] for g in range(3)}
    for u, offs in enumerate(units):
        for o in offs:
            g = (o + shifts[u]) % 3
            arrivals[g].append((u // 2, u % 2))

    pair_swaps = [0] * 9
    label_wires: dict[int, int] = {}
    for g in range(3):
        hits = sorted(arrivals[g])
        if len(hits) != 2:
            raise AssertionError("group occupancy must be exactly 2")
        if hits[0][0] == hits[1][0]:  # same coupler: ports 0,1 take both labels
            c = hits[0][0]
            label_wires[g + 1] = 6 * g + 2 * c + 0
            label_wires[g + 4] = 6 * g + 2 * c + 1
        else:
            for (c, i), lab_port in zip(hits, (0, 1)):
                pair_swaps[3 * g + c] = i ^ lab_port
                label_wires[g + 1 + 3 * lab_port] = 6 * g + 2 * c + lab_port
    return SixGroupRoute(tuple(shifts), tuple(pair_swaps), label_wires)


def _assign_unit_shifts(units: Sequence[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Backtracking over per-unit cyclic shifts so each group receives 2."""
    need = [2, 2, 2]
    shifts = [0] * len(units)

    def rec(u: int) -> bool:
        if u == len(units):
            return need == [0, 0, 0]
        offs = units[u]
        if not offs:
            return rec(u + 1)
        for k in range(3):
            lines = [(o + k) % 3 for o in offs]
            if all(need[g] >= lines.count(g) for g in set(lines)):
                for g in lines:
                    need[g] -= 1
                shifts[u] = k
                if rec(u + 1):
                    return True
                for g in lines:
                    need[g] += 1
        shifts[u] = 0
        return False

    if rec(0):
        return tuple(shifts)
    return None


def replay_gmzi3_layer_six(modes: Sequence[int], route: SixGroupRoute) -> dict[int, list[int]]:
    """Push each photon through the stored shifts and swaps; label -> wires."""
    out: dict[int, list[int]] = {}
    for m in modes:
        u, o = divmod(m, 3)
        g = (o + route.unit_shifts[u]) % 3
        c, i = u // 2, u % 2
        port = i ^ route.pair_swaps[3 * g + c]
        out.setdefault(g + 1 + 3 * port, []).append(6 * g + 2 * c + port)
    return out
