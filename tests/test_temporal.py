"""Time multiplexing: sequences, delay routing, rastering, permutations."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxkit import analytics, simkit, temporal
from muxkit.simkit import substream

TETRIS_4X4_QUARTER = Fraction(2504542567, 4294967296)  # exact enumeration


def test_de_bruijn_frozen_sequences():
    assert temporal.de_bruijn(2, 1).symbols == (0, 1)
    assert temporal.de_bruijn(2, 3).symbols == (0, 0, 0, 1, 0, 1, 1, 1)
    assert temporal.de_bruijn(3, 2).symbols == (0, 0, 1, 0, 2, 1, 1, 2, 2)


def test_unary_de_bruijn_is_a_single_zero():
    # k = 1 passes the size guard at every length; its one word is all zeros
    for length in (1, 2, 3, 7, 5000):
        assert temporal.de_bruijn(1, length).symbols == (0,)
        assert temporal.reduced_de_bruijn(1, length) == (0,)


def test_de_bruijn_window_property():
    for k, length in [(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (6, 1)]:
        seq = temporal.de_bruijn(k, length)
        assert len(seq.symbols) == k ** length
        wins = temporal.cyclic_windows(seq.symbols, length)
        assert len(set(wins)) == k ** length
        assert set(wins) == set(itertools.product(range(k), repeat=length))


def test_de_bruijn_guards():
    with pytest.raises(ValueError):
        temporal.de_bruijn(0, 2)
    with pytest.raises(ValueError):
        temporal.de_bruijn(2, 0)
    with pytest.raises(ValueError):
        temporal.de_bruijn(10, 7)  # 10^7 over the size guard


def test_reduced_de_bruijn():
    assert temporal.reduced_de_bruijn(2, 2) == (0, 1, 0)
    assert len(temporal.reduced_de_bruijn(4, 4)) == 4 ** 4 - 3 ** 4 == 175
    assert temporal.reduced_de_bruijn(1, 5) == (0,)
    for k, length in [(2, 2), (2, 4), (3, 2), (3, 3), (4, 3), (5, 2)]:
        seq = temporal.reduced_de_bruijn(k, length)
        assert len(seq) == k ** length - (k - 1) ** length
        wins = temporal.cyclic_windows(seq, length)
        with_zero = [w for w in set(wins) if 0 in w]
        # every window holds a 0, each 0-word appears exactly once
        assert len(wins) == len(set(wins)) == len(with_zero)
        expect = {w for w in itertools.product(range(k), repeat=length) if 0 in w}
        assert set(wins) == expect


def _fkm_de_bruijn(k, length):
    """Reference de Bruijn sequence: recursive Fredricksen-Maiorana Lyndon-word concatenation."""
    seq = []
    a = [0] * (k * length)

    def gen(t, p):
        if t > length:
            if length % p == 0:
                seq.extend(a[1: p + 1])
        else:
            a[t] = a[t - p]
            gen(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                gen(t + 1, t)

    gen(1, 1)
    return tuple(seq)


def _hierholzer_reduced_de_bruijn(k, length):
    """Reference reduced sequence: Eulerian circuit over the graph of 0-bearing words.

    A vertex is a (length-1)-word and the edge symbol c completes the word
    vertex + (c,); edges are consumed smallest symbol first from the all-zero
    vertex, and each edge's symbol is recorded when its frame pops.
    """
    out_edges = {}
    for v in itertools.product(range(k), repeat=length - 1):
        symbols = [c for c in range(k) if 0 in v + (c,)]
        if symbols:
            out_edges[v] = symbols
    stack, circuit = [((0,) * (length - 1), None)], []
    while stack:
        v, sym = stack[-1]
        avail = out_edges.get(v)
        if avail:
            c = avail.pop(0)
            stack.append((v[1:] + (c,) if length > 1 else v, c))
        else:
            stack.pop()
            if sym is not None:
                circuit.append(sym)
    return tuple(reversed(circuit))


def _small_sequence_args():
    """Every (k, length) with k >= 2, length >= 2 and k**length <= 4096, and length 1 up to k = 64 and at k = 4096.

    Order 1 is thinned because it is the sequence 0..k-1 at every k, and all
    4,095 alphabets would take most of the oracle time.
    """
    orders = [(k, length) for k in range(2, 65) for length in range(2, 13) if k ** length <= 4096]
    return orders + [(k, 1) for k in (*range(2, 65), 4096)]


def test_de_bruijn_equals_the_fkm_oracle():
    for k, length in _small_sequence_args():
        assert temporal.de_bruijn(k, length).symbols == _fkm_de_bruijn(k, length), (k, length)


def test_reduced_de_bruijn_equals_the_eulerian_circuit_oracle():
    for k, length in _small_sequence_args():
        assert temporal.reduced_de_bruijn(k, length) == _hierholzer_reduced_de_bruijn(k, length), (k, length)


def _occ(grid):
    rows = tuple(tuple(bool(x) for x in row) for row in grid)
    return temporal.SpaceTimeOccupancy(len(rows), len(rows[0]), rows)


def test_occupancy_from_photons_sets_the_named_cells():
    occ = temporal.SpaceTimeOccupancy.from_photons(2, 3, [(1, 2), (0, 0), (1, 2)])
    assert occ.photons() == ((0, 0), (1, 2))


@pytest.mark.parametrize(
    "modes, bins, grid, fragment",
    [
        (0, 1, (), "dims"),
        (1, 0, ((),), "dims"),
        (-1, 2, (), "dims"),
        (2, 2, ((True, False),), "shape"),
        (2, 2, ((True, False), (True,)), "shape"),
        (1, 2, ((True, False, False),), "shape"),
    ],
)
def test_occupancy_rejects_bad_dims_and_shapes(modes, bins, grid, fragment):
    with pytest.raises(ValueError, match=fragment):
        temporal.SpaceTimeOccupancy(modes, bins, grid)


@pytest.mark.parametrize("cell", [(0, -1), (-1, 0), (0, 3), (2, 0), (5, 7)])
def test_occupancy_from_photons_rejects_cells_off_the_grid(cell):
    # negative indices used to wrap to the far edge, too-large ones to raise IndexError
    with pytest.raises(ValueError, match="outside"):
        temporal.SpaceTimeOccupancy.from_photons(2, 3, [(0, 0), cell])


def test_debruijn_route_trivial_cases():
    net = temporal.default_delay_network(4, 4)
    everything_first_bin = _occ([[1, 0, 0, 0]] * 4)
    route = temporal.debruijn_mux_route(everything_first_bin, net)
    assert route.success
    arrivals = temporal.replay_debruijn_route(net, route)
    assert len(set(arrivals)) == 1  # all aligned to one bin
    empty = _occ([[0] * 4] * 4)
    assert not temporal.debruijn_mux_route(empty, net).success
    full = _occ([[1] * 4] * 4)
    assert temporal.debruijn_mux_route(full, net).success
    for occ in (_occ([[1, 0, 0]] * 4), _occ([[1, 0, 0, 0]] * 3)):
        with pytest.raises(ValueError, match="dims do not match"):
            temporal.debruijn_mux_route(occ, net)


def test_debruijn_route_replay_on_random_occupancies():
    net = temporal.default_delay_network(4, 4)
    hits = 0
    for trial in range(400):
        grid = substream(77, trial).random((4, 4)) < 0.35
        occ = _occ(grid)
        route = temporal.debruijn_mux_route(occ, net)
        if not route.success:
            continue
        hits += 1
        assert len(route.ports) == 4
        modes = [m for m, _ in route.ports]
        assert sorted(modes) == [0, 1, 2, 3]
        for m, t in route.ports:
            assert occ.grid[m][t]
        arrivals = temporal.replay_debruijn_route(net, route)
        assert len(set(arrivals)) == 1
    assert hits > 50


def test_non_tetris_probability_matches_simulation():
    p = 0.25
    net = temporal.default_delay_network(4, 4)
    expected = temporal.non_tetris_success_probability(4, 4, p)
    assert expected == pytest.approx(float(Fraction(175, 256) ** 4), abs=1e-12)
    trials = 4000
    wins = 0
    for trial in range(trials):
        grid = substream(9, trial).random((4, 4)) < p
        wins += temporal.debruijn_mux_route(_occ(grid), net).success
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(wins / trials - expected) <= 3 * se


_INVALID_PROBABILITY_ARGS = [
    ((0, 3, 0.1), "modes must be >= 1"),
    ((-1, 3, 0.1), "modes"),
    ((3, 0, 0.1), "bins must be >= 1"),
    ((3, -2, 0.1), "bins"),
    ((3, 3, -0.1), "probability"),
    ((3, 3, 1.5), "probability"),
    ((3, 3, float("nan")), "probability"),
]


@pytest.mark.parametrize("args, name", _INVALID_PROBABILITY_ARGS)
def test_non_tetris_probability_rejects_invalid_arguments(args, name):
    with pytest.raises(ValueError, match=name):
        temporal.non_tetris_success_probability(*args)


@pytest.mark.parametrize("args, name", _INVALID_PROBABILITY_ARGS)
def test_tetris_probability_rejects_invalid_arguments(args, name):
    with pytest.raises(ValueError, match=name):
        temporal.tetris_success_probability(*args)


def test_tetris_probability_exact_and_banded():
    got = temporal.tetris_success_probability(4, 4, Fraction(1, 4))
    assert got == TETRIS_4X4_QUARTER
    assert abs(float(got) - 0.56) <= 0.03
    assert float(got) > temporal.non_tetris_success_probability(4, 4, 0.25)
    for modes, bins in ((5, 5), (8, 3), (12, 2), (17, 1)):  # past the walk's one-second windows
        with pytest.raises(ValueError):
            temporal.tetris_success_probability(modes, bins, 0.25)


def test_tetris_dominates_non_tetris_pathwise():
    net = temporal.default_delay_network(4, 4)
    flips = 0
    for trial in range(300):
        grid = substream(13, trial).random((4, 4)) < 0.3
        occ = _occ(grid)
        plain = temporal.debruijn_mux_route(occ, net, tetris=False)
        shifty = temporal.debruijn_mux_route(occ, net, tetris=True)
        if plain.success:
            assert shifty.success
        if shifty.success and not plain.success:
            flips += 1
        if shifty.success:
            arrivals = temporal.replay_debruijn_route(net, shifty)
            assert len(set(arrivals)) == 1
    assert flips > 0  # the per-bin shifts must rescue some occupancies


def _shift(mask, c, m):
    return ((mask << c) | (mask >> (m - c))) & ((1 << m) - 1)


def _brute_force_route(occ, net, schedules):
    """Reference router: the first of the given per-bin shift schedules that covers every port."""
    m, b = occ.modes, occ.bins
    masks = [sum(1 << j for j in range(m) if occ.grid[j][t]) for t in range(b)]
    for schedule in schedules:
        covered = 0
        for t, mask in enumerate(masks):
            covered |= _shift(mask, schedule[t], m)
        if covered != (1 << m) - 1:
            continue
        ports = [None] * m
        for t in range(b):
            for j in range(m):
                if occ.grid[j][t]:
                    ports[(j + schedule[t]) % m] = (j, t)  # latest photon wins
        align = max(t for _, t in ports)
        window = net.word_positions()[tuple(align - t for _, t in ports)]
        return temporal.DeBruijnRoute(True, schedule, tuple(ports), window, align)
    return temporal.DeBruijnRoute(False, (0,) * b, (None,) * m, -1, -1)


@pytest.mark.parametrize("m,b", [(1, 3), (2, 2), (3, 3), (4, 3), (3, 4), (2, 5)])
def test_tetris_route_is_the_first_schedule_on_every_occupancy(m, b):
    net = temporal.DelayNetwork(m, b, temporal.reduced_de_bruijn(b, m))
    for bits in range(1 << (m * b)):
        occ = _occ([[bits >> (j * b + t) & 1 for t in range(b)] for j in range(m)])
        tetris_schedules = itertools.product(range(m), repeat=b)  # all m**b, lexicographic
        assert temporal.debruijn_mux_route(occ, net, tetris=True) == _brute_force_route(occ, net, tetris_schedules)


@pytest.mark.parametrize("m,b", [(1, 3), (2, 2), (3, 3), (4, 3), (3, 4), (2, 5)])
def test_single_shift_route_is_the_first_shift_on_every_occupancy(m, b):
    net = temporal.DelayNetwork(m, b, temporal.reduced_de_bruijn(b, m))
    for bits in range(1 << (m * b)):
        occ = _occ([[bits >> (j * b + t) & 1 for t in range(b)] for j in range(m)])
        single_shifts = ((c,) * b for c in range(m))
        assert temporal.debruijn_mux_route(occ, net) == _brute_force_route(occ, net, single_shifts)


def _ordered_tuple_tetris_probability(m, b, p):
    """Reference: sum over all (2**m)**b ordered mask tuples, reach sets per prefix."""
    weight = [p ** bin(x).count("1") * (1 - p) ** (m - bin(x).count("1")) for x in range(1 << m)]
    total = Fraction(0)
    stack = [(0, frozenset({0}), Fraction(1))]
    while stack:
        t, reach, w = stack.pop()
        if t == b:
            total += w if (1 << m) - 1 in reach else 0
            continue
        for mask in range(1 << m):
            nxt = frozenset(r | _shift(mask, c, m) for r in reach for c in range(m))
            stack.append((t + 1, nxt, w * weight[mask]))
    return total


@pytest.mark.parametrize("m,b,p", [(2, 6, Fraction(1, 3)), (3, 4, Fraction(1, 5)), (3, 5, Fraction(3, 10))])
def test_tetris_probability_matches_ordered_tuple_enumeration(m, b, p):
    assert temporal.tetris_success_probability(m, b, p) == _ordered_tuple_tetris_probability(m, b, p)


def _multiset_tetris_probability(m, b, p):
    """Reference: solve each multiset of b bin masks once, weighted by its count of orderings."""
    weight = [p ** bin(x).count("1") * (1 - p) ** (m - bin(x).count("1")) for x in range(1 << m)]
    total = Fraction(0)
    for masks in itertools.combinations_with_replacement(range(1 << m), b):
        if temporal._tetris_schedule(masks, m) is not None:
            orderings = math.factorial(b) // math.prod(map(math.factorial, Counter(masks).values()))
            total += orderings * math.prod(weight[mask] for mask in masks)
    return total


@pytest.mark.parametrize("m,b", [(m, b) for m in range(1, 13) for b in range(1, 13) if m * b <= 12])
def test_tetris_probability_matches_multiset_enumeration(m, b):
    for p in (Fraction(1, 4), Fraction(7, 10)):
        assert temporal.tetris_success_probability(m, b, p) == _multiset_tetris_probability(m, b, p)


def test_caller_built_delay_networks_are_checked():
    for delays in ((), (0, 5), (-1, 0, 1), (0, 2)):
        with pytest.raises(ValueError, match="delay"):
            temporal.DelayNetwork(2, 2, delays)
    # a valid bank that lacks a word the route needs: (0,) holds only the word (0, 0)
    net = temporal.DelayNetwork(2, 2, (0,))
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        temporal.debruijn_mux_route(_occ([[1, 0], [0, 1]]), net)


def test_tetris_route_on_a_long_full_window():
    occ = _occ([[1] * 1500] * 2)
    net = temporal.DelayNetwork(2, 1500, temporal.reduced_de_bruijn(2, 2))  # delays 0, 1
    route = temporal.debruijn_mux_route(occ, net, tetris=True)
    assert route.success
    assert route.shifts == (0,) * 1500
    assert route.ports == ((0, 1499), (1, 1499))
    assert temporal.replay_debruijn_route(net, route) == (1499, 1499)


def test_tetris_route_on_a_long_sparse_window():
    # 2**1500 schedules: only a dynamic program finds the first covering one
    net = temporal.DelayNetwork(2, 1500, temporal.reduced_de_bruijn(2, 2))
    one_mode = _occ([[1] * 1500, [0] * 1500])
    route = temporal.debruijn_mux_route(one_mode, net, tetris=True)
    assert route.shifts == (0,) * 1499 + (1,)
    assert route.ports == ((0, 1498), (0, 1499))
    assert temporal.replay_debruijn_route(net, route) == (1499, 1499)
    lone = _occ([[0] * 1499 + [1], [0] * 1500])
    assert not temporal.debruijn_mux_route(lone, net, tetris=True).success


def test_spatiotemporal_identity_case():
    # photons already contiguous and aligned need no movement at all
    occ = _occ([[0, 1], [0, 1], [0, 1], [0, 0], [0, 0]])
    route = temporal.spatiotemporal_debruijn(5, 3, occ)
    assert route is not None
    assert route.photons == ((0, 1), (1, 1), (2, 1))
    assert route.block_start == 0
    assert route.displacements == (0, 0, 0)
    assert route.delays == (0, 0, 0)
    assert route.output_shift == 0
    with pytest.raises(ValueError):
        temporal.spatiotemporal_debruijn(4, 4, occ)


def test_spatiotemporal_uses_delays_and_crossings():
    occ = _occ([
        [1, 0, 0],
        [0, 0, 0],
        [0, 1, 0],
        [0, 0, 0],
    ])
    route = temporal.spatiotemporal_debruijn(4, 2, occ, max_delay=2, max_crossing=2)
    assert route is not None
    # both photons meet at the later bin, one displaced into the block
    assert route.align_time == 1
    assert sorted(route.photons) == [(0, 0), (2, 1)]
    assert max(route.delays) >= 1
    assert max(abs(d) for d in route.displacements) >= 1


def test_extract_photon_groups_consumes():
    occ = _occ([
        [1, 1],
        [1, 1],
        [1, 1],
        [1, 1],
    ])
    groups = temporal.extract_photon_groups(4, 3, occ)
    assert len(groups) == 2
    used = [g.photons for g in groups]
    assert len({p for ph in used for p in ph}) == 6  # no photon reused
    limited = temporal.extract_photon_groups(4, 3, occ, max_groups=1)
    assert len(limited) == 1
    # limits far past the grid reach every bin and mode, as 2 already does here
    assert temporal.extract_photon_groups(4, 3, occ, max_delay=2**70, max_crossing=2**70) == groups


def _oracle_find_group(occ, n, max_delay, max_crossing, consumed, start_time):
    """Set-based first-group search: the reference for temporal's group extraction."""
    m = occ.modes
    for align in range(start_time, occ.bins):
        lo = max(0, align - max_delay)
        latest = {}  # latest unconsumed photon per mode inside the window
        for j in range(m):
            for t in range(align, lo - 1, -1):
                if occ.grid[j][t] and (j, t) not in consumed:
                    latest[j] = t
                    break
        if len(latest) < n:
            continue
        avail = sorted(latest)
        for s in range(m - n + 1):
            chosen = _oracle_block_match(avail, s, n, max_crossing)
            if chosen is not None:
                photons = tuple((j, latest[j]) for j in chosen)
                return temporal.GatherRoute(
                    photons=photons,
                    block_start=s,
                    displacements=tuple((s + i) - j for i, j in enumerate(chosen)),
                    delays=tuple(align - t for _, t in photons),
                    align_time=align,
                    output_shift=(-s) % m,
                )
    return None


def _oracle_block_match(avail, s, n, max_crossing):
    """Order-preserving match of the ascending modes avail onto slots s..s+n-1.

    Each slot takes the lowest unused mode within max_crossing of it; modes
    below that reach are skipped for good, so the match keeps mode order.
    """
    chosen, rest = [], list(avail)
    for slot in range(s, s + n):
        rest = [j for j in rest if j >= slot - max_crossing]
        if not rest or rest[0] > slot + max_crossing:
            return None
        chosen.append(rest.pop(0))
    return chosen


def _oracle_extract(occ, n, max_delay, max_crossing, max_groups):
    consumed, groups, start = set(), [], 0
    while max_groups is None or len(groups) < max_groups:
        route = _oracle_find_group(occ, n, max_delay, max_crossing, consumed, start)
        if route is None:
            break
        groups.append(route)
        consumed.update(route.photons)
        start = route.align_time
    return groups


@st.composite
def _gather_cases(draw):
    """A random stack of occupancies up to 8 x 130 (past 64 bins) and valid extraction limits.

    Every trial has its own photon density; an empty and a fully occupied
    trial close the stack.
    """
    modes = draw(st.integers(1, 8))
    bins = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    grids = [rng.random((modes, bins)) < d for d in densities]
    stack = np.array(grids + [np.zeros((modes, bins)), np.ones((modes, bins))], dtype=bool)
    return (
        stack,
        draw(st.integers(1, modes)),
        draw(st.integers(0, 5)),
        draw(st.integers(0, 4)),
        draw(st.none() | st.integers(1, 6)),
    )


def _route_key(align, block_start, photons):
    return align, block_start, tuple(photons)


@settings(max_examples=200, deadline=None)
@given(_gather_cases())
def test_group_extraction_matches_the_set_oracle(case):
    stack, n, max_delay, max_crossing, max_groups = case
    occs = [_occ(grid.tolist()) for grid in stack]
    want = [_oracle_extract(occ, n, max_delay, max_crossing, max_groups) for occ in occs]
    found, groups = temporal._extract_batch(stack, n, max_delay, max_crossing, max_groups)
    assert found.tolist() == [len(w) for w in want]
    got = [[] for _ in occs]
    for align, trials, starts, modes, times in groups:
        for t, s, js, ts in zip(trials.tolist(), starts.tolist(), modes.tolist(), times.tolist()):
            got[t].append(_route_key(align, s, zip(js, ts)))
    assert got == [[_route_key(r.align_time, r.block_start, r.photons) for r in w] for w in want]
    # the public routes are the one-trial batch
    occ = occs[0]
    assert temporal.extract_photon_groups(occ.modes, n, occ, max_delay, max_crossing, max_groups) == want[0]
    if n < occ.modes:
        first = temporal.spatiotemporal_debruijn(occ.modes, n, occ, max_delay, max_crossing)
        assert first == _oracle_find_group(occ, n, max_delay, max_crossing, set(), 0)


@settings(max_examples=200, deadline=None)
@given(_gather_cases())
def test_group_search_past_consumed_photons_matches_the_set_oracle(case):
    # one alignment step on its own, past some consumed photons and from a later start
    stack, n, max_delay, max_crossing, _ = case
    occ = _occ(stack[0].tolist())
    consumed = set(occ.photons()[::3])
    start = occ.bins // 3
    avail = stack[:1].transpose(2, 0, 1).copy()  # (bins, trials, modes)
    for j, t in consumed:
        avail[t, 0, j] = False
    got = None
    for align in range(start, occ.bins):
        window = avail[max(0, align - max_delay): align + 1]
        hit, starts, modes, delays = temporal._groups_at(window, n, max_crossing)
        if len(hit):
            got = _route_key(align, starts[0], zip(modes[0].tolist(), (align - delays[0]).tolist()))
            break
    want = _oracle_find_group(occ, n, max_delay, max_crossing, consumed, start)
    assert got == (None if want is None else _route_key(want.align_time, want.block_start, want.photons))


def test_simulate_group_extraction_across_block_boundaries():
    # sparse enough that the group count spreads over 0..8 and depends on
    # where every photon sits, over more than 64 bins
    modes, n, bins, p, seed, max_groups = 5, 3, 70, 0.08, 13, 8
    chunk = simkit._BLOCK_BYTES // (8 * modes * bins)
    found = []
    for t in range(2 * chunk + 3):
        grid = simkit.substream(seed, t).random((modes, bins)) < p
        found.append(len(_oracle_extract(_occ(grid.tolist()), n, 2, 2, max_groups)))
    for trials in (2, chunk, chunk + 1, 2 * chunk + 3):
        got = temporal.simulate_group_extraction(modes, n, bins, p, trials, seed, max_groups=max_groups)
        hits = np.array(found[:trials])
        want = {k: simkit.reduce_values((hits >= k).astype(float), seed) for k in range(1, max_groups + 1)}
        assert got == want, trials


def test_simulate_group_extraction():
    out = temporal.simulate_group_extraction(6, 4, 4, 0.5, trials=400, seed=21)
    assert sorted(out) == [1, 2, 3, 4]
    # P(at least k groups) decreases in k
    means = [out[k].mean for k in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(means, means[1:]))
    assert all(0.0 <= m <= 1.0 for m in means)
    again = temporal.simulate_group_extraction(6, 4, 4, 0.5, trials=400, seed=21)
    assert [out[k].mean for k in out] == [again[k].mean for k in again]
    with pytest.raises(ValueError):
        temporal.simulate_group_extraction(6, 4, 4, 0.5, trials=1, seed=21)


def test_simulate_group_extraction_rejects_bad_p():
    for p in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            temporal.simulate_group_extraction(6, 4, 4, p, trials=4, seed=21)


def test_group_extraction_rejects_invalid_arguments():
    occ = _occ([[1, 1]] * 4)
    valid = dict(group_size=3, max_delay=2, max_crossing=2, max_groups=2)
    for bad in (dict(group_size=5), dict(group_size=0), dict(max_delay=-1), dict(max_crossing=-1), dict(max_groups=0)):
        kw = valid | bad
        with pytest.raises(ValueError):
            temporal.simulate_group_extraction(4, bins=2, p=0.5, trials=4, seed=0, **kw)
        with pytest.raises(ValueError):
            temporal.extract_photon_groups(4, occ=occ, **kw)
    with pytest.raises(ValueError):
        temporal.extract_photon_groups(5, 3, occ)  # modes disagree with the occupancy
    with pytest.raises(ValueError):
        temporal.spatiotemporal_debruijn(4, 3, occ, max_delay=-1)
    with pytest.raises(ValueError):
        temporal.simulate_group_extraction(4, 3, 0, 0.5, trials=4, seed=0)


def test_group_extraction_rejects_non_integer_limits():
    occ = _occ([[1, 1]] * 4)
    # a True limit or bin count ran as 1
    for bad in (dict(max_delay=2.5), dict(max_crossing=1.5), dict(group_size=2.0), dict(max_delay=True),
                dict(max_crossing=True)):
        kw = dict(group_size=3) | bad
        with pytest.raises(ValueError):
            temporal.simulate_group_extraction(4, bins=2, p=0.5, trials=4, seed=0, **kw)
        with pytest.raises(ValueError):
            temporal.extract_photon_groups(4, occ=occ, **kw)
        with pytest.raises(ValueError):
            temporal.spatiotemporal_debruijn(4, occ=occ, **kw)
    with pytest.raises(ValueError):
        temporal.extract_photon_groups(4, 3, occ, max_groups=1.5)
    for bad in (dict(max_groups=None), dict(max_groups=2.5), dict(bins=2.5), dict(bins=True), dict(max_groups=True)):
        kw = dict(bins=2) | bad
        with pytest.raises(ValueError):
            temporal.simulate_group_extraction(4, 3, p=0.5, trials=4, seed=0, **kw)


def test_raster_rejects_invalid_sizes():
    for strategy in ("one-mux", "two-mux"):
        with pytest.raises(ValueError):
            temporal.raster_simulate(strategy, 0, 0.1, enhanced=False, trials=50, seed=1)
        for steps in (0, -4, 8.0):
            with pytest.raises(ValueError):
                temporal.raster_simulate(strategy, 16, 0.1, enhanced=True, trials=50, seed=1, steps=steps)


def test_raster_simulation_matches_rate_formula():
    # without enhancement the group count is the closed-form block rate
    for strategy, n in (("one-mux", 16), ("two-mux", 16)):
        for p in (0.1, 0.2):
            res = temporal.raster_simulate(strategy, n, p, enhanced=False, trials=3000, seed=4)
            expected = analytics.raster_rate(strategy, n, p)
            se = max(res.groups_per_period.stderr, 1e-9)
            assert abs(res.groups_per_period.mean - expected) <= 3.5 * se, (strategy, p)
            # yield definition: groups * group_size / photons per period
            assert res.yield_per_photon.mean == pytest.approx(
                res.groups_per_period.mean / (n * p), rel=1e-12
            )


def test_raster_enhancement_dominates_pathwise():
    for strategy in ("one-mux", "two-mux"):
        base = temporal.raster_simulate(strategy, 24, 0.12, enhanced=False, trials=800, seed=31)
        plus = temporal.raster_simulate(strategy, 24, 0.12, enhanced=True, trials=800, seed=31)
        assert plus.groups_per_period.mean >= base.groups_per_period.mean
        # regular rastering only ever finishes on period-aligned offsets,
        # enhanced rastering spreads completions over all offsets
        aligned = (3,) if strategy == "one-mux" else (1, 3)
        assert all(
            c == 0 for i, c in enumerate(base.completion_offsets) if i not in aligned
        )
        assert sum(plus.completion_offsets) >= sum(base.completion_offsets)


def _raster_loop(strategy, n_sources, p, enhanced, trials, seed, steps=96):
    """Per-trial reference for raster_simulate: one substream and one step loop per trial."""
    run = temporal.RASTER_GROUP_STEPS[strategy]
    muxes = 1 if strategy == "one-mux" else 2
    q = analytics.p_mux_single(n_sources // muxes, p)
    counts, offsets = [], [0] * 4
    for t in range(trials):
        u = simkit.substream(seed, t).random(muxes * steps)
        ok = [all(x < q for x in u[muxes * i: muxes * (i + 1)]) for i in range(steps)]
        done = []  # steps at which a group completes
        if enhanced:
            streak = 0
            for i, fired in enumerate(ok):
                streak = streak + 1 if fired else 0
                if streak == run:
                    done.append(i)
                    streak = 0
        else:
            done = [i for i in range(run - 1, steps, run) if all(ok[i - run + 1: i + 1])]
        counts.append(len(done))
        for i in done:
            offsets[i % 4] += 1
    groups = simkit.reduce_values(np.array(counts) / (steps // 4), seed)
    scale = 1.0 / (n_sources * p)
    yield_ = simkit.Estimate(groups.mean * scale, groups.stderr * scale, trials, seed)
    return temporal.RasterResult(groups, yield_, tuple(offsets))


@pytest.mark.parametrize("strategy", ["one-mux", "two-mux"])
@pytest.mark.parametrize("enhanced", [False, True])
def test_raster_across_block_boundaries(strategy, enhanced):
    draws = 96 if strategy == "one-mux" else 2 * 96  # two-mux draws once per mux and step
    chunk = simkit._BLOCK_BYTES // (8 * draws)
    for trials in (2, chunk, chunk + 1, 2 * chunk + 3):
        got = temporal.raster_simulate(strategy, 24, 0.09, enhanced, trials, seed=5)
        assert got == _raster_loop(strategy, 24, 0.09, enhanced, trials, seed=5), trials
    for steps in (4, 124, 128, 260):  # step counts shorter and longer than the default
        got = temporal.raster_simulate(strategy, 24, 0.4, enhanced, 40, seed=6, steps=steps)
        assert got == _raster_loop(strategy, 24, 0.4, enhanced, 40, seed=6, steps=steps), steps


def test_raster_aliases_and_guards():
    a = temporal.raster_simulate("i", 16, 0.1, enhanced=False, trials=50, seed=1)
    b = temporal.raster_simulate("one-mux", 16, 0.1, enhanced=False, trials=50, seed=1)
    assert a == b
    with pytest.raises(ValueError):
        temporal.raster_simulate("one-mux", 16, 0.1, enhanced=False, trials=50, seed=1, steps=10)
    with pytest.raises(ValueError):
        temporal.raster_simulate("one-mux", 16, 0.1, enhanced=False, trials=1, seed=1)
    with pytest.raises(ValueError):
        temporal.raster_simulate("two-mux", 15, 0.1, enhanced=False, trials=50, seed=1)
    # a simulated strategy's group spans 4 // m steps of its m muxes
    assert all(steps * analytics.RASTER_MUXES[s] == 4 for s, steps in temporal.RASTER_GROUP_STEPS.items())


def test_raster_rejects_unsupported_strategies():
    # four-mux has a closed form in analytics but no simulation
    for strategy in ("three-mux", "four-mux", "four-mux-interleaved"):
        with pytest.raises(ValueError, match="one-mux.*two-mux"):
            temporal.raster_simulate(strategy, 16, 0.1, enhanced=False, trials=50, seed=1)


def test_temporal_permutation_replays_every_small_perm():
    for r in range(1, 6):
        for perm in itertools.permutations(range(r)):
            sched = temporal.temporal_permutation(r, perm)
            out = temporal.replay_temporal_permutation(sched)
            for i in range(r):
                port, bin_ = out[i]
                assert port == 0  # arbitrary variant re-merges onto line 0
                assert bin_ == r - 1 + perm[i]
            assert sched.size == 2 * r - 1
            assert sched.output_bin(perm[0]) == r - 1 + perm[0]


def test_temporal_permutation_timing_is_permutation_independent():
    r = 5
    bins_seen = set()
    for perm in itertools.permutations(range(r)):
        sched = temporal.temporal_permutation(r, perm)
        out = temporal.replay_temporal_permutation(sched)
        bins_seen.add(tuple(sorted(b for _, b in out.values())))
    assert bins_seen == {tuple(range(r - 1, 2 * r - 1))}


def test_temporal_permutation_sort_to_top():
    occupied = (0, 2, 3)
    sched = temporal.temporal_permutation(4, occupied, variant="sort-to-top")
    assert sched.size == 4
    out = temporal.replay_temporal_permutation(sched)
    for rank, i in enumerate(occupied):
        port, bin_ = out[i]
        assert port == rank
        assert bin_ == 4 - 1 + rank
    with pytest.raises(ValueError):
        temporal.temporal_permutation(4, (2, 0), variant="sort-to-top")
    with pytest.raises(ValueError):
        temporal.temporal_permutation(4, (0, 1, 1), variant="arbitrary")
    with pytest.raises(ValueError):
        temporal.temporal_permutation(4, (0, 1, 2, 3), variant="bogus")
    # the window is bounded before perm is read, so a range costs nothing at any size
    assert temporal.temporal_permutation(65536, range(65536)).targets == tuple(range(65536))
    for variant in ("arbitrary", "sort-to-top"):
        for r in (0, 65537, 10**8):
            with pytest.raises(ValueError, match="n_inputs"):
                temporal.temporal_permutation(r, range(r), variant=variant)
