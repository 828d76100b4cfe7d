"""Generalized Mach-Zehnder switch devices.

A device is specified by a list of cyclic factor orders [n1, ..., nr].  The
passive interferometer is the Kronecker product of single-factor discrete
Fourier transforms, and each of the N = n1*...*nr settings is a vector of
phase-shifter angles whose diagonal, conjugated by the passive, realizes one
mode permutation from the corresponding abelian group.  Setting k routes
input port 0 to output port k.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._limits import check_size

__all__ = [
    "GmziDevice",
    "Stage",
    "StageDecomposition",
    "MuxLemmaReport",
    "classify_gmzi_types",
    "cyclic_spec",
    "binary_spec",
    "prime_spec",
    "prime_power_spec",
    "canonical_spec",
    "specs_isomorphic",
    "build_gmzi",
    "setting_vector",
    "setting_index",
    "setting_angles",
    "setting_matrix",
    "setting_permutation",
    "routing_table",
    "parallel_gmzi_settings_count",
    "decompose_stages",
    "active_setting_angles",
    "phase_swing",
    "check_mux_lemma",
    "search_orthogonal_phase_sets",
    "ternary_six_mode_mux_settings",
    "switchable_pairwise_coupler",
    "half_range_mzi",
    "half_range_active_phases",
    "HALF_RANGE_OFFSET",
    "enlarged_gmzi_factorization",
    "device_to_json",
    "device_from_json",
    "hadamard_2",
    "coupler_hc",
]


# ---------------------------------------------------------------------------
# transfer matrices of the device parts: DFT blocks, permutations, phase layers

def _dft_matrix(n: int) -> np.ndarray:
    """n-mode discrete-Fourier interferometer, entry (s, t) = exp(+i 2pi s t / n) / sqrt(n)."""
    if n < 1:
        raise ValueError("dft_matrix needs n >= 1")
    s, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * s * t / n) / np.sqrt(n)


def _kron_all(factors) -> np.ndarray:
    """Kronecker product of matrices, left to right (the left factor on the slow index); eye(1) for none."""
    factors = list(factors)
    return functools.reduce(np.kron, factors) if factors else np.eye(1, dtype=complex)


def _perm_matrix(mapping) -> np.ndarray:
    """Permutation matrix from a mapping array: mapping[t] = s routes input t to output s."""
    mapping = np.asarray(mapping, dtype=int)
    n = mapping.size
    if sorted(mapping.tolist()) != list(range(n)):
        raise ValueError("not a permutation mapping")
    mat = np.zeros((n, n), dtype=complex)
    mat[mapping, np.arange(n)] = 1.0
    return mat


def _cyclic_perm(n: int, power: int) -> np.ndarray:
    """Matrix of the cyclic shift t -> (t + power) mod n."""
    return _perm_matrix((np.arange(n) + power) % n)


def _canonical_angle(theta) -> np.ndarray:
    """Reduce angles to the canonical branch (-2pi, 0]; adding 0.0 turns the -0.0 of a multiple of 2pi into 0.0."""
    return np.mod(np.asarray(theta, dtype=float), -2.0 * np.pi) + 0.0


def _phases_to_diag(angles) -> np.ndarray:
    """Diagonal phase layer diag(exp(i * angles))."""
    return np.diag(np.exp(1j * np.asarray(angles, dtype=float)))


def _is_complex_hadamard(mat, tol: float) -> bool:
    """True iff mat is square and unitary with every entry of modulus 1/sqrt(N), each within tol."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    n = mat.shape[0]
    unitary = np.max(np.abs(mat.conj().T @ mat - np.eye(n))) <= tol
    return bool(unitary and np.max(np.abs(np.abs(mat) - 1.0 / np.sqrt(n))) <= tol)


def _global_phase(a, b, tol: float) -> complex | None:
    """The unit-modulus lam with a = lam * b within tol, or None if there is none."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return None
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) <= tol:
        return 1.0 + 0.0j if np.max(np.abs(a)) <= tol else None
    lam = a[idx] / b[idx]
    if abs(abs(lam) - 1.0) > max(tol, 1e-8):
        return None
    lam = lam / abs(lam)
    return None if np.max(np.abs(a - lam * b)) > tol else complex(lam)


# ---------------------------------------------------------------------------
# classification of device types

def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions(n: int):
    """Integer partitions of n as non-increasing tuples."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def classify_gmzi_types(n_modes: int) -> list[tuple[int, ...]]:
    """All device types on n_modes, one per abelian group of that order.

    Each type is a tuple of prime-power cyclic factor orders, sorted
    descending.  The list is sorted lexicographically descending, so the
    single-cycle (discrete-Fourier) type comes first and the all-prime
    (for powers of two: Hadamard) type last.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if n_modes == 1:
        return [(1,)]
    per_prime = [[tuple(p ** k for k in parts) for parts in _partitions(e)] for p, e in _factorize(n_modes).items()]
    specs = {tuple(sorted(sum(combo, ()), reverse=True)) for combo in itertools.product(*per_prime)}
    return sorted(specs, reverse=True)


def cyclic_spec(factors, order: int | None = None) -> tuple[int, ...]:
    """Check a list of cyclic factor orders, the one rule for every entry point; return it as ints.

    Factors are ints (numpy ints too, not bools) >= 1 that multiply to order
    when it is given.  () is the trivial group, of order 1.
    """
    spec = tuple(factors)
    ints = all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1 for n in spec)
    if not ints or order not in (None, math.prod(spec)):
        at = "" if order is None else f" {order}"
        raise ValueError(f"cyclic factors must be ints >= 1 whose product is the group order{at}, got {spec}")
    return tuple(map(int, spec))


# Default factorizations of n modes, one per caller: changing one moves its outputs.

def binary_spec(n: int) -> tuple[int, ...]:
    """The grid mux's column type: (2,) * k for n = 2^k (() for one cell), else the single cycle (n,)."""
    return (2,) * (n.bit_length() - 1) if n > 0 and n & (n - 1) == 0 else (n,)


def prime_spec(n: int) -> tuple[int, ...]:
    """The network builders' switch-block type: every prime factor of n, with repeats, descending."""
    return tuple(sorted((p for p, e in _factorize(n).items() for _ in range(e)), reverse=True))


def prime_power_spec(n: int) -> tuple[int, ...]:
    """The CLI's device type for --size n: the cyclic group of order n in prime-power form, (4, 3) for 12."""
    return classify_gmzi_types(n)[0]


def canonical_spec(factors) -> tuple[int, ...]:
    """Prime-power canonical form of a factor list (isomorphism invariant)."""
    out = sorted((p ** e for n in cyclic_spec(factors) for p, e in _factorize(n).items()), reverse=True)
    return tuple(out) or (1,)


def specs_isomorphic(a, b) -> bool:
    """True iff two factor lists generate isomorphic permutation groups."""
    return canonical_spec(a) == canonical_spec(b)


# ---------------------------------------------------------------------------
# device construction

@dataclass(frozen=True, eq=False)
class GmziDevice:
    """An N-mode switch device with N settings.

    Attributes:
        factors: cyclic factor orders (n1, ..., nr).
        n_modes: product of the factors.
        offsets: fixed additive phase offsets per shifter, or None.
        setting_phases: free global phase per setting (radians), default zeros.

    Devices compare and hash by the values of these fields.
    """

    factors: tuple[int, ...]
    n_modes: int
    offsets: np.ndarray | None = None
    setting_phases: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.setting_phases is None:
            object.__setattr__(self, "setting_phases", np.zeros(self.n_modes))

    def _key(self) -> tuple:
        offsets = None if self.offsets is None else tuple(np.ravel(self.offsets).tolist())
        return self.factors, self.n_modes, offsets, tuple(np.ravel(self.setting_phases).tolist())

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, GmziDevice) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def n_settings(self) -> int:
        return self.n_modes

    def passive(self) -> np.ndarray:
        return _kron_all(_dft_matrix(n) for n in self.factors)


def build_gmzi(factors, offsets=None) -> GmziDevice:
    """Build a device from cyclic factor orders [n1, ..., nr].

    offsets, if given, is a length-N vector of fixed phase-shifter offsets;
    they change the physically applied settings (see active_setting_angles)
    but not the implemented permutations, up to per-setting global phases.
    Raises ValueError above the `device-modes` bound of `muxkit._limits`.
    """
    factors = cyclic_spec(factors)
    if not factors:
        raise ValueError("a device needs at least one cyclic factor")
    n_modes = math.prod(factors)
    check_size("device-modes", n_modes)
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (n_modes,):
            raise ValueError("offsets must have one entry per mode")
    return GmziDevice(factors=factors, n_modes=n_modes, offsets=offsets)


@functools.lru_cache(maxsize=64)
def _mixed_radix(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(N, r) digit table of 0..N-1 and the place values (first digit most significant).

    Shared by every group computation on a factor tuple; both arrays are
    read-only because the cache hands them to every caller.  No factors is
    the trivial group: one element with no digits.
    """
    place = np.cumprod((1,) + factors[:0:-1], dtype=np.int64)[::-1][: len(factors)]
    digits = (np.arange(math.prod(factors), dtype=np.int64)[:, None] // place) % np.array(factors, dtype=np.int64)
    place.flags.writeable = digits.flags.writeable = False
    return digits, place


def setting_vector(dev: GmziDevice, index: int) -> tuple[int, ...]:
    """Mixed-radix digit vector (k1, ..., kr) of a setting index (row-major)."""
    if not 0 <= index < dev.n_settings:
        raise ValueError("setting index out of range")
    return tuple(_mixed_radix(dev.factors)[0][index].tolist())


def setting_index(dev: GmziDevice, vector) -> int:
    vector = _as_vector(dev, vector)
    return sum(v * place for v, place in zip(vector, _mixed_radix(dev.factors)[1].tolist()))


def _as_vector(dev: GmziDevice, k) -> tuple[int, ...]:
    """Digit vector of a setting given by index or by digits; ValueError unless each digit is in [0, n_l)."""
    if isinstance(k, (int, np.integer)):
        return setting_vector(dev, int(k))
    vector = tuple(int(v) for v in k)
    if len(vector) != len(dev.factors):
        raise ValueError("digit vector length mismatch")
    if not all(0 <= v < n for v, n in zip(vector, dev.factors)):
        raise ValueError("digit out of range")
    return vector


def _angles(factors: tuple[int, ...], k_digits: np.ndarray) -> np.ndarray:
    """Angle rows of the settings with the given digit rows, canonical branch.

    The per-factor terms are summed one factor at a time from zero, in the
    order a digit-by-digit evaluation would use, so every angle is the same
    float whichever path computes it.
    """
    digits = _mixed_radix(factors)[0]
    frac = np.zeros((len(k_digits), len(digits)))
    for l, n in enumerate(factors):
        frac = frac + np.multiply.outer(k_digits[:, l], digits[:, l]) / n
    return _canonical_angle(-2.0 * np.pi * frac)


def setting_angles(dev: GmziDevice, k) -> np.ndarray:
    """Target phase-shifter angles of setting k, canonical branch (-2pi, 0].

    Mode t with digits (t1, ..., tr) gets angle -2pi * sum_l k_l t_l / n_l.
    """
    return _angles(dev.factors, np.array([_as_vector(dev, k)], dtype=np.int64))[0]


def all_setting_angles(dev: GmziDevice) -> np.ndarray:
    """(N_settings x N_modes) matrix of target angles.

    Raises ValueError above the `table-modes` bound of `muxkit._limits`.
    """
    check_size("table-modes", dev.n_modes)
    return _angles(dev.factors, _mixed_radix(dev.factors)[0])


def setting_matrix(dev: GmziDevice, k) -> np.ndarray:
    """Transfer matrix of setting k: passive * diag(phases) * passive^dagger.

    Equals the group permutation exactly when the stored per-setting global
    phase is zero.
    """
    kvec = _as_vector(dev, k)
    idx = setting_index(dev, kvec)
    w = dev.passive()
    phases = setting_angles(dev, kvec) + dev.setting_phases[idx]
    return w @ _phases_to_diag(phases) @ w.conj().T


def setting_permutation(dev: GmziDevice, k) -> np.ndarray:
    """Mapping array of setting k: digit-wise cyclic shifts t_l -> t_l + k_l."""
    digits, place = _mixed_radix(dev.factors)
    return ((digits + np.array(_as_vector(dev, k), dtype=np.int64)) % dev.factors) @ place


def routing_table(dev: GmziDevice) -> np.ndarray:
    """(setting, input) -> output table; rows are the group permutations.

    For any device this is a Latin square: each input reaches each output
    under exactly one setting.  Raises ValueError above the `table-modes`
    bound of `muxkit._limits`.
    """
    check_size("table-modes", dev.n_modes)
    return _group_table(dev.factors)


def _group_table(factors: tuple[int, ...]) -> np.ndarray:
    """(N, N) group table on the factors, [s, a] = a shifted by s; not cached, as it is 128 MiB at the `table-modes` bound."""
    digits, place = _mixed_radix(factors)
    # ((digits[:, None] + digits[None]) % factors) @ place, one factor at a
    # time so no (N, N, r) intermediate is ever allocated
    table = np.zeros((len(digits), len(digits)), dtype=np.int64)
    for l, n in enumerate(factors):
        table += (np.add.outer(digits[:, l], digits[:, l]) % n) * place[l]
    return table


def parallel_gmzi_settings_count(partition) -> int:
    """Joint setting count of independent devices on disjoint mode blocks.

    Each block of size b contributes b settings, so a partition
    [b1, ..., br] of the modes allows b1*...*br joint configurations.
    """
    sizes = cyclic_spec(partition)
    if not sizes:
        raise ValueError("a partition needs at least one block")
    return math.prod(sizes)


# ---------------------------------------------------------------------------
# stage decomposition of the passive

@dataclass(frozen=True)
class Stage:
    """One layer of identical local interference blocks between crossings.

    The stage matrix is P(post) @ (I ⊗ block) @ P(pre), with pre/post stored
    as mapping arrays.  pre gathers each block's modes to be contiguous,
    post scatters them back, so the bracketed factors of the full passive
    commute.
    """

    block_size: int
    n_blocks: int
    pre: np.ndarray
    post: np.ndarray

    def block(self) -> np.ndarray:
        return _dft_matrix(self.block_size)

    def matrix(self) -> np.ndarray:
        local = np.kron(np.eye(self.n_blocks), self.block())
        return _perm_matrix(self.post) @ local @ _perm_matrix(self.pre)

    def crossings(self) -> int:
        """Wire crossings = permutation inversions; identity counts zero."""
        return _inversions(self.pre) + _inversions(self.post)


def _inversions(mapping) -> int:
    """Pairs i < j with mapping[i] > mapping[j], counted right to left by bisection."""
    seen: list[int] = []
    count = 0
    for x in reversed(np.asarray(mapping).tolist()):
        k = bisect.bisect_left(seen, x)
        count += k
        seen.insert(k, x)
    return count


@dataclass(frozen=True)
class StageDecomposition:
    stages: tuple[Stage, ...]

    def matrix(self) -> np.ndarray:
        out = None
        for st in self.stages:
            out = st.matrix() if out is None else st.matrix() @ out
        return out

    def total_crossings(self) -> int:
        return sum(st.crossings() for st in self.stages)

    def depth(self) -> int:
        return len(self.stages)


def decompose_stages(dev: GmziDevice) -> StageDecomposition:
    """Factor the passive into per-factor local block layers with crossings.

    Stage l applies one dft block of size n_l to every group of modes sharing
    all other digits.  The product of all stage matrices reproduces the
    passive exactly (stages commute, applied first factor first).
    """
    factors = dev.factors
    n = dev.n_modes
    stages = []
    for l, nl in enumerate(factors):
        a, b = math.prod(factors[:l]), math.prod(factors[l + 1:])
        # gather (i, s, j) -> (i, j, s): local digit moved to the fast index
        pre = np.arange(n).reshape(a, b, nl).transpose(0, 2, 1).reshape(n)
        post = np.zeros(n, dtype=int)
        post[pre] = np.arange(n)
        stages.append(Stage(block_size=nl, n_blocks=n // nl, pre=pre, post=post))
    return StageDecomposition(stages=tuple(stages))


# ---------------------------------------------------------------------------
# phase-shifter swing

def active_setting_angles(dev: GmziDevice, restrict_to=None) -> np.ndarray:
    """Physically applied angles per setting, offsets subtracted.

    The free global phase of each setting is fixed by shifting the setting's
    angle vector so its largest element is zero; all angles stay on the
    canonical branch (-2pi, 0].
    """
    rows = all_setting_angles(dev)
    if restrict_to is not None:
        rows = rows[[setting_index(dev, k) for k in restrict_to]]
    if dev.offsets is not None:
        rows = _canonical_angle(rows - dev.offsets)
    return rows - rows.max(axis=1, keepdims=True)


def phase_swing(dev: GmziDevice, restrict_to=None) -> float:
    """Largest per-shifter angle range over the (possibly restricted) settings."""
    angles = active_setting_angles(dev, restrict_to=restrict_to)
    return float(np.max(angles.max(axis=0) - angles.min(axis=0)))


# ---------------------------------------------------------------------------
# orthonormality conditions on valid switch devices

@dataclass(frozen=True)
class MuxLemmaReport:
    hadamard_ok: bool
    orthonormal_ok: bool
    max_modulus_deviation: float
    max_gram_deviation: float

    @property
    def ok(self) -> bool:
        return self.hadamard_ok and self.orthonormal_ok


def check_mux_lemma(passive, setting_angle_rows=None, tol: float = 1e-9) -> MuxLemmaReport:
    """Necessary conditions for a passive + settings pair to switch N modes.

    The passive must be a complex Hadamard (all entries of modulus
    1/sqrt(N)) and the normalized setting phase vectors must be orthonormal.
    Accepts a GmziDevice, or an explicit passive matrix with a
    (N_settings x N) matrix of angles.
    """
    if isinstance(passive, GmziDevice):
        dev = passive
        v = dev.passive()
        rows = all_setting_angles(dev)
    else:
        v = np.asarray(passive, dtype=complex)
        if setting_angle_rows is None:
            raise ValueError("explicit passive requires setting angles")
        rows = np.asarray(setting_angle_rows, dtype=float)
    n = v.shape[0]
    mod_dev = float(np.max(np.abs(np.abs(v) - 1.0 / np.sqrt(n))))
    hadamard_ok = _is_complex_hadamard(v, tol)
    vectors = np.exp(1j * rows) / np.sqrt(n)
    gram = vectors @ vectors.conj().T
    gram_dev = float(np.max(np.abs(gram - np.eye(rows.shape[0]))))
    return MuxLemmaReport(
        hadamard_ok=hadamard_ok,
        orthonormal_ok=gram_dev <= tol,
        max_modulus_deviation=mod_dev,
        max_gram_deviation=gram_dev,
    )


# ---------------------------------------------------------------------------
# exhaustive search for orthogonal phase-vector sets

def search_orthogonal_phase_sets(
    n_modes: int,
    alphabet,
    target_size: int,
    tol: float = 1e-9,
    max_sets: int | None = None,
) -> list[list[np.ndarray]]:
    """Maximal sets of pairwise-orthogonal phase vectors over a finite alphabet.

    Enumerates all |alphabet|^n_modes vectors with per-mode angles drawn from
    the alphabet, builds the orthogonality graph (|<u, v>| <= tol * n), and
    returns every maximal clique of size >= target_size as a list of angle
    arrays.  Ordering is deterministic: cliques sorted by size (descending)
    then lexicographically by vector indices, vectors in lexicographic
    alphabet order.

    Raises ValueError if |alphabet|^n_modes is over the `search-vectors`
    bound of `muxkit._limits`.
    """
    alphabet = [float(a) for a in alphabet]
    m = len(alphabet) ** n_modes
    check_size("search-vectors", m)
    combos = list(itertools.product(range(len(alphabet)), repeat=n_modes))
    vecs = np.exp(1j * np.array([[alphabet[i] for i in c] for c in combos]))
    # orthogonality graph in row blocks to bound memory
    adj: list[set[int]] = [set() for _ in range(m)]
    block = max(1, 2_000_000 // max(1, m))
    threshold = tol * n_modes
    for start in range(0, m, block):
        stop = min(m, start + block)
        gram = vecs[start:stop] @ vecs.conj().T
        hits = np.argwhere(np.abs(gram) <= threshold)
        for r, c in hits:
            u = start + int(r)
            v = int(c)
            if u != v:
                adj[u].add(v)
    results: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]):
        if max_sets is not None and len(results) >= max_sets:
            return
        if not p and not x:
            if len(r) >= target_size:
                results.append(tuple(r))
            return
        if len(r) + len(p) < target_size:
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand([], set(range(m)), set())
    results.sort(key=lambda c: (-len(c), c))
    out = []
    for clique in results:
        out.append([np.array([alphabet[i] for i in combos[v]]) for v in clique])
    return out


# ---------------------------------------------------------------------------
# switchable pairwise coupling and half-range selection

def switchable_pairwise_coupler(dev: GmziDevice, input_port: int, out_a: int, out_b: int, phi: float):
    """Continuous family interpolating two settings of a Hadamard-type device.

    Returns (angles, matrix) where the matrix equals
    exp(-i phi/2) * (cos(phi/2) U_a + i sin(phi/2) U_b), with U_a routing
    input_port -> out_a and U_b routing input_port -> out_b.  At phi = 0 this
    is U_a, at phi = pi it is U_b up to a global phase, and in between it
    splits the input across the two output ports.  Shifter angles stay in
    {0, -phi, -pi, -pi - phi} modulo 2pi.
    """
    if any(f != 2 for f in dev.factors):
        raise ValueError("switchable coupling requires a Hadamard-type device")
    for port in (input_port, out_a, out_b):
        if not 0 <= port < dev.n_modes:
            raise ValueError("port out of range")
    k_a = input_port ^ out_a
    k_b = input_port ^ out_b
    d_a = np.exp(1j * setting_angles(dev, k_a))
    d_b = np.exp(1j * setting_angles(dev, k_b))
    mix = np.exp(-0.5j * phi) * (np.cos(phi / 2) * d_a + 1j * np.sin(phi / 2) * d_b)
    if np.max(np.abs(np.abs(mix) - 1.0)) > 1e-9:
        raise ValueError("mixed setting is not a pure phase vector")
    angles = _canonical_angle(np.angle(mix))
    w = dev.passive()
    matrix = w @ _phases_to_diag(angles) @ w.conj().T
    return angles, matrix


def ternary_six_mode_mux_settings() -> np.ndarray:
    """Six-setting phase table for a 6-to-1 mux over angles {0, -2pi/3, -4pi/3}.

    The rows are pairwise-orthogonal phase vectors (so the mux lemma admits a
    valid device using them as settings), and the first four rows use only
    {0, -2pi/3}: restricting to them gives a 4-to-1 mux with swing 2pi/3.
    This set is not reachable from any cyclic-factor construction on six
    modes, whose settings need at least six distinct values.
    """
    a = -2.0 * np.pi / 3.0
    b = -4.0 * np.pi / 3.0
    return np.array(
        [
            [0, 0, 0, a, a, a],
            [0, a, a, 0, a, 0],
            [a, 0, a, a, 0, 0],
            [a, a, 0, 0, 0, a],
            [0, a, b, a, 0, b],
            [a, 0, b, 0, a, b],
        ]
    )


def hadamard_2() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def coupler_hc() -> np.ndarray:
    """Symmetric 2-mode coupler (1, -i; -i, 1)/sqrt(2)."""
    return np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2)


HALF_RANGE_OFFSET = (-7.0 * np.pi / 4.0, 0.0)


def half_range_active_phases(select: bool) -> np.ndarray:
    """Push-pull active angles for the half-range selector; swing pi/4."""
    return np.array([0.0, -np.pi / 4] if select else [-np.pi / 4, 0.0])


def half_range_mzi(select: bool, variant: str = "hc") -> np.ndarray:
    """Two-mode selector whose active phase depth is only pi/4.

    variant "hc": identity (select=False) or the dagger of the symmetric
    coupler (select=True).  variant "h": Z or the real 2-mode splitter, with
    fixed diagonal phase dressing at input and output.  Built push-pull: the
    fixed offset (-7pi/4, 0) plus active angles (-pi/4, 0) or (0, -pi/4).
    """
    active = half_range_active_phases(select)
    total = np.asarray(HALF_RANGE_OFFSET) + active
    h = hadamard_2()
    core = h @ _phases_to_diag(total) @ h
    if variant == "hc":
        return core
    if variant == "h":
        s_dag = np.diag([1.0, -1j])
        return s_dag @ core @ s_dag
    raise ValueError("variant must be 'hc' or 'h'")


# ---------------------------------------------------------------------------
# product-form factorization for two independently settable stages

def enlarged_gmzi_factorization(n1: int, n2: int, k1: int, k2: int):
    """Split the permutation of setting (k1, k2) on [n1, n2] into two stages.

    Returns (combined, stage_1, stage_2) with combined = stage_1 @ stage_2
    exactly; stage_1 = C^{k1} ⊗ I and stage_2 = I ⊗ C^{k2}.  The stages can
    be driven independently, giving n1 * n2 jointly addressable settings.
    """
    n1, n2 = cyclic_spec((n1, n2))
    c1 = _cyclic_perm(n1, k1 % n1)
    c2 = _cyclic_perm(n2, k2 % n2)
    stage_1 = np.kron(c1, np.eye(n2))
    stage_2 = np.kron(np.eye(n1), c2)
    combined = np.kron(c1, c2)
    return combined, stage_1, stage_2


# ---------------------------------------------------------------------------
# serialization

def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already-rendered item texts, laid out as `json.dumps(indent=2)`.

    `indent` is the indentation of the line the list starts on; an item that
    spans several lines must already be indented for its own depth.
    """
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_value(value, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for a value that starts on a line at `indent`.

    Shifting every line is safe because encoded JSON strings hold no raw newline.
    """
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_floats(values) -> np.ndarray:
    """Object array of the JSON text of each value at 15 significant digits.

    Each distinct bit pattern is formatted once, so 0.0 and -0.0 stay apart.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(arr.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = [repr(float(f"{x:.15g}")) for x in distinct.tolist()]
    for i in np.flatnonzero(~np.isfinite(distinct)):  # json spells these NaN and [-]Infinity
        texts[i] = json.dumps(distinct[i].item())
    return np.array(texts, dtype=object)[inverse.reshape(arr.shape)]


def device_to_json(dev: GmziDevice) -> str:
    """Serialize a device; angles in radians at 15 significant digits.

    The text equals, byte for byte, `json.dumps(payload, sort_keys=True,
    indent=2)` of the payload {"spec": list(factors), "N": N, "offsets": None
    or a list, "settings": one list of angles per setting}, each angle being
    `float(f"{x:.15g}")`.  The settings are rendered directly, one text per
    distinct angle, because the stdlib cannot use its C encoder with indent.
    """
    rows = _json_floats(all_setting_angles(dev)).tolist()
    settings = _json_list([_json_list(row, "    ") for row in rows], "  ")
    offsets = "null" if dev.offsets is None else _json_list(_json_floats(dev.offsets).tolist(), "  ")
    return (
        f'{{\n  "N": {_json_value(dev.n_modes, "  ")},\n  "offsets": {offsets},\n'
        f'  "settings": {settings},\n  "spec": {_json_value(list(dev.factors), "  ")}\n}}'
    )


def device_from_json(text: str) -> GmziDevice:
    """Parse `device_to_json` text and check it against its spec; ValueError on any malformed payload."""
    payload = json.loads(text)
    try:
        dev = build_gmzi(
            payload["spec"],
            offsets=None if payload.get("offsets") is None else np.array(payload["offsets"]),
        )
        n_modes = payload["N"]
        stored = np.array(payload["settings"], dtype=float)
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed device payload: {err!r}") from None
    if dev.n_modes != n_modes:
        raise ValueError("inconsistent serialized device: N != product of factors")
    rebuilt = all_setting_angles(dev)
    if stored.shape != rebuilt.shape or np.max(np.abs(stored - rebuilt)) > 1e-9:
        raise ValueError("inconsistent serialized device: settings do not match spec")
    return dev
