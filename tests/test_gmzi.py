"""Switch devices: transfer-matrix parts, classification, permutation action, swings, orthogonality.

Permutation matrices are read back by test-local oracles (`_matrix_to_mapping`,
`_setting_permutation_matrix`); the library itself routes by mapping arrays.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxkit import gmzi, networks

RNG = np.random.default_rng(20260814)


# ---------------------------------------------------------------------------
# oracles: permutation matrices read back, unitarity, equality up to a phase

def _matrix_to_mapping(mat, tol: float = 1e-10) -> np.ndarray:
    """Mapping array of a permutation matrix whose entries may carry phases; ValueError unless it is one within tol."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    mapping = np.argmax(np.abs(mat), axis=0)
    if sorted(mapping.tolist()) != list(range(n)):
        raise ValueError("matrix is not a permutation")
    # one unit-modulus entry per column, zeros elsewhere
    check = np.zeros_like(mat)
    check[mapping, np.arange(n)] = mat[mapping, np.arange(n)]
    if np.max(np.abs(np.abs(mat[mapping, np.arange(n)]) - 1.0)) > tol:
        raise ValueError("matrix is not a permutation within tolerance")
    if np.max(np.abs(mat - check)) > tol:
        raise ValueError("matrix is not a permutation within tolerance")
    return mapping


def _is_permutation_matrix(mat, tol: float = 1e-10) -> bool:
    try:
        _matrix_to_mapping(mat, tol)
    except ValueError:
        return False
    return True


def _is_unitary(mat, tol: float = 1e-10) -> bool:
    mat = np.asarray(mat)
    square = mat.ndim == 2 and mat.shape[0] == mat.shape[1]
    return square and bool(np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat)))) <= tol)


def _same_up_to_phase(a, b, tol: float = 1e-10) -> bool:
    return gmzi._global_phase(a, b, tol) is not None


def _setting_permutation_matrix(dev, k: int) -> np.ndarray:
    """Setting k as the Kronecker product of its single-factor cyclic shifts."""
    return gmzi._kron_all(gmzi._cyclic_perm(n, kl) for n, kl in zip(dev.factors, gmzi.setting_vector(dev, k)))


# ---------------------------------------------------------------------------
# transfer-matrix parts: DFT blocks, permutations, phase layers

def test_dft_matrix_is_complex_hadamard():
    for n in range(1, 17):
        w = gmzi._dft_matrix(n)
        assert w.shape == (n, n)
        assert _is_unitary(w)
        assert gmzi._is_complex_hadamard(w, 1e-10)
        # row/column 0 are flat
        assert np.allclose(w[0], 1.0 / np.sqrt(n))
        assert np.allclose(w[:, 0], 1.0 / np.sqrt(n))


def test_dft_matrix_rejects_bad_n():
    with pytest.raises(ValueError):
        gmzi._dft_matrix(0)


def test_dft_diagonalizes_cyclic_shift():
    # W^dag C W must be diagonal with unit-modulus entries
    for n in (2, 3, 4, 6, 8):
        w = gmzi._dft_matrix(n)
        c = gmzi._cyclic_perm(n, 1)
        d = w.conj().T @ c @ w
        assert np.abs(d - np.diag(np.diag(d))).max() < 1e-9
        assert np.allclose(np.abs(np.diag(d)), 1.0)


def test_cyclic_perm_power_composition():
    for n in (2, 3, 5, 9):
        for a in range(n):
            for b in range(n):
                lhs = gmzi._cyclic_perm(n, a) @ gmzi._cyclic_perm(n, b)
                rhs = gmzi._cyclic_perm(n, (a + b) % n)
                assert np.abs(lhs - rhs).max() < 1e-12


def test_perm_matrix_mapping_roundtrip():
    for _ in range(50):
        n = int(RNG.integers(1, 12))
        mapping = RNG.permutation(n)
        mat = gmzi._perm_matrix(mapping)
        assert _is_permutation_matrix(mat)
        back = _matrix_to_mapping(mat)
        assert np.array_equal(back, mapping)


def test_perm_matrix_rejects_non_permutation():
    with pytest.raises(ValueError):
        gmzi._perm_matrix([0, 0, 1])
    with pytest.raises(ValueError):
        _matrix_to_mapping(np.ones((3, 3)))
    # unitary but not a permutation
    assert not _is_permutation_matrix(gmzi._dft_matrix(4))


def test_matrix_to_mapping_tolerates_entry_phases():
    mapping = np.array([2, 0, 1])
    mat = gmzi._perm_matrix(mapping) * np.exp(0.31j)
    assert np.array_equal(_matrix_to_mapping(mat), mapping)


def test_global_phase_between():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    lam = np.exp(1.234j)
    assert abs(gmzi._global_phase(lam * a, a, 1e-10) - lam) < 1e-12
    assert _same_up_to_phase(lam * a, a)
    assert not _same_up_to_phase(a + 0.1, a)
    assert gmzi._global_phase(a, np.zeros_like(a), 1e-10) is None


def test_equal_up_to_global_phase_zero_pair():
    z = np.zeros((3, 3), dtype=complex)
    assert _same_up_to_phase(z, z)


def test_canonical_angle_branch():
    # canonical branch is (-2pi, 0]
    th = RNG.uniform(-20, 20, size=200)
    out = gmzi._canonical_angle(th)
    assert np.all(out <= 0.0)
    assert np.all(out > -2 * np.pi)
    assert np.allclose(np.exp(1j * out), np.exp(1j * th))
    assert gmzi._canonical_angle(0.0) == 0.0
    assert gmzi._canonical_angle(2 * np.pi) == 0.0


def test_phases_to_diag():
    ang = np.array([0.0, -np.pi / 2, np.pi])
    d = gmzi._phases_to_diag(ang)
    assert np.allclose(np.diag(d), np.exp(1j * ang))
    assert np.abs(d - np.diag(np.diag(d))).max() == 0.0


def test_kron_all_matches_numpy():
    mats = [RNG.standard_normal((k, k)) for k in (2, 3, 2)]
    expect = np.kron(np.kron(mats[0], mats[1]), mats[2])
    assert np.allclose(gmzi._kron_all(mats), expect)
    assert np.array_equal(gmzi._kron_all([]), np.eye(1))


# ---------------------------------------------------------------------------
# device types, settings and their permutations


def _partition_count(n: int) -> int:
    # independent counter: p(n) by Euler's recurrence-free DP
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            table[s] += table[s - part]
    return table[n]


def _abelian_count(n: int) -> int:
    count = 1
    m = n
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            count *= _partition_count(e)
        d += 1
    if m > 1:
        count *= _partition_count(1)
    return count


def test_classify_frozen_small_cases():
    assert gmzi.classify_gmzi_types(8) == [(8,), (4, 2), (2, 2, 2)]
    assert gmzi.classify_gmzi_types(12) == [(4, 3), (3, 2, 2)]
    assert gmzi.classify_gmzi_types(16) == [
        (16,),
        (8, 2),
        (4, 4),
        (4, 2, 2),
        (2, 2, 2, 2),
    ]
    assert gmzi.classify_gmzi_types(7) == [(7,)]
    assert gmzi.classify_gmzi_types(1) == [(1,)]


def test_classify_counts_match_partition_product():
    for n in range(2, 17):
        specs = gmzi.classify_gmzi_types(n)
        assert len(specs) == _abelian_count(n)
        for spec in specs:
            assert math.prod(spec) == n
            assert gmzi.canonical_spec(spec) == spec


def test_classify_rejects_bad_order():
    with pytest.raises(ValueError):
        gmzi.classify_gmzi_types(0)


def test_specs_isomorphic():
    assert gmzi.specs_isomorphic((6,), (3, 2))
    assert gmzi.specs_isomorphic((12,), (4, 3))
    assert not gmzi.specs_isomorphic((4,), (2, 2))
    assert gmzi.canonical_spec((1, 1)) == (1,)


def test_every_device_switches_by_permutations():
    # all types up to 16 modes: each setting acts as a permutation matrix,
    # the actions compose as the digit-shift group, and the routing table
    # is a Latin square with setting k sending input 0 to output k
    for n in range(2, 17):
        for spec in gmzi.classify_gmzi_types(n):
            dev = gmzi.build_gmzi(spec)
            assert dev.n_settings == n
            table = gmzi.routing_table(dev)
            for k in range(n):
                mat = gmzi.setting_matrix(dev, k)
                assert _is_permutation_matrix(mat, tol=1e-9)
                mapping = _matrix_to_mapping(mat, tol=1e-9)
                assert np.array_equal(mapping, table[k])
                assert _same_up_to_phase(mat, _setting_permutation_matrix(dev, k), tol=1e-9)
                assert table[k][0] == k
            # Latin square: every column of the table is a permutation too
            for col in table.T:
                assert sorted(col.tolist()) == list(range(n))


def test_setting_group_is_abelian_and_closed():
    for spec in [(8,), (4, 2), (2, 2, 2), (9,), (3, 3), (12,), (4, 3)]:
        dev = gmzi.build_gmzi(spec)
        n = dev.n_modes
        perms = [gmzi.setting_permutation(dev, k) for k in range(n)]
        index = {tuple(p): k for k, p in enumerate(perms)}
        for a in range(n):
            for b in range(n):
                ab = tuple(perms[a][perms[b]])
                ba = tuple(perms[b][perms[a]])
                assert ab == ba
                assert ab in index


def test_setting_vector_index_roundtrip():
    dev = gmzi.build_gmzi((4, 3, 2))
    for k in range(dev.n_settings):
        vec = gmzi.setting_vector(dev, k)
        assert gmzi.setting_index(dev, vec) == k
    with pytest.raises(ValueError):
        gmzi.setting_vector(dev, 24)
    with pytest.raises(ValueError):
        gmzi.setting_index(dev, (4, 0, 0))
    for vec in ((1, 0), (1, 0, 0, 0), ()):
        for call in (gmzi.setting_index, gmzi.setting_angles, gmzi.setting_permutation):
            with pytest.raises(ValueError, match="length mismatch"):
                call(dev, vec)


@pytest.mark.parametrize("vec", [(1, 5), (2, 0), (-1, 0), (0, -1)])
@pytest.mark.parametrize("call", ["setting_index", "setting_angles", "setting_matrix", "setting_permutation"])
def test_digit_vectors_out_of_range_are_refused(call, vec):
    # (1, 5) on (2, 2) once routed as the permutation [3, 2, 1, 0]
    with pytest.raises(ValueError, match="digit out of range"):
        getattr(gmzi, call)(gmzi.build_gmzi((2, 2)), vec)


def test_stage_decomposition_reproduces_passive():
    for n in range(2, 17):
        for spec in gmzi.classify_gmzi_types(n):
            dev = gmzi.build_gmzi(spec)
            dec = gmzi.decompose_stages(dev)
            assert np.abs(dec.matrix() - dev.passive()).max() < 1e-9
            assert dec.depth() == len(dec.stages) == len(spec)
            assert dec.total_crossings() >= 0


def test_single_stage_has_no_crossings():
    dec = gmzi.decompose_stages(gmzi.build_gmzi((8,)))
    assert dec.total_crossings() == 0


def test_phase_swing_reduction_by_offsets():
    # 2-mode: full-range settings swing pi; offsets (-3pi/2, 0) halve it
    plain = gmzi.build_gmzi((2,))
    assert abs(gmzi.phase_swing(plain) - np.pi) < 1e-12
    shifted = gmzi.build_gmzi((2,), offsets=(-1.5 * np.pi, 0.0))
    assert abs(gmzi.phase_swing(shifted) - np.pi / 2) < 1e-12
    # 3-mode: offsets (-4pi/3, 0, 0) bring 4pi/3 down to 2pi/3
    plain3 = gmzi.build_gmzi((3,))
    assert abs(gmzi.phase_swing(plain3) - 4 * np.pi / 3) < 1e-12
    shifted3 = gmzi.build_gmzi((3,), offsets=(-4 * np.pi / 3, 0.0, 0.0))
    assert abs(gmzi.phase_swing(shifted3) - 2 * np.pi / 3) < 1e-12


def test_offsets_do_not_change_the_permutations():
    for spec, offs in [((2,), (-1.5 * np.pi, 0.0)), ((3,), (-4 * np.pi / 3, 0.0, 0.0))]:
        plain = gmzi.build_gmzi(spec)
        shifted = gmzi.build_gmzi(spec, offsets=offs)
        for k in range(plain.n_settings):
            assert np.array_equal(
                gmzi.setting_permutation(plain, k), gmzi.setting_permutation(shifted, k)
            )
            # physical angles = target - offset still realize the same matrix
            # up to the per-setting global phase carried by the offset
            w = plain.passive()
            ang = gmzi.setting_angles(shifted, k)
            mat = w @ np.diag(np.exp(1j * ang)) @ w.conj().T
            assert _same_up_to_phase(mat, gmzi.setting_matrix(plain, k), tol=1e-9)


def test_swing_restriction_to_subset():
    dev = gmzi.build_gmzi((4,))
    full = gmzi.phase_swing(dev)
    sub = gmzi.phase_swing(dev, restrict_to=[0, 1])
    assert sub <= full + 1e-12


def test_ternary_six_mode_settings_are_orthogonal():
    rows = gmzi.ternary_six_mode_mux_settings()
    assert rows.shape == (6, 6)
    a = -2 * np.pi / 3
    # first four rows form a 4-to-1 mux using only {0, -2pi/3}
    assert set(np.round(rows[:4].ravel(), 12)) == {0.0, round(a, 12)}
    vecs = np.exp(1j * rows) / np.sqrt(6)
    gram = vecs @ vecs.conj().T
    assert np.abs(gram - np.eye(6)).max() < 1e-9
    report = gmzi.check_mux_lemma(gmzi._dft_matrix(6), rows)
    assert report.ok
    # swing of the whole table is 4pi/3, of the first four rows 2pi/3
    spans = rows.max(axis=0) - rows.min(axis=0)
    assert abs(spans.max() - 4 * np.pi / 3) < 1e-12
    spans4 = rows[:4].max(axis=0) - rows[:4].min(axis=0)
    assert abs(spans4.max() - 2 * np.pi / 3) < 1e-12


def test_check_mux_lemma_accepts_devices_and_flags_tampering():
    dev = gmzi.build_gmzi((2, 2))
    assert gmzi.check_mux_lemma(dev).ok
    rows = gmzi.all_setting_angles(dev)
    rows[2, 1] += 0.3
    bad = gmzi.check_mux_lemma(dev.passive(), rows)
    assert not bad.ok and bad.hadamard_ok
    # non-flat passive fails the modulus condition
    assert not gmzi.check_mux_lemma(np.eye(4), np.zeros((1, 4))).ok
    with pytest.raises(ValueError):
        gmzi.check_mux_lemma(np.eye(4))


def test_quarter_swing_alphabet_orthogonal_sets():
    # angles {0, -pi/2}: even mode counts admit pairs but never triples,
    # odd mode counts admit no orthogonal pair at all
    alphabet = (0.0, -np.pi / 2)
    for n in range(2, 9):
        pairs = gmzi.search_orthogonal_phase_sets(n, alphabet, 2, max_sets=1)
        triples = gmzi.search_orthogonal_phase_sets(n, alphabet, 3, max_sets=1)
        if n % 2 == 0:
            assert pairs, f"expected an orthogonal pair at n={n}"
        else:
            assert not pairs, f"unexpected orthogonal pair at n={n}"
        assert not triples, f"unexpected orthogonal triple at n={n}"


def test_sub_quarter_swing_admits_no_orthogonal_pair():
    # any alphabet strictly inside an open quarter turn: no orthogonal pair
    for alphabet in [(0.0, -np.pi / 4), (0.0, -np.pi / 5, -2 * np.pi / 5)]:
        for n in range(2, 7):
            found = gmzi.search_orthogonal_phase_sets(n, alphabet, 2, max_sets=1)
            assert not found, f"pair found for alphabet {alphabet} at n={n}"


def test_search_orthogonal_sets_finds_hadamard_pairs():
    sets = gmzi.search_orthogonal_phase_sets(2, (0.0, -np.pi), 2, max_sets=4)
    assert sets and all(len(s) == 2 for s in sets)
    with pytest.raises(ValueError):
        gmzi.search_orthogonal_phase_sets(40, (0.0, -np.pi), 2)


def test_orthogonal_set_search_rejects_more_than_200k_vectors():
    # 2**18 = 262,144 vectors: over the bound, rejected before any is built
    with pytest.raises(ValueError, match="200000 phase vectors"):
        gmzi.search_orthogonal_phase_sets(18, (0.0, -np.pi), 2)


def test_switchable_pairwise_coupler():
    dev = gmzi.build_gmzi((2, 2, 2))
    p_in, out_a, out_b = 0, 3, 5
    for phi in np.linspace(0.0, np.pi, 9):
        angles, mat = gmzi.switchable_pairwise_coupler(dev, p_in, out_a, out_b, phi)
        assert _is_unitary(mat, tol=1e-10)
        # all amplitude stays on the two chosen ports, split by phi
        col = mat[:, p_in]
        assert abs(abs(col[out_a]) ** 2 - np.cos(phi / 2) ** 2) < 1e-9
        assert abs(abs(col[out_b]) ** 2 - np.sin(phi / 2) ** 2) < 1e-9
        others = [abs(col[q]) for q in range(8) if q not in (out_a, out_b)]
        assert max(others) < 1e-9
    # endpoints are the two pure settings
    _, m0 = gmzi.switchable_pairwise_coupler(dev, p_in, out_a, out_b, 0.0)
    assert _same_up_to_phase(m0, gmzi.setting_matrix(dev, p_in ^ out_a), tol=1e-9)
    _, m1 = gmzi.switchable_pairwise_coupler(dev, p_in, out_a, out_b, np.pi)
    assert _same_up_to_phase(m1, gmzi.setting_matrix(dev, p_in ^ out_b), tol=1e-9)
    with pytest.raises(ValueError):
        gmzi.switchable_pairwise_coupler(gmzi.build_gmzi((4,)), 0, 1, 2, 0.5)
    for ports in ((8, 3, 5), (-1, 3, 5), (0, 8, 5), (0, 3, -1)):
        with pytest.raises(ValueError, match="port out of range"):
            gmzi.switchable_pairwise_coupler(dev, *ports, 0.5)


def test_half_range_mzi():
    ident = gmzi.half_range_mzi(False, "hc")
    cross = gmzi.half_range_mzi(True, "hc")
    assert _same_up_to_phase(ident, np.eye(2), tol=1e-12)
    assert _same_up_to_phase(cross, gmzi.coupler_hc().conj().T, tol=1e-12)
    for variant in ("hc", "h"):
        for select in (False, True):
            assert _is_unitary(gmzi.half_range_mzi(select, variant), tol=1e-12)
    # the active part only ever moves by a quarter of a pi
    sel = gmzi.half_range_active_phases(True)
    unsel = gmzi.half_range_active_phases(False)
    assert np.abs(sel - unsel).max() == pytest.approx(np.pi / 4)
    with pytest.raises(ValueError):
        gmzi.half_range_mzi(True, "x")


def test_enlarged_gmzi_factorization():
    for n1, n2 in [(2, 3), (4, 4), (3, 5)]:
        seen = set()
        for k1 in range(n1):
            for k2 in range(n2):
                combined, s1, s2 = gmzi.enlarged_gmzi_factorization(n1, n2, k1, k2)
                assert np.array_equal(combined, s1 @ s2)
                assert np.array_equal(combined, s2 @ s1)
                expect = np.kron(
                    gmzi._perm_matrix((np.arange(n1) + k1) % n1),
                    gmzi._perm_matrix((np.arange(n2) + k2) % n2),
                )
                assert np.array_equal(combined, expect)
                seen.add(tuple(_matrix_to_mapping(combined)))
        # the two stages address n1 * n2 distinct joint settings
        assert len(seen) == n1 * n2
    with pytest.raises(ValueError):
        gmzi.enlarged_gmzi_factorization(0, 2, 0, 0)


def test_parallel_settings_count():
    assert gmzi.parallel_gmzi_settings_count([2, 2, 2]) == 8
    assert gmzi.parallel_gmzi_settings_count([6]) == 6
    assert gmzi.parallel_gmzi_settings_count([3, 3, 3]) == 27
    with pytest.raises(ValueError):
        gmzi.parallel_gmzi_settings_count([])
    with pytest.raises(ValueError):
        gmzi.parallel_gmzi_settings_count([2, 0])


def test_device_json_roundtrip_and_tamper_detection():
    dev = gmzi.build_gmzi((4, 2), offsets=np.linspace(-1.0, 0.0, 8))
    text = gmzi.device_to_json(dev)
    back = gmzi.device_from_json(text)
    assert back.factors == dev.factors
    assert np.allclose(back.offsets, dev.offsets)
    doc = json.loads(text)
    doc["N"] = 9
    with pytest.raises(ValueError):
        gmzi.device_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["settings"][1][0] += 0.25
    with pytest.raises(ValueError):
        gmzi.device_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{}",
        "null",
        '"spec"',
        '{"N": 2, "settings": [[0, 0]]}',
        '{"spec": [2], "N": 2}',
        '{"spec": 5, "N": 5, "settings": []}',
        '{"spec": null, "N": 2, "settings": []}',
        '{"spec": [[2]], "N": 2, "settings": []}',
        '{"spec": [2], "N": 2, "settings": [[0, 0], [0, {}]]}',
        '{"spec": [2], "N": 2, "offsets": {"a": 1}, "settings": [[0, 0]]}',
    ],
)
def test_device_from_json_rejects_malformed_payloads(text):
    with pytest.raises(ValueError):
        gmzi.device_from_json(text)


def test_build_gmzi_argument_checks():
    with pytest.raises(ValueError):
        gmzi.build_gmzi(())
    with pytest.raises(ValueError):
        gmzi.build_gmzi((0, 2))
    with pytest.raises(ValueError):
        gmzi.build_gmzi((2, 2), offsets=(0.0,))


@pytest.mark.parametrize("bad", [[2.7], [True, 2], [np.float64(4.0), 2], [np.True_], ["2"], [0, 2], [-1, -4]])
def test_every_factor_list_entry_point_takes_ints_only(bad):
    # 2.7 used to truncate to a 2-mode device; True counted as 1
    for call in (gmzi.cyclic_spec, gmzi.build_gmzi, gmzi.canonical_spec, gmzi.parallel_gmzi_settings_count):
        with pytest.raises(ValueError, match="factor"):
            call(bad)
    with pytest.raises(ValueError, match="factor"):
        gmzi.enlarged_gmzi_factorization(bad[0], 2, 0, 0)


def test_device_payload_with_a_float_spec_is_rejected():
    doc = json.loads(gmzi.device_to_json(gmzi.build_gmzi((2,))))
    doc["spec"] = [2.7]
    with pytest.raises(ValueError, match="factor"):
        gmzi.device_from_json(json.dumps(doc))


def test_cyclic_spec_is_the_one_factor_rule():
    spec = gmzi.cyclic_spec(np.array([4, 2]))
    assert spec == (4, 2) and {type(n) for n in spec} == {int}
    assert gmzi.cyclic_spec((3, 3), order=9) == (3, 3)
    assert gmzi.cyclic_spec(()) == gmzi.cyclic_spec((), order=1) == ()  # the trivial group
    with pytest.raises(ValueError, match="factor") as err:
        gmzi.cyclic_spec((3, 3), order=8)
    assert "order 8" in str(err.value)
    dev = gmzi.build_gmzi(np.array([2, 2]))
    assert dev.factors == (2, 2) and {type(n) for n in dev.factors} == {int}


def test_the_cli_default_type_is_the_prime_power_form_of_the_cyclic_group():
    for n in range(1, 1025):
        assert gmzi.prime_power_spec(n) == gmzi.classify_gmzi_types(n)[0] == gmzi.canonical_spec((n,))


def test_default_factorizations():
    assert [gmzi.binary_spec(n) for n in (1, 2, 6, 8)] == [(), (2,), (6,), (2, 2, 2)]
    assert [gmzi.prime_spec(n) for n in (1, 2, 12, 36)] == [(), (2,), (3, 2, 2), (3, 3, 2, 2)]


# sha256 of the device algebra and of every network builder's output: device
# and network JSON are kept by users, so these bytes must not move.  Specs
# cover non-power-of-two factors; BLAS and exp outputs are rounded to 9
# decimals so the digest does not depend on the platform's last bits.
DEVICE_DIGEST = "dbe89a05e6e39b56868d9dbff62df71cd439ea518a44a63eb378433ff3531af5"
DIGEST_SPECS = [(6,), (7, 5), (12,), (2, 3, 4), (16, 16), (2,) * 8]
DIGEST_NETWORKS = [
    ("log-tree", (8, 2)),
    ("log-tree", (9, 3)),
    ("chain", (10, 3)),
    ("delay-network", (8, 2)),
    ("delay-network", (12, 3)),
    ("storage-loop", (7, 4)),
    ("spanke", (6, 3)),
    ("spanke", (6, 3, True)),
    ("spanke", (16, 4)),
    ("concatenated-gmzi", (6, 3)),
    ("concatenated-gmzi", (12, 2)),
]


def _device_algebra_digest() -> str:
    h = hashlib.sha256()

    def feed(x):
        arr = np.ascontiguousarray(x)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())

    for spec in DIGEST_SPECS:
        n = math.prod(spec)
        for offsets in [None] + ([np.linspace(-np.pi, 0.0, n)] if n <= 64 else []):
            dev = gmzi.build_gmzi(spec, offsets=offsets)
            h.update(gmzi.device_to_json(dev).encode())
            h.update(repr([gmzi.setting_vector(dev, k) for k in range(n)]).encode())
            feed(gmzi.routing_table(dev))
            feed(gmzi.setting_permutation(dev, n - 1))
            feed(gmzi.all_setting_angles(dev))
            feed(np.stack([gmzi.setting_angles(dev, k) for k in range(n)]))
            feed(gmzi.active_setting_angles(dev))
            feed(gmzi.active_setting_angles(dev, restrict_to=[n - 1, 0, 1]))
            for k in sorted({0, 1, n - 1}):
                feed(np.round(gmzi.setting_matrix(dev, k), 9) + 0j)
            rep = gmzi.check_mux_lemma(dev)
            h.update(repr((
                rep.hadamard_ok,
                rep.orthonormal_ok,
                round(rep.max_modulus_deviation, 9),
                round(rep.max_gram_deviation, 9),
            )).encode())
        for stage in gmzi.decompose_stages(gmzi.build_gmzi(spec)).stages:
            feed(stage.pre)
            feed(stage.post)
            h.update(repr(stage.crossings()).encode())
    h.update(repr([gmzi.classify_gmzi_types(n) for n in range(1, 65)]).encode())
    for name, args in DIGEST_NETWORKS:
        net = networks.BUILDERS[name](*args)
        h.update(networks.network_to_json(net).encode())
        h.update(repr(networks.metrics(net)).encode())
    return h.hexdigest()


def test_device_algebra_digest_is_frozen():
    assert _device_algebra_digest() == DEVICE_DIGEST


def _device_json_oracle(dev) -> str:
    # the payload device_to_json writes, through the stdlib encoder
    def fmt(x):
        return float(f"{float(x):.15g}")

    payload = {
        "spec": list(dev.factors),
        "N": dev.n_modes,
        "offsets": None if dev.offsets is None else [fmt(x) for x in dev.offsets],
        "settings": [[fmt(a) for a in row] for row in gmzi.all_setting_angles(dev).tolist()],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("spec", DIGEST_SPECS)
def test_device_json_equals_the_stdlib_encoder(spec):
    n = math.prod(spec)
    special = np.resize([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 0.0], n)
    for offsets in (None, np.linspace(-np.pi, 0.0, n), special):
        dev = gmzi.build_gmzi(spec, offsets=offsets)
        assert gmzi.device_to_json(dev) == _device_json_oracle(dev)


def test_device_json_keeps_signed_zeros_apart():
    # angles are deduplicated by bit pattern; 0.0 == -0.0 but they print differently
    assert gmzi._json_floats([0.0, -0.0, 0.0, -0.0]).tolist() == ["0.0", "-0.0", "0.0", "-0.0"]
    dev = gmzi.build_gmzi((2,), offsets=[-0.0, 0.0])
    text = gmzi.device_to_json(dev)
    assert text == _device_json_oracle(dev)
    assert '"offsets": [\n    -0.0,\n    0.0\n  ]' in text


def _within_64(factors):
    # longest prefix whose product stays <= 64 (the first factor always fits)
    out = []
    for f in factors:
        if math.prod(out) * f > 64:
            break
        out.append(f)
    return out


def _loop_angles(factors):
    # digit-by-digit reference: terms k_l t_l / n_l summed in factor order
    def digits(i):
        out = []
        for f in reversed(factors):
            i, d = divmod(i, f)
            out.append(d)
        return out[::-1]

    n = math.prod(factors)
    return gmzi._canonical_angle([
        [-2.0 * np.pi * sum(kl * tl / nl for kl, tl, nl in zip(digits(k), digits(t), factors)) for t in range(n)]
        for k in range(n)
    ])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=5).map(_within_64))
def test_setting_angles_match_the_digit_loop_bit_for_bit(factors):
    dev = gmzi.build_gmzi(factors)
    assert np.array_equal(gmzi.all_setting_angles(dev), _loop_angles(factors))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=5).map(_within_64))
def test_routing_table_is_the_kronecker_shift_group(factors):
    # independent oracle: the Kronecker product of single-factor cyclic shifts
    dev = gmzi.build_gmzi(factors)
    table = gmzi.routing_table(dev)
    n = dev.n_modes
    want = np.arange(n)
    assert table.shape == (n, n)
    assert (np.sort(table, axis=0) == want[:, None]).all()
    assert (np.sort(table, axis=1) == want[None, :]).all()
    for k in range(n):
        oracle = _matrix_to_mapping(_setting_permutation_matrix(dev, k))
        assert np.array_equal(table[k], oracle)
        assert np.array_equal(gmzi.setting_permutation(dev, k), oracle)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 40), max_size=60))
def test_inversions_match_the_pairwise_count(values):
    pairwise = sum(1 for i in range(len(values)) for j in range(i + 1, len(values)) if values[i] > values[j])
    assert gmzi._inversions(values) == pairwise
    assert gmzi._inversions(np.array(values, dtype=np.int64)) == pairwise


def test_devices_compare_and_hash_by_value():
    a = gmzi.build_gmzi((4, 2))
    b = gmzi.build_gmzi([4, 2])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != gmzi.build_gmzi((2, 4))
    assert a != gmzi.build_gmzi((8,))
    offs = np.linspace(-1.0, 0.0, 8)
    c = gmzi.build_gmzi((4, 2), offsets=offs)
    assert c != a and a != c
    assert c == gmzi.build_gmzi((4, 2), offsets=offs.copy())
    assert hash(c) == hash(gmzi.build_gmzi((4, 2), offsets=offs.copy()))
    assert c != gmzi.build_gmzi((4, 2), offsets=offs + 0.5)
    assert gmzi.device_from_json(gmzi.device_to_json(a)) == a
    phased = gmzi.GmziDevice(a.factors, a.n_modes, None, np.full(8, 0.25))
    assert phased != a
    assert a != "not a device"
