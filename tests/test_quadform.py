import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from histq import matrixcore as mc
from histq import quadform as qf
from histq.decoherence import d_direct
from histq.errors import ShapeError, SizeCapError, ValidationError
from histq.historyspace import density_matrix, homogeneous_history

from conftest import (P1, assemble, haar_unitary, ladder_element, pure_e1, pure_state,
                      random_density, random_proj, reassociate, spectrum_state)

X1 = np.array([[1, 2], [3, 4]], dtype=np.complex128)
X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def test_simple_tensor_sum_validates_complex_factors_without_copying():
    z = qf.simple_tensor_sum([(X1, X2)])
    assert z.terms[0][0] is X1 and z.terms[0][1] is X2
    f0, f1 = qf.simple_tensor_sum([(np.eye(2), np.asfortranarray(X1))]).terms[0]
    assert f0.dtype == f1.dtype == np.complex128
    assert f0.flags["C_CONTIGUOUS"] and f1.flags["C_CONTIGUOUS"]
    assert np.array_equal(f1, X1)
    with pytest.raises(ValidationError, match="non-finite"):
        qf.simple_tensor_sum([(X1, np.array([[np.nan, 0], [0, 1]], dtype=np.complex128))])
    with pytest.raises(ShapeError, match="2-d"):
        qf.simple_tensor_sum([(X1, np.ones(4, dtype=np.complex128))])


def test_pi_map_single_term_reversed_product():
    z = qf.simple_tensor_sum([(X1, X2)])
    assert np.array_equal(qf.pi_map(z), X2 @ X1)


def test_pi_map_is_additive_over_terms():
    z = qf.simple_tensor_sum([(X1, X2), (X2, X1)])
    assert np.array_equal(qf.pi_map(z), X2 @ X1 + X1 @ X2)


def test_pi_map_empty_sum_is_zero():
    z = qf.simple_tensor_sum([], order=2, single_dim=2)
    assert np.array_equal(qf.pi_map(z), np.zeros((2, 2)))
    assert np.array_equal(assemble(z), np.zeros((4, 4)))


def test_simple_tensor_sum_rejections():
    with pytest.raises(ShapeError, match="mixed orders"):
        qf.simple_tensor_sum([(X1, X2), (X1,)])
    with pytest.raises(ShapeError, match="mixed dimensions"):
        qf.simple_tensor_sum([(X1, np.eye(3))])
    with pytest.raises(ShapeError, match="square"):
        qf.simple_tensor_sum([(np.ones((2, 3)), X2)])
    with pytest.raises(ShapeError, match="empty"):
        qf.simple_tensor_sum([])
    with pytest.raises(ShapeError, match="declared order"):
        qf.simple_tensor_sum([(X1, X2)], order=3)
    with pytest.raises(ShapeError, match="declared dim"):
        qf.simple_tensor_sum([(X1, X2)], single_dim=3)
    with pytest.raises(ShapeError, match="at least one factor"):
        qf.simple_tensor_sum([(X1,), ()])
    with pytest.raises(ShapeError, match="at least one factor"):
        qf.simple_tensor_sum([()], order=0, single_dim=2)


@pytest.mark.parametrize("order, dim", [(-1, 2), (0, 2), (2, 0), (1, -3), (0.0, 2),
                                        (2.5, 2), (True, 2), (2, 1.5), (2, False)])
def test_empty_tensor_sum_needs_a_positive_order_and_dim(order, dim):
    # the integer rule comes first: a bool or a non-integral number is
    # refused before it is compared, an integral float is its int
    if any(isinstance(x, bool) or x % 1 for x in (order, dim)):
        with pytest.raises(ValidationError, match="^tensor-sum (order|dim) must be an integer"):
            qf.simple_tensor_sum([], order=order, single_dim=dim)
    else:
        with pytest.raises(ShapeError, match="must be positive"):
            qf.simple_tensor_sum([], order=order, single_dim=dim)


def test_identity_element_normalization(rng):
    for d, n in ((2, 2), (3, 2), (2, 3)):
        rho = random_density(d, rng)
        one = qf.identity_element(d, n)
        assert one.order == n and one.single_dim == d
        assert abs(qf.D_form(rho, one, one) - 1.0) <= 1e-12


def test_d_form_matches_direct_on_projection_tensors(rng):
    for d, n in ((2, 2), (3, 2), (2, 3)):
        rho = random_density(d, rng)
        for _ in range(7):
            mats_h = [random_proj(d, rng) for _ in range(n)]
            mats_k = [random_proj(d, rng) for _ in range(n)]
            v1 = qf.D_form(rho, qf.simple_tensor_sum([tuple(mats_h)]),
                           qf.simple_tensor_sum([tuple(mats_k)]))
            v2 = d_direct(rho, homogeneous_history(mats_h), homogeneous_history(mats_k))
            assert abs(v1 - v2) <= 1e-10


def test_d_form_diagonal_nonnegative(rng):
    rho = random_density(2, rng)
    for _ in range(20):
        z = qf.random_tensor_sum(2, 2, rng)
        v = qf.D_form(rho, z, z)
        assert v.real >= -1e-9
        assert abs(v.imag) <= 1e-12


def test_d_form_shape_errors(rng):
    rho = random_density(2, rng)
    with pytest.raises(ShapeError, match="order"):
        qf.D_form(rho, qf.identity_element(2, 2), qf.identity_element(2, 3))
    with pytest.raises(ShapeError, match="dimension"):
        qf.D_form(rho, qf.identity_element(3, 2), qf.identity_element(3, 2))


@pytest.mark.parametrize("spectrum", ["full", "rank-deficient", "near-degenerate"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_d_form_matches_dense_oracle(d, n, spectrum):
    rng = np.random.default_rng([d, n, len(spectrum)])
    rho = spectrum_state(spectrum, d, rng)
    dense_rho = density_matrix(rho)
    for _ in range(5):
        z = qf.random_tensor_sum(d, n, rng)
        w = qf.random_tensor_sum(d, n, rng)
        for x in (z, w):
            # the reversed products x_n ... x_1 summed over terms
            product = sum(reduce(np.matmul, reversed(term)) for term in x.terms)
            assert np.max(np.abs(qf.pi_map(x) - product)) <= 1e-12
        want = np.trace(qf.pi_map(w).conj().T @ qf.pi_map(z) @ dense_rho)
        assert abs(qf.D_form(rho, z, w) - want) <= 1e-12


def _gram(rho, basis):
    # G[i, j] = D(z_i, z_j) over a basis, formed entry by entry from D_form
    return np.array([[qf.D_form(rho, zi, zj) for zj in basis] for zi in basis],
                    dtype=np.complex128).reshape(len(basis), len(basis))


def test_gram_matches_d_form_and_is_exactly_hermitian(rng):
    rho = random_density(3, rng)
    basis = [qf.random_tensor_sum(3, 2, rng) for _ in range(5)]
    g = _gram(rho, basis)
    assert np.array_equal(g, g.conj().T)
    for i, zi in enumerate(basis):
        for j, zj in enumerate(basis):
            assert abs(g[i, j] - qf.D_form(rho, zi, zj)) <= 1e-12


def test_gram_of_identity():
    g = _gram(pure_e1(2), [qf.identity_element(2, 2)])
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - 1.0) <= 1e-12


def test_gram_null_vector_exact():
    # Pi of (P1, I) annihilates the e1 state, so the second basis element
    # is a null direction of the semi-inner product
    basis = [qf.identity_element(2, 2), qf.simple_tensor_sum([(P1, np.eye(2))])]
    g = _gram(pure_e1(2), basis)
    assert np.array_equal(g, np.array([[1, 0], [0, 0]], dtype=np.complex128))


def test_gram_hermitian_psd(rng):
    rho = random_density(2, rng)
    basis = [qf.random_tensor_sum(2, 2, rng) for _ in range(4)]
    g = _gram(rho, basis)
    assert np.allclose(g, g.conj().T, atol=1e-12)
    assert float(np.linalg.eigvalsh(g).min()) >= -1e-9


def test_reassociate_preserves_element(rng):
    rho = random_density(2, rng)
    w = qf.random_tensor_sum(2, 2, rng)
    for seed in (0, 1, 2):
        z = qf.random_tensor_sum(2, 2, rng)
        z2 = reassociate(z, seed)
        assert np.allclose(assemble(z), assemble(z2), atol=1e-10)
        assert abs(qf.D_form(rho, z, w) - qf.D_form(rho, z2, w)) <= 1e-10


def test_uniqueness_check_reflexive(rng):
    rho = random_density(2, rng)
    report = qf.uniqueness_check(rho, lambda u, v: qf.D_form(rho, u, v), 2,
                                 probe_count=20, seed=5)
    assert report.max_deviation == 0.0
    assert report.probe_count == 20
    assert report.seed == 5


def test_uniqueness_check_flags_planted_defect(rng):
    rho = random_density(2, rng)
    report = qf.uniqueness_check(rho, lambda u, v: qf.D_form(rho, u, v) + 0.1, 2,
                                 probe_count=20, seed=5)
    assert abs(report.max_deviation - 0.1) <= 1e-9


def test_uniqueness_check_deterministic(rng):
    rho = random_density(2, rng)
    fn = lambda u, v: qf.D_form(rho, u, v)
    r1 = qf.uniqueness_check(rho, fn, 2, probe_count=10, seed=9)
    r2 = qf.uniqueness_check(rho, fn, 2, probe_count=10, seed=9)
    assert r1 == r2


def test_ladder_element_structure():
    z = ladder_element(3)
    assert len(z.terms) == 3
    assert z.order == 2
    dense = assemble(z)
    assert float(np.linalg.svd(dense, compute_uv=False)[0]) == pytest.approx(1.0, abs=1e-12)


def test_probe_norm_matches_dense_oracle():
    for n_dim in range(1, 17):
        dense = assemble(ladder_element(n_dim))
        # the entry positions the constant norm 1 rests on: distinct rows and columns
        rows, cols = np.nonzero(dense)
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(j * n_dim, j) for j in range(n_dim)]
        row = qf.unboundedness_probe([n_dim])[0]
        assert row.norm == 1.0
        assert abs(row.norm - np.linalg.norm(dense, 2)) <= 1e-12


def _unit(d, left, right):
    """The simple tensor |i_1><j_1| (x) ... (x) |i_n><j_n| for I = left, J = right."""
    factors = []
    for i, j in zip(left, right):
        x = np.zeros((d, d), dtype=np.complex128)
        x[i, j] = 1.0
        factors.append(x)
    return qf.simple_tensor_sum([tuple(factors)])


@pytest.mark.parametrize("state", ["pure", "full-rank"])
@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_unboundedness_certificate_is_d_to_the_n_minus_1(d, n, state):
    # z -> D(z, 1) is Z -> tr(Z R) with R[J, I] = D(|I><J|, 1), so its
    # supremum over ||z|| <= 1 is the trace norm of R, which is d^(n-1)
    # for every state because R is a permutation of rho (x) 1
    rng = np.random.default_rng([d, n, len(state)])
    rho = (pure_state(haar_unitary(d, rng)[:, 0]) if state == "pure"
           else random_density(d, rng))
    one = qf.identity_element(d, n)
    slots = list(itertools.product(range(d), repeat=n))
    r = np.array([[qf.D_form(rho, _unit(d, left, right), one) for left in slots]
                  for right in slots])
    trace_norm = float(np.linalg.svd(r, compute_uv=False).sum())
    assert abs(trace_norm - d ** (n - 1)) <= 1e-9


def test_probe_witness_attains_the_certificate():
    # at single-time dimension N and order 2 the supremum is N; z_N has
    # norm 1 and value N, so the probe's witness is extremal
    for n_dim in range(2, 5):
        z = ladder_element(n_dim)
        assert abs(mc.operator_norm(assemble(z)) - 1.0) <= 1e-12
        value = qf.D_form(pure_e1(n_dim), z, qf.identity_element(n_dim, 2))
        assert abs(value - n_dim) <= 1e-12


def test_ladder_form_is_n_times_the_first_diagonal_entry_of_the_state():
    # each term |e_j><e_1| (x) |e_1><e_j| of z_N sends S to e_1 e_1^dagger S,
    # so D(z_N, 1) = N rho_11 for every state: an analytic oracle for the
    # generic D_form, checked on mixed states where the probe's e_1 gives N
    rng = np.random.default_rng(2106)
    for n_dim in range(1, 9):
        rho = random_density(n_dim, rng)
        value = qf.D_form(rho, ladder_element(n_dim), qf.identity_element(n_dim, 2))
        assert abs(value - n_dim * rho.matrix[0, 0].real) <= 1e-12


def test_probe_linear_growth():
    rows = qf.unboundedness_probe([1, 2, 4, 8, 16])
    for row in rows:
        assert abs(row.norm - 1.0) <= 1e-9
        assert row.value == float(row.size)


def _reference_probe_value(n_dim):
    # delta(z_N) as a sum of D_form over freshly allocated terms of z_N,
    # each evaluated against the identity element in full
    rho = pure_e1(n_dim)
    one = qf.identity_element(n_dim, 2)
    total = 0j
    for j in range(n_dim):
        x = np.zeros((n_dim, n_dim), dtype=np.complex128)
        x[j, 0] = 1.0
        y = np.zeros((n_dim, n_dim), dtype=np.complex128)
        y[0, j] = 1.0
        total += qf.D_form(rho, qf.simple_tensor_sum([(x, y)]), one)
    return total


def test_probe_is_bit_identical_to_the_per_term_form_sum():
    sizes = list(range(1, 65))
    rows = qf.unboundedness_probe(sizes)
    for n_dim, row in zip(sizes, rows):
        want = _reference_probe_value(n_dim)
        assert row.size == n_dim
        assert np.float64(row.value).tobytes() == np.float64(want.real).tobytes()


def test_ladder_element_holds_one_unit_per_factor():
    z = ladder_element(3)
    for j, (x, y) in enumerate(z.terms):
        assert np.flatnonzero(x).tolist() == [3 * j] and np.flatnonzero(y).tolist() == [j]


def test_probe_rejects_bad_size():
    with pytest.raises(ShapeError, match="positive"):
        qf.unboundedness_probe([0])
    with pytest.raises(ShapeError, match="positive"):
        qf.unboundedness_probe([4, -1])


@pytest.mark.parametrize("size", [2.5, True, "4", None])
def test_probe_checks_sizes_are_integers_before_probing(size, monkeypatch):
    def never(n_dim):
        raise AssertionError(f"probed N={n_dim}")
    monkeypatch.setattr(qf, "_ladder_units", never)
    with pytest.raises(ValidationError, match="probe size must be an integer"):
        qf.unboundedness_probe([4, size])


def test_probe_takes_integral_floats_and_numpy_integers():
    rows = qf.unboundedness_probe([4.0, np.int64(3), np.uint8(2)])
    assert [(r.size, type(r.size), r.value) for r in rows] == [
        (4, int, 4.0), (3, int, 3.0), (2, int, 2.0)]


@pytest.mark.parametrize("sizes", [[qf.PROBE_SIZE_CAP + 1], [4, 2**21]])
def test_probe_refuses_sizes_above_the_cap_before_probing(sizes, monkeypatch):
    # every size is checked before the first one is probed
    def never(n_dim):
        raise AssertionError(f"probed N={n_dim}")
    monkeypatch.setattr(qf, "_ladder_units", never)
    with pytest.raises(SizeCapError, match="exceeds cap"):
        qf.unboundedness_probe(sizes)


def test_probe_memory_stays_linear():
    # one N x N complex array at N = 2**16 is 64 GiB; the row moves hold a
    # few length-N arrays, about 8 MB
    tracemalloc.start()
    try:
        rows = qf.unboundedness_probe([2**16])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[0].value == 2.0**16
    assert peak < 16 * 2**20

