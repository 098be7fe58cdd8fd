import numpy as np
import pytest

from histq import matrixcore as mc
from histq.decoherence import build_M
from histq.errors import ShapeError, ValidationError
from histq.historyspace import density_from_spectral
from histq.serialize import matrix_from_json

from conftest import random_proj


def test_as_complex_matrix_coerces():
    m = mc.as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.flags["C_CONTIGUOUS"]


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        mc.as_complex_matrix([1, 2, 3])
    with pytest.raises(ShapeError):
        mc.as_complex_matrix(np.zeros((0, 2)))


def test_as_complex_matrix_rejects_non_finite():
    with pytest.raises(ValidationError):
        mc.as_complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        mc.as_complex_matrix([[np.inf, 0], [0, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_imaginary_parts_are_rejected(bad):
    # the real parts are finite; only the imaginary part of one entry is not
    m = np.eye(2, dtype=np.complex128)
    m[1, 0] = complex(0.0, bad)
    with pytest.raises(ValidationError, match="non-finite"):
        mc.as_complex_matrix(m)
    with pytest.raises(ValidationError, match="non-finite"):
        density_from_spectral([0.5, 0.5], m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    with pytest.raises(ValidationError, match="non-finite"):
        matrix_from_json({"rows": 2, "cols": 2, "data": data})


def test_kron_block_structure():
    a = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    b = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    k = mc.kron(a, b)
    expected = np.array([
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ], dtype=np.complex128)
    assert np.array_equal(k, expected)


def test_kron_big_endian_indexing(rng):
    # vectorized complex multiply may contract with FMA, so allow a few ULP
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    k = mc.kron(a, b)
    for i1 in range(2):
        for i2 in range(3):
            for j1 in range(2):
                for j2 in range(3):
                    gap = abs(k[i1 * 3 + i2, j1 * 3 + j2] - a[i1, j1] * b[i2, j2])
                    assert gap <= 1e-14


def test_kron_on_vectors_defining_property(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    v = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    lhs = mc.kron(a, b) @ mc.kron(u, v)
    rhs = mc.kron(a @ u, b @ v)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_kron_matmul_interchange(rng):
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(4))
    assert np.allclose(mc.kron(a, b) @ mc.kron(c, d),
                       mc.kron(a @ c, b @ d), atol=1e-12)


def test_trace_multiplicative_under_kron(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.isclose(np.trace(mc.kron(a, b)), np.trace(a) * np.trace(b), atol=1e-10)


def test_hermitian_eig_diagonal():
    values, vectors = mc.hermitian_eig(np.diag([2.0, 5.0, 3.0]))
    assert np.array_equal(values, [5.0, 3.0, 2.0])
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_hermitian_eig_plus_projector():
    values, vectors = mc.hermitian_eig(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(values, [1.0, 0.0], atol=1e-12)
    # pivot phase convention: leading nonzero component positive real
    assert vectors[0, 0].real > 0 and abs(vectors[0, 0].imag) < 1e-12


def test_hermitian_eig_reconstructs(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = (a + a.conj().T) / 2
    values, vectors = mc.hermitian_eig(a)
    assert np.all(np.diff(values) <= 1e-12)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(5), atol=1e-10)
    assert np.allclose((vectors * values) @ vectors.conj().T, a, atol=1e-9)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        mc.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=np.complex128))


def test_hermitian_eig_deterministic(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (a + a.conj().T) / 2
    v1, w1 = mc.hermitian_eig(a)
    v2, w2 = mc.hermitian_eig(a.copy())
    assert v1.tobytes() == v2.tobytes()
    assert w1.tobytes() == w2.tobytes()


def test_operator_norm_identity_and_scaled_projection(rng):
    assert np.isclose(mc.operator_norm(np.eye(6)), 1.0, atol=1e-9)
    p = random_proj(5, rng, rank=2)
    assert np.isclose(mc.operator_norm(2.0 * p), 2.0, atol=1e-8)


def test_operator_norm_zero():
    assert mc.operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_matches_svd_oracle(rng):
    for _ in range(5):
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        top = float(np.linalg.svd(a, compute_uv=False)[0])
        assert abs(mc.operator_norm(a) - top) <= 1e-12 * top


def test_operator_norm_adjoint_invariant(rng):
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert np.isclose(mc.operator_norm(a), mc.operator_norm(a.conj().T), rtol=1e-8)


def test_operator_norm_matvec_matches_dense(rng):
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    adj = a.conj().T
    est = mc.operator_norm_matvec(lambda v: a @ v, lambda v: adj @ v, 7)
    assert np.isclose(est, mc.operator_norm(a), rtol=1e-8)


def test_operator_norm_exact_on_close_top_singular_values():
    # a power iteration stalls or stops short on both: the top two singular
    # values of M for weights (0.50001, 0.49999) differ by 2e-5, those of
    # diag(1, 1 - 1e-7) by 1e-7
    rho = density_from_spectral([0.50001, 0.49999], np.eye(2))
    cases = ((build_M(rho, 2, 2).matrix, 0.50001), (np.diag([1.0, 1.0 - 1e-7]), 1.0))
    for a, expected in cases:
        adj = a.conj().T
        assert abs(mc.operator_norm(a) - expected) <= 1e-12
        est = mc.operator_norm_matvec(lambda v: a @ v, lambda v: adj @ v, a.shape[1])
        assert abs(est - expected) <= 1e-12
