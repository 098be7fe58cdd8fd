import re

import numpy as np
import pytest

from histq import matrixcore as mc
from histq.decoherence import build_M
from histq.divergence import truncated_d
from histq.errors import ShapeError, ValidationError
from histq.historyspace import density_from_matrix, density_from_spectral, validate_projection
from histq.quadform import simple_tensor_sum
from histq.serialize import dump_json, matrix_from_json, matrix_to_json

from conftest import pure_e1, random_proj


def test_as_complex_matrix_coerces():
    m = mc.as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_imaginary_parts_are_rejected(bad, tmp_path):
    # the one matrix rule: every reader and writer of a matrix raises the same
    # error for the same malformed input; bad sits in a real or an imaginary part,
    # and entries that are not numbers are refused, not coerced
    real_bad = np.eye(2, dtype=np.complex128)
    real_bad[1, 0] = complex(bad, 0.0)
    imag_bad = np.eye(2, dtype=np.complex128)
    imag_bad[1, 0] = complex(0.0, bad)
    non_finite = (ValidationError, "matrix contains non-finite entries")

    def not_numbers(dtype):
        return (ValidationError, f"matrix entries must be numbers, got dtype {dtype}")

    cases = [(real_bad, non_finite), (imag_bad, non_finite),
             (np.ones(4), (ShapeError, "expected a 2-d array, got ndim=1")),
             ([1, 2, 3], (ShapeError, "expected a 2-d array, got ndim=1")),
             (np.zeros((0, 2)), (ShapeError, "matrix dimensions must be positive, got (0, 2)")),
             (np.ones((2, 3)), None),
             ([["1", "0"], ["0", "1"]], not_numbers("<U1")),
             (np.eye(2, dtype=bool), not_numbers("bool")), ([[None]], not_numbers("object")),
             (object(), not_numbers("object")), ({"rows": 1}, not_numbers("object")),
             ([[1, 0], [0]], (ValidationError, "cannot read a matrix from list"))]
    path = tmp_path / "m.json"

    def from_json(m):
        data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        return matrix_from_json({"rows": m.shape[0], "cols": m.shape[1], "data": data})

    def pair(m):
        return truncated_d(pure_e1(2), m, "identity")

    # each call with the noun of its square check, or None where any shape is read
    calls = [(mc.as_complex_matrix, None), (from_json, None), (matrix_to_json, None),
             (lambda m: dump_json(m, str(path)), None),
             (validate_projection, "projection"), (density_from_matrix, "density matrix"),
             (lambda m: simple_tensor_sum([(m,)]), "tensor factor"), (pair, "pair operator")]
    for m, want in cases:
        for call, noun in calls:
            if call is from_json and not (isinstance(m, np.ndarray) and m.ndim == 2
                                          and m.dtype.kind in "fc"):
                continue  # a matrix JSON object declares rows and cols and holds numbers
            if call is pair and not isinstance(m, np.ndarray):
                continue  # a pair operator is a builtin name, a history projection or an array
            if want is None and noun is None:
                call(m)
                path.unlink(missing_ok=True)
                continue
            err, message = want or (ShapeError, f"{noun} must be square, got (2, 3)")
            with pytest.raises(err, match=f"^{re.escape(message)}$"):
                call(m)
            assert not path.exists()
    for m, want in cases:
        if want is not None and want[0] is ValidationError:
            with pytest.raises(ValidationError, match=f"^{re.escape(want[1])}$"):
                density_from_spectral([0.5, 0.5], m)


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
