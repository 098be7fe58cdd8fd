"""Dense complex linear algebra on numpy arrays.

Inner products are conjugate-linear in the first argument throughout the
package: <u, v> = sum_i conj(u_i) v_i.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeError, SizeCapError, ValidationError

ARITH_TOL = 1e-10

_POWER_ITER_CAP = 1000
_POWER_START_SEED = 0x9E3779B9


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce to a C-ordered 2-d complex128 array with finite entries."""
    m = np.array(obj, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def kron(a: np.ndarray, b: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Kronecker product, big-endian: composite index = i_left * dim_right + i_right."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if cap is not None and max(rows, cols) > cap:
        raise SizeCapError(f"kron result {rows}x{cols} exceeds cap {cap}")
    return np.kron(a, b)


def hermitian_eig(a: np.ndarray, tol: float = ARITH_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and descending,
    eigenvectors as orthonormal columns.  Each column is phase-normalized so
    its first component of modulus above 1e-12 is positive real, which makes
    the output deterministic for a given input.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {a.shape}")
    residual = float(np.max(np.abs(a - a.conj().T)))
    if residual > tol:
        raise ValidationError(
            f"matrix is not self-adjoint within {tol:g}: max residual {residual:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    values = values[::-1].astype(float)
    vectors = np.array(vectors[:, ::-1], order="C")
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        nonzero = np.nonzero(np.abs(v) > 1e-12)[0]
        if nonzero.size:
            pivot = v[nonzero[0]]
            vectors[:, col] = v * (np.conj(pivot) / abs(pivot))
    return values, vectors


def _power_start(dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(_POWER_START_SEED))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def operator_norm_matvec(matvec, rmatvec, dim: int, tol: float = ARITH_TOL,
                         max_iter: int = _POWER_ITER_CAP) -> float:
    """Lower estimate of the largest singular value of a linear map given by
    matvec/rmatvec callables.

    Power iteration on the normal operator x -> A*(A x) with a fixed,
    deterministic start vector.  The estimate never exceeds the true value,
    so it is no upper bound; when the top singular values are close the
    iteration may stop short or raise NumericalError at max_iter.
    """
    v = _power_start(dim)
    lam_prev = -np.inf
    for _ in range(max_iter):
        w = rmatvec(matvec(v))
        norm_w = float(np.linalg.norm(w))
        if norm_w < 1e-300:
            return 0.0
        v = w / norm_w
        lam = norm_w
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-30):
            return float(np.sqrt(lam))
        lam_prev = lam
    raise NumericalError(
        f"operator norm power iteration did not converge in {max_iter} steps"
    )


def operator_norm(a: np.ndarray, tol: float = ARITH_TOL,
                  max_iter: int = _POWER_ITER_CAP) -> float:
    """Lower estimate of the largest singular value by power iteration on
    a*a; see operator_norm_matvec."""
    a = as_complex_matrix(a)
    adj = a.conj().T
    return operator_norm_matvec(lambda v: a @ v, lambda v: adj @ v,
                                a.shape[1], tol=tol, max_iter=max_iter)
