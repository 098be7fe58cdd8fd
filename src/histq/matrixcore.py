"""Dense complex linear algebra on numpy arrays.

Inner products are conjugate-linear in the first argument throughout the
package: <u, v> = sum_i conj(u_i) v_i.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeError, ValidationError

ARITH_TOL = 1e-10


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce to a C-ordered 2-d complex128 array with finite entries.

    An array that is already C-ordered complex128 is checked and returned
    as is, not copied.
    """
    m = np.asarray(obj, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    # m is C-ordered complex128, so its float64 view holds every real and
    # imaginary part; testing that is cheaper than complex isfinite
    if not np.isfinite(m.view(np.float64)).all():
        raise ValidationError("matrix contains non-finite entries")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, big-endian: composite index = i_left * dim_right + i_right."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


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


def operator_norm_matvec(matvec, rmatvec, dim: int) -> float:
    """Largest singular value of a linear map on C^dim given by matvec/rmatvec
    callables.

    Assembles A*A column by column from the unit vectors and returns the
    square root of its top eigenvalue, clipped at 0.
    """
    gram = np.column_stack([rmatvec(matvec(e))
                            for e in np.eye(dim, dtype=np.complex128)])
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(float(top), 0.0)))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.norm(as_complex_matrix(a), 2))
