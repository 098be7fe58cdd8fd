"""Validated domain objects for history quantum mechanics.

Projections and density operators are validated on construction and never
silently repaired.  Histories are finite time-sequences of single-time
projections; their tensor embedding lives on a space of dimension d**n,
with the leftmost Kronecker factor belonging to the earliest time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matrixcore
from .errors import ShapeError, ValidationError

VALIDATION_TOL = 1e-8

# decoherence's method names live here, so that the CLI builds its parser
# without importing it
METHODS = ("direct", "series", "ils", "stream")


def checked_int(val, what: str, low: int | None = None) -> int:
    """val as an int of at least ``low``; bools, strings and non-integral
    numbers are rejected."""
    if (isinstance(val, bool) or not isinstance(val, numbers.Real)
            or not (isinstance(val, numbers.Integral) or float(val).is_integer())):
        raise ValidationError(f"{what} must be an integer, got {val!r}")
    val = int(val)
    if low is not None and val < low:
        raise ValidationError(f"{what} must be >= {low}, got {val}")
    return val


def checked_float(val, what: str, positive: bool = False) -> float:
    """val as a float; bools, strings and other non-real values are rejected,
    and with ``positive`` so are numbers that are not positive and finite."""
    if ((type(val) not in (float, int)
         and (isinstance(val, bool) or not isinstance(val, numbers.Real)))
            or positive and not 0.0 < val < math.inf):
        rule = "positive and finite" if positive else "a number"
        raise ValidationError(f"{what} must be {rule}, got {val!r}")
    return float(val)


@dataclass(frozen=True)
class Projection:
    """A validated orthogonal projection matrix.

    Attributes
    ----------
    matrix : np.ndarray
        Square complex matrix with ``P @ P == P`` and ``P == P^dagger``
        within the validation tolerance.
    dim : int
        Side length of the matrix.
    rank : int
        Rounded trace; validation guarantees the trace is within tolerance
        of this integer.
    """

    matrix: np.ndarray
    dim: int
    rank: int


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A state in spectral form: weights and orthonormal vectors.

    Attributes
    ----------
    dim : int
        Dimension of the single-time Hilbert space.
    weights : np.ndarray
        Nonnegative reals summing to one.
    vectors : np.ndarray
        dim x r complex matrix whose columns are orthonormal; column i is
        the eigenvector carrying ``weights[i]``.
    trace_residual : float
        |sum of the input weights - 1| before they were renormalized: the
        distance of the given state from unit trace.
    matrix : np.ndarray
        The dense matrix sum_i w_i |psi_i><psi_i|, formed on first use and
        read-only.  The constructors of this module make ``weights`` and
        ``vectors`` read-only too, so the cached matrix cannot go stale.

    States compare and hash by identity.
    """

    dim: int
    weights: np.ndarray
    vectors: np.ndarray
    trace_residual: float

    @cached_property
    def matrix(self) -> np.ndarray:
        m = (self.vectors * self.weights) @ self.vectors.conj().T
        m.flags.writeable = False
        return m


@dataclass(frozen=True)
class HomogeneousHistory:
    """A time-ordered sequence of single-time projections on one space."""

    order: int
    single_dim: int
    projections: tuple[Projection, ...]


@dataclass(frozen=True)
class HistoryProjection:
    """A projection on the n-fold tensor power of the single-time space."""

    projection: Projection
    order: int
    single_dim: int

    @property
    def matrix(self) -> np.ndarray:
        return self.projection.matrix

    @property
    def dim(self) -> int:
        return self.projection.dim


def projection_residuals(m: np.ndarray) -> tuple[float, float]:
    """The max-entry norms of ``m - m^dagger`` and ``m @ m - m`` of a square
    complex matrix: its distances from self-adjoint and from idempotent."""
    return float(np.abs(m - m.conj().T).max()), float(np.abs(m @ m - m).max())


def validate_projection(m, tol: float = VALIDATION_TOL) -> Projection:
    """Validate a matrix as an orthogonal projection.

    Parameters
    ----------
    m : array_like
        Candidate square matrix.
    tol : float
        Acceptance tolerance for the max-entry norms of ``P@P - P`` and
        ``P - P^dagger`` and for the distance of the trace from an integer;
        positive and finite.

    Returns
    -------
    Projection

    Raises
    ------
    ShapeError
        If the matrix is not square.
    ValidationError
        If idempotence, self-adjointness, or trace integrality fails; the
        message reports the offending maximum residual.  Also if ``tol`` is
        not positive and finite.
    """
    tol = checked_float(tol, "tol", positive=True)
    # a copy, so that a Projection never aliases its input
    m = matrixcore.as_complex_matrix(np.array(m, dtype=np.complex128, order="C"))
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"projection must be square, got {m.shape}")
    herm, idem = projection_residuals(m)
    if herm > tol:
        raise ValidationError(f"not self-adjoint: max residual {herm:.3e} > {tol:g}")
    if idem > tol:
        raise ValidationError(f"not idempotent: max residual {idem:.3e} > {tol:g}")
    tr = m.trace()
    rank = int(round(tr.real))
    if abs(tr - rank) > tol:
        raise ValidationError(
            f"trace {tr:.6g} is not within {tol:g} of an integer rank"
        )
    return Projection(matrix=m, dim=m.shape[0], rank=rank)


def density_from_spectral(weights, vectors, tol: float = VALIDATION_TOL) -> DensityOperator:
    """Build a density operator from explicit weights and column vectors.

    Weights within ``-1e-12`` of zero are clamped to zero; the weight sum is
    renormalized only when it is already within ``tol`` of one, and its
    distance from one is kept as ``trace_residual``.  Columns must
    be orthonormal within ``tol``, which must be positive and finite.
    """
    tol = checked_float(tol, "tol", positive=True)
    w = np.array(weights, dtype=float)
    v = np.array(vectors, dtype=np.complex128, order="C")
    if v.ndim != 2:
        raise ShapeError("vectors must form a 2-d column matrix")
    if w.ndim != 1 or w.size != v.shape[1]:
        raise ShapeError("need exactly one weight per column vector")
    if v.shape[1] > v.shape[0]:
        raise ShapeError("more vectors than the space dimension allows")
    if not w.size:
        raise ValidationError("spectral data needs at least one weight")
    if not (np.isfinite(w).all() and np.isfinite(v.view(np.float64)).all()):
        raise ValidationError("non-finite spectral data")
    if np.min(w) < -1e-12:
        raise ValidationError(f"negative weight {np.min(w):.3e}")
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if abs(total - 1.0) > tol:
        raise ValidationError(f"weights sum to {total:.9g}, not 1 within {tol:g}")
    w = w / total
    gram = v.conj().T @ v
    gram_res = float(np.max(np.abs(gram - np.eye(v.shape[1]))))
    if gram_res > tol:
        raise ValidationError(f"vectors not orthonormal: Gram residual {gram_res:.3e}")
    w.flags.writeable = v.flags.writeable = False
    return DensityOperator(dim=v.shape[0], weights=w, vectors=v,
                           trace_residual=abs(total - 1.0))


def density_from_matrix(m, tol: float = VALIDATION_TOL) -> DensityOperator:
    """Spectral form of a density matrix.

    Parameters
    ----------
    m : array_like
        Square matrix with unit trace, self-adjoint within ``tol``, and no
        eigenvalue below ``-tol``.
    tol : float
        Validation tolerance, positive and finite.

    Returns
    -------
    DensityOperator
        Eigenvalues are clamped at zero from below (only within ``-tol``)
        and renormalized to sum to one; ``trace_residual`` is the distance
        of the clamped eigenvalues' sum from one.
    """
    tol = checked_float(tol, "tol", positive=True)
    m = matrixcore.as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"density matrix must be square, got {m.shape}")
    tr = np.trace(m)
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"trace {tr:.9g} differs from 1 beyond {tol:g}")
    values, vectors = matrixcore.hermitian_eig(m, tol=tol)
    if float(np.min(values)) < -tol:
        raise ValidationError(f"negative eigenvalue {np.min(values):.3e} below -{tol:g}")
    return density_from_spectral(np.clip(values, 0.0, None), vectors, tol=tol)


def density_matrix(rho: DensityOperator) -> np.ndarray:
    """The dense matrix sum_i w_i |psi_i><psi_i|: the read-only
    ``rho.matrix``, reassembled once per state."""
    return rho.matrix


def completed_basis(rho: DensityOperator) -> DensityOperator:
    """Extend the spectral vectors to a full orthonormal basis, zero-weighted.

    Deterministic: candidates are the standard basis vectors in order,
    Gram-Schmidt reduced against the columns collected so far.
    """
    d = rho.dim
    r = rho.vectors.shape[1]
    if r == d:
        return rho
    cols = [rho.vectors[:, i].copy() for i in range(r)]
    for k in range(d):
        if len(cols) == d:
            break
        cand = np.zeros(d, dtype=np.complex128)
        cand[k] = 1.0
        for c in cols:
            cand = cand - c * np.vdot(c, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 1e-6:
            cols.append(cand / norm)
    if len(cols) != d:
        raise ValidationError("failed to complete the spectral basis")
    weights = np.concatenate([rho.weights, np.zeros(d - r)])
    vectors = np.column_stack(cols)
    weights.flags.writeable = vectors.flags.writeable = False
    return DensityOperator(dim=d, weights=weights, vectors=vectors,
                           trace_residual=rho.trace_residual)


def homogeneous_history(projections, tol: float = VALIDATION_TOL) -> HomogeneousHistory:
    """Validate a sequence of same-dimension projections as a history."""
    if len(projections) < 1:
        raise ShapeError("a history needs at least one time step")
    validated = []
    for p in projections:
        validated.append(p if isinstance(p, Projection) else validate_projection(p, tol))
    dims = {p.dim for p in validated}
    if len(dims) != 1:
        raise ShapeError(f"all single-time projections must share one dimension, got {sorted(dims)}")
    return HomogeneousHistory(order=len(validated), single_dim=validated[0].dim,
                              projections=tuple(validated))


def history_projection(m, order: int, single_dim: int,
                       tol: float = VALIDATION_TOL) -> HistoryProjection:
    """Validate a matrix as a projection on the order-fold tensor space."""
    p = m if isinstance(m, Projection) else validate_projection(m, tol)
    if p.dim != single_dim ** order:
        raise ShapeError(
            f"matrix dimension {p.dim} is not {single_dim}**{order}"
        )
    return HistoryProjection(projection=p, order=order, single_dim=single_dim)


def pad_history(h: HomogeneousHistory, order: int) -> HomogeneousHistory:
    """Append identity projections at the trailing times up to ``order``."""
    if order < h.order:
        raise ShapeError(f"cannot pad order {h.order} down to {order}")
    if order == h.order:
        return h
    eye = validate_projection(np.eye(h.single_dim, dtype=np.complex128))
    return HomogeneousHistory(order=order, single_dim=h.single_dim,
                              projections=h.projections + (eye,) * (order - h.order))


def embed_homogeneous(h: HomogeneousHistory) -> HistoryProjection:
    """Kronecker embedding of a homogeneous history, earliest time leftmost.

    The factors were validated when the history was built, and a Kronecker
    product of projections is a projection whose rank is the product of
    theirs, so the product is not validated again: its residuals compound
    those of the factors and could fail the tolerance the factors met.  Any
    dimension d**n is embedded; the command line checks its history cap.
    """
    dim = h.single_dim ** h.order
    # np.kron's outer product and reshape, one factor at a time, started from
    # a copy so that a one-time embedding does not alias its factor
    mat = h.projections[0].matrix.copy()
    for p in h.projections[1:]:
        f = p.matrix
        mat = (mat[:, None, :, None] * f[None, :, None, :]).reshape(
            mat.shape[0] * f.shape[0], mat.shape[1] * f.shape[1])
    rank = math.prod(p.rank for p in h.projections)
    return HistoryProjection(projection=Projection(matrix=mat, dim=dim, rank=rank),
                             order=h.order, single_dim=h.single_dim)


def orthogonal(p: HistoryProjection, q: HistoryProjection,
               tol: float = VALIDATION_TOL) -> bool:
    """True iff the max-entry norm of ``p @ q`` is at most ``tol``."""
    if p.dim != q.dim:
        raise ShapeError(f"dimension mismatch {p.dim} vs {q.dim}")
    return float(np.max(np.abs(p.matrix @ q.matrix))) <= tol


def sum_projection(parts, *, tol: float = VALIDATION_TOL) -> HistoryProjection:
    """Sum of one or more pairwise-orthogonal history projections,
    revalidated."""
    parts = list(parts)
    orders = {p.order for p in parts}
    dims = {p.single_dim for p in parts}
    if len(orders) != 1 or len(dims) != 1:
        raise ShapeError("summands must share order and single-time dimension")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not orthogonal(parts[i], parts[j], tol):
                raise ValidationError(f"summands {i} and {j} are not orthogonal")
    total = sum(p.matrix for p in parts)
    return history_projection(total, parts[0].order, parts[0].single_dim, tol=tol)
