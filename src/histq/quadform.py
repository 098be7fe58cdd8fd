"""Quadratic-form representation on the algebraic tensor product.

Elements are finite sums of simple tensors x_1 (x) ... (x) x_n of single-time
operators.  The product map Pi sends a simple tensor to the reversed product
x_n x_{n-1} ... x_1, and the form is D(z, w) = tr(Pi(w)^dagger Pi(z) rho).
On projection tensors D agrees with the time-ordered evaluator, and on unit
vectors of the doubled space it exhibits linear growth, the finite shadow of
unboundedness.

With rho = S S^dagger for the d x r matrix S of weighted eigenvectors, the
form is the inner product <Pi(w) S, Pi(z) S>.  D_form applies each term's
factors to S in time order and never forms Pi as a d x d product, so one
evaluation costs O(terms * n * d^2 * rank rho).  The unboundedness probe
reads z_N from the (row, column) indices of its matrix units: a unit
|e_r><e_c| moves row c of S to row r, so it sums D(t_j, 1) = <S, Pi(t_j) S>
over the terms t_j of z_N in O(N * rank rho) work, with no N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import matrixcore
from .errors import ShapeError, SizeCapError, ValidationError
from .historyspace import DensityOperator, checked_int
from .seeding import generator

# largest probe size N: a probe costs O(N * rank rho) work and memory, about
# 0.2 s and 120 MB at N = 2**20 on one 2-vCPU Xeon core; the cap refuses
# larger sizes before their length-N arrays are allocated
PROBE_SIZE_CAP = 2 ** 20


@dataclass(frozen=True, eq=False)
class SimpleTensorSum:
    """A finite sum of simple tensors; the empty sum is the zero element."""

    order: int
    single_dim: int
    terms: tuple[tuple[np.ndarray, ...], ...]


def simple_tensor_sum(terms, order: int | None = None,
                      single_dim: int | None = None) -> SimpleTensorSum:
    """Validate factor shapes and assemble a SimpleTensorSum.

    Factors that are already C-ordered complex128 arrays are kept, not copied.
    A declared order or dim passes the integer rule of `checked_int` first.
    """
    if order is not None:
        order = checked_int(order, "tensor-sum order")
    if single_dim is not None:
        single_dim = checked_int(single_dim, "tensor-sum dim")
    parsed = []
    for term in terms:
        factors = tuple(matrixcore.as_square_matrix(f, "tensor factor") for f in term)
        if not factors:
            raise ShapeError("a tensor-sum term needs at least one factor")
        parsed.append(factors)
    if parsed:
        orders = {len(t) for t in parsed}
        dims = {f.shape[0] for t in parsed for f in t}
        if len(orders) != 1:
            raise ShapeError(f"terms have mixed orders {sorted(orders)}")
        if len(dims) != 1:
            raise ShapeError(f"factors have mixed dimensions {sorted(dims)}")
        t_order, t_dim = orders.pop(), dims.pop()
        if order is not None and order != t_order:
            raise ShapeError(f"declared order {order} != term order {t_order}")
        if single_dim is not None and single_dim != t_dim:
            raise ShapeError(f"declared dim {single_dim} != factor dim {t_dim}")
        order, single_dim = t_order, t_dim
    if order is None or single_dim is None:
        raise ShapeError("empty tensor sum needs explicit order and single_dim")
    if order < 1 or single_dim < 1:
        raise ShapeError(f"tensor-sum order and dim must be positive, got {order}, {single_dim}")
    return SimpleTensorSum(order=order, single_dim=single_dim, terms=tuple(parsed))


def identity_element(single_dim: int, order: int) -> SimpleTensorSum:
    eye = np.eye(single_dim, dtype=np.complex128)
    return simple_tensor_sum([tuple(eye for _ in range(order))])


def _apply_pi(z: SimpleTensorSum, cols: np.ndarray) -> np.ndarray:
    """Pi(z) @ cols, applying each term's factors to cols in time order."""
    acc = np.zeros((z.single_dim, cols.shape[1]), dtype=np.complex128)
    for term in z.terms:
        out = cols
        for factor in term:
            out = factor @ out
        acc += out
    return acc


def pi_map(z: SimpleTensorSum) -> np.ndarray:
    """Linear product map: each term contributes x_n x_{n-1} ... x_1."""
    return _apply_pi(z, np.eye(z.single_dim, dtype=np.complex128))


def _state_image(rho: DensityOperator, z: SimpleTensorSum) -> np.ndarray:
    """Pi(z) S for the weighted eigenvectors S = V sqrt(w), so rho = S S^dagger."""
    if z.single_dim != rho.dim:
        raise ShapeError("tensor sums must match the state dimension")
    return _apply_pi(z, rho.vectors * np.sqrt(rho.weights))


def D_form(rho: DensityOperator, z: SimpleTensorSum, w: SimpleTensorSum) -> complex:
    """D(z, w) = tr(Pi(w)^dagger Pi(z) rho) = <Pi(w) S, Pi(z) S>."""
    if z.order != w.order:
        raise ShapeError(f"order mismatch {z.order} vs {w.order}")
    return complex(np.vdot(_state_image(rho, w), _state_image(rho, z)))


@dataclass(frozen=True)
class UniquenessReport:
    probe_count: int
    seed: int
    max_deviation: float


def random_tensor_sum(d: int, n: int, rng: np.random.Generator) -> SimpleTensorSum:
    """One to three random simple tensors, each of n complex Gaussian d x d
    factors scaled by 1/sqrt(d)."""
    d, n = checked_int(d, "d", low=1), checked_int(n, "n", low=1)
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        factors = []
        for _ in range(n):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            factors.append(g / np.sqrt(d))
        terms.append(tuple(factors))
    return simple_tensor_sum(terms, order=n, single_dim=d)


def uniqueness_check(rho: DensityOperator, q_eval, order: int,
                     probe_count: int = 50, seed: int = 0) -> UniquenessReport:
    """Max |q_eval(u, v) - D(u, v)| over seeded random simple-tensor sums.

    Any bounded form that agrees with the functional on projection tensors
    must agree everywhere, so a nonzero deviation flags a defective
    candidate; the check is an agreement test on probes, not a proof.
    ``order`` and ``probe_count`` must be integers >= 1 and ``seed`` an
    integer >= 0; all three are checked before any probe is drawn.
    """
    order = checked_int(order, "order", low=1)
    probe_count = checked_int(probe_count, "probe_count", low=1)
    seed = checked_int(seed, "seed", low=0)
    rng = generator(seed, "probe")
    worst = 0.0
    for _ in range(probe_count):
        u = random_tensor_sum(rho.dim, order, rng)
        v = random_tensor_sum(rho.dim, order, rng)
        dev = abs(complex(q_eval(u, v)) - D_form(rho, u, v))
        worst = max(worst, dev)
    return UniquenessReport(probe_count=probe_count, seed=seed, max_deviation=float(worst))


@dataclass(frozen=True)
class ProbeRow:
    size: int
    norm: float
    value: float


def _ladder_units(n_dim: int):
    """z_N = sum_j |e_j><e_1| (x) |e_1><e_j| as the (row, column) indices of
    its matrix units: term j is |e_r><e_c| (x) |e_r'><e_c'| with
    (r, c) = (x_rows[j], x_cols[j]) and (r', c') = (y_rows[j], y_cols[j])."""
    j, first = np.arange(n_dim), np.zeros(n_dim, dtype=np.intp)
    return (j, first), (first, j)


def unboundedness_probe(sizes) -> list[ProbeRow]:
    """Growth table: for each N report the norm of z_N and delta(z_N) = D(z_N, 1).

    The value grows like N while the element norm stays 1, witnessing that
    no uniform bound C with |D(z, w)| <= C ||z|| ||w|| exists.  Each term of
    z_N acts on S as the row moves of its matrix units, so no N x N array is
    formed.  Every size is checked before any is probed.

    Raises
    ------
    ValidationError
        If a size is not an integer.
    ShapeError
        If a size is not positive.
    SizeCapError
        If a size exceeds `PROBE_SIZE_CAP`.
    """
    sizes = [checked_int(n_dim, "probe size") for n_dim in sizes]
    for n_dim in sizes:
        if n_dim < 1:
            raise ShapeError(f"probe size must be positive, got {n_dim}")
        if n_dim > PROBE_SIZE_CAP:
            raise SizeCapError(f"probe size {n_dim} exceeds cap {PROBE_SIZE_CAP}")
    rows = []
    for n_dim in sizes:
        (x_rows, x_cols), (y_rows, y_cols) = _ladder_units(n_dim)
        # the pure state e_1 has S = e_1
        s = np.eye(n_dim, 1, dtype=np.complex128)
        # x = |e_r><e_c| puts row c of S in row r and y = |e_r'><e_c'| moves
        # row c' to row r', so Pi(t_j) S is row c of S at row r' if c' = r,
        # else 0; its vdot with Pi(1) S = S is D(t_j, 1), summed in term order
        moved = np.where((y_cols == x_rows)[:, None], s[x_cols], 0)
        value = sum(np.einsum("jr,jr->j", s[y_rows].conj(), moved).tolist(), 0j)
        if abs(value.imag) > 1e-9:
            raise ValidationError(f"probe value has imaginary part {value.imag:.3e}")
        # the N unit entries of z_N sit at rows j * N and columns j, no two
        # in one row or one column, so its operator norm is exactly 1
        rows.append(ProbeRow(size=n_dim, norm=1.0, value=float(value.real)))
    return rows
