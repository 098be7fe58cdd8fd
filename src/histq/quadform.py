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
sums D(t_j, 1) = <Pi(1) S, Pi(t_j) S> over the terms t_j of z_N by
linearity in z, forming Pi(1) S once per N and writing each term's two
factors into the same two reused buffers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from . import matrixcore
from .errors import ShapeError, SizeCapError, ValidationError
from .historyspace import DensityOperator, density_from_spectral
from .seeding import generator

# largest probe size N: a probe costs O(N^3) over N x N buffers, about 0.19 s
# at N = 512 and 1.3 s at N = 1024 on one 2-vCPU Xeon core, so the next
# power of two would take about ten seconds
PROBE_SIZE_CAP = 1024


@dataclass(frozen=True)
class SimpleTensorSum:
    """A finite sum of simple tensors; the empty sum is the zero element."""

    order: int
    single_dim: int
    terms: tuple[tuple[np.ndarray, ...], ...]


def simple_tensor_sum(terms, order: int | None = None,
                      single_dim: int | None = None) -> SimpleTensorSum:
    """Validate factor shapes and assemble a SimpleTensorSum.

    Factors that are already C-ordered complex128 arrays are kept, not copied.
    """
    parsed = []
    for term in terms:
        factors = tuple(matrixcore.as_complex_matrix(f) for f in term)
        for f in factors:
            if f.shape[0] != f.shape[1]:
                raise ShapeError(f"tensor factor must be square, got {f.shape}")
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


def gns_gram(rho: DensityOperator, basis) -> np.ndarray:
    """Gram matrix G[i, j] = D(z_i, z_j); Hermitian positive semidefinite.

    Null vectors of G span the degenerate directions of the semi-inner
    product within the span of the basis.  Pi(z_i) S is formed once per
    basis element and G is one product of those images.
    """
    basis = list(basis)
    orders = {z.order for z in basis}
    if len(orders) > 1:
        raise ShapeError(f"basis has mixed orders {sorted(orders)}")
    images = np.empty((len(basis), rho.vectors.size), dtype=np.complex128)
    for i, z in enumerate(basis):
        images[i] = _state_image(rho, z).reshape(-1)
    g = images @ images.conj().T
    upper = np.triu(g, 1)
    return upper + upper.conj().T + np.diag(np.diag(g).real)


def assemble(z: SimpleTensorSum, cap: int = 4096) -> np.ndarray:
    """Dense Kronecker assembly of the element; for oracles and small probes."""
    dim = z.single_dim ** z.order
    if dim > cap:
        raise ShapeError(f"assembled dimension {dim} exceeds cap {cap}")
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for term in z.terms:
        acc += reduce(np.kron, term)
    return acc


def reassociate(z: SimpleTensorSum, seed: int = 0) -> SimpleTensorSum:
    """Rewrite z as a different SimpleTensorSum for the same element.

    Moves random nonzero scalars between adjacent slots and splits terms by
    scalar decomposition of the first factor.  Used to check representation
    independence of the form.
    """
    rng = generator(seed, "probe")
    new_terms = []
    for term in z.terms:
        factors = [f.copy() for f in term]
        if len(factors) >= 2:
            c = complex(0.5 + rng.random() * 1.5) * np.exp(2j * np.pi * rng.random())
            factors[0] = factors[0] * c
            factors[1] = factors[1] / c
        if rng.random() < 0.5:
            alpha = 0.25 + 0.5 * rng.random()
            first = [factors[0] * alpha] + factors[1:]
            second = [factors[0] * (1.0 - alpha)] + factors[1:]
            new_terms.extend([tuple(first), tuple(second)])
        else:
            new_terms.append(tuple(factors))
    return simple_tensor_sum(new_terms, order=z.order, single_dim=z.single_dim)


@dataclass(frozen=True)
class UniquenessReport:
    probe_count: int
    seed: int
    max_deviation: float

    def as_dict(self) -> dict:
        return asdict(self)


def random_tensor_sum(d: int, n: int, rng: np.random.Generator,
                      max_terms: int = 3) -> SimpleTensorSum:
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
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
    """
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


def _ladder_terms(n_dim: int):
    """The terms |e_j><e_1| (x) |e_1><e_j| of z_N, produced one at a time.

    Every term is written into the same two N x N buffers, one entry set
    before it is yielded and cleared after, so a yielded term is valid only
    until the next one; copy its factors to keep them.
    """
    x = np.zeros((n_dim, n_dim), dtype=np.complex128)
    y = np.zeros((n_dim, n_dim), dtype=np.complex128)
    for j in range(n_dim):
        x[j, 0] = y[0, j] = 1.0
        yield x, y
        x[j, 0] = y[0, j] = 0.0


def _ladder_element(n_dim: int) -> SimpleTensorSum:
    """z_N = sum_j |e_j><e_1| (x) |e_1><e_j| inside a dim-N single-time space."""
    return simple_tensor_sum(((x.copy(), y.copy()) for x, y in _ladder_terms(n_dim)),
                             order=2, single_dim=n_dim)


def unboundedness_probe(sizes) -> list[ProbeRow]:
    """Growth table: for each N report the norm of z_N and delta(z_N) = D(z_N, 1).

    The value grows like N while the element norm stays 1, witnessing that
    no uniform bound C with |D(z, w)| <= C ||z|| ||w|| exists.  The terms of
    z_N are written one at a time into two reused N x N buffers and
    evaluated against Pi(1) S, which is formed once per N, so memory stays
    O(N^2).  Every size is checked before any is probed.

    Raises
    ------
    ShapeError
        If a size is not positive.
    SizeCapError
        If a size exceeds `PROBE_SIZE_CAP`.
    """
    sizes = [int(n_dim) for n_dim in sizes]
    for n_dim in sizes:
        if n_dim < 1:
            raise ShapeError(f"probe size must be positive, got {n_dim}")
        if n_dim > PROBE_SIZE_CAP:
            raise SizeCapError(f"probe size {n_dim} exceeds cap {PROBE_SIZE_CAP}")
    rows = []
    for n_dim in sizes:
        xi = np.zeros((n_dim, 1), dtype=np.complex128)
        xi[0, 0] = 1.0
        rho = density_from_spectral([1.0], xi)
        one = _state_image(rho, identity_element(n_dim, 2))
        s = rho.vectors * np.sqrt(rho.weights)
        # D is linear in z, so delta(z_N) is the sum over the terms t_j of
        # z_N of D(t_j, 1) = <Pi(1) S, Pi(t_j) S>, with Pi(1) S formed once
        # and Pi(x (x) y) S = y (x S) applied as `_apply_pi` applies it
        value = sum((complex(np.vdot(one, y @ (x @ s)))
                     for x, y in _ladder_terms(n_dim)), 0j)
        if abs(value.imag) > 1e-9:
            raise ValidationError(f"probe value has imaginary part {value.imag:.3e}")
        # the N unit entries of z_N sit at rows j * N and columns j, no two
        # in one row or one column, so its operator norm is exactly 1
        rows.append(ProbeRow(size=n_dim, norm=1.0, value=float(value.real)))
    return rows
