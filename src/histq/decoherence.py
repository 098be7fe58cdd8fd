"""Independent constructions of the standard decoherence functional.

For a state rho with spectral form sum_i w_i |psi_i><psi_i| and homogeneous
histories h = (h_1, ..., h_n), k = (k_1, ..., k_n) the functional is

    d(h, k) = tr(h_n ... h_1 rho k_1 ... k_n).

`d_direct` evaluates that product literally.  `d_series` expands the same
number as a finite sum over basis-index tuples (j_1, ..., j_2n): each tuple
contributes w_{j_1} <eps_tilde, (h (x) k) eps> where eps and eps_tilde are
simple tensors on the doubled space assembled from psi_{j_1} and standard
basis vectors, with inner products conjugate-linear in the first argument.
`build_M` packs the same rank-one data into a single kernel operator M on
the doubled space so that d(p, q) = tr((p (x) q) M) for arbitrary history
projections p, q, including inhomogeneous ones.

Tuple slot layout (1-based index names, zero-based code): eps places
psi_{j_1} first, then e_{j_2n}, ..., e_{j_{n+2}} and e_{j_2}, ..., e_{j_{n+1}};
eps_tilde places e_{j_2n}, ..., e_{j_{n+1}} first, then psi_{j_1} and
e_{j_2}, ..., e_{j_n}.  Both families are orthonormal.  Summed, they give
M[(a,u,w,v), (u',v',b,w')] = rho[a,b] delta(u,u') delta(v,v') delta(w,w')
with a, b, v single-time indices and u, w indices of the first n-1 times, so
M is a row and column permutation of rho (x) 1: trace(M) = 1 and the
singular values of M are the weights of rho.  The same structure factorizes
the trace across the tensor cut, d(p, q) = tr(A(p) rho B(q)) with the partial
traces A(p)[v,t] = sum_u p[(u,v),(t,u)] and B(q)[t,v] = sum_w q[(t,w),(w,v)].
`partial_traces` takes them of a whole stack of projections at once, and
`partial_trace_from_columns` takes A(V V^dagger) from the columns V alone,
as the excess search keeps its projections.

Each method has one evaluation function, which gives a single value for
two arguments and the Gram matrix G[i, j] = d(p_i, q_j) of two lists:
``stream`` contracts the stacked partial traces with rho without
materializing M, G[i, j] = tr(A(p_i) rho B(q_j)), and `d_via_M_streaming`
is its [0, 0] entry; ``ils`` forms vec(P) @ K @ vec(Q)^T with the realigned
kernel K of `d_via_M` below, contracted over K's nonzero entries, and
`d_via_M` is its [0, 0] entry; ``series`` sums the tuples of one h against
one k or a stack of them, so a Gram takes one call per row; ``direct``
traces left rho right for one pair of time-ordered products or, broadcast,
for a stack of each.

The series sum caches the table of all tuples for each (rank rho, d, n) as
flat positions into h and k; a call gathers from each of them in one step
the entries every tuple needs and sums over the single-time index t along
an outer axis.  Accumulation is still lexicographic and left to right.
Complex products are formed on real and imaginary parts because numpy's
SIMD loops for complex-array multiply may fuse multiply-adds (FMA), while
its scalar complex multiply does not; this way the value is bit-identical
to the per-tuple scalar expansion.  `d_via_M` contracts the
materialized kernel through its realignment K[(a,c),(b,e)] = M[(c,e),(a,b)],
so tr((p (x) q) M) = vec(p) @ K @ vec(q).  Being a permutation of rho (x) 1,
M has only nnz(rho) D^2 / d nonzero entries of its D^4, with D = d^n, so
the contraction gathers vec(p) and vec(q) at the positions of those entries
alone and never forms K: a wrong M still gives a wrong value, and ``ils``
stays an oracle independent of ``stream``.

All four functions and the ``value`` and ``gram`` of the `Evaluator` that
`make_evaluator` binds to (rho, d, n) take history projections and
homogeneous histories alike (``direct`` only the latter), and one normalizer
checks, pads and embeds them for every method.  The free functions take d
from the state, or from the kernel for `d_via_M`, and n as the larger order
of their two arguments, or the kernel's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError
from .historyspace import (
    DensityOperator,
    HistoryProjection,
    HomogeneousHistory,
    density_matrix,
    embed_homogeneous,
    history_projection,
    homogeneous_history,
    pad_history,
    sum_projection,
    validate_projection,
)
from .seeding import generator

DEFAULT_MATERIALIZE_CAP = 1024


@dataclass(frozen=True)
class ILSOperator:
    """Kernel operator M on the doubled history space.

    Satisfies trace(M) = 1 within 1e-9 and operator norm at most 1 + 1e-8;
    both are checked by `build_M`, which also makes ``matrix`` read-only.
    The excess search reads rho from the slice M[(a,0,0,0), (0,0,b,0)].
    ``state_fingerprint`` hashes the state.  ``pair_entries`` holds the
    nonzero entries of the realigned kernel that `d_via_M` contracts.
    """

    matrix: np.ndarray
    order: int
    single_dim: int
    state_fingerprint: str

    @cached_property
    def pair_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of the realignment K[(a,c),(b,e)] = M[(c,e),(a,b)]
        of the kernel, so that tr((p (x) q) M) = vec(p) @ K @ vec(q) for
        row-major vec, as read-only (rows, cols, values) in the row-major
        order of M's nonzero entries.  Read from M on first use; build_M does
        not read them."""
        dim = self.single_dim ** self.order
        # a boolean mask finds the entries several times faster than a
        # complex array's own nonzero test
        flat = np.flatnonzero(self.matrix != 0)
        c, e, a, b = np.unravel_index(flat, (dim,) * 4)
        entries = (a * dim + c, b * dim + e, self.matrix.take(flat))
        for x in entries:
            x.flags.writeable = False
        return entries


def state_fingerprint(rho: DensityOperator) -> str:
    h = hashlib.sha256()
    h.update(b"histq-density-v1")
    h.update(int(rho.dim).to_bytes(4, "little"))
    h.update(np.ascontiguousarray(rho.weights).tobytes())
    h.update(np.ascontiguousarray(rho.vectors).tobytes())
    return h.hexdigest()


def _normalize(method: str, d: int, n: int, xs) -> tuple:
    """The arguments of every evaluator, checked against (d, n), padded and,
    except for ``direct``, embedded by the rules of `Evaluator`."""
    out = []
    for x in xs:
        homogeneous = isinstance(x, HomogeneousHistory)
        if x.single_dim != d:
            raise ShapeError(f"single-time dimension {x.single_dim} does not match "
                             f"the evaluator's {d}")
        if x.order > n or (x.order != n and not homogeneous):
            raise ShapeError(f"order {x.order} does not fit the evaluator's order {n}")
        if homogeneous:
            x = pad_history(x, n)
            if method != "direct":
                x = embed_homogeneous(x, cap=d ** n)
        elif method == "direct":
            raise ShapeError("evaluator direct needs homogeneous histories")
        out.append(x)
    return tuple(out)


def _left_product(h: HomogeneousHistory) -> np.ndarray:
    # h_n ... h_1
    return reduce(np.matmul, [p.matrix for p in reversed(h.projections)])


def _right_product(k: HomogeneousHistory) -> np.ndarray:
    # k_1 ... k_n
    return reduce(np.matmul, [p.matrix for p in k.projections])


def _direct_values(rho_m: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """tr(left rho right) over the last two axes, broadcast over the rest:
    one value for two d x d products, a Gram for a (k, 1, d, d) stack of
    left products against an (l, d, d) stack of right ones."""
    return np.trace(left @ rho_m @ right, axis1=-2, axis2=-1)


def _direct_gram(rho_m: np.ndarray, ps, qs) -> np.ndarray:
    # the arguments are checked by the caller
    left = np.array([_left_product(h) for h in ps])
    right = np.array([_right_product(k) for k in qs])
    return _direct_values(rho_m, left[:, None], right)


def d_direct(rho: DensityOperator, h: HomogeneousHistory, k: HomogeneousHistory) -> complex:
    """Time-ordered product evaluation tr(h_n ... h_1 rho k_1 ... k_n)."""
    h, k = _normalize("direct", rho.dim, max(h.order, k.order), (h, k))
    return complex(_direct_values(density_matrix(rho), _left_product(h), _right_product(k)))


def _place_value(digits, d: int):
    # big-endian composite index of an index sequence, leftmost most significant
    out = 0
    for j in digits:
        out = out * d + j
    return out


def _real_product(xr, xi, yr, yi):
    # complex product on real and imaginary parts, rounded as numpy's scalar
    # complex multiply rounds; array complex multiply may fuse into FMAs
    return xr * yr - xi * yi, xr * yi + xi * yr


@lru_cache(maxsize=16)
def _tuple_table(rank: int, d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tuple table of `d_series` for a state of rank ``rank`` at (d, n).

    Returns the weight index j0 of each tuple, in lexicographic order, and
    the flat positions of the entries each tuple reads for each t:
    flat_h[t, T] = row_a * D + t * r + u and flat_k[t, T] = (t * r + w) * D
    + col_b, with D = d^n, r = d^(n-1), row_a = (u, v) and col_b = (w, v)
    in the slots below.  The arrays are read-only, since every call shares
    them; the bound on cached keys keeps large tables from piling up.
    """
    J = np.indices((rank,) + (d,) * (2 * n - 1)).reshape(2 * n, -1)
    # tuple slots: u = (j_2n, ..., j_{n+2}), v = j_{n+1}, w = (j_2, ..., j_n)
    u = _place_value(J[2 * n - 1:n:-1], d)
    w = _place_value(J[1:n], d)
    dim, r = d ** n, d ** (n - 1)
    shift = (np.arange(d) * r)[:, None]
    j0 = J[0].copy()
    flat_h = (u * d + J[n]) * dim + shift + u
    flat_k = (shift + w) * dim + w * d + J[n]
    for table in (j0, flat_h, flat_k):
        table.flags.writeable = False
    return j0, flat_h, flat_k


def _series_values(rho: DensityOperator, d: int, n: int, h: np.ndarray,
                   k: np.ndarray) -> np.ndarray:
    """The series sum for one (D, D) history matrix h against k, which is
    one (D, D) matrix or an (l, D, D) stack: a 0-d value or a Gram row.

    Tuples are visited in lexicographic order and accumulated left to right,
    skipping those of zero weight.  Each contribution splits across the
    doubled-space tensor cut, so only entries of h and k are touched: the
    tuple table depends only on (rank rho, d, n) and is cached, and each
    call gathers from h and every k, in one step each, the entries every
    tuple needs for every t, then sums over t along an outer axis, which
    numpy reduces in sequence.  Products are formed on real and imaginary
    parts, never by complex-array multiply, so every step rounds as the
    scalar per-tuple expansion does.  The weights are real and the terms
    finite, so multiplying them as reals changes at most the sign of a zero
    term; a left-to-right sum from +0.0 never holds -0.0, and the final
    + 0.0 clears the one case where the sum without that start differs, so
    every value is bit-identical to the per-tuple expansion.
    """
    j0, flat_h, flat_k = _tuple_table(len(rho.weights), d, n)
    if not rho.weights.all():
        keep = np.flatnonzero(rho.weights[j0] != 0.0)
        j0, flat_h, flat_k = j0[keep], flat_h.take(keep, axis=1), flat_k.take(keep, axis=1)
    # take() returns C-ordered arrays, where indexing along axis 1 may lay
    # the tuple axis out first: the sums over t then run along a strided
    # axis, in sequence; numpy sums a contiguous axis of 8 or more terms
    # pairwise
    psi = rho.vectors.take(j0, axis=1)
    hv = h.reshape(-1)[flat_h]
    kv = k.reshape(*k.shape[:-2], -1).take(flat_k, axis=-1)
    pr, pi = _real_product(psi.real, psi.imag, hv.real, hv.imag)
    ar, ai = np.add.reduce(pr, axis=-2), np.add.reduce(pi, axis=-2)
    pr, pi = _real_product(psi.real, -psi.imag, kv.real, kv.imag)
    br, bi = np.add.reduce(pr, axis=-2), np.add.reduce(pi, axis=-2)
    xr, xi = _real_product(ar, ai, br, bi)
    w = rho.weights[j0]
    total = np.empty(xr.shape[:-1], dtype=np.complex128)
    total.real = np.add.accumulate(w * xr, axis=-1)[..., -1] + 0.0
    total.imag = np.add.accumulate(w * xi, axis=-1)[..., -1] + 0.0
    return total


def _series_gram(rho: DensityOperator, d: int, n: int, ps, qs) -> np.ndarray:
    # one row per call, ps[i] against the stack of qs, so memory stays
    # O(len(qs) * tuples); the arguments are checked by the caller
    qm = np.array([q.matrix for q in qs])
    return np.array([_series_values(rho, d, n, p.matrix, qm) for p in ps])


def d_series(rho: DensityOperator, h: HistoryProjection | HomogeneousHistory,
             k: HistoryProjection | HomogeneousHistory) -> complex:
    """Series evaluation: the fixed-order sum of per-tuple contributions of
    `_series_values`, bit-identical to the scalar per-tuple expansion."""
    d, n = rho.dim, max(h.order, k.order)
    h, k = _normalize("series", d, n, (h, k))
    return complex(_series_values(rho, d, n, h.matrix, k.matrix))


def build_M(rho: DensityOperator, d: int, n: int,
            cap: int = DEFAULT_MATERIALIZE_CAP) -> ILSOperator:
    """Materialize the kernel operator M = sum_J w_{j_1} |eps_J><eps_tilde_J|,
    assembled in one step as the permutation of rho (x) 1 of the module
    docstring.

    Raises
    ------
    ShapeError
        If the state's dimension is not d; checked before the cap.
    SizeCapError
        If the doubled dimension d**(2n) exceeds ``cap``; use
        ``d_via_M_streaming`` instead in that regime.
    """
    if rho.dim != d:
        raise ShapeError(f"state dimension {rho.dim} does not match d={d}")
    dd = d ** (2 * n)
    if dd > cap:
        raise SizeCapError(
            f"doubled dimension {d}**{2 * n}={dd} exceeds materialization cap "
            f"{cap}; evaluate with d_via_M_streaming instead"
        )
    rho_m = density_matrix(rho)
    r = d ** (n - 1)
    eye_r = np.eye(r, dtype=np.complex128)
    m = np.einsum("ab,uU,wW,vV->auwvUVbW", rho_m, eye_r, eye_r,
                  np.eye(d, dtype=np.complex128)).reshape(dd, dd)
    # read-only, so that the entries cached from it cannot go stale
    m.flags.writeable = False
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"kernel trace {tr:.12g} differs from 1 beyond 1e-9")
    # M is a row and column permutation of rho (x) 1, so ||M|| = ||rho||
    norm = float(np.linalg.norm(rho_m, 2))
    if norm > 1.0 + 1e-8:
        raise ValidationError(f"kernel norm {norm:.12g} exceeds 1 + 1e-8")
    return ILSOperator(matrix=m, order=n, single_dim=d,
                       state_fingerprint=state_fingerprint(rho))


def _ils_gram(M: ILSOperator, ps, qs) -> np.ndarray:
    # G = vec(P) @ K @ vec(Q)^T with the rows vec(ps[i]) and vec(qs[j]);
    # the arguments are checked by the caller
    vp = np.array([p.matrix for p in ps]).reshape(len(ps), -1)
    vq = np.array([q.matrix for q in qs]).reshape(len(qs), -1)
    rows, cols, values = M.pair_entries
    return (vp.take(rows, axis=1) * values) @ vq.take(cols, axis=1).T


def d_via_M(M: ILSOperator, p: HistoryProjection | HomogeneousHistory,
            q: HistoryProjection | HomogeneousHistory) -> complex:
    """Kernel evaluation tr((p (x) q) M) = vec(p) @ K @ vec(q) with K the
    realigned kernel, summed over its nonzero entries ``M.pair_entries``
    only, at O(nnz M) per pair: the one-pair ``ils`` Gram."""
    p, q = _normalize("ils", M.single_dim, M.order, (p, q))
    return complex(_ils_gram(M, (p,), (q,))[0, 0])


def partial_traces(stack: np.ndarray, d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The partial traces of the module docstring for a (k, D, D) stack of
    history-space matrices: A[i][v,t] = sum_u stack[i][(u,v),(t,u)] and
    B[i][t,v] = sum_w stack[i][(t,w),(w,v)], each of shape (k, d, d)."""
    k, r = len(stack), d ** (n - 1)
    a = np.einsum("iuvtu->ivt", stack.reshape(k, r, d, d, r))
    b = np.einsum("itwwv->itv", stack.reshape(k, d, r, r, d))
    return a, b


def partial_trace_from_columns(cols: np.ndarray, d: int, n: int) -> np.ndarray:
    """A(V V^dagger) of the module docstring from the (D, m) column matrix
    V = ``cols``, without forming V V^dagger:
    A[v,t] = sum_{u,j} V[(u,v),j] conj(V[(t,u),j]), one (d x r m)(r m x d)
    product with r = d^(n-1)."""
    r, m = d ** (n - 1), cols.shape[1]
    left = cols.reshape(r, d, m).transpose(1, 0, 2).reshape(d, r * m)
    return left @ cols.reshape(d, r * m).conj().T


def _stream_gram(rho_m: np.ndarray, d: int, n: int, ps, qs) -> np.ndarray:
    # G[i, j] = tr(A(ps[i]) rho B(qs[j])), one partial-trace pass over both
    # lists; the arguments are checked by the caller
    a, b = partial_traces(np.array([x.matrix for x in (*ps, *qs)]), d, n)
    return np.einsum("ivt,ts,jsv->ij", a[:len(ps)], rho_m, b[len(ps):])


def d_via_M_streaming(rho: DensityOperator, p: HistoryProjection | HomogeneousHistory,
                      q: HistoryProjection | HomogeneousHistory) -> complex:
    """Kernel evaluation without materializing M: tr(A(p) rho B(q)) with the
    partial traces A and B of the module docstring, the one-pair ``stream``
    Gram."""
    d, n = rho.dim, max(p.order, q.order)
    p, q = _normalize("stream", d, n, (p, q))
    return complex(_stream_gram(density_matrix(rho), d, n, (p,), (q,))[0, 0])


@dataclass(frozen=True)
class Evaluator:
    """A decoherence functional bound to a fixed state and geometry (d, n).

    ``value(x, y)`` and ``gram(xs, ys)`` take history projections of order n
    and homogeneous histories of order at most n, the latter padded with
    identities to order n; an argument of another single-time dimension or
    order raises ShapeError.  ``gram`` is the matrix G[i, j] = d(xs[i], ys[j])
    and ``value`` is its one-pair case.  ``stream`` forms it in one
    contraction of the stacked partial traces, ``ils`` in one product over
    the nonzero entries of the realigned kernel, ``series`` by one tuple
    sum per row against the stack of ``ys``, and ``direct`` in one
    broadcast product of the stacked time-ordered products.
    ``series``, ``ils`` and ``stream`` embed homogeneous histories;
    ``direct`` needs them and raises ShapeError on history projections.
    The four free functions take their arguments by the same rules, with n
    the larger order of the two, or the kernel's order for `d_via_M`.
    """

    method: str
    rho: DensityOperator
    single_dim: int
    order: int
    _gram: object

    def gram(self, xs, ys) -> np.ndarray:
        """(len(xs), len(ys)) complex matrix of the values d(xs[i], ys[j])."""
        xs, ys = tuple(xs), tuple(ys)
        args = _normalize(self.method, self.single_dim, self.order, xs + ys)
        if not xs or not ys:
            return np.zeros((len(xs), len(ys)), dtype=np.complex128)
        return self._gram(args[:len(xs)], args[len(xs):])

    def value(self, x, y) -> complex:
        return complex(self.gram((x,), (y,))[0, 0])


def make_evaluator(method: str, rho: DensityOperator, d: int, n: int,
                   cap: int = DEFAULT_MATERIALIZE_CAP) -> Evaluator:
    """Bind one of the four evaluation strategies to (rho, d, n) by its Gram."""
    if rho.dim != d:
        raise ShapeError(f"state dimension {rho.dim} does not match d={d}")
    if method == "direct":
        gram = partial(_direct_gram, density_matrix(rho))
    elif method == "series":
        gram = partial(_series_gram, rho, d, n)
    elif method == "ils":
        gram = partial(_ils_gram, build_M(rho, d, n, cap=cap))
    elif method == "stream":
        gram = partial(_stream_gram, density_matrix(rho), d, n)
    else:
        raise ValidationError(f"unknown evaluation method {method!r}")
    return Evaluator(method, rho, d, n, gram)


@dataclass(frozen=True)
class AxiomReport:
    """Maximum violations of the defining properties over seeded samples."""

    method: str
    samples: int
    seed: int
    tol: float
    max_hermitian: float
    max_positivity: float
    max_normalization: float
    max_additivity: float

    @property
    def max_violation(self) -> float:
        return max(self.max_hermitian, self.max_positivity,
                   self.max_normalization, self.max_additivity)

    @property
    def all_within_tol(self) -> bool:
        return self.max_violation <= self.tol

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "max_hermitian": self.max_hermitian,
            "max_positivity": self.max_positivity,
            "max_normalization": self.max_normalization,
            "max_additivity": self.max_additivity,
            "max_violation": self.max_violation,
            "all_within_tol": self.all_within_tol,
        }


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cols_projector(basis: np.ndarray, lo: int, hi: int) -> np.ndarray:
    cols = basis[:, lo:hi]
    return cols @ cols.conj().T


def random_projection(dim: int, rng: np.random.Generator,
                      rank: int | None = None) -> np.ndarray:
    """Random projection matrix from a Haar-ish random orthonormal basis."""
    if rank is None:
        rank = int(rng.integers(1, dim)) if dim > 1 else 1
    return _cols_projector(_random_unitary(dim, rng), 0, rank)


def random_homogeneous(d: int, n: int, rng: np.random.Generator) -> HomogeneousHistory:
    """Random homogeneous history with independently drawn factors."""
    mats = []
    for _ in range(n):
        rank = int(rng.integers(1, d + 1))
        mats.append(random_projection(d, rng, rank=rank))
    return homogeneous_history(mats)


def _axiom_draw(homogeneous: bool, d: int, n: int, rng: np.random.Generator):
    """One sample of verify_axioms: histories x and y and an orthogonal split
    whole = x1 + x2, homogeneous ones split in their first time step."""
    if homogeneous:
        x, y = random_homogeneous(d, n, rng), random_homogeneous(d, n, rng)
        dim = d
    else:
        dim = d ** n
        x = history_projection(random_projection(dim, rng), n, d)
        y = history_projection(random_projection(dim, rng), n, d)
    basis = _random_unitary(dim, rng)
    r = int(rng.integers(2, dim + 1))
    s = int(rng.integers(1, r))
    parts = (_cols_projector(basis, 0, s), _cols_projector(basis, s, r))
    if not homogeneous:
        x1, x2 = (history_projection(m, n, d) for m in parts)
        return x, y, sum_projection([x1, x2]), x1, x2
    rest = [p.matrix for p in random_homogeneous(d, n, rng).projections[1:]] if n > 1 else []
    whole = validate_projection(parts[0] + parts[1]).matrix
    return x, y, *(homogeneous_history([m] + rest) for m in (whole, *parts))


def verify_axioms(evaluator: Evaluator, samples: int = 200, seed: int = 0,
                  tol: float = 1e-9) -> AxiomReport:
    """Measure violations of hermitianness, positivity, normalization, and
    additivity over orthogonal splits in either slot, across seeded random
    draws.

    Each sample draws two histories and a split from the ``verify`` stream:
    homogeneous histories split in their first time step for ``direct``,
    arbitrary history projections for the other methods.  Violations are
    data, not errors; the report is bit-identical for identical inputs and
    seed.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    rng = generator(seed, "verify")
    d, n = evaluator.single_dim, evaluator.order
    homogeneous = evaluator.method == "direct"
    eye = homogeneous_history([np.eye(d, dtype=np.complex128)] * n)
    max_norm = abs(evaluator.value(eye, eye) - 1.0)
    max_herm = 0.0
    max_pos = 0.0
    max_add = 0.0
    for _ in range(samples):
        x, y, whole, x1, x2 = _axiom_draw(homogeneous, d, n, rng)
        v_xy = evaluator.value(x, y)
        v_yx = evaluator.value(y, x)
        max_herm = max(max_herm, abs(v_xy - np.conj(v_yx)))
        diag = evaluator.value(x, x)
        max_pos = max(max_pos, max(-diag.real, 0.0), abs(diag.imag))
        split_gap = evaluator.value(whole, y) - evaluator.value(x1, y) - evaluator.value(x2, y)
        max_add = max(max_add, abs(split_gap))
        split_gap = evaluator.value(y, whole) - evaluator.value(y, x1) - evaluator.value(y, x2)
        max_add = max(max_add, abs(split_gap))
    return AxiomReport(evaluator.method, samples, seed, tol,
                       float(max_herm), float(max_pos), float(max_norm), float(max_add))
