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
`partial_trace_a` and `partial_trace_b` take them of a whole stack of
projections at once, and `partial_trace_from_columns` takes A(V V^dagger)
from the columns V alone, as the excess search keeps its projections.

Each method has a Gram function, G[i, j] = d(p_i, q_j) for two lists, and a
one-pair function that its free function and `Evaluator.value` share.
``stream`` contracts the stacked partial traces without materializing M,
G[i, j] = tr(A(p_i) rho B(q_j)).  ``ils`` contracts the kernel through its
realignment K[(a,c),(b,e)] = M[(c,e),(a,b)], G = vec(P) @ K @ vec(Q)^T, at
the nnz(rho) D^2 / d nonzero entries of M alone, D = d^n.  `build_M` gathers
those entries from rho through an index table cached per (d, n) and forms
neither M nor K; the dense M is scattered from them only when it is read.
A wrong table still gives a wrong value, so ``ils`` stays an oracle
independent of ``stream``.  Both take one pair as a one-pair Gram.
``series`` sums the tuples of a cached table, each split at the tensor cut
into an h half and a k half; a Gram forms the k half of its whole stack once
and the h half once per row, forming complex products on real and
imaginary parts, as numpy's SIMD complex multiply may fuse multiply-adds
(FMA), so it is bit-identical to the per-tuple scalar expansion.  What the
sum takes from the state, its weights and psi at each tuple of nonzero
weight, is built once per state and (d, n) and kept in a memo keyed weakly
on the state, so it goes with the state; each call gathers the real and
imaginary parts of h and k through their float64 views as contiguous
arrays.
``direct`` traces left rho right for one pair of time-ordered products or,
broadcast, for a stack of each.

All four free functions and the ``value`` and ``gram`` of the `Evaluator`
that `make_evaluator` binds to (rho, d, n) take history projections and
homogeneous histories alike (``direct`` only the latter), and one normalizer
checks, pads and embeds them for every method.  The free functions take d
from the state, or from the kernel for `d_via_M`, and n as the larger order
of their two arguments, or the kernel's.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, partial, reduce

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError
from .historyspace import (
    DEFAULT_MATERIALIZE_CAP,
    METHODS,
    DensityOperator,
    HistoryProjection,
    HomogeneousHistory,
    checked_float,
    checked_int,
    embed_homogeneous,
    history_projection,
    homogeneous_history,
    pad_history,
    sum_projection,
    validate_projection,
)
from .seeding import generator


@dataclass(frozen=True, eq=False)
class ILSOperator:
    """Kernel operator M on the doubled history space, held by its nonzero
    entries.

    ``pair_entries`` are the nonzero entries of the realignment
    K[(a,c),(b,e)] = M[(c,e),(a,b)], so that tr((p (x) q) M) =
    vec(p) @ K @ vec(q) for row-major vec, as read-only (rows, cols, values)
    in the row-major order of M's entries; `d_via_M` contracts them.
    ``matrix`` is the dense (D^2, D^2) M, D = d^n, scattered from them on
    first read, then cached and read-only; reading it raises SizeCapError
    when D^2 exceeds ``cap``.  `build_M` checks trace(M) = 1 within 1e-9
    and operator norm at most 1 + 1e-8.  ``rho`` is the state M was built
    from.  Kernels compare and hash by identity.
    """

    pair_entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    order: int
    single_dim: int
    rho: DensityOperator
    cap: int = DEFAULT_MATERIALIZE_CAP

    @cached_property
    def matrix(self) -> np.ndarray:
        d, n = self.single_dim, self.order
        dim = d ** n
        dd = dim * dim
        if dd > self.cap:
            raise SizeCapError(
                f"doubled dimension {d}**{2 * n}={dd} exceeds materialization cap "
                f"{self.cap}; d_via_M and d_via_M_streaming evaluate without it"
            )
        rows, cols, values = self.pair_entries
        a, c = np.divmod(rows, dim)
        b, e = np.divmod(cols, dim)
        m = np.zeros((dd, dd), dtype=np.complex128)
        m[c * dim + e, a * dim + b] = values
        m.flags.writeable = False
        return m


def state_fingerprint(rho: DensityOperator) -> str:
    import hashlib  # only build-m prints a fingerprint; keep it off import

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


def _stack(xs) -> np.ndarray:
    """The (k, D, D) stack of the matrices of a checked argument tuple; one
    matrix is taken as a view, without a copy."""
    return xs[0].matrix[None] if len(xs) == 1 else np.array([x.matrix for x in xs])


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


def _direct_value(rho_m: np.ndarray, h, k) -> complex:
    return complex(_direct_values(rho_m, _left_product(h), _right_product(k)))


def d_direct(rho: DensityOperator, h: HomogeneousHistory, k: HomogeneousHistory) -> complex:
    """Time-ordered product evaluation tr(h_n ... h_1 rho k_1 ... k_n)."""
    h, k = _normalize("direct", rho.dim, max(h.order, k.order), (h, k))
    return _direct_value(rho.matrix, h, k)


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
    the positions, in the float64 view of a flat complex matrix, of the
    entries each tuple reads for each t: pos_h[0, t, T] = 2 flat_h and
    pos_h[1, t, T] = 2 flat_h + 1 hold the real and imaginary part of the
    entry at flat_h = row_a * D + t * r + u, and pos_k those of flat_k =
    (t * r + w) * D + col_b, with D = d^n, r = d^(n-1), row_a = (u, v) and
    col_b = (w, v) in the slots below.  The arrays are read-only, since
    every call shares them; the bound on cached keys keeps large tables
    from piling up.
    """
    J = np.indices((rank,) + (d,) * (2 * n - 1)).reshape(2 * n, -1)
    # tuple slots: u = (j_2n, ..., j_{n+2}), v = j_{n+1}, w = (j_2, ..., j_n)
    u = _place_value(J[2 * n - 1:n:-1], d)
    w = _place_value(J[1:n], d)
    dim, r = d ** n, d ** (n - 1)
    shift = (np.arange(d) * r)[:, None]
    j0 = J[0].copy()
    parts = np.arange(2)[:, None, None]
    pos_h = 2 * ((u * d + J[n]) * dim + shift + u) + parts
    pos_k = 2 * ((shift + w) * dim + w * d + J[n]) + parts
    for table in (j0, pos_h, pos_k):
        table.flags.writeable = False
    return j0, pos_h, pos_k


# per state, the tuple data of `_series_terms` for each (d, n); an entry
# dies with its state, which hashes by identity
_series_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _series_terms(rho: DensityOperator, d: int, n: int) -> tuple[np.ndarray, ...]:
    """The state's part of the series sum at (d, n), built on first use and
    kept in `_series_memo` while the state lives.

    Returns the positions pos_h and pos_k of `_tuple_table`, the weight
    w_{j0} of each tuple, and psi_{j0} gathered at each tuple as contiguous
    real, imaginary and negated imaginary (d, T) arrays, all read-only.
    Tuples of zero weight are dropped here, once per state, so the
    positions are the shared table's own unless a weight is zero.  The
    state's weights and vectors are read-only, so the entry cannot go stale.
    """
    per_state = _series_memo.setdefault(rho, {})
    terms = per_state.get((d, n))
    if terms is None:
        j0, pos_h, pos_k = _tuple_table(len(rho.weights), d, n)
        if not rho.weights.all():
            keep = np.flatnonzero(rho.weights[j0] != 0.0)
            # take() returns C-ordered arrays, where indexing along the
            # last axis may lay the tuple axis out first: the sums over t
            # then run along a strided axis, in sequence; numpy sums a
            # contiguous axis of 8 or more terms pairwise
            j0, pos_h, pos_k = j0[keep], pos_h.take(keep, axis=-1), pos_k.take(keep, axis=-1)
        psi = rho.vectors.take(j0, axis=1)
        terms = (pos_h, pos_k, rho.weights.take(j0), np.ascontiguousarray(psi.real),
                 np.ascontiguousarray(psi.imag), -psi.imag)
        for x in terms:
            x.flags.writeable = False
        per_state[(d, n)] = terms
    return terms


def _series_half(psi_r, psi_i, m: np.ndarray,
                 pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One side of the series sum for one (D, D) matrix m or an (l, D, D)
    stack: per tuple, the sum over t of psi times the entry of m at ``pos``,
    as real and imaginary parts.  Both parts are gathered from m's float64
    view in one step as contiguous arrays and summed over t along an outer
    axis, which numpy reduces in sequence; products are formed on real and
    imaginary parts, so every step rounds as the per-tuple expansion does.
    """
    v = m.reshape(*m.shape[:-2], -1).view(np.float64).take(pos, axis=-1)
    pr, pi = _real_product(psi_r, psi_i, v[..., 0, :, :], v[..., 1, :, :])
    return np.add.reduce(pr, axis=-2), np.add.reduce(pi, axis=-2)


def _series_sum(w: np.ndarray, h_half, k_half) -> np.ndarray:
    """The series sum of the h half of one history against the k half of
    one k or a stack of them: a 0-d value or a Gram row.  The tuples, of
    nonzero weight only, are accumulated left to right in lexicographic
    order.  The weights are real and the terms finite, so multiplying them
    as reals changes at most the sign of a zero term; a left-to-right sum
    from +0.0 never holds -0.0, and the final + 0.0 clears the one case
    where the sum without that start differs, so every value is
    bit-identical to the per-tuple expansion.
    """
    xr, xi = _real_product(*h_half, *k_half)
    total = np.empty(xr.shape[:-1], dtype=np.complex128)
    total.real = np.add.accumulate(w * xr, axis=-1)[..., -1] + 0.0
    total.imag = np.add.accumulate(w * xi, axis=-1)[..., -1] + 0.0
    return total


def _series_gram(rho: DensityOperator, d: int, n: int, ps, qs) -> np.ndarray:
    # the k half of the stack of qs once, then one row per ps[i], so memory
    # stays O(len(qs) * tuples); the arguments are checked by the caller
    pos_h, pos_k, w, psr, psi, npsi = _series_terms(rho, d, n)
    k_half = _series_half(psr, npsi, _stack(qs), pos_k)
    return np.array([_series_sum(w, _series_half(psr, psi, p.matrix, pos_h), k_half)
                     for p in ps])


def _series_value(rho: DensityOperator, d: int, n: int, h, k) -> complex:
    pos_h, pos_k, w, psr, psi, npsi = _series_terms(rho, d, n)
    return complex(_series_sum(w, _series_half(psr, psi, h.matrix, pos_h),
                               _series_half(psr, npsi, k.matrix, pos_k)))


def d_series(rho: DensityOperator, h: HistoryProjection | HomogeneousHistory,
             k: HistoryProjection | HomogeneousHistory) -> complex:
    """Series evaluation: the fixed-order sum of per-tuple contributions of
    `_series_sum`, bit-identical to the scalar per-tuple expansion."""
    d, n = rho.dim, max(h.order, k.order)
    h, k = _normalize("series", d, n, (h, k))
    return _series_value(rho, d, n, h, k)


@lru_cache(maxsize=16)
def _kernel_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index table of `build_M` at (d, n).

    Lists the entries M[(a,u,w,v), (u,v,b,w)] = rho[a,b] of the module
    docstring in the lexicographic order of (a, u, w, v, b), which is M's
    row-major order, with D = d^n and r = d^(n-1).  Returns the realignment
    row and column of each entry, as ``pair_entries`` hold them, its index
    a * d + b in the flat state, and the table positions of the entries on
    M's diagonal.  Checks once that the row map (a,u,w,v) -> R and the
    column map (u,v,b,w) -> C are each one-to-one onto 0 ... D^2 - 1, so
    that M is a permutation of rho (x) 1, and that the flat positions
    R D^2 + C increase.  The arrays are read-only, since every kernel at
    (d, n) shares them; the bound on cached keys keeps large tables from
    piling up.
    """
    dim, r = d ** n, d ** (n - 1)
    dd = dim * dim
    a, u, w, v, b = np.indices((d, r, r, d, d)).reshape(5, -1)
    row = ((a * r + u) * r + w) * d + v
    col = ((u * d + v) * d + b) * r + w
    # each R comes once for each b, each C once for each a
    for name, idx in (("row", row), ("column", col)):
        if not np.array_equal(np.bincount(idx, minlength=dd), np.full(dd, d)):
            raise AssertionError(f"kernel {name} map at ({d}, {n}) is not one-to-one "
                                 f"onto 0 ... {dd - 1}")
    if not np.all(np.diff(row * dd + col) > 0):
        raise AssertionError(f"kernel entries at ({d}, {n}) are not in row-major order")
    # K[(a',c),(b',e)] = M[(c,e),(a',b')] with R = (c, e), C = (a', b')
    (c, e), (a2, b2) = np.divmod(row, dim), np.divmod(col, dim)
    table = (a2 * dim + c, b2 * dim + e, a * d + b, np.flatnonzero(row == col))
    for x in table:
        x.flags.writeable = False
    return table


def build_M(rho: DensityOperator, d: int, n: int,
            cap: int = DEFAULT_MATERIALIZE_CAP) -> ILSOperator:
    """The kernel operator M = sum_J w_{j_1} |eps_J><eps_tilde_J| of the
    module docstring, held by its nonzero entries, each an entry of rho.

    One gather of rho through the index table of `_kernel_table`, cached per
    (d, n), gives every entry M[(a,u,w,v), (u,v,b,w)] = rho[a,b] in M's
    row-major order; exact zeros are dropped and the rest become the
    kernel's ``pair_entries``, d D^2 of them at most, D = d^n.  The trace
    is summed over the diagonal entries and the norm gate reads rho, since
    M is a permutation of rho (x) 1 and ||M|| = ||rho||.  ``cap`` bounds
    the doubled dimension d**(2n) of the dense ``matrix`` alone, which is
    scattered from the entries when it is read.

    Raises
    ------
    ShapeError
        If the state's dimension is not d.
    ValidationError
        If d or n is not an integer >= 1, the trace differs from 1 beyond
        1e-9 or the norm exceeds 1 + 1e-8.
    """
    d, n = checked_int(d, "d", low=1), checked_int(n, "n", low=1)
    if rho.dim != d:
        raise ShapeError(f"state dimension {rho.dim} does not match d={d}")
    rows, cols, src, diag = _kernel_table(d, n)
    values = rho.matrix.reshape(-1).take(src)
    tr = complex(values.take(diag).sum())
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"kernel trace {tr:.12g} differs from 1 beyond 1e-9")
    norm = float(np.linalg.norm(rho.matrix, 2))
    if norm > 1.0 + 1e-8:
        raise ValidationError(f"kernel norm {norm:.12g} exceeds 1 + 1e-8")
    if not values.all():
        keep = np.flatnonzero(values)
        rows, cols, values = rows.take(keep), cols.take(keep), values.take(keep)
        rows.flags.writeable = cols.flags.writeable = False
    values.flags.writeable = False
    return ILSOperator(pair_entries=(rows, cols, values), order=n, single_dim=d,
                       rho=rho, cap=cap)


def _ils_gram(M: ILSOperator, ps, qs) -> np.ndarray:
    # G = vec(P) @ K @ vec(Q)^T with the rows vec(ps[i]) and vec(qs[j]),
    # stacked once when qs is ps; the arguments are checked by the caller
    vp = _stack(ps).reshape(len(ps), -1)
    vq = vp if qs is ps else _stack(qs).reshape(len(qs), -1)
    rows, cols, values = M.pair_entries
    return (vp.take(rows, axis=1) * values) @ vq.take(cols, axis=1).T


def _ils_value(M: ILSOperator, p, q) -> complex:
    ps = (p,)
    return complex(_ils_gram(M, ps, ps if q is p else (q,))[0, 0])


def d_via_M(M: ILSOperator, p: HistoryProjection | HomogeneousHistory,
            q: HistoryProjection | HomogeneousHistory) -> complex:
    """Kernel evaluation tr((p (x) q) M) = vec(p) @ K @ vec(q), summed over
    the nonzero entries ``M.pair_entries`` of the realigned kernel K alone."""
    p, q = _normalize("ils", M.single_dim, M.order, (p, q))
    return _ils_value(M, p, q)


def partial_trace_a(stack: np.ndarray, d: int, n: int) -> np.ndarray:
    """The partial trace A of the module docstring for a (k, D, D) stack of
    history-space matrices: A[i][v,t] = sum_u stack[i][(u,v),(t,u)], of
    shape (k, d, d)."""
    k, r = len(stack), d ** (n - 1)
    return np.einsum("iuvtu->ivt", stack.reshape(k, r, d, d, r))


def partial_trace_b(stack: np.ndarray, d: int, n: int) -> np.ndarray:
    """The partial trace B of the module docstring for a (k, D, D) stack of
    history-space matrices: B[i][t,v] = sum_w stack[i][(t,w),(w,v)], of
    shape (k, d, d)."""
    k, r = len(stack), d ** (n - 1)
    return np.einsum("itwwv->itv", stack.reshape(k, d, r, r, d))


def partial_trace_from_columns(cols: np.ndarray, d: int, n: int) -> np.ndarray:
    """A(V V^dagger) of the module docstring from the (D, m) column matrix
    V = ``cols``, without forming V V^dagger:
    A[v,t] = sum_{u,j} V[(u,v),j] conj(V[(t,u),j]), one (d x r m)(r m x d)
    product with r = d^(n-1)."""
    r, m = d ** (n - 1), cols.shape[1]
    left = cols.reshape(r, d, m).transpose(1, 0, 2).reshape(d, r * m)
    return left @ cols.reshape(d, r * m).conj().T


def _stream_gram(rho_m: np.ndarray, d: int, n: int, ps, qs) -> np.ndarray:
    # G[i, j] = tr(A(ps[i]) rho B(qs[j])), one stack when qs is ps; the
    # arguments are checked by the caller
    stack = _stack(ps)
    a = partial_trace_a(stack, d, n)
    b = partial_trace_b(stack if qs is ps else _stack(qs), d, n)
    return np.einsum("ivt,ts,jsv->ij", a, rho_m, b)


def _stream_value(rho_m: np.ndarray, d: int, n: int, p, q) -> complex:
    ps = (p,)
    return complex(_stream_gram(rho_m, d, n, ps, ps if q is p else (q,))[0, 0])


def d_via_M_streaming(rho: DensityOperator, p: HistoryProjection | HomogeneousHistory,
                      q: HistoryProjection | HomogeneousHistory) -> complex:
    """Kernel evaluation without materializing M: tr(A(p) rho B(q)) with the
    partial traces A and B of the module docstring."""
    d, n = rho.dim, max(p.order, q.order)
    p, q = _normalize("stream", d, n, (p, q))
    return _stream_value(rho.matrix, d, n, p, q)


@dataclass(frozen=True, eq=False)
class Evaluator:
    """A decoherence functional bound to a fixed state and geometry (d, n).

    ``value(x, y)`` and ``gram(xs, ys)`` take history projections of order n
    and homogeneous histories of order at most n, the latter padded with
    identities to order n; an argument of another single-time dimension or
    order raises ShapeError.  ``gram`` is the matrix G[i, j] = d(xs[i], ys[j])
    from the method's Gram function; with ``ys is xs`` the one list is
    checked and stacked once.  ``value`` calls the one-pair function that
    the method's free function calls; with ``y is x`` the one argument is
    checked and embedded once.  ``series``, ``ils`` and ``stream`` embed
    homogeneous histories; ``direct`` needs them and raises ShapeError on
    history projections.  Evaluators compare and hash by identity.
    """

    method: str
    rho: DensityOperator
    single_dim: int
    order: int
    _value: object
    _gram: object

    def gram(self, xs, ys) -> np.ndarray:
        """(len(xs), len(ys)) complex matrix of the values d(xs[i], ys[j])."""
        check = partial(_normalize, self.method, self.single_dim, self.order)
        # ys is xs is asked before xs is consumed, so one iterator is one list
        xs, ys = (check(xs),) * 2 if ys is xs else (check(xs), check(ys))
        if not xs or not ys:
            return np.zeros((len(xs), len(ys)), dtype=np.complex128)
        return self._gram(xs, ys)

    def value(self, x, y) -> complex:
        check = partial(_normalize, self.method, self.single_dim, self.order)
        return self._value(*(check((x,)) * 2 if y is x else check((x, y))))


def make_evaluator(method: str, rho: DensityOperator, d: int, n: int) -> Evaluator:
    """Bind one of the four evaluation strategies to (rho, d, n).

    No method is capped here: ``ils`` holds the kernel's O(d D^2) entries,
    D = d^n, and never the dense M, so like ``series`` and ``stream`` it is
    bounded only by the D x D arguments it is given (the command line caps D
    at its history cap).  d and n must be integers >= 1.
    """
    d, n = checked_int(d, "d", low=1), checked_int(n, "n", low=1)
    if rho.dim != d:
        raise ShapeError(f"state dimension {rho.dim} does not match d={d}")
    if method == "direct":
        fns, bound = (_direct_value, _direct_gram), (rho.matrix,)
    elif method == "series":
        fns, bound = (_series_value, _series_gram), (rho, d, n)
    elif method == "ils":
        fns, bound = (_ils_value, _ils_gram), (build_M(rho, d, n),)
    elif method == "stream":
        fns, bound = (_stream_value, _stream_gram), (rho.matrix, d, n)
    else:
        raise ValidationError(f"unknown evaluation method {method!r}")
    return Evaluator(method, rho, d, n, *(partial(f, *bound) for f in fns))


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
        return {**asdict(self), "max_violation": self.max_violation,
                "all_within_tol": self.all_within_tol}


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
    n = checked_int(n, "n", low=1)
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
    arbitrary history projections for the other methods.  Its nine values
    come from two Gram calls, the column of (x, whole, x1, x2) against y and
    the row of y against them, and one ``value`` call for d(x, x).
    Violations are data, not errors; the report is bit-identical for
    identical inputs and seed.  ``samples`` must be an integer >= 1, ``seed``
    an integer >= 0 and ``tol`` positive and finite; all three are checked
    before any sample.
    """
    seed, tol = checked_int(seed, "seed", low=0), checked_float(tol, "tol", positive=True)
    samples = checked_int(samples, "samples", low=1)
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
        left = evaluator.gram((x, whole, x1, x2), (y,))[:, 0]
        right = evaluator.gram((y,), (x, whole, x1, x2))[0]
        max_herm = max(max_herm, abs(left[0] - np.conj(right[0])))
        diag = evaluator.value(x, x)
        max_pos = max(max_pos, max(-diag.real, 0.0), abs(diag.imag))
        max_add = max(max_add, abs(left[1] - left[2] - left[3]))
        max_add = max(max_add, abs(right[1] - right[2] - right[3]))
    return AxiomReport(evaluator.method, samples, seed, tol,
                       float(max_herm), float(max_pos), float(max_norm), float(max_add))
