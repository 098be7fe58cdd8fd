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

Each method has one construction and takes its other shape from it by one
generic rule.  ``direct``, ``ils`` and ``stream`` are Gram functions,
G[i, j] = d(p_i, q_j) for two lists, and a value is the one entry of the
one-pair Gram (`_one_pair`); ``series`` is a value, and its Gram is the
table of its values (`_pairwise`).  ``stream`` contracts the stacked partial
traces without materializing M, G[i, j] = tr(A(p_i) rho B(q_j)).  ``ils``
contracts the kernel through its realignment K[(a,c),(b,e)] = M[(c,e),(a,b)],
G = vec(P) @ K @ vec(Q)^T, at the nnz(rho) D^2 / d nonzero entries of M
alone, D = d^n.  `build_M` gathers those entries from rho through an index
table cached per (d, n) and forms neither M nor K; the dense M is scattered
from them only when it is read.  A wrong table still gives a wrong value, so
``ils`` stays an oracle independent of ``stream``.
``series`` splits each tuple at the tensor cut into an h half, which
depends on j_1, u and v alone, and a k half, which depends on j_1, w and v
alone.  It sums each half once per distinct index, reading the d D entries
of its argument that a table cached per (d, n) lists, and broadcasts the
two halves into the tuples, in their lexicographic order, for the final
product and the left-to-right weighted sum.  Complex products are formed on
real and imaginary parts, as numpy's SIMD complex multiply may fuse
multiply-adds (FMA), so every value is bit-identical to the per-tuple scalar
expansion.  What the sum takes from the state, its rows of nonzero weight
and psi at those rows, is built once per state and (d, n) and kept in a memo
keyed weakly on the state, so it goes with the state; a value gathers the
real and imaginary parts of h and k with one take from their float64 views
laid end to end.
``direct`` traces left rho right for a stack of time-ordered left products
against a stack of right ones, broadcast.

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

from .errors import ShapeError, ValidationError
from .historyspace import (
    CONSISTENCY_TOL,
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
    first read, then cached and read-only, at any size (the command line
    bounds D^2 by its ``materialize_cap`` setting).  `build_M` checks
    trace(M) = 1 within 1e-9 and operator norm at most 1 + 1e-8.  ``rho`` is
    the state M was built from.  Kernels compare and hash by identity.
    """

    pair_entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    order: int
    single_dim: int
    rho: DensityOperator

    @cached_property
    def matrix(self) -> np.ndarray:
        dim = self.single_dim ** self.order
        rows, cols, values = self.pair_entries
        a, c = np.divmod(rows, dim)
        b, e = np.divmod(cols, dim)
        m = np.zeros((dim * dim,) * 2, dtype=np.complex128)
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
                x = embed_homogeneous(x)
        elif method == "direct":
            raise ShapeError("evaluator direct needs homogeneous histories")
        out.append(x)
    return tuple(out)


def _stack(xs) -> np.ndarray:
    """The (k, D, D) stack of the matrices of a checked argument tuple; one
    matrix is taken as a view, without a copy."""
    return xs[0].matrix[None] if len(xs) == 1 else np.array([x.matrix for x in xs])


def _one_pair(gram, p, q, *bound) -> complex:
    """d(p, q) as the one entry of the one-pair Gram ``gram(*bound, ps, qs)``;
    with ``q is p`` both sides get the one tuple, so p is stacked once."""
    ps = (p,)
    return complex(gram(*bound, ps, ps if q is p else (q,))[0, 0])


def _pairwise(value, ps, qs) -> np.ndarray:
    """G[i, j] = value(ps[i], qs[j]), the Gram as the table of its values."""
    return np.array([[value(p, q) for q in qs] for p in ps], dtype=np.complex128)


def _direct_gram(rho_m: np.ndarray, ps, qs) -> np.ndarray:
    # tr(left rho right) of each left product h_n ... h_1 against each right
    # one k_1 ... k_n, broadcast; the arguments are checked by the caller
    left = np.array([reduce(np.matmul, [p.matrix for p in h.projections[::-1]]) for h in ps])
    right = np.array([reduce(np.matmul, [p.matrix for p in k.projections]) for k in qs])
    return (left[:, None] @ rho_m @ right).trace(axis1=-2, axis2=-1)


def d_direct(rho: DensityOperator, h: HomogeneousHistory, k: HomogeneousHistory) -> complex:
    """Time-ordered product evaluation tr(h_n ... h_1 rho k_1 ... k_n)."""
    h, k = _normalize("direct", rho.dim, max(h.order, k.order), (h, k))
    return _one_pair(_direct_gram, h, k, rho.matrix)


def _place_value(digits, d: int):
    # big-endian composite index of an index sequence, leftmost most significant
    out = 0
    for j in digits:
        out = out * d + j
    return out


@lru_cache(maxsize=16)
def _tuple_table(d: int, n: int) -> np.ndarray:
    """The table of `d_series` at (d, n): the entries each half of a tuple
    reads, once per distinct index of the half.

    The h half of a tuple depends on j0, u and v alone and the k half on j0,
    w and v alone, in the slots below, so it is summed once per distinct
    (u, v) or (w, v) and row j0.  The entries are given by their positions
    in the float64 view of the flat h and k laid end to end: pos[0, t, p, m]
    holds 2 flat_h + p at m = v * r + ub for flat_h = row_a * D + t * r + u,
    and 2 (D^2 + flat_k) + p at m = D + w * d + v for flat_k =
    (t * r + w) * D + col_b, where p = 0, 1 picks the real or imaginary
    part, D = d^n, r = d^(n-1), row_a = (u, v), col_b = (w, v) and ub is u
    with its digits reversed; pos[1] holds the same entries with the parts
    swapped.  The tuples run in lexicographic order of (j0, w, v, ub), so
    per j0 an h half shaped (1, d, r) times a k half shaped (r, d, 1) is in
    the tuples' own order.  The (2, d, 2, 2 D) array is read-only, since
    every state at (d, n) shares it; the bound on cached keys keeps large
    tables from piling up.
    """
    dim, r = d ** n, d ** (n - 1)
    # tuple slots: u = (j_2n, ..., j_{n+2}), v = j_{n+1}, w = (j_2, ..., j_n);
    # u is ub = (j_{n+2}, ..., j_2n) read backwards
    u = _place_value(np.indices((d,) * (n - 1)).reshape(n - 1, r)[::-1], d)
    t, v, w = np.arange(d)[:, None, None], np.arange(d), np.arange(r)[:, None]
    flat_h = (u * d + v[:, None]) * dim + t * r + u
    flat_k = dim * dim + (t * r + w) * dim + w * d + v
    flat = np.concatenate((flat_h.reshape(d, dim), flat_k.reshape(d, dim)), axis=1)
    pos = 2 * flat[None, :, None] + np.array([[0, 1], [1, 0]])[:, None, :, None]
    pos.flags.writeable = False
    return pos


# per state, the data of `_series_terms` for each (d, n); an entry dies
# with its state, which hashes by identity
_series_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _series_terms(rho: DensityOperator, d: int, n: int) -> tuple[np.ndarray, ...]:
    """The state's part of the series sum at (d, n), built on first use and
    kept in `_series_memo` while the state lives.

    Only the R rows j0 of nonzero weight are kept, so tuples of zero weight
    are dropped here, once per state.  Returns the positions of
    `_tuple_table` repeated for each kept row, as a (2, d, 2, 2 R D) array
    whose last axis runs over (half, j0, entry); the factors that multiply
    the entries read there, of the same shape: psi_{j0}[t] at the entries
    and -Im, Im psi_{j0}[t] at their swapped parts in the h halves, the
    conjugate's in the k halves; and the kept weights as an (R, 1) column.
    All are read-only.  The state's weights and vectors are read-only, so
    the entry cannot go stale.
    """
    per_state = _series_memo.setdefault(rho, {})
    terms = per_state.get((d, n))
    if terms is None:
        keep = np.flatnonzero(rho.weights)
        psi = rho.vectors.take(keep, axis=1)[:, None, None, :]
        # (order, t, part, half, j0, entry)
        shape = (2, d, 2, 2, len(keep), d ** n)
        factors = np.empty(shape[:-1])
        factors[0] = psi.real
        # (part, half) signs: conj(psi) in the k half flips the imaginary part
        factors[1] = np.array([[-1.0, 1.0], [1.0, -1.0]])[:, :, None] * psi.imag
        terms = (np.broadcast_to(_tuple_table(d, n).reshape(shape[:4] + (1, -1)),
                                 shape).reshape(2, d, 2, -1),
                 np.broadcast_to(factors[..., None], shape).reshape(2, d, 2, -1),
                 rho.weights.take(keep)[:, None])
        for x in terms:
            x.flags.writeable = False
        per_state[(d, n)] = terms
    return terms


def _series_halves(factors: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The halves of the series sum from the entries ``v``, of shape
    (2, d, 2, m), gathered through the positions of `_series_terms` with
    their ``factors``: per entry, the sum over t of psi times the entry, as
    a (2, m) array of real and imaginary parts.  The product is formed on
    real and imaginary parts, Re = psr vr + (-psi vi) and Im = psr vi +
    psi vr, as the per-tuple expansion rounds it, and summed over t along
    an outer axis, which numpy reduces in sequence.  ``v`` is overwritten.
    """
    np.multiply(v, factors, out=v)
    return np.add.reduce(v[0] + v[1], axis=0)


def _series_sum(w: np.ndarray, h_half: np.ndarray, k_half: np.ndarray,
                d: int, n: int) -> np.complex128:
    """The series sum of the (2, R D) h half of one history against the
    (2, R D) k half of another, each as real and imaginary parts.  Per row
    j0, the h half shaped (1, d, r) times the k half shaped (r, d, 1) gives
    the tuples, of nonzero weight only, in lexicographic order.  Their real
    and imaginary parts are formed on reals, as numpy's SIMD complex
    multiply may fuse multiply-adds (FMA), weighted, and accumulated left to
    right as complex numbers, whose sum adds the two parts apart.  The
    weights are real and the terms finite, so multiplying them as reals
    changes at most the sign of a zero term; a left-to-right sum from +0.0
    never holds -0.0, and the final + 0j, which adds +0.0 to each part,
    clears the one case where the sum without that start differs, so every
    value is bit-identical to the per-tuple expansion.
    """
    r, rank = d ** (n - 1), len(w)
    # (h part, k part) products in the order re re, re im, im re, im im
    prod = (h_half.reshape(2, 1, rank, 1, d, r)
            * k_half.reshape(1, 2, rank, r, d, 1)).reshape(4, -1)
    terms = np.empty(prod.shape[-1], dtype=np.complex128)
    np.subtract(prod[0], prod[3], out=terms.real)
    np.add(prod[1], prod[2], out=terms.imag)
    parts = terms.view(np.float64).reshape(rank, -1)
    np.multiply(parts, w, out=parts)
    return np.add.accumulate(terms, out=terms)[-1] + 0j


def _series_value(rho: DensityOperator, d: int, n: int, h, k) -> complex:
    pos, factors, w = _series_terms(rho, d, n)
    m = pos.shape[-1] // 2
    # h and k end to end are dropped before the sum, whose buffers may then
    # reuse their memory
    halves = _series_halves(factors, np.concatenate(
        (h.matrix.reshape(-1), k.matrix.reshape(-1))).view(np.float64).take(pos))
    return complex(_series_sum(w, halves[:, :m], halves[:, m:], d, n))


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


def build_M(rho: DensityOperator, d: int, n: int) -> ILSOperator:
    """The kernel operator M = sum_J w_{j_1} |eps_J><eps_tilde_J| of the
    module docstring, held by its nonzero entries, each an entry of rho.

    One gather of rho through the index table of `_kernel_table`, cached per
    (d, n), gives every entry M[(a,u,w,v), (u,v,b,w)] = rho[a,b] in M's
    row-major order; exact zeros are dropped and the rest become the
    kernel's ``pair_entries``, d D^2 of them at most, D = d^n.  The trace
    is summed over the diagonal entries and the norm gate reads rho, since
    M is a permutation of rho (x) 1 and ||M|| = ||rho||.  The dense
    ``matrix`` is scattered from the entries only when it is read.

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
                       rho=rho)


def _ils_gram(M: ILSOperator, ps, qs) -> np.ndarray:
    # G = vec(P) @ K @ vec(Q)^T with the rows vec(ps[i]) and vec(qs[j]),
    # stacked once when qs is ps; the arguments are checked by the caller
    vp = _stack(ps).reshape(len(ps), -1)
    vq = vp if qs is ps else _stack(qs).reshape(len(qs), -1)
    rows, cols, values = M.pair_entries
    return (vp.take(rows, axis=1) * values) @ vq.take(cols, axis=1).T


def d_via_M(M: ILSOperator, p: HistoryProjection | HomogeneousHistory,
            q: HistoryProjection | HomogeneousHistory) -> complex:
    """Kernel evaluation tr((p (x) q) M) = vec(p) @ K @ vec(q), summed over
    the nonzero entries ``M.pair_entries`` of the realigned kernel K alone."""
    p, q = _normalize("ils", M.single_dim, M.order, (p, q))
    return _one_pair(_ils_gram, p, q, M)


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


def d_via_M_streaming(rho: DensityOperator, p: HistoryProjection | HomogeneousHistory,
                      q: HistoryProjection | HomogeneousHistory) -> complex:
    """Kernel evaluation without materializing M: tr(A(p) rho B(q)) with the
    partial traces A and B of the module docstring."""
    d, n = rho.dim, max(p.order, q.order)
    p, q = _normalize("stream", d, n, (p, q))
    return _one_pair(_stream_gram, p, q, rho.matrix, d, n)


@dataclass(frozen=True, eq=False)
class Evaluator:
    """A decoherence functional bound to a fixed state and geometry (d, n).

    ``value(x, y)`` and ``gram(xs, ys)`` take history projections of order n
    and homogeneous histories of order at most n, the latter padded with
    identities to order n; an argument of another single-time dimension or
    order raises ShapeError.  ``gram`` is the matrix G[i, j] = d(xs[i], ys[j])
    and ``value(x, y)`` one entry of it, with the bits of the method's free
    function: ``series`` computes values, and its Gram is their table; the
    other three methods compute Grams, and a value is the one-pair Gram.
    With ``ys is xs`` the one list is checked and stacked once; with
    ``y is x`` the one argument is checked and embedded once, and the kernel
    methods stack it once.  ``series``, ``ils`` and ``stream`` embed
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
    if method == "series":
        value = partial(_series_value, rho, d, n)
        return Evaluator(method, rho, d, n, value, partial(_pairwise, value))
    if method == "direct":
        gram = partial(_direct_gram, rho.matrix)
    elif method == "ils":
        gram = partial(_ils_gram, build_M(rho, d, n))
    elif method == "stream":
        gram = partial(_stream_gram, rho.matrix, d, n)
    else:
        raise ValidationError(f"unknown evaluation method {method!r}")
    return Evaluator(method, rho, d, n, partial(_one_pair, gram), gram)


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
    """Random homogeneous history with independently drawn factors; d and n
    must be integers >= 1."""
    d, n = checked_int(d, "d", low=1), checked_int(n, "n", low=1)
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
                  tol: float = CONSISTENCY_TOL) -> AxiomReport:
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
