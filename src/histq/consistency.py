"""Consistent-set checking and the search for diagonal values above one.

A family is realized as the Boolean closure of pairwise-orthogonal generator
projections: every orthogonal sum of generators plus the complement of their
total.  Consistency asks that Re d(h, k) vanish for every ordered disjoint
pair in the closure; the diagonal then defines a probability assignment on
the generators.  Bilinearity reduces all closure checks to the Gram matrix
of the atoms, G[i, j] = d(a_i, a_j), which a bound evaluator forms with its
``gram`` method: ``stream`` and ``ils`` in one contraction, ``series`` in
one tuple sum per atom.  A bare callable is called k^2 times, by
`pairwise_gram`.  The largest |Re d| over disjoint pairs has a closed form
per closure element, so no pair is enumerated.

The search for diagonal values above one needs only rho = S S^dagger: for
Hermitian p, B(p) = A(p)^dagger and d(p, p) = ||A(p) S||_F^2.
`diag_excess_search` raises it by a monotone ascent in p and a unit matrix
Phi, taking a kernel or a bound evaluator, and forms no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import ILSOperator, partial_trace_from_columns
from .errors import ShapeError, ValidationError
from .historyspace import (VALIDATION_TOL, HistoryProjection, density_matrix,
                           history_projection, validate_projection)
from .seeding import generator

MAX_ATOMS = 12
# a search restart must beat the best value by more than this to replace it
TIE_TOL = 1e-12
# a restart stops at the first sweep that raises its value by at most this,
# relative to max(1, value)
STOP_TOL = 1e-13


@dataclass(frozen=True)
class HistoryFamily:
    members: tuple[HistoryProjection, ...]
    labels: tuple[str, ...]
    atoms: tuple[HistoryProjection, ...]
    atom_labels: tuple[str, ...]
    order: int
    single_dim: int


def build_family(members, labels=None, tol: float = VALIDATION_TOL) -> HistoryFamily:
    """Validate generators and close the family under complement of the total.

    Generators must be pairwise orthogonal and sum to a projection; the
    complement of the total joins the atom list when it has nonzero rank.
    """
    members = tuple(members)
    if not members:
        raise ValidationError("family needs at least one generator")
    if labels is None:
        labels = tuple(f"g{i}" for i in range(len(members)))
    labels = tuple(str(x) for x in labels)
    if len(labels) != len(members):
        raise ValidationError(
            f"{len(labels)} labels for {len(members)} generators")
    if len(set(labels)) != len(labels):
        raise ValidationError("generator labels must be unique")
    if "rest" in labels:
        raise ValidationError("label 'rest' is reserved for the complement")
    order = members[0].order
    single_dim = members[0].single_dim
    for m in members:
        if (m.order, m.single_dim) != (order, single_dim):
            raise ShapeError("generators live on different history spaces")
    k, dim = len(members), members[0].dim
    if k > MAX_ATOMS:
        raise ValidationError(f"{k} generators exceed cap {MAX_ATOMS}; the closure "
                              "has 2^k elements")
    # every product P_i P_j in one stacked matmul, reduced to a k x k table of
    # max-entry norms; the first failing pair in row-major i < j order is named
    stack = np.array([m.matrix for m in members])
    prods = np.abs(stack.reshape(k * dim, dim) @ stack.transpose(1, 0, 2).reshape(dim, k * dim))
    table = prods.reshape(k, dim, k, dim).max(axis=(1, 3))
    bad = np.argwhere(np.triu(table > tol, 1))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(
            f"generators {labels[i]!r} and {labels[j]!r} are not orthogonal")
    total = stack.sum(axis=0)
    validate_projection(total, tol)
    comp = np.eye(dim, dtype=np.complex128) - total
    comp_proj = validate_projection(comp, tol)
    atoms = list(members)
    atom_labels = list(labels)
    if comp_proj.rank > 0:
        atoms.append(history_projection(comp_proj, order, single_dim))
        atom_labels.append("rest")
    if len(atoms) > MAX_ATOMS:
        raise ValidationError(
            f"{len(atoms)} atoms exceed cap {MAX_ATOMS}; the closure has 2^k "
            "elements")
    return HistoryFamily(members=members, labels=labels, atoms=tuple(atoms),
                         atom_labels=tuple(atom_labels), order=order,
                         single_dim=single_dim)


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    max_re_offdiag: float
    probabilities: dict
    prob_sum: float
    unphysical: tuple[str, ...]
    tol: float

    def as_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "max_re_offdiag": self.max_re_offdiag,
            "probabilities": dict(self.probabilities),
            "prob_sum": self.prob_sum,
            "unphysical": list(self.unphysical),
            "tol": self.tol,
        }


def pairwise_gram(fn, ps, qs) -> np.ndarray:
    """G[i, j] = fn(ps[i], qs[j]) by len(ps) * len(qs) calls, row by row."""
    return np.array([[complex(fn(p, q)) for q in qs] for p in ps],
                    dtype=np.complex128).reshape(len(ps), len(qs))


def _mask_label(mask: int, atom_labels) -> str:
    return "+".join(atom_labels[i] for i in range(len(atom_labels))
                    if mask >> i & 1)


def check_consistent(evaluator, family: HistoryFamily,
                     tol: float = 1e-9) -> ConsistencyReport:
    """Re d over all ordered disjoint closure pairs, probabilities on generators.

    evaluator is either a bound evaluator exposing gram(ps, qs), the matrix
    of values on two lists of history projections, or a bare callable
    value(p, q), which is called once per ordered pair of atoms.

    For a closure element s with atom indicator row e_s, Re d(s, t) equals
    the sum of r_s = e_s Re G over the atoms of t.  Over non-empty t disjoint
    from s its largest modulus is the larger of the positive and the
    negative parts of r_s summed outside s, so max_re_offdiag comes from
    O(2^k k) array work without visiting a pair.
    """
    atoms = family.atoms
    if hasattr(evaluator, "gram"):
        gram = evaluator.gram(atoms, atoms)
    else:
        gram = pairwise_gram(evaluator, atoms, atoms)
    k = len(atoms)
    re_gram = gram.real
    n_masks = 1 << k
    ind = ((np.arange(n_masks)[:, None] >> np.arange(k)) & 1).astype(float)
    row_sum = ind @ re_gram
    diag = np.einsum("mk,mk->m", row_sum, ind)
    outside = row_sum * (1.0 - ind)
    max_re = float(max(np.clip(outside, 0.0, None).sum(axis=1).max(),
                       np.clip(-outside, 0.0, None).sum(axis=1).max()))
    member_count = len(family.members)
    probabilities = {family.labels[i]: float(re_gram[i, i])
                     for i in range(member_count)}
    prob_sum = float(sum(probabilities.values()))
    unphysical = tuple(_mask_label(int(m), family.atom_labels)
                       for m in np.flatnonzero(diag[1:] > 1.0 + tol) + 1)
    consistent = max_re <= tol and all(p >= -tol for p in probabilities.values())
    return ConsistencyReport(consistent=consistent, max_re_offdiag=max_re,
                             probabilities=probabilities, prob_sum=prob_sum,
                             unphysical=unphysical, tol=tol)


@dataclass(frozen=True)
class SearchResult:
    projection: HistoryProjection
    value: float
    rank: int
    restart_index: int
    xi: np.ndarray | None


def _positive_columns(h: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the positive eigenspace of a Hermitian
    matrix; falls back to the top eigenvector when no eigenvalue clears the
    floor."""
    vals, vecs = np.linalg.eigh(h)
    # eigh sorts the eigenvalues ascending, so the kept columns are the last
    keep = int(np.count_nonzero(vals > 1e-12))
    return vecs[:, -max(keep, 1):]


def diag_excess_search(source, budget: int = 200, seed: int = 0,
                       sweeps: int = 50) -> SearchResult:
    """Seeded multistart ascent on d(p, p) = ||A(p) S||_F^2, rho = S S^dagger.

    ``source`` is an ILSOperator, whose rho is its exact slice
    M[(a,0,0,0), (0,0,b,0)], or any bound Evaluator; S = V sqrt(w) over the
    nonzero weights.  Each sweep maximizes f(p, Phi) = Re tr(Phi^dagger A(p) S)
    = tr(p Herm X(Phi)), X[(t,u),(u',v)] = delta(u,u') (S Phi^dagger)[t,v], in
    one variable at a time, so d(p, p) = (max over unit Phi of f)^2 never
    decreases:

    * p <- the projector V V^dagger onto the positive eigenspace of
      Herm X(Phi), kept as its eigenvectors V; Herm X is written in place
      into one buffer reused by every sweep;
    * Phi <- A(p) S / ||A(p) S||_F, with A(p) taken from V by
      `partial_trace_from_columns`, so p itself is never formed.

    Restart 0 starts at Phi = S, restart i > 0 at a random d x rank(rho) Phi
    from the ``search`` stream.  A restart ends after ``sweeps`` sweeps or at
    the first sweep that raises d(p, p) by at most 1e-13 max(1, d(p, p)),
    and reports that sweep's p and value; p = V V^dagger is multiplied out
    once, for the best restart.  A restart replaces the best only
    when its value is larger by more than 1e-12, so ties break to the lowest
    restart.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if sweeps < 1:
        raise ValidationError(f"sweeps must be >= 1, got {sweeps}")
    d, n = source.single_dim, source.order
    dim, r = d ** n, d ** (n - 1)
    if isinstance(source, ILSOperator):
        rho_m = source.matrix.reshape(d, r, r, d, r, d, d, r)[:, 0, 0, 0, 0, 0, :, 0]
    else:
        rho_m = density_matrix(source.rho)
    w, vecs = np.linalg.eigh(rho_m)
    s = vecs[:, w > 1e-12] * np.sqrt(w[w > 1e-12])
    # flat positions of X[(t,u),(u,v)] = Y[t,v] and of its adjoint, both in
    # (t, u, v) order, so Herm X is written from Y = S Phi^dagger in place
    t, u, v = np.ogrid[:d, :r, :d]
    row, col = t * r + u, u * d + v
    pos_x, pos_adj = row * dim + col, col * dim + row
    herm = np.zeros((dim, dim), dtype=np.complex128)
    flat = herm.reshape(-1)
    best_val, best_cols, best_restart = -np.inf, None, -1
    for restart in range(budget):
        phi = s
        if restart:
            rng = generator(seed, "search", restart)
            phi = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        val = 0.0
        for _ in range(sweeps):
            half_y = 0.5 * (s @ phi.conj().T)[:, None, :]
            # the two position sets meet, so the adjoint adds to what X wrote
            # over a cleared buffer
            herm.fill(0.0)
            flat[pos_x] = half_y
            flat[pos_adj] += half_y.conj()
            cols = _positive_columns(herm)
            a_s = partial_trace_from_columns(cols, d, n) @ s
            sq = float(np.vdot(a_s, a_s).real)
            gain, val = sq - val, sq
            if gain <= STOP_TOL * max(1.0, val):
                break
            phi = a_s / np.sqrt(sq)
        if val > best_val + TIE_TOL:
            best_val, best_cols, best_restart = val, cols, restart
    best_p = best_cols @ best_cols.conj().T
    hist = history_projection(best_p, n, d)
    rank = hist.projection.rank
    xi = np.ascontiguousarray(np.linalg.eigh(best_p)[1][:, -1]) if rank == 1 else None
    return SearchResult(projection=hist, value=best_val, rank=rank,
                        restart_index=best_restart, xi=xi)
