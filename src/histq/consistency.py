"""Consistent-set checking and the search for diagonal values above one.

A family is realized as the Boolean closure of pairwise-orthogonal generator
projections: every orthogonal sum of generators plus the complement of their
total.  Consistency asks that Re d(h, k) vanish for every ordered disjoint
pair in the closure; the diagonal then defines a probability assignment on
the generators.  Bilinearity reduces all closure checks to the Gram matrix
of the atoms, G[i, j] = d(a_i, a_j), which the evaluator forms in one
``gram`` call: ``stream`` and ``ils`` in one contraction, ``series`` as the
table of its pair values.  The largest |Re d| over disjoint pairs has a
closed form per closure element, so no pair is enumerated, and the report
names a pair that attains it.

The search for diagonal values above one needs only rho = S S^dagger: for
Hermitian p, B(p) = A(p)^dagger and d(p, p) = ||A(p) S||_F^2.
`diag_excess_search` raises it by a monotone ascent in p and a unit matrix
Phi, held as Y = S Phi^dagger, reading rho from a kernel or a bound
evaluator, and forms no kernel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .decoherence import partial_trace_from_columns
from .errors import ShapeError, ValidationError
from .historyspace import (CONSISTENCY_TOL, VALIDATION_TOL, HistoryProjection, checked_float,
                           checked_int, history_projection, validate_projection)
from .seeding import generator

MAX_ATOMS = 12
# the consistency witness is the first closure element within this of the
# largest |Re d|, relative to it
WITNESS_TOL = 1e-12
# a search restart must beat the best value by more than this to replace it
TIE_TOL = 1e-12
# a restart stops at the first sweep that raises its value by at most this,
# relative to max(1, value)
STOP_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    members: tuple[HistoryProjection, ...]
    labels: tuple[str, ...]
    atoms: tuple[HistoryProjection, ...]
    atom_labels: tuple[str, ...]
    order: int
    single_dim: int


@lru_cache(maxsize=MAX_ATOMS)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of k generators in row-major order, as read-only
    index arrays, shared by every family with k generators."""
    pairs = np.triu_indices(k, 1)
    for x in pairs:
        x.flags.writeable = False
    return pairs


def build_family(members, labels=None, tol: float = VALIDATION_TOL) -> HistoryFamily:
    """Validate generators and close the family under complement of the total.

    Generators must be pairwise orthogonal and sum to a projection T; the
    complement I - T joins the atom list when it has nonzero rank, with no
    check of its own: its self-adjointness residual is T's bit for bit, and
    its idempotence, trace and rank follow from T's.
    Orthogonality is gated on the k(k-1)/2 products P_i P_j with i < j
    alone, each by its max-entry norm against ``tol``, with the pairs taken
    from a table cached per generator count k; the first failing pair in
    row-major order is named.  Labels default to g0, g1, ...; given ones
    must be a list or a tuple of unique strings, one per generator, and are
    never converted.
    ``tol`` must be positive and finite.
    """
    tol = checked_float(tol, "tol", positive=True)
    members = tuple(members)
    if not members:
        raise ValidationError("family needs at least one generator")
    if labels is None:
        labels = tuple(f"g{i}" for i in range(len(members)))
    elif not isinstance(labels, (list, tuple)):
        raise ValidationError(f"labels must be a list or a tuple, got {type(labels).__name__}")
    labels = tuple(labels)
    if len(labels) != len(members):
        raise ValidationError(
            f"{len(labels)} labels for {len(members)} generators")
    for i, x in enumerate(labels):
        if not isinstance(x, str):
            raise ValidationError(f"label {i} must be a string, got {type(x).__name__}")
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
    # the k(k-1)/2 products P_i P_j with i < j in one stacked matmul, each
    # reduced to its max-entry norm; the pairs come in row-major order, so
    # the first failing pair is named
    stack = np.array([m.matrix for m in members])
    rows, cols = _upper_pairs(k)
    norms = np.abs(stack[rows] @ stack[cols]).max(axis=(1, 2))
    bad = np.flatnonzero(norms > tol)
    if len(bad):
        i, j = rows[bad[0]], cols[bad[0]]
        raise ValidationError(
            f"generators {labels[i]!r} and {labels[j]!r} are not orthogonal")
    total = validate_projection(stack.sum(axis=0), tol)
    atoms, atom_labels = list(members), list(labels)
    if total.rank < dim:
        atoms.append(HistoryProjection(np.eye(dim) - total.matrix, dim, dim - total.rank,
                                       order, single_dim))
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
    max_re_witness: tuple[str, str] | None
    probabilities: dict
    prob_sum: float
    unphysical: tuple[str, ...]
    tol: float

    def as_dict(self) -> dict:
        witness = self.max_re_witness
        return {**asdict(self), "max_re_witness": None if witness is None else list(witness),
                "unphysical": list(self.unphysical)}


@lru_cache(maxsize=MAX_ATOMS)
def _closure_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The closure of k atoms, one column per mask m in 0 ... 2^k - 1: the
    (k, 2^k) indicator columns ind[i, m] = bit i of m and their complement
    1 - ind.  The arrays are read-only, since every check with k atoms
    shares them."""
    ind = ((np.arange(1 << k) >> np.arange(k)[:, None]) & 1).astype(float)
    comp = 1.0 - ind
    for table in (ind, comp):
        table.flags.writeable = False
    return ind, comp


@lru_cache(maxsize=4)
def _closure_labels(atom_labels: tuple[str, ...]) -> tuple[str, ...]:
    """The name of every closure element in mask order: its atoms' labels in
    atom order joined by "+", and "" for the empty element.  Atom i adds the
    masks 2^i ... 2^(i+1) - 1, its own label and then each earlier non-empty
    name followed by "+" and the label, so no name is joined twice.  Checks
    that repeat a label set share one table."""
    names = [""]
    for label in atom_labels:
        names += [label, *[f"{name}+{label}" for name in names[1:]]]
    return tuple(names)


def check_consistent(evaluator, family: HistoryFamily,
                     tol: float = CONSISTENCY_TOL) -> ConsistencyReport:
    """Re d over all ordered disjoint closure pairs, probabilities on generators.

    evaluator is anything with gram(ps, qs), the matrix of values on two
    lists of history projections, such as a bound `Evaluator`; it is asked
    once, for the Gram of the atoms.  The closure's indicator columns and
    their complement depend on the atom count k alone and come from a table
    cached per k; the names of its elements come from a table per label set,
    built once and kept for the last few label sets.  ``tol`` must be
    positive and finite.

    For a closure element s with atom indicator e_s, Re d(s, t) equals the
    sum of r_s = e_s Re G over the atoms of t.  Over non-empty t disjoint
    from s its largest modulus is the larger of the positive and the
    negative parts of r_s summed outside s, so max_re_offdiag comes from
    O(2^k k) array work without visiting a pair.  Its witness is a pair
    (s, t) chosen by a rule that no order of summation decides: s is the
    first mask whose larger part lies within WITNESS_TOL max_re_offdiag of
    the maximum, the sign is the positive part's unless the negative part
    exceeds it by more than that margin, and t holds the atoms outside s
    where r_s has that sign.  There is none when max_re_offdiag is 0.
    """
    tol = checked_float(tol, "tol", positive=True)
    atoms = family.atoms
    re_gram = evaluator.gram(atoms, atoms).real
    ind, comp = _closure_table(len(atoms))
    # r[j, m] = Re d(s_m, a_j), one column per mask, so every sum over atoms
    # below adds k contiguous rows of 2^k entries; r's buffer is reused
    r = re_gram.T @ ind
    outside = r * comp
    diag = np.multiply(r, ind, out=r).sum(axis=0)
    # maximum(x, 0.0) turns -0.0 into +0.0, and max(x, 0) - x is max(-x, 0)
    # exactly, so each negative part is summed as it stands
    part = np.maximum(outside, 0.0, out=r)
    pos = part.sum(axis=0)
    neg = np.subtract(part, outside, out=part).sum(axis=0)
    best = np.maximum(pos, neg)
    max_re = float(best.max())
    names = _closure_labels(family.atom_labels)
    witness = None
    if max_re > 0.0:
        # mirrored pairs (s, t) and (t, s) tie in exact arithmetic, so the
        # first mask within the margin is named, not the first exact maximum
        margin = WITNESS_TOL * max_re
        s = int((best >= max_re - margin).argmax())
        sign = -1.0 if neg[s] > pos[s] + margin else 1.0
        t = sum(1 << i for i, x in enumerate(outside[:, s].tolist()) if sign * x > 0.0)
        witness = (names[s], names[t])
    probabilities = dict(zip(family.labels,
                             re_gram.diagonal()[:len(family.members)].tolist()))
    prob_sum = float(sum(probabilities.values()))
    # the empty element's diagonal is 0, below 1 + tol for every positive tol
    unphysical = tuple([names[m] for m in np.flatnonzero(diag > 1.0 + tol).tolist()])
    consistent = max_re <= tol and all(p >= -tol for p in probabilities.values())
    return ConsistencyReport(consistent=consistent, max_re_offdiag=max_re,
                             max_re_witness=witness, probabilities=probabilities,
                             prob_sum=prob_sum, unphysical=unphysical, tol=tol)


@dataclass(frozen=True, eq=False)
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


def _sweep_buffer(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The zeroed D x D buffer for X, D = d^n, and the flat index of its only
    nonzero entries X[(t,u),(u,v)] = Y[t,v] / 2, shaped (d, d^(n-1), d) so
    that Y / 2 broadcasts into it."""
    dim, r = d ** n, d ** (n - 1)
    diagonal = (np.arange(d)[:, None, None] * (r * dim)
                + np.arange(r)[:, None] * (dim + d) + np.arange(d))
    return np.zeros((dim, dim), dtype=np.complex128), diagonal


def _sweep(x: np.ndarray, diagonal: np.ndarray, half_y: np.ndarray, rho_s: np.ndarray,
           d: int, n: int) -> tuple[np.ndarray, float, np.ndarray]:
    """One sweep of the excess search from Y = 2 half_y: the columns V of p,
    the value d(p, p) = ||A(p) S||_F^2 and the next Y / 2.

    Y / 2 is written through the flat index ``diagonal`` into the u = u'
    entries of the buffer ``x`` from `_sweep_buffer`, whose other entries
    stay 0, so every sweep of a search reuses one buffer."""
    x.reshape(-1)[diagonal] = half_y[:, None, :]
    cols = _positive_columns(x + x.conj().T)
    a = partial_trace_from_columns(cols, d, n)
    a_rho = a @ rho_s
    sq = float(np.vdot(a, a_rho).real)
    return cols, sq, a_rho.conj().T * (0.5 / np.sqrt(sq))


def diag_excess_search(source, budget: int = 200, seed: int = 0,
                       sweeps: int = 50) -> SearchResult:
    """Seeded multistart ascent on d(p, p) = ||A(p) S||_F^2, rho = S S^dagger.

    ``source`` is anything with ``rho``, ``single_dim`` and ``order``, such
    as an ILSOperator or a bound Evaluator; S = V sqrt(w) over the weights of
    rho above 1e-12, and rho_S = S S^dagger.  Each sweep maximizes
    f(p, Phi) = Re tr(Phi^dagger A(p) S) = tr(p Herm X), where
    X[(t,u),(u',v)] = delta(u,u') Y[t,v] / 2 and Y = S Phi^dagger, in one
    variable at a time, so d(p, p) = (max over unit Phi of f)^2 never
    decreases.  Phi is never held, only Y:

    * p <- the projector onto the positive eigenspace of Herm X = X + X^dagger,
      kept as its eigenvectors V (the top one when no eigenvalue clears
      1e-12); Y / 2 is written into the u = u' entries of one zeroed
      D x D buffer, D = d^n, reused by every sweep (`_sweep`);
    * Phi <- A(p) S / ||A(p) S||_F, so Y <- (A(p) rho_S)^dagger / ||A(p) S||_F
      with ||A(p) S||_F^2 = Re tr(A(p)^dagger A(p) rho_S), A(p) taken from V
      by `partial_trace_from_columns`, so p itself is never formed.

    Restart 0 starts at Y = rho_S (Phi = S), restart i > 0 at Y = S Phi^dagger
    for a random d x rank(rho) Phi from the ``search`` stream.  A restart
    ends after ``sweeps`` sweeps or at the first sweep that raises d(p, p) by
    at most 1e-13 max(1, d(p, p)), and reports that sweep's p and value;
    p = V V^dagger is multiplied out once, for the best restart, and ``xi``
    is V's one column, in the phase eigh gave it, when p has rank one.  A
    restart replaces the best only when its value is larger by more than
    1e-12, so ties break to the lowest restart.  ``budget`` and ``sweeps``
    must be integers >= 1 and ``seed`` an integer >= 0.
    """
    if not all(hasattr(source, a) for a in ("rho", "single_dim", "order")):
        raise ValidationError("the search reads rho, single_dim and order from its source, "
                              f"such as a kernel or a bound evaluator, not {type(source).__name__}")
    seed = checked_int(seed, "seed", low=0)
    budget, sweeps = checked_int(budget, "budget", low=1), checked_int(sweeps, "sweeps", low=1)
    d, n = source.single_dim, source.order
    w, vecs = np.linalg.eigh(source.rho.matrix)
    s = vecs[:, w > 1e-12] * np.sqrt(w[w > 1e-12])
    rho_s = s @ s.conj().T
    x, diagonal = _sweep_buffer(d, n)
    best_val, best_cols, best_restart = -np.inf, None, -1
    for restart in range(budget):
        half_y = 0.5 * rho_s
        if restart:
            rng = generator(seed, "search", restart)
            phi = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
            half_y = 0.5 * (s @ phi.conj().T)
        val = 0.0
        for _ in range(sweeps):
            cols, sq, half_y = _sweep(x, diagonal, half_y, rho_s, d, n)
            gain, val = sq - val, sq
            if gain <= STOP_TOL * max(1.0, val):
                break
        if val > best_val + TIE_TOL:
            best_val, best_cols, best_restart = val, cols, restart
    hist = history_projection(best_cols @ best_cols.conj().T, n, d)
    rank = hist.rank
    xi = np.ascontiguousarray(best_cols[:, -1]) if rank == 1 else None
    return SearchResult(projection=hist, value=best_val, rank=rank,
                        restart_index=best_restart, xi=xi)
