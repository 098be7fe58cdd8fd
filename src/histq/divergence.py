"""Truncation probes for the order-2 series evaluated on scale-free operators.

For order-2 arguments the tuple series collapses to S = sum_j1 w_j1
sum_j3 a[j3] b[j3], where the a and b tables absorb the inner sums over the
remaining auxiliary indices.  An argument is data of one of two kinds.  A
scale-free builtin named in BUILTIN_PAIRS (identity, slot swap,
symmetric-subspace projector) has the closed-form tables scale(cut) psi[:cut]
and scale(cut) conj(psi)[:cut] at every truncation cutoff.  A finite
operator on the doubled space, an order-2 HistoryProjection or an
s^2 x s^2 matrix, is read as an (s, s, s, s) array and its tables are two
einsums over it.  A table stops where its data does, at the state's
dimension or the operator's block, so a partial sum costs O(dim) at any
cutoff up to MAX_CUTOFF = 2**53, where float(cut) is still exact.  The
classifier maps the partial-sum trace to a finite value or a divergence
verdict; divergence at truncation scale is a heuristic reading of the true
infinite series, so the trace always ships with the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError
from .historyspace import (DensityOperator, HistoryProjection, Projection, checked_float,
                           checked_int, validate_projection)

DEFAULT_CONVERGENCE_THRESHOLD = 1e-9
DEFAULT_DIVERGENCE_THRESHOLD = 1e6
SWAP_DIM_CAP = 4096
MAX_CUTOFF = 2 ** 53


@dataclass(frozen=True)
class TruncationSchedule:
    cutoffs: tuple[int, ...]
    convergence_threshold: float = DEFAULT_CONVERGENCE_THRESHOLD
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD

    def __post_init__(self):
        cuts = tuple(checked_int(c, "cutoff", low=1) for c in self.cutoffs)
        object.__setattr__(self, "cutoffs", cuts)
        for name in ("convergence_threshold", "divergence_threshold"):
            object.__setattr__(self, name, checked_float(getattr(self, name), name))
        if len(cuts) < 3:
            raise ValidationError(f"need at least 3 cutoffs, got {len(cuts)}")
        if cuts[-1] > MAX_CUTOFF:
            raise ValidationError(f"cutoffs must be at most 2**53, got {cuts[-1]}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValidationError("cutoffs must be strictly increasing")
        if not (0.0 < self.convergence_threshold < self.divergence_threshold):
            raise ValidationError(
                "need 0 < convergence_threshold < divergence_threshold")


def default_schedule(limit: int = 512) -> TruncationSchedule:
    cuts = []
    c = 4
    while c <= limit:
        cuts.append(c)
        c *= 2
    return TruncationSchedule(cutoffs=tuple(cuts))


def swap_unitary(dim: int, cap: int = SWAP_DIM_CAP) -> np.ndarray:
    """Permutation matrix on the doubled space sending e_a (x) e_b to e_b (x) e_a."""
    dim = checked_int(dim, "dim")
    if dim < 1:
        raise ShapeError(f"dim must be >= 1, got {dim}")
    if dim * dim > cap:
        raise SizeCapError(f"doubled dimension {dim * dim} exceeds cap {cap}")
    rows = np.arange(dim * dim)
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    u[rows, rows % dim * dim + rows // dim] = 1.0
    return u


def q_u(dim: int) -> Projection:
    """Symmetric-subspace projector (U + I)/2; rank dim(dim+1)/2."""
    u = swap_unitary(dim)
    return validate_projection((u + np.eye(u.shape[0])) / 2.0)


# scale-free operators by name: both tables are the state times scale(cut)
BUILTIN_PAIRS = {
    "identity": lambda cut: 1.0,
    "swap": float,
    "qu": lambda cut: (cut + 1) / 2.0,
}


def _pair_data(op):
    """A builtin's scale function, or an order-2 operator as an (s, s, s, s)
    array: an order-2 HistoryProjection or an s^2 x s^2 matrix."""
    if isinstance(op, str):
        if op not in BUILTIN_PAIRS:
            raise ValidationError(f"unknown builtin {op!r}; have {sorted(BUILTIN_PAIRS)}")
        return BUILTIN_PAIRS[op]
    if isinstance(op, HistoryProjection):
        if op.order != 2:
            raise ShapeError(
                f"truncation probe needs order-2 arguments, got order {op.order}")
        op = op.matrix
    if not isinstance(op, np.ndarray) or op.ndim != 2:
        raise ShapeError(f"cannot interpret {type(op).__name__} as a pair operator")
    n = op.shape[0]
    s = math.isqrt(n)
    if s * s != n:
        raise ShapeError(f"matrix dimension {n} is not a doubled dimension")
    if op.shape != (n, n):
        raise ShapeError(f"matrix shape {op.shape} does not match doubled dim {n}")
    return np.ascontiguousarray(op, dtype=np.complex128).reshape(s, s, s, s)


def _table(op, psi: np.ndarray, cut: int, left: bool) -> np.ndarray:
    """The a table of ``op`` (left) or its b table at one cutoff: a[j]
    collects the inner sums of the left argument at auxiliary index j, b[j]
    those of the right one.  A table shorter than cut counts as zero-padded."""
    if callable(op):
        return op(cut) * (psi[:cut] if left else np.conj(psi[:cut]))
    t = psi.shape[0]
    if t > op.shape[0]:
        raise ShapeError(f"state dimension {t} exceeds operator block {op.shape[0]}")
    if left:
        return np.einsum("ajta,t->j", op[:cut, :cut, :t, :cut], psi)
    return np.einsum("taaj,t->j", op[:t, :cut, :cut, :cut], np.conj(psi))


@dataclass(frozen=True)
class DecoherenceValue:
    """Finite complex value or a divergence verdict, with its partial-sum trace."""

    kind: str
    value: complex | None
    cutoffs: tuple[int, ...]
    partial_sums: tuple[complex, ...]
    reason: str | None = None

    @property
    def finite(self) -> bool:
        return self.kind == "Finite"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": None if self.value is None else [self.value.real, self.value.imag],
            "cutoffs": list(self.cutoffs),
            "partial_sums": [[s.real, s.imag] for s in self.partial_sums],
            "reason": self.reason,
        }


def _classify(cutoffs, sums, schedule) -> DecoherenceValue:
    inc_last = abs(sums[-1] - sums[-2])
    inc_prev = abs(sums[-2] - sums[-3])
    if inc_last <= schedule.convergence_threshold and \
            inc_prev <= schedule.convergence_threshold:
        return DecoherenceValue(kind="Finite", value=sums[-1],
                                cutoffs=cutoffs, partial_sums=sums)
    mags = [abs(s) for s in sums[-3:]]
    if abs(sums[-1]) > schedule.divergence_threshold:
        reason = "threshold"
    elif mags[0] < mags[1] < mags[2]:
        reason = "monotone-growth"
    else:
        reason = "non-convergent"
    return DecoherenceValue(kind="Divergent", value=None, cutoffs=cutoffs,
                            partial_sums=sums, reason=reason)


def truncated_d(rho: DensityOperator, P, Q,
                schedule: TruncationSchedule | None = None) -> DecoherenceValue:
    """Partial sums of the order-2 series for (P, Q) at each cutoff, classified.

    P and Q are each a name in BUILTIN_PAIRS, an order-2 HistoryProjection
    or an s^2 x s^2 matrix on the doubled space; P is checked before Q.
    Partial sums are accumulated in fixed index order so traces are exactly
    reproducible.
    """
    if schedule is None:
        schedule = default_schedule()
    p_op = _pair_data(P)
    q_op = _pair_data(Q)
    sums = []
    for cut in schedule.cutoffs:
        total = 0j
        for pos in range(rho.weights.shape[0]):
            wgt = float(rho.weights[pos])
            if wgt <= 0.0:
                continue
            psi = rho.vectors[:, pos]
            a = _table(p_op, psi, cut, left=True)
            b = _table(q_op, psi, cut, left=False)
            acc = 0j
            for x, y in zip(a, b):
                acc += x * y
            total += wgt * acc
        sums.append(complex(total))
    return _classify(tuple(schedule.cutoffs), tuple(sums), schedule)

