"""Truncation probes for the order-2 series evaluated on scale-free operators.

For order-2 arguments the tuple series collapses to S = sum_j1 w_j1
sum_j3 a[j3] b[j3], where the a and b tables absorb the inner sums over the
remaining auxiliary indices.  Scale-free operator families (identity, slot
swap, symmetric-subspace projector) have closed-form tables at every
truncation cutoff.  A table stops where its data does, at the state's
dimension or the operator's block, so a partial sum costs O(dim) at any
cutoff up to MAX_CUTOFF = 2**53, where float(cut) is still exact.  The
classifier maps the partial-sum trace to a finite value or a divergence
verdict; divergence at truncation scale is a heuristic reading of the true
infinite series, so the trace always ships with the verdict.
"""

from __future__ import annotations

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
    if dim < 1:
        raise ShapeError(f"dim must be >= 1, got {dim}")
    if dim * dim > cap:
        raise SizeCapError(f"doubled dimension {dim * dim} exceeds cap {cap}")
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for b in range(dim):
            u[a * dim + b, b * dim + a] = 1.0
    return u


def q_u(dim: int) -> Projection:
    """Symmetric-subspace projector (U + I)/2; rank dim(dim+1)/2."""
    u = swap_unitary(dim)
    return validate_projection((u + np.eye(dim * dim)) / 2.0)


class PairOperator:
    """Operator on the doubled space given by its truncated series tables.

    a_table(psi, cut)[j] collects the inner sums of the left argument at
    auxiliary index j; b_table the right argument.  Tables must agree with
    the dense doubled matrix whenever one exists.  A table may stop before
    cut; its missing entries count as zero.
    """

    def a_table(self, psi: np.ndarray, cut: int) -> np.ndarray:
        raise NotImplementedError

    def b_table(self, psi: np.ndarray, cut: int) -> np.ndarray:
        raise NotImplementedError


class _ScaledPair(PairOperator):
    """Scale-free family: both tables are the state times scale(cut)."""

    def scale(self, cut: int) -> float:
        raise NotImplementedError

    def a_table(self, psi, cut):
        return self.scale(cut) * psi[:cut]

    def b_table(self, psi, cut):
        return self.scale(cut) * np.conj(psi[:cut])


class IdentityPair(_ScaledPair):
    def scale(self, cut):
        return 1.0


class SwapPair(_ScaledPair):
    """Slot-swap unitary; its diagonal-in-pairs structure gives a flat factor cut."""

    def scale(self, cut):
        return float(cut)


class SymmetricSubspacePair(_ScaledPair):
    """(swap + identity)/2 at every truncation dimension."""

    def scale(self, cut):
        return (cut + 1) / 2.0


class MatrixPairOperator(PairOperator):
    """Fixed matrix on a finite doubled space; tables stop at its block."""

    def __init__(self, matrix: np.ndarray, single_dim: int):
        matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        s = int(single_dim)
        if matrix.shape != (s * s, s * s):
            raise ShapeError(
                f"matrix shape {matrix.shape} does not match doubled dim {s * s}")
        self.single_dim = s
        self._m4 = matrix.reshape(s, s, s, s)

    def _state_dim(self, psi) -> int:
        t = psi.shape[0]
        if t > self.single_dim:
            raise ShapeError(f"state dimension {t} exceeds operator block {self.single_dim}")
        return t

    def a_table(self, psi, cut):
        t = self._state_dim(psi)
        return np.einsum("ajta,t->j", self._m4[:cut, :cut, :t, :cut], psi)

    def b_table(self, psi, cut):
        t = self._state_dim(psi)
        return np.einsum("taaj,t->j", self._m4[:t, :cut, :cut, :cut], np.conj(psi))


BUILTIN_PAIRS = {
    "identity": IdentityPair,
    "swap": SwapPair,
    "qu": SymmetricSubspacePair,
}


def _as_pair(op) -> PairOperator:
    if isinstance(op, PairOperator):
        return op
    if isinstance(op, HistoryProjection):
        if op.order != 2:
            raise ShapeError(
                f"truncation probe needs order-2 arguments, got order {op.order}")
        return MatrixPairOperator(op.matrix, op.single_dim)
    raise ShapeError(f"cannot interpret {type(op).__name__} as a pair operator")


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

    P and Q are order-2 HistoryProjections or PairOperators.  Partial sums
    are accumulated in fixed index order so traces are exactly reproducible.
    """
    if schedule is None:
        schedule = default_schedule()
    p_op = _as_pair(P)
    q_op = _as_pair(Q)
    sums = []
    for cut in schedule.cutoffs:
        total = 0j
        for pos in range(rho.weights.shape[0]):
            wgt = float(rho.weights[pos])
            if wgt <= 0.0:
                continue
            psi = rho.vectors[:, pos]
            a = p_op.a_table(psi, cut)
            b = q_op.b_table(psi, cut)
            acc = 0j
            for x, y in zip(a, b):
                acc += x * y
            total += wgt * acc
        sums.append(complex(total))
    return _classify(tuple(schedule.cutoffs), tuple(sums), schedule)

