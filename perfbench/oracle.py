"""Independent reference computations for the benchmark's output checks.

Everything here uses numpy alone and never calls into histq, so a check
compares the program against a construction it does not share.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def close(got, want, what: str, tol: float = TOL) -> None:
    err = abs(complex(got) - complex(want))
    expect(err <= tol, f"{what}: got {got!r}, want {want!r} (|diff| {err:.3e} > {tol:g})")


def density(weights, vectors) -> np.ndarray:
    v = np.asarray(vectors, dtype=np.complex128)
    return (v * np.asarray(weights, dtype=float)) @ v.conj().T


def contraction(rho: np.ndarray, p: np.ndarray, q: np.ndarray) -> complex:
    """Closed form d(p, q) = tr(A(p) rho B(q)) by two partial traces.

    A(p)[v, t] = sum_u p[(u, v), (t, u)] and B(q)[t, v] = sum_w q[(t, w), (w, v)],
    where t and v are single-time indices and u, w run over the other n - 1
    slots of the d**n history index.
    """
    d = rho.shape[0]
    r = p.shape[0] // d
    a = np.einsum("uvtu->vt", p.reshape(r, d, d, r))
    b = np.einsum("twwv->tv", q.reshape(d, r, r, d))
    return complex(np.trace(a @ rho @ b))


def check_projection(p: np.ndarray, what: str) -> None:
    herm = float(np.max(np.abs(p - p.conj().T)))
    idem = float(np.max(np.abs(p @ p - p)))
    expect(herm <= TOL and idem <= TOL,
           f"{what}: not a projection (hermitian {herm:.3e}, idempotent {idem:.3e})")


def check_kernel(m: np.ndarray, weights, d: int, n: int) -> None:
    """trace(M) = 1 and the singular values of M are rho's weights, each
    d**(2n-1) times (zero weights included for a rank-deficient state)."""
    close(np.trace(m), 1.0, "trace(M)")
    full = np.zeros(d)
    full[:len(weights)] = weights
    want = np.sort(np.repeat(full, d ** (2 * n - 1)))[::-1]
    got = np.linalg.svd(m, compute_uv=False)
    err = float(np.max(np.abs(got - want)))
    expect(err <= TOL, f"singular values of M differ from the weights by {err:.3e}")


def closure_masks(k: int) -> np.ndarray:
    """Indicator rows of every non-empty union of k atoms, row m for mask m."""
    masks = np.arange(1 << k)
    return ((masks[:, None] >> np.arange(k)) & 1).astype(float)


def consistency_reference(gram: np.ndarray, atom_labels, tol: float):
    """Brute-force maximum of |Re d| over unordered disjoint closure pairs,
    and the labels of closure elements whose diagonal exceeds 1 + tol."""
    k = gram.shape[0]
    ind = closure_masks(k)
    cross = ind @ gram.real @ ind.T
    masks = np.arange(1 << k)
    disjoint = (masks[:, None] & masks[None, :]) == 0
    disjoint[0, :] = False
    disjoint[:, 0] = False
    max_re = float(np.max(np.abs(cross[disjoint]), initial=0.0))
    diag = np.diag(cross)
    unphysical = ["+".join(atom_labels[i] for i in range(k) if m >> i & 1)
                  for m in range(1, 1 << k) if diag[m] > 1.0 + tol]
    return max_re, unphysical


def check_consistency_report(report: dict, gram: np.ndarray, labels, atom_labels,
                             tol: float) -> None:
    """``report`` holds ``probabilities``, ``max_re_offdiag`` and ``unphysical``
    as in ``ConsistencyReport.as_dict``; ``gram`` is the reference Gram matrix
    of the atoms, generators first."""
    close(gram.sum(), 1.0, "sum of the Gram matrix")
    for i, label in enumerate(labels):
        close(report["probabilities"][label], gram[i, i].real, f"probability of {label}")
    max_re, unphysical = consistency_reference(gram, atom_labels, tol)
    close(report["max_re_offdiag"], max_re, "max_re_offdiag")
    expect(sorted(report["unphysical"]) == sorted(unphysical),
           f"unphysical {sorted(report['unphysical'])} != {sorted(unphysical)}")
