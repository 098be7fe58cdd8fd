"""Tests of the benchmark's own reference computations.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import oracle  # noqa: E402
import workloads  # noqa: E402
from histq import consistency, decoherence, historyspace  # noqa: E402


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_contraction_matches_series(d, n):
    rng = np.random.default_rng(d * 10 + n)
    weights, vectors = workloads.mixed_state(d, rng)
    rho = historyspace.density_from_spectral(weights, vectors)
    dim = d ** n
    p = workloads.random_projector(dim, 1 + dim // 3, rng)
    q = workloads.random_projector(dim, 1 + dim // 2, rng)
    want = decoherence.d_series(rho, historyspace.history_projection(p, n, d),
                                historyspace.history_projection(q, n, d))
    got = oracle.contraction(oracle.density(weights, vectors), p, q)
    assert abs(got - want) <= 1e-12


def test_kernel_check_accepts_build_M_and_rejects_a_nudge():
    rng = np.random.default_rng(0)
    weights, vectors = workloads.mixed_state(2, rng)
    m = decoherence.build_M(historyspace.density_from_spectral(weights, vectors), 2, 2).matrix
    oracle.check_kernel(m, weights, 2, 2)
    m = m.copy()
    m[1, 2] += 1e-6
    with pytest.raises(oracle.CheckError):
        oracle.check_kernel(m, weights, 2, 2)


def test_consistency_reference_matches_the_program():
    rng = np.random.default_rng(1)
    weights, vectors = workloads.mixed_state(2, rng)
    rho = historyspace.density_from_spectral(weights, vectors)
    basis = workloads.unitary(4, rng)
    mats = [workloads.projector(basis[:, j:j + 1]) for j in range(3)]
    family = consistency.build_family(
        [historyspace.history_projection(m, 2, 2) for m in mats], ["a", "b", "c"])
    report = consistency.check_consistent(
        decoherence.make_evaluator("series", rho, 2, 2), family)
    dense = oracle.density(weights, vectors)
    atoms = mats + [np.eye(4) - sum(mats)]
    gram = np.array([[oracle.contraction(dense, a, b) for b in atoms] for a in atoms])
    oracle.check_consistency_report(report.as_dict(), gram, ["a", "b", "c"],
                                    ["a", "b", "c", "rest"], report.tol)


@pytest.mark.parametrize("name", ["evaluate", "kernel", "consistency"])
def test_outputs_pass_and_nudged_outputs_fail(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, str(tmp_path))
    wl.setup()
    wl.prepare_checks()
    out = wl.op(0)
    wl.check(0, out)
    wl.extra_checks()
    for bad in wl.perturbed(0, out):
        with pytest.raises(oracle.CheckError):
            wl.check(0, bad)


def test_kernel_keeps_the_near_degenerate_failure(tmp_path):
    wl = workloads.Kernel(3, str(tmp_path))
    wl.setup()
    failing = [i for i in range(wl.pool) if wl.expected_failure(i)]
    assert len(failing) == wl.pool // wl.round_size
    with pytest.raises(workloads.OP_ERRORS):
        wl.op(failing[0])


@pytest.mark.parametrize("name", ["evaluate", "kernel", "consistency"])
def test_every_setup_repeat_makes_the_same_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name](4, str(tmp_path))
    wl.setup()
    first = _flat(wl.raw)
    wl.setup()
    np.testing.assert_array_equal(first, _flat(wl.raw))


def _flat(obj) -> np.ndarray:
    if isinstance(obj, (list, tuple)):
        return np.concatenate([_flat(item) for item in obj])
    return np.ravel(obj)
