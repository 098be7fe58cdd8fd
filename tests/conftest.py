import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import histq
from histq.historyspace import density_from_spectral

P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
PMINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=np.complex128)


def haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_proj(dim, rng, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim)) if dim > 1 else 1
    cols = haar_unitary(dim, rng)[:, :rank]
    return cols @ cols.conj().T


def random_density(dim, rng):
    w = rng.dirichlet(np.ones(dim))
    return density_from_spectral(w, haar_unitary(dim, rng))


def pure_state(vec):
    v = np.asarray(vec, dtype=np.complex128).reshape(-1, 1)
    v = v / np.linalg.norm(v)
    return density_from_spectral([1.0], v)


def pure_e1(dim):
    v = np.zeros(dim, dtype=np.complex128)
    v[0] = 1.0
    return pure_state(v)


def near_degenerate_states():
    # top weights this close once stalled a power-iteration norm gate
    return [density_from_spectral(w, np.eye(2, dtype=np.complex128))
            for w in ([0.50001, 0.49999], [0.5000001, 0.4999999])]


def kron_chain(mats):
    out = np.array([[1]], dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def run_child(script, argv, cwd):
    """``python -c script *argv`` in a fresh interpreter that imports the
    ``histq`` package this one imports, installed or from the source tree."""
    env = dict(os.environ)
    root = str(Path(histq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
