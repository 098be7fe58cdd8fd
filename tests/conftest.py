import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import histq
from histq import quadform as qf
from histq import serialize
from histq.divergence import swap_unitary
from histq.historyspace import density_from_spectral, history_projection

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


# top weights this close once stalled a power-iteration norm gate
NEAR_DEGENERATE = ((0.50001, 0.49999), (0.5000001, 0.4999999))


def near_degenerate_states():
    return [density_from_spectral(w, np.eye(2, dtype=np.complex128))
            for w in NEAR_DEGENERATE]


def kron_chain(mats):
    out = np.array([[1]], dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def embed(mats):
    """The history projection of the Kronecker product of single-time matrices."""
    return history_projection(kron_chain(mats), len(mats), mats[0].shape[0])


def identity_history_projection(single_dim, order):
    return history_projection(np.eye(single_dim ** order, dtype=np.complex128),
                              order, single_dim)


# the spectrum kinds of `spectrum_state`: SPECTRA, and the two more that
# the differential table of the four evaluators also runs
SPECTRA = ("full", "rank-one", "rank-deficient", "near-degenerate")
DIFFERENTIAL_SPECTRA = SPECTRA + ("fewer-vectors", "near-degenerate-tight")


def spectrum_state(kind, d, rng, basis=None):
    """A state on a Haar basis, or on the columns of ``basis`` when given,
    with weights of the given kind: full rank, rank one, an exact zero
    weight, the same weights held as d - 1 vectors without the zero, or the
    near-degenerate pairs of `NEAR_DEGENERATE`; every kind draws the same
    numbers from rng."""
    if basis is None:
        basis = haar_unitary(d, rng)
    full, deficient = rng.dirichlet(np.ones(d)), [*rng.dirichlet(np.ones(d - 1)), 0.0]
    weights = {"full": full,
               "rank-one": [1.0],
               "rank-deficient": deficient,
               "fewer-vectors": deficient[:-1],
               "near-degenerate": NEAR_DEGENERATE[0],
               "near-degenerate-tight": NEAR_DEGENERATE[1]}[kind]
    return density_from_spectral(weights, basis[:, :len(weights)])


def bits(z):
    """The float hex of the real and imaginary part of each entry of z, a
    number or an array: equal lists mean equal bits, signed zeros included."""
    return [(c.real.hex(), c.imag.hex()) for c in np.ravel(z).tolist()]


def pairwise_gram(fn, ps, qs):
    """G[i, j] = fn(ps[i], qs[j]) by one call per pair: the reference a Gram
    is checked against."""
    return np.array([[complex(fn(p, q)) for q in qs] for p in ps],
                    dtype=np.complex128).reshape(len(ps), len(qs))


def assemble(z):
    """The dense Kronecker assembly of a SimpleTensorSum, the sum of its terms."""
    dim = z.single_dim ** z.order
    return sum((kron_chain(term) for term in z.terms),
               np.zeros((dim, dim), dtype=np.complex128))


def reassociate(z, seed):
    """Another SimpleTensorSum for the same element: seeded nonzero scalars
    move between the first two slots, and terms split at random in two by a
    scalar decomposition of the first factor."""
    rng = np.random.default_rng(seed)
    new_terms = []
    for term in z.terms:
        factors = list(term)
        if len(factors) >= 2:
            c = (0.5 + rng.random() * 1.5) * np.exp(2j * np.pi * rng.random())
            factors[0], factors[1] = factors[0] * c, factors[1] / c
        if rng.random() < 0.5:
            alpha = 0.25 + 0.5 * rng.random()
            new_terms += [(factors[0] * alpha, *factors[1:]),
                          (factors[0] * (1.0 - alpha), *factors[1:])]
        else:
            new_terms.append(tuple(factors))
    return qf.simple_tensor_sum(new_terms, order=z.order, single_dim=z.single_dim)


def ladder_element(n_dim):
    """z_N as dense N x N factors, one unit matrix for each index pair of
    `quadform._ladder_units`."""
    eye = np.eye(n_dim, dtype=np.complex128)
    units = qf._ladder_units(n_dim)
    terms = [tuple(np.outer(eye[rows[j]], eye[cols[j]]) for rows, cols in units)
             for j in range(n_dim)]
    return qf.simple_tensor_sum(terms, order=2, single_dim=n_dim)


def pure_state_excess(d, n):
    """(s(d, n)^2, rank p*) of a pure state: Herm X is 1 at 0^n plus half the
    adjacency matrix of paths, whose positive eigenvalues are summed here."""
    paths = [(d - 1, n)] + [((d - 1) ** 2 * d ** (n - k - 2), k + 1) for k in range(n - 1)]
    s = 1 + sum(count * np.cos(np.pi * j / (m + 1))
                for count, m in paths for j in range(1, m // 2 + 1))
    return s * s, 1 + sum(count * (m // 2) for count, m in paths)


def rerun_commands(tmp_path):
    """Argv lists, with their input files written, whose reruns must give the
    same bytes: the search at the history cap, consistency on 11 rank-one
    generators at (2, 4), 12 atoms with the rest, and diverge on a swap file."""
    q = np.linalg.qr(np.random.default_rng(12).standard_normal((16, 16)))[0]
    u = np.linalg.qr(np.random.default_rng(13).standard_normal((2, 2)))[0]
    members = [{"matrix": serialize.matrix_to_json(np.outer(q[:, j], q[:, j]))} for j in range(11)]
    for name, obj in (("rho", serialize.density_to_json(density_from_spectral([0.7, 0.3], u))),
                      ("family", {"single_time_dim": 2, "order": 4, "members": members,
                                  "labels": [f"a{j}" for j in range(11)]}),
                      ("swap8", serialize.matrix_to_json(swap_unitary(8)))):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    return [["search-excess", "-d", "2", "-n", "6", "--budget", "2"],
            ["consistency", "--rho", str(tmp_path / "rho.json"),
             "--family", str(tmp_path / "family.json")],
            ["diverge", "--p", "builtin:identity", "--q", str(tmp_path / "swap8.json"),
             "--dim", "8", "--cutoffs", "2,4,8,16,1024"]]


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
