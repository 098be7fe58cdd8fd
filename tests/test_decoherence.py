import itertools
from dataclasses import replace
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from histq import decoherence as dec
from histq.errors import ShapeError, SizeCapError, ValidationError
from histq.historyspace import (completed_basis, density_from_spectral,
                                homogeneous_history, history_projection,
                                identity_history_projection, pad_history,
                                zero_history_projection)
from histq.seeding import generator

from conftest import (P0, P1, PMINUS, PPLUS, haar_unitary, kron_chain,
                      near_degenerate_states, pure_e1, pure_state,
                      random_density, random_proj)


def embed(mats):
    return history_projection(kron_chain(mats), len(mats), mats[0].shape[0])


def all_methods_value(rho, mats_h, mats_k, d, n):
    h = homogeneous_history(mats_h)
    k = homogeneous_history(mats_k)
    hp, kp = embed(mats_h), embed(mats_k)
    M = dec.build_M(rho, d, n)
    return {
        "direct": dec.d_direct(rho, h, k),
        "series": dec.d_series(rho, hp, kp),
        "ils": dec.d_via_M(M, hp, kp),
        "stream": dec.d_via_M_streaming(rho, hp, kp),
    }


def _spectrum_state(spectrum, d, rng):
    basis = haar_unitary(d, rng)
    weights = {"full": rng.dirichlet(np.ones(d)),
               "rank-one": [1.0],
               "rank-deficient": [*rng.dirichlet(np.ones(d - 1)), 0.0],
               "near-degenerate": [0.50001, 0.49999]}[spectrum]
    return density_from_spectral(weights, basis[:, :len(weights)])


SPECTRA = ["full", "rank-one", "rank-deficient", "near-degenerate"]


def test_hand_oracle_quarter():
    rho = pure_e1(2)
    values = all_methods_value(rho, [PPLUS, P0], [PMINUS, P0], 2, 2)
    for method, v in values.items():
        assert abs(v - 0.25) <= 1e-12, method


def test_hand_oracle_single_time():
    # tr(P0 P+ rho) with rho = |e1><e1| picks out the (0,0) entry of P+
    rho = pure_e1(2)
    values = all_methods_value(rho, [PPLUS], [P0], 2, 1)
    for method, v in values.items():
        assert abs(v - 0.5) <= 1e-12, method


def test_normalization_all_methods(rng):
    for d, n in ((2, 2), (3, 2)):
        rho = random_density(d, rng)
        eye = [np.eye(d, dtype=complex)] * n
        for method, v in all_methods_value(rho, eye, eye, d, n).items():
            assert abs(v - 1.0) <= 1e-10, method


def test_zero_history_gives_zero(rng):
    rho = random_density(2, rng)
    zero = zero_history_projection(2, 2)
    eye = identity_history_projection(2, 2)
    assert dec.d_series(rho, zero, eye) == 0j
    assert dec.d_via_M_streaming(rho, zero, eye) == 0j
    M = dec.build_M(rho, 2, 2)
    assert abs(dec.d_via_M(M, zero, eye)) <= 1e-12


def test_padding_equivalence(rng):
    rho = random_density(2, rng)
    h_short = homogeneous_history([PPLUS])
    k_long = homogeneous_history([P0, P1])
    v = dec.d_direct(rho, h_short, k_long)
    h_padded = homogeneous_history([PPLUS, np.eye(2)])
    assert abs(v - dec.d_direct(rho, h_padded, k_long)) <= 1e-12


def test_hermitian_symmetry(rng):
    rho = random_density(2, rng)
    for _ in range(5):
        p = history_projection(random_proj(4, rng), 2, 2)
        q = history_projection(random_proj(4, rng), 2, 2)
        assert abs(dec.d_series(rho, p, q) - np.conj(dec.d_series(rho, q, p))) <= 1e-10


def test_positivity_on_diagonal(rng):
    rho = random_density(3, rng)
    for _ in range(5):
        p = history_projection(random_proj(9, rng), 2, 3)
        v = dec.d_series(rho, p, p)
        assert v.real >= -1e-10
        assert abs(v.imag) <= 1e-10


def test_series_matches_direct_random(rng):
    for d, n in ((2, 2), (3, 2), (2, 3)):
        rho = random_density(d, rng)
        for _ in range(5):
            mats_h = [random_proj(d, rng) for _ in range(n)]
            mats_k = [random_proj(d, rng) for _ in range(n)]
            v1 = dec.d_direct(rho, homogeneous_history(mats_h), homogeneous_history(mats_k))
            v2 = dec.d_series(rho, embed(mats_h), embed(mats_k))
            assert abs(v1 - v2) <= 1e-10


def test_resolution_of_identity_sums_to_one(rng):
    rho = random_density(2, rng)
    total = 0j
    for a, b, c, e in itertools.product((P0, P1), repeat=4):
        total += dec.d_series(rho, embed([a, b]), embed([c, e]))
    assert abs(total - 1.0) <= 1e-10


def _rank_one_kernel(rho, d, n):
    # the literal definition M = sum_J w_{j_1} |eps_J><eps_tilde_J|, with the
    # slot layout of the decoherence module docstring
    full = completed_basis(rho)
    eye = np.eye(d, dtype=complex)
    eps, til, wts = [], [], []
    for J in itertools.product(range(d), repeat=2 * n):
        u = [J[pos] for pos in range(2 * n - 1, n, -1)]
        v, w = J[n], list(J[1:n])
        psi = full.vectors[:, J[0]]
        eps.append(kron_chain([psi[:, None]] + [eye[:, [j]] for j in u + list(J[1:n + 1])]))
        til.append(kron_chain([eye[:, [j]] for j in u + [v]] + [psi[:, None]]
                              + [eye[:, [j]] for j in w]))
        wts.append(full.weights[J[0]])
    eps = np.hstack(eps)
    til = np.hstack(til)
    return eps, til, (eps * np.array(wts)) @ til.conj().T


def test_basis_tuples_structure(rng):
    for d, n in ((2, 1), (2, 2), (3, 2)):
        for rho in (pure_e1(d), random_density(d, rng)):
            eps, til, _ = _rank_one_kernel(rho, d, n)
            dd = d ** (2 * n)
            assert np.allclose(eps.conj().T @ eps, np.eye(dd), atol=1e-12)
            assert np.allclose(til.conj().T @ til, np.eye(dd), atol=1e-12)


def test_basis_tuples_dimension_check():
    with pytest.raises(ShapeError):
        dec.build_M(pure_e1(2), 3, 2)


def test_build_m_contracts(rng):
    for d, n in ((2, 2), (3, 2), (2, 1)):
        rho = random_density(d, rng)
        M = dec.build_M(rho, d, n)
        assert abs(np.trace(M.matrix) - 1.0) <= 1e-9
        top = float(np.linalg.svd(M.matrix, compute_uv=False)[0])
        assert top <= 1.0 + 1e-8


def test_build_m_singular_values_are_weights(rng):
    for d, n in ((2, 1), (2, 2), (3, 2), (2, 3)):
        states = [random_density(d, rng), pure_state(haar_unitary(d, rng)[:, 0])]
        if d == 2:
            states += near_degenerate_states()
        for rho in states:
            M = dec.build_M(rho, d, n)
            svals = np.sort(np.linalg.svd(M.matrix, compute_uv=False))[::-1]
            weights = np.zeros(d)
            weights[:len(rho.weights)] = rho.weights
            expected = np.sort(np.repeat(weights, d ** (2 * n - 1)))[::-1]
            assert np.allclose(svals, expected, rtol=0.0, atol=1e-12), (d, n)


def test_build_m_order_one_hand_case():
    M = dec.build_M(pure_e1(2), 2, 1)
    p = history_projection(P0, 1, 2)
    assert abs(dec.d_via_M(M, p, p) - 1.0) <= 1e-12


def test_build_m_cap_points_to_streaming():
    # the (4, 3) kernel holds its entries; only its dense M is capped
    M = dec.build_M(pure_e1(4), 4, 3)
    with pytest.raises(SizeCapError, match="streaming"):
        M.matrix


def test_via_m_additive_in_each_slot(rng):
    rho = random_density(2, rng)
    M = dec.build_M(rho, 2, 2)
    basis = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
    p1 = history_projection(basis[:, :1] @ basis[:, :1].conj().T, 2, 2)
    p2 = history_projection(basis[:, 1:3] @ basis[:, 1:3].conj().T, 2, 2)
    whole = history_projection(basis[:, :3] @ basis[:, :3].conj().T, 2, 2)
    q = history_projection(random_proj(4, rng), 2, 2)
    gap = dec.d_via_M(M, whole, q) - dec.d_via_M(M, p1, q) - dec.d_via_M(M, p2, q)
    assert abs(gap) <= 1e-10


def test_streaming_matches_materialized(rng):
    for (d, n), spectrum in itertools.product(((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)),
                                              SPECTRA):
        rho = _spectrum_state(spectrum, d, rng)
        M = dec.build_M(rho, d, n)
        for _ in range(4):
            p = history_projection(random_proj(d ** n, rng, int(rng.integers(0, d ** n + 1))), n, d)
            q = history_projection(random_proj(d ** n, rng, int(rng.integers(0, d ** n + 1))), n, d)
            assert abs(dec.d_via_M(M, p, q) - dec.d_via_M_streaming(rho, p, q)) <= 1e-12


def test_state_fingerprint_distinguishes_states(rng):
    a = dec.state_fingerprint(pure_e1(2))
    b = dec.state_fingerprint(random_density(2, rng))
    assert a != b
    assert a == dec.state_fingerprint(pure_e1(2))
    assert len(a) == 64


def test_build_m_keeps_its_state(rng):
    for d, n in ((2, 1), (2, 2), (3, 2)):
        rho = random_density(d, rng)
        assert dec.build_M(rho, d, n).rho is rho


def test_states_kernels_and_evaluators_compare_by_identity(rng):
    # array fields give no truth value, so equality is identity and the
    # hash is the object's own
    rho = random_density(2, rng)
    m = dec.build_M(rho, 2, 1)
    assert (dec.build_M(rho, 2, 1) == dec.build_M(rho, 2, 1)) is False
    assert m == m and hash(m) == hash(m)
    ev = dec.make_evaluator("stream", rho, 2, 1)
    assert (ev == dec.make_evaluator("stream", rho, 2, 1)) is False
    assert (rho == density_from_spectral(rho.weights, rho.vectors)) is False
    assert len({m, ev, rho}) == 3


def test_make_evaluator_unknown_method(rng):
    rho = random_density(2, rng)
    with pytest.raises(ValidationError, match="unknown evaluation method 'nope'"):
        dec.make_evaluator("nope", rho, 2, 2)
    for method in dec.METHODS:
        assert dec.make_evaluator(method, rho, 2, 2).method == method


def test_evaluator_kinds(rng):
    rho = random_density(2, rng)
    direct = dec.make_evaluator("direct", rho, 2, 2)
    series = dec.make_evaluator("series", rho, 2, 2)
    h = homogeneous_history([P0, PPLUS])
    with pytest.raises(ShapeError):
        direct.value(embed([P0, PPLUS]), embed([P0, P0]))
    v1 = direct.value(h, h)
    v2 = series.value(h, h)
    assert abs(v1 - v2) <= 1e-10


def test_value_history_pads_to_the_evaluator_order(rng):
    rho = random_density(2, rng)
    a, b = random_proj(2, rng), random_proj(2, rng)
    pairs = [(homogeneous_history([a]), homogeneous_history([b])),
             (homogeneous_history([a]), homogeneous_history([b, P0]))]
    too_long = homogeneous_history([a, b, P0])
    for method in ("direct", "series", "ils", "stream"):
        evaluator = dec.make_evaluator(method, rho, 2, 2)
        for h, k in pairs:
            want = dec.d_direct(rho, pad_history(h, 2), pad_history(k, 2))
            assert abs(evaluator.value(h, k) - want) <= 1e-12, method
        with pytest.raises(ShapeError):
            evaluator.value(too_long, too_long)


@pytest.mark.parametrize("method", ["direct", "series", "ils", "stream"])
def test_evaluator_refuses_histories_outside_its_geometry(method):
    # every method checks the (d, n) it was bound to, the order-3 identity
    # against order 2 included
    with pytest.raises(ShapeError):
        dec.make_evaluator(method, pure_e1(3), 2, 2)
    ev = dec.make_evaluator(method, pure_e1(2), 2, 2)
    fit = homogeneous_history([P0, PPLUS])
    assert abs(ev.value(fit, fit) - 0.5) <= 1e-12
    misfits = [identity_history_projection(2, 3), identity_history_projection(2, 1),
               identity_history_projection(3, 2), homogeneous_history([P0] * 3),
               homogeneous_history([np.eye(3)])]
    for bad in misfits:
        for args in ((bad, fit), (fit, bad), (bad, bad)):
            with pytest.raises(ShapeError):
                ev.value(*args)
            with pytest.raises(ShapeError):
                ev.gram([args[0]], [args[1]])
        with pytest.raises(ShapeError):
            ev.gram([fit, bad], [])


def test_evaluators_agree_on_histories_at_the_validation_tolerance(rng):
    # factors diag(1, 8e-9) pass validation at 1e-8 but their Kronecker
    # product would not; every evaluator still gives the one value
    near = np.diag([1.0, 8e-9])
    rho = random_density(2, rng)
    h = homogeneous_history([near] * 3)
    k = homogeneous_history([near, PPLUS, near])
    for x, y in ((h, h), (h, k), (k, h)):
        values = [dec.make_evaluator(m, rho, 2, 3).value(x, y)
                  for m in ("direct", "series", "ils", "stream")]
        assert max(abs(v - values[0]) for v in values) <= 1e-9


def test_verify_axioms_all_methods(rng):
    rho = random_density(2, rng)
    for method in ("direct", "series", "ils", "stream"):
        ev = dec.make_evaluator(method, rho, 2, 2)
        report = dec.verify_axioms(ev, samples=40, seed=11)
        assert report.all_within_tol, (method, report.as_dict())
        assert report.method == method
        assert report.samples == 40


def test_verify_axioms_deterministic(rng):
    rho = random_density(2, rng)
    ev = dec.make_evaluator("series", rho, 2, 2)
    r1 = dec.verify_axioms(ev, samples=15, seed=4)
    r2 = dec.verify_axioms(ev, samples=15, seed=4)
    assert r1 == r2


def verify_axioms_by_value(evaluator, samples, seed, tol=1e-9):
    """verify_axioms as nine one-pair ``value`` calls per sample: the
    reference for the two Gram calls the program makes."""
    rng = generator(seed, "verify")
    d, n = evaluator.single_dim, evaluator.order
    homogeneous = evaluator.method == "direct"
    eye = homogeneous_history([np.eye(d, dtype=np.complex128)] * n)
    max_norm = abs(evaluator.value(eye, eye) - 1.0)
    max_herm = max_pos = max_add = 0.0
    for _ in range(samples):
        x, y, whole, x1, x2 = dec._axiom_draw(homogeneous, d, n, rng)
        v = evaluator.value
        max_herm = max(max_herm, abs(v(x, y) - np.conj(v(y, x))))
        diag = v(x, x)
        max_pos = max(max_pos, max(-diag.real, 0.0), abs(diag.imag))
        max_add = max(max_add, abs(v(whole, y) - v(x1, y) - v(x2, y)))
        max_add = max(max_add, abs(v(y, whole) - v(y, x1) - v(y, x2)))
    return dec.AxiomReport(evaluator.method, samples, seed, tol, float(max_herm),
                           float(max_pos), float(max_norm), float(max_add))


@pytest.mark.parametrize("method", ["direct", "series", "ils", "stream"])
@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_verify_axioms_matches_the_value_loop(d, n, method):
    for seed in range(3):
        rho = random_density(d, np.random.default_rng([d, n, seed]))
        ev = dec.make_evaluator(method, rho, d, n)
        got = dec.verify_axioms(ev, samples=20, seed=seed).as_dict()
        want = verify_axioms_by_value(ev, samples=20, seed=seed).as_dict()
        assert got.keys() == want.keys()
        for key, value in want.items():
            if not isinstance(value, float):
                assert got[key] == value, key
            elif method == "ils":
                # the kernel contraction sums a Gram row in another order
                assert abs(got[key] - value) <= 1e-15, key
            else:
                assert got[key].hex() == value.hex(), key


class CountingEvaluator:
    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.method = evaluator.method
        self.single_dim, self.order = evaluator.single_dim, evaluator.order
        self.gram_calls = self.value_calls = 0

    def gram(self, xs, ys):
        self.gram_calls += 1
        return self.evaluator.gram(xs, ys)

    def value(self, x, y):
        self.value_calls += 1
        return self.evaluator.value(x, y)


@pytest.mark.parametrize("method", ["direct", "series", "ils", "stream"])
def test_verify_axioms_asks_two_grams_and_one_value_per_sample(method, rng):
    ev = CountingEvaluator(dec.make_evaluator(method, random_density(2, rng), 2, 2))
    dec.verify_axioms(ev, samples=7, seed=1)
    # one more value call for the normalization d(1, 1)
    assert (ev.gram_calls, ev.value_calls) == (14, 8)


@pytest.mark.parametrize("method", ["series", "ils", "stream"])
def test_value_of_one_argument_embeds_it_once(method, rng, monkeypatch):
    # value(h, h) checks and embeds h once, and the kernel methods stack it
    # once (their Gram function gets one tuple for both sides), with the bits
    # of value(h, h') for an equal copy h'
    rho = random_density(2, rng)
    h = homogeneous_history([random_proj(2, rng) for _ in range(3)])
    ev = dec.make_evaluator(method, rho, 2, 3)
    want = ev.value(h, replace(h))
    calls, one_stack = [], []
    embed = dec.embed_homogeneous
    monkeypatch.setattr(dec, "embed_homogeneous",
                        lambda *a, **kw: calls.append(a) or embed(*a, **kw))
    gram_name = {"ils": "_ils_gram", "stream": "_stream_gram"}.get(method)
    if gram_name is not None:
        gram = getattr(dec, gram_name)
        monkeypatch.setattr(dec, gram_name,
                            lambda *a: one_stack.append(a[-1] is a[-2]) or gram(*a))
    got = ev.value(h, h)
    assert len(calls) == 1
    assert one_stack == ([] if gram_name is None else [True])
    assert _hex(got) == _hex(want)


def test_build_m_deterministic(rng):
    rho = random_density(3, rng)
    m1 = dec.build_M(rho, 3, 2).matrix
    m2 = dec.build_M(rho, 3, 2).matrix
    assert m1.tobytes() == m2.tobytes()


def test_d_direct_rejects_dim_mismatch(rng):
    rho = random_density(2, rng)
    h3 = homogeneous_history([np.eye(3)])
    with pytest.raises(ShapeError):
        dec.d_direct(rho, h3, h3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]),
       st.sampled_from(["full", "rank-one", "rank-deficient", "near-degenerate"]),
       st.integers(0, 2 ** 32 - 1))
def test_kernel_evaluators_agree_differential(dn, spectrum, seed):
    # stream, ils and series on arbitrary (non-factorized) projections
    d, n = dn
    rng = np.random.default_rng(seed)
    basis = haar_unitary(d, rng)
    weights = {"full": rng.dirichlet(np.ones(d)),
               "rank-one": [1.0],
               "rank-deficient": rng.dirichlet(np.ones(d - 1)),
               "near-degenerate": [0.5000001, 0.4999999]}[spectrum]
    rho = density_from_spectral(weights, basis[:, :len(weights)])
    dim = d ** n
    p = history_projection(random_proj(dim, rng, int(rng.integers(0, dim + 1))), n, d)
    q = history_projection(random_proj(dim, rng, int(rng.integers(0, dim + 1))), n, d)
    series = dec.d_series(rho, p, q)
    assert abs(dec.d_via_M_streaming(rho, p, q) - series) <= 1e-9
    assert abs(dec.d_via_M(dec.build_M(rho, d, n), p, q) - series) <= 1e-9


def _series_loop(rho, h, k):
    # the per-tuple scalar expansion d_series vectorizes; see the module
    # docstring of histq.decoherence for the tuple slot layout
    d, n = rho.dim, h.order
    full = completed_basis(rho)

    def be(indices):
        out = 0
        for j in indices:
            out = out * d + j
        return out

    total = 0j
    for J in itertools.product(range(d), repeat=2 * n):
        wgt = full.weights[J[0]]
        if wgt == 0.0:
            continue
        psi = full.vectors[:, J[0]]
        u = tuple(J[pos] for pos in range(2 * n - 1, n, -1))
        v, w = J[n], tuple(J[1:n])
        row_a, col_b = be(u + (v,)), be(w + (v,))
        a = 0j
        b = 0j
        for t in range(d):
            a += psi[t] * h.matrix[row_a, be((t,) + u)]
            b += np.conj(psi[t]) * k.matrix[be((t,) + w), col_b]
        total += wgt * (a * b)
    return complex(total)


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("dn", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3),
                                (2, 5), (4, 2), (5, 2), (9, 1)])
def test_series_is_bit_identical_to_tuple_loop(dn, spectrum):
    # at d >= 8 a sum over t taken pairwise, not in sequence, changes the bits
    d, n = dn
    rng = np.random.default_rng([d, n, SPECTRA.index(spectrum)])
    rho = _spectrum_state(spectrum, d, rng)
    dim = d ** n
    pairs = [(random_proj(dim, rng, int(rng.integers(1, dim + 1))),
              random_proj(dim, rng, int(rng.integers(0, dim + 1)))),
             # 0/1 diagonals put exact zeros into the gathered entries
             (np.diag(rng.integers(0, 2, dim)).astype(np.complex128),
              np.diag(rng.integers(0, 2, dim)).astype(np.complex128))]
    for pm, qm in pairs:
        p, q = history_projection(pm, n, d), history_projection(qm, n, d)
        got, want = dec.d_series(rho, p, q), _series_loop(rho, p, q)
        assert got == want
        assert (np.float64(got.real).tobytes(), np.float64(got.imag).tobytes()) == \
            (np.float64(want.real).tobytes(), np.float64(want.imag).tobytes())


def _bytes(z):
    return np.float64(z.real).tobytes(), np.float64(z.imag).tobytes()


def test_series_tuple_table_is_cached_and_read_only():
    tables = dec._tuple_table(2, 2, 3)
    assert dec._tuple_table(2, 2, 3) is tables
    j0, flat_h, flat_k = tables
    assert flat_h.shape == flat_k.shape == (2, j0.size) == (2, 2 * 2 ** 5)
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., 0] = 0


def test_series_rank_deficient_call_leaves_the_cached_table_intact():
    # a zero weight filters the shared table per call; the full-rank calls
    # of the same (d, n) on either side must still read the whole table
    d, n = 3, 2
    rng = np.random.default_rng(31)
    basis = haar_unitary(d, rng)
    full = density_from_spectral(rng.dirichlet(np.ones(d)), basis)
    deficient = density_from_spectral([*rng.dirichlet(np.ones(d - 1)), 0.0], basis)
    p = history_projection(random_proj(d ** n, rng, 4), n, d)
    q = history_projection(random_proj(d ** n, rng, 5), n, d)
    before = dec.d_series(full, p, q)
    assert _bytes(dec.d_series(deficient, p, q)) == _bytes(_series_loop(deficient, p, q))
    after = dec.d_series(full, p, q)
    assert _bytes(before) == _bytes(after) == _bytes(_series_loop(full, p, q))


@pytest.mark.parametrize("d", [8, 9])
def test_series_sums_over_t_in_sequence_past_eight_terms(d):
    # zero weights filter the tuple table; the sum over t must still run in
    # sequence, in the value and in the Gram, where numpy would sum a
    # contiguous axis of 8 or more terms pairwise
    rng = np.random.default_rng([d, 8])
    rho = density_from_spectral([0.6, 0.0, 0.4] + [0.0] * (d - 3), haar_unitary(d, rng))
    ps = [history_projection(random_proj(d, rng, r), 1, d) for r in (2, 4, 7)]
    gram = dec.make_evaluator("series", rho, d, 1).gram(ps, ps[:2])
    for i, p in enumerate(ps):
        for j, q in enumerate(ps[:2]):
            want = _bytes(_series_loop(rho, p, q))
            assert _bytes(dec.d_series(rho, p, q)) == want
            assert _bytes(gram[i, j]) == want


@pytest.mark.parametrize("dn", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_partial_trace_from_columns_matches_partial_traces(dn):
    # A(V V^dagger) from orthonormal columns V equals the partial trace of
    # the multiplied-out projection for every column count m = 1 ... D
    d, n = dn
    dim = d ** n
    rng = np.random.default_rng([d, n, 13])
    for m in range(1, dim + 1):
        v = haar_unitary(dim, rng)[:, :m]
        want = dec.partial_trace_a((v @ v.conj().T)[None], d, n)[0]
        assert np.max(np.abs(dec.partial_trace_from_columns(v, d, n) - want)) <= 1e-13


def test_pair_entries_are_the_cached_nonzeros_of_the_realignment(rng):
    # the entries are the kernel's data; its dense M is scattered from them
    # on first read, cached and read-only, and its nonzeros in row-major
    # order are the entries again
    d, n = 2, 2
    dim = d ** n
    M = dec.build_M(random_density(d, rng), d, n)
    rows, cols, values = M.pair_entries
    assert all(not x.flags.writeable for x in M.pair_entries)
    assert "matrix" not in vars(M)
    m = M.matrix
    assert M.matrix is m
    assert not m.flags.writeable
    assert len(values) == np.count_nonzero(m) == 4 * dim * dim // d
    assert np.all(values != 0)
    flat = np.flatnonzero(m)
    c, e, a, b = np.unravel_index(flat, (dim,) * 4)
    assert np.array_equal(rows, a * dim + c)
    assert np.array_equal(cols, b * dim + e)
    assert values.tobytes() == m.take(flat).tobytes()
    K = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    K[rows, cols] = values
    m4 = m.reshape(dim, dim, dim, dim)
    k4 = K.reshape(dim, dim, dim, dim)
    for a, c, b, e in itertools.product(range(dim), repeat=4):
        assert k4[a, c, b, e] == m4[c, e, a, b]


@pytest.mark.parametrize("state", ["full", "rank-one", "diagonal", "e1"])
@pytest.mark.parametrize("dn", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_kernel_entries_are_the_literal_rank_one_sum(dn, state):
    # the entries gathered from rho, and the M scattered from them, against
    # M = sum_J w_{j_1} |eps_J><eps_tilde_J| summed term by term; diagonal
    # states have exact zeros, which the entries leave out
    d, n = dn
    dim = d ** n
    rng = np.random.default_rng([d, n, 21])
    rho = {"full": random_density(d, rng),
           "rank-one": pure_state(haar_unitary(d, rng)[:, 0]),
           "diagonal": density_from_spectral(rng.dirichlet(np.ones(d)),
                                             np.eye(d, dtype=complex)),
           "e1": pure_e1(d)}[state]
    want = _rank_one_kernel(rho, d, n)[2]
    M = dec.build_M(rho, d, n)
    rows, cols, values = M.pair_entries
    a, c = np.divmod(rows, dim)
    b, e = np.divmod(cols, dim)
    assert np.max(np.abs(values - want[c * dim + e, a * dim + b])) <= 1e-15
    assert np.max(np.abs(M.matrix - want)) <= 1e-15
    assert len(values) == np.count_nonzero(rho.matrix) * dim * dim // d


@pytest.mark.parametrize("dn", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_kernel_table_maps_rows_and_columns_one_to_one(dn):
    # every entry M[(a,u,w,v), (u,v,b,w)] of the table: its row R depends on
    # (a, u, w, v) alone and its column C on (u, v, b, w) alone, and each is
    # a permutation of 0 ... D^2 - 1, so M is a permutation of rho (x) 1
    d, n = dn
    dim, r = d ** n, d ** (n - 1)
    rows, cols, src, diag = dec._kernel_table(d, n)
    assert all(not x.flags.writeable for x in (rows, cols, src, diag))
    assert dec._kernel_table(d, n)[0] is rows
    R = ((rows % dim) * dim + cols % dim).reshape(d, r, r, d, d)
    C = ((rows // dim) * dim + cols // dim).reshape(d, r, r, d, d)
    idx = np.indices(R.shape)
    assert np.array_equal(src.reshape(R.shape), idx[0] * d + idx[4])
    assert np.all(R == R[..., :1])
    assert np.array_equal(np.sort(R[..., 0].reshape(-1)), np.arange(dim * dim))
    assert np.all(C == C[:1])
    assert np.array_equal(np.sort(C[0].reshape(-1)), np.arange(dim * dim))
    # row-major order, and the diagonal entries are those with R = C
    flat = (R * dim * dim + C).reshape(-1)
    assert np.all(np.diff(flat) > 0)
    assert np.array_equal(diag, np.flatnonzero(R.reshape(-1) == C.reshape(-1)))


def test_ils_reaches_the_history_cap():
    # at (2, 6), D = 64 is the history cap and D^2 = 4096 is above the
    # materialization cap: ils contracts the kernel's entries, while its
    # dense M stays out of reach
    d, n = 2, 6
    dim = d ** n
    rng = np.random.default_rng(2606)
    rho = random_density(d, rng)
    xs = [history_projection(random_proj(dim, rng), n, d) for _ in range(4)]
    ils = dec.make_evaluator("ils", rho, d, n).gram(xs, xs)
    for method in ("stream", "series"):
        other = dec.make_evaluator(method, rho, d, n).gram(xs, xs)
        assert np.max(np.abs(ils - other)) <= 1e-9, method
    with pytest.raises(SizeCapError, match="exceeds materialization cap 1024"):
        dec.build_M(rho, d, n).matrix


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("dn", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_sparse_ils_matches_stream_and_series(dn, spectrum):
    # value and Gram of the contraction over the kernel's nonzero entries,
    # against the two evaluators that never form M
    d, n = dn
    dim = d ** n
    rng = np.random.default_rng([d, n, len(spectrum), 16])
    rho = _spectrum_state(spectrum, d, rng)
    xs = [history_projection(random_proj(dim, rng, int(rng.integers(0, dim + 1))), n, d)
          for _ in range(3)]
    xs.append(homogeneous_history([random_proj(d, rng) for _ in range(n)]))
    M = dec.build_M(rho, d, n)
    for x, y in itertools.product(xs, repeat=2):
        ils = dec.d_via_M(M, x, y)
        assert abs(ils - dec.d_via_M_streaming(rho, x, y)) <= 1e-12
        assert abs(ils - dec.d_series(rho, x, y)) <= 1e-12
    ils = dec.make_evaluator("ils", rho, d, n).gram(xs, xs[::-1])
    for method in ("stream", "series"):
        other = dec.make_evaluator(method, rho, d, n).gram(xs, xs[::-1])
        assert np.max(np.abs(ils - other)) <= 1e-12, method


def test_sparse_ils_on_a_dense_hand_made_kernel():
    # a kernel with no zero entry, so every term of the contraction counts
    d, n = 2, 2
    dim = d ** n
    rng = np.random.default_rng(1616)
    m = rng.standard_normal((dim * dim,) * 2) + 1j * rng.standard_normal((dim * dim,) * 2)
    assert np.all(m != 0)
    # K[(a,c),(b,e)] = M[(c,e),(a,b)], every entry in row-major order
    c, e, a, b = np.unravel_index(np.arange(m.size), (dim,) * 4)
    M = dec.ILSOperator(pair_entries=(a * dim + c, b * dim + e, m.reshape(-1)),
                        order=n, single_dim=d, rho=pure_e1(d))
    assert np.array_equal(M.matrix, m)
    m4 = m.reshape(dim, dim, dim, dim)
    for _ in range(5):
        p, q = (random_proj(dim, rng, int(rng.integers(1, dim + 1))) for _ in range(2))
        # tr((p (x) q) M) = sum p[a,b] q[c,e] M[(b,e),(a,c)]
        want = np.einsum("ab,ce,beac->", p, q, m4)
        assert abs(want - np.trace(np.kron(p, q) @ m)) <= 1e-12
        got = dec.d_via_M(M, history_projection(p, n, d), history_projection(q, n, d))
        assert abs(got - want) <= 1e-12


def test_state_matrix_cache_leaves_direct_and_stream_bytes_unchanged():
    rng = np.random.default_rng(1617)
    for d, n in ((2, 1), (2, 3), (3, 2)):
        rho = random_density(d, rng)
        facs = [[random_proj(d, rng) for _ in range(n)] for _ in range(2)]
        h, k = (homogeneous_history(x) for x in facs)
        # the dense state recomputed inline, as every call once did
        rho_m = (rho.vectors * rho.weights) @ rho.vectors.conj().T
        left = reduce(np.matmul, list(reversed(facs[0])))
        right = reduce(np.matmul, facs[1])
        assert _hex(dec.d_direct(rho, h, k)) == _hex(np.trace(left @ rho_m @ right))
        stack = np.array([kron_chain(x) for x in facs])
        a, b = dec.partial_trace_a(stack, d, n), dec.partial_trace_b(stack, d, n)
        want = np.einsum("ivt,ts,jsv->ij", a[:1], rho_m, b[1:])[0, 0]
        assert _hex(dec.d_via_M_streaming(rho, embed(facs[0]), embed(facs[1]))) == _hex(want)


def _free_value(method, rho, M, x, y):
    if method == "direct":
        return dec.d_direct(rho, x, y)
    if method == "series":
        return dec.d_series(rho, x, y)
    if method == "ils":
        return dec.d_via_M(M, x, y)
    return dec.d_via_M_streaming(rho, x, y)


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


@pytest.mark.parametrize("spectrum", ["full", "rank-deficient"])
@pytest.mark.parametrize("dn", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_free_functions_take_what_the_evaluator_takes(dn, spectrum):
    # each free function checks, pads and embeds its arguments as the bound
    # evaluator does, so it returns the same bits on both argument kinds and
    # raises the same ShapeError; d_series, d_via_M and d_via_M_streaming
    # used to raise AttributeError on homogeneous histories, and d_direct on
    # history projections.  value calls the one-pair function of its
    # method's free function, and never the Gram function
    d, n = dn
    rng = np.random.default_rng([d, n, SPECTRA.index(spectrum)])
    rho = _spectrum_state(spectrum, d, rng)
    M = dec.build_M(rho, d, n)
    h = homogeneous_history([random_proj(d, rng) for _ in range(n)])
    k = homogeneous_history([random_proj(d, rng) for _ in range(n)])
    args = {"homogeneous": (h, k),
            "projection": tuple(history_projection(random_proj(d ** n, rng), n, d)
                                for _ in range(2))}

    def no_gram(xs, ys):
        raise AssertionError("value asked the Gram function")
    for method in ("direct", "series", "ils", "stream"):
        ev = replace(dec.make_evaluator(method, rho, d, n), _gram=no_gram)
        for kind, (x, y) in args.items():
            if method == "direct" and kind == "projection":
                for call in (partial(_free_value, method, rho, M), ev.value):
                    with pytest.raises(ShapeError):
                        call(x, y)
                continue
            got = _free_value(method, rho, M, x, y)
            assert _hex(got) == _hex(ev.value(x, y)), (method, kind)


def test_free_functions_refuse_mixed_orders_and_other_dimensions():
    rho, M = pure_e1(2), dec.build_M(pure_e1(2), 2, 2)
    p2, p3 = identity_history_projection(2, 2), identity_history_projection(2, 3)
    h3 = homogeneous_history([np.eye(3)] * 2)
    q3 = identity_history_projection(3, 2)
    for method in ("direct", "series", "ils", "stream"):
        for x, y in ((p2, p3), (p3, p2), (h3, h3), (q3, p2), (p2, q3)):
            with pytest.raises(ShapeError):
                _free_value(method, rho, M, x, y)
    # the kernel fixes the order: a longer homogeneous history does not fit
    with pytest.raises(ShapeError, match="does not fit"):
        dec.d_via_M(M, homogeneous_history([P0] * 3), homogeneous_history([P0] * 3))
