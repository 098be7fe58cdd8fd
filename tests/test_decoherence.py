import gc
import itertools
import weakref
from dataclasses import replace
from functools import partial, reduce

import numpy as np
import pytest

from histq import decoherence as dec
from histq.consistency import build_family, diag_excess_search
from histq.errors import ShapeError, ValidationError
from histq.historyspace import (METHODS, completed_basis, density_from_spectral,
                                homogeneous_history, history_projection, pad_history,
                                validate_projection)
from histq.quadform import simple_tensor_sum
from histq.seeding import generator

from conftest import (DIFFERENTIAL_SPECTRA, P0, P1, PMINUS, PPLUS, SPECTRA, bits, embed,
                      haar_unitary, identity_history_projection, kron_chain,
                      near_degenerate_states, pairwise_gram, pure_e1, pure_state,
                      random_density, random_proj, spectrum_state)


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


def test_zero_history_gives_zero(rng):
    rho = random_density(2, rng)
    zero = history_projection(np.zeros((4, 4)), 2, 2)
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


def test_build_m_materializes_above_the_command_line_cap():
    # the doubled dimension 1296 is above build-m's materialization cap of
    # 1024, which the library does not check: the dense M (about 27 MB) is
    # scattered from the kernel's entries when it is read
    m = dec.build_M(pure_e1(6), 6, 2).matrix
    assert m.shape == (1296, 1296)
    assert np.trace(m) == 1.0


@pytest.mark.parametrize("d, n, message", [
    (2, 0, "n must be >= 1, got 0"), (2, -1, "n must be >= 1, got -1"),
    (2, 2.5, "n must be an integer, got 2.5"), (2, True, "n must be an integer, got True"),
    (0, 2, "d must be >= 1, got 0"), (2.5, 2, "d must be an integer, got 2.5"),
    (True, 2, "d must be an integer, got True")])
def test_kernel_and_evaluators_check_d_and_n(d, n, message):
    # n = 0 and 2.5 raised TypeError in the kernel table, n = True built a
    # kernel of order True, and a stream evaluator bound at n = 0
    binds = [partial(dec.build_M, pure_e1(2))]
    binds += [partial(dec.make_evaluator, method, pure_e1(2)) for method in METHODS]
    # random_homogeneous(2, 2.5), (2.5, 2) and (True, 2) raised TypeError
    # and (2, 0) a ShapeError from the empty history
    binds.append(lambda d, n: dec.random_homogeneous(d, n, np.random.default_rng(0)))
    for bind in binds:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            bind(d, n)


def test_kernel_and_evaluators_take_integral_floats(rng):
    rho = random_density(2, rng)
    M, want = dec.build_M(rho, 2.0, 2.0), dec.build_M(rho, 2, 2)
    assert (M.single_dim, M.order) == (2, 2) and type(M.order) is int
    assert all(np.array_equal(a, b) for a, b in zip(M.pair_entries, want.pair_entries))
    for method in METHODS:
        ev = dec.make_evaluator(method, rho, 2.0, np.float64(2.0))
        assert (ev.single_dim, ev.order) == (2, 2) and type(ev.order) is int


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
    # the history-space records too: two equal values are two values, and
    # membership and hashing never ask an array for its truth value
    twins = {
        "Projection": lambda: validate_projection(P0),
        "HomogeneousHistory": lambda: homogeneous_history([P0, PPLUS]),
        "HistoryProjection": lambda: embed([P0, PPLUS]),
        "SimpleTensorSum": lambda: simple_tensor_sum([(P0, PPLUS)]),
        "HistoryFamily": lambda: build_family([embed([P0, P0]), embed([P1, P0])]),
        "SearchResult": lambda: diag_excess_search(m, budget=1, sweeps=1),
    }
    for name, make in twins.items():
        x, y = make(), make()
        assert type(x).__name__ == name
        assert (x == y) is False and x != y, name
        assert x in [x] and x not in [y] and hash(x) == hash(x), name
        assert len({x, y}) == 2, name


def test_make_evaluator_unknown_method(rng):
    rho = random_density(2, rng)
    with pytest.raises(ValidationError, match="unknown evaluation method 'nope'"):
        dec.make_evaluator("nope", rho, 2, 2)
    for method in METHODS:
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
    # once (their Gram function, bound when the evaluator is made, gets one
    # tuple for both sides), with the bits of value(h, h') for an equal copy h'
    rho = random_density(2, rng)
    h = homogeneous_history([random_proj(2, rng) for _ in range(3)])
    calls, one_stack = [], []
    gram_name = {"ils": "_ils_gram", "stream": "_stream_gram"}.get(method)
    if gram_name is not None:
        gram = getattr(dec, gram_name)
        monkeypatch.setattr(dec, gram_name,
                            lambda *a: one_stack.append(a[-1] is a[-2]) or gram(*a))
    ev = dec.make_evaluator(method, rho, 2, 3)
    want = ev.value(h, replace(h))
    del one_stack[:]
    embed = dec.embed_homogeneous
    monkeypatch.setattr(dec, "embed_homogeneous",
                        lambda *a, **kw: calls.append(a) or embed(*a, **kw))
    got = ev.value(h, h)
    assert len(calls) == 1
    assert one_stack == ([] if gram_name is None else [True])
    assert bits(got) == bits(want)


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
                                (2, 5), (4, 2), (5, 2), (9, 1), (2, 6)])
def test_series_is_bit_identical_to_tuple_loop(dn, spectrum):
    # at d >= 8 a sum over t taken pairwise, not in sequence, changes the
    # bits; at the history cap (2, 6) the reversed digits of u run over five
    # slots
    d, n = dn
    rng = np.random.default_rng([d, n, SPECTRA.index(spectrum)])
    rho = spectrum_state(spectrum, d, rng)
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


def test_series_tuple_table_is_cached_and_read_only():
    d, n = 2, 3
    dim = d ** n
    pos = dec._tuple_table(d, n)
    assert dec._tuple_table(d, n) is pos
    # (order, t, part, entry) positions in the float64 view of h and k laid
    # end to end: D entries of each half per t, the parts swapped in order 1
    assert pos.shape == (2, d, 2, 2 * dim)
    assert np.array_equal(pos[0, :, 1] - pos[0, :, 0], np.ones((d, 2 * dim)))
    assert not (pos[0, :, 0] % 2).any()
    assert np.array_equal(pos[1], pos[0, :, ::-1])
    # h halves read the first 2 D^2 floats and k halves the next, each
    # entry once per (t, part)
    h, k = pos[..., :dim], pos[..., dim:]
    assert h.min() >= 0 and h.max() < 2 * dim ** 2 <= k.min() and k.max() < 4 * dim ** 2
    for half in (h, k):
        assert np.unique(half[0]).size == half[0].size == 2 * d * dim
    assert not pos.flags.writeable
    with pytest.raises(ValueError):
        pos[..., 0] = 0


def test_series_rank_deficient_call_leaves_the_cached_table_intact():
    # a zero weight filters the shared table per call; the full-rank calls
    # of the same (d, n) on either side must still read the whole table
    d, n = 3, 2
    rng = np.random.default_rng(31)
    basis = haar_unitary(d, rng)
    full = spectrum_state("full", d, rng, basis)
    deficient = spectrum_state("rank-deficient", d, rng, basis)
    p = history_projection(random_proj(d ** n, rng, 4), n, d)
    q = history_projection(random_proj(d ** n, rng, 5), n, d)
    before = dec.d_series(full, p, q)
    assert bits(dec.d_series(deficient, p, q)) == bits(_series_loop(deficient, p, q))
    after = dec.d_series(full, p, q)
    assert bits(before) == bits(after) == bits(_series_loop(full, p, q))


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
            want = bits(_series_loop(rho, p, q))
            assert bits(dec.d_series(rho, p, q)) == want
            assert bits(gram[i, j]) == want


def test_series_sum_of_negative_zeros_is_positive_zero():
    # signed zeros in h make every term -0.0 in one part for (h, 1) and
    # (1, h); the loop sums from 0j and gives +0.0, as must the value and
    # the Gram
    rho = density_from_spectral([1.0], np.full((2, 1), -0.5 - 0.5j))
    zero = np.zeros((2, 2), dtype=np.complex128)
    zero.real[:, 1] = -0.0
    zero.imag[1] = -0.0
    h, eye = history_projection(zero, 1, 2), identity_history_projection(2, 1)
    ev = dec.make_evaluator("series", rho, 2, 1)
    for p, q in ((h, eye), (eye, h), (h, h)):
        want = bits(_series_loop(rho, p, q))
        assert want == [("0x0.0p+0", "0x0.0p+0")]
        assert bits(dec.d_series(rho, p, q)) == bits(ev.gram([p], [q])) == want


def test_series_memo_entry_dies_with_its_state():
    gc.collect()
    before = len(dec._series_memo)
    rho = density_from_spectral([0.75, 0.25], haar_unitary(2, np.random.default_rng(41)))
    p = identity_history_projection(2, 2)
    dec.d_series(rho, p, p)
    assert len(dec._series_memo) == before + 1
    alive = weakref.ref(rho)
    del rho
    gc.collect()
    assert alive() is None
    assert len(dec._series_memo) == before


def test_series_memo_arrays_are_read_only():
    rho = density_from_spectral([0.5, 0.5, 0.0], haar_unitary(3, np.random.default_rng(42)))
    p = identity_history_projection(3, 2)
    dec.d_series(rho, p, p)
    terms = dec._series_memo[rho][(3, 2)]
    assert terms is dec._series_terms(rho, 3, 2)
    # positions and factors per (order, t, part) and (half, j0, entry) for
    # the two rows of nonzero weight, and those weights as a column
    pos, factors, w = terms
    assert pos.shape == factors.shape == (2, 3, 2, 2 * 2 * 9)
    assert w.shape == (2, 1)
    for x in terms:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[..., 0] = 0


@pytest.mark.parametrize("full_first", [True, False])
def test_series_warm_memo_is_bit_identical_to_tuple_loop(full_first):
    # a full-rank and a rank-deficient state at the same (d, n) share the
    # tuple table; each keeps its own filtered memo entry, in either order
    d, n = 3, 2
    rng = np.random.default_rng([43, full_first])
    basis = haar_unitary(d, rng)
    full = spectrum_state("full", d, rng, basis)
    deficient = spectrum_state("rank-deficient", d, rng, basis)
    xs = [history_projection(random_proj(d ** n, rng, r), n, d) for r in (1, 4, 8)]
    states = (full, deficient) if full_first else (deficient, full)
    for _ in range(2):  # the second round reads the warm memo
        for rho in states:
            gram = dec.make_evaluator("series", rho, d, n).gram(xs, xs)
            for i, x in enumerate(xs):
                for j, y in enumerate(xs):
                    want = bits(_series_loop(rho, x, y))
                    assert bits(dec.d_series(rho, x, y)) == want
                    assert bits(gram[i, j]) == want
    # both memo entries repeat the one table of (d, n) per row of nonzero
    # weight, and the rank-deficient state keeps fewer rows
    table = dec._tuple_table(d, n).reshape(2, d, 2, 2, 1, d ** n)
    for rho, rows in ((full, d), (deficient, d - 1)):
        pos, _, w = dec._series_memo[rho][(d, n)]
        assert w.shape == (rows, 1)
        assert np.array_equal(pos.reshape(2, d, 2, 2, rows, d ** n),
                              np.broadcast_to(table, (2, d, 2, 2, rows, d ** n)))


@pytest.mark.parametrize("dn", [(2, 3), (3, 3)])
def test_series_gram_is_bit_identical_to_tuple_loop(dn):
    # the Gram is the table of series values: every entry of a rectangular
    # Gram has the loop's bits
    d, n = dn
    dim = d ** n
    rng = np.random.default_rng([d, n, 45])
    basis = haar_unitary(d, rng)
    xs = [history_projection(random_proj(dim, rng, r), n, d) for r in (1, dim // 2, dim)]
    ys = [history_projection(random_proj(dim, rng, r), n, d) for r in (2, dim - 1)]
    for kind in ("full", "rank-deficient"):
        rho = spectrum_state(kind, d, rng, basis)
        gram = dec.make_evaluator("series", rho, d, n).gram(xs, ys)
        assert gram.shape == (3, 2)
        assert bits(gram) == [bit for x in xs for y in ys for bit in bits(_series_loop(rho, x, y))]


def test_series_memo_keeps_equal_states_apart():
    basis = haar_unitary(2, np.random.default_rng(44))
    a, b = (density_from_spectral([0.6, 0.4], basis) for _ in range(2))
    p = identity_history_projection(2, 1)
    assert dec.d_series(a, p, p) == dec.d_series(b, p, p)
    assert dec._series_memo[a] is not dec._series_memo[b]
    assert dec._series_memo[a][(2, 1)] is not dec._series_memo[b][(2, 1)]


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
    # at (2, 6), D = 64 is the command line's history cap and D^2 = 4096 is
    # above its materialization cap: ils contracts the kernel's entries
    # without forming the dense M
    d, n = 2, 6
    dim = d ** n
    rng = np.random.default_rng(2606)
    rho = random_density(d, rng)
    xs = [history_projection(random_proj(dim, rng), n, d) for _ in range(4)]
    ils = dec.make_evaluator("ils", rho, d, n).gram(xs, xs)
    for method in ("stream", "series"):
        other = dec.make_evaluator(method, rho, d, n).gram(xs, xs)
        assert np.max(np.abs(ils - other)) <= 1e-9, method


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
        assert bits(dec.d_direct(rho, h, k)) == bits(np.trace(left @ rho_m @ right))
        stack = np.array([kron_chain(x) for x in facs])
        a, b = dec.partial_trace_a(stack, d, n), dec.partial_trace_b(stack, d, n)
        want = np.einsum("ivt,ts,jsv->ij", a[:1], rho_m, b[1:])[0, 0]
        assert bits(dec.d_via_M_streaming(rho, embed(facs[0]), embed(facs[1]))) == bits(want)


def free_functions(rho, M):
    """The free function of each method, bound to the state or, for ils, to
    its kernel M."""
    return {"direct": partial(dec.d_direct, rho), "series": partial(dec.d_series, rho),
            "ils": partial(dec.d_via_M, M), "stream": partial(dec.d_via_M_streaming, rho)}


@pytest.mark.parametrize("kind", DIFFERENTIAL_SPECTRA)
@pytest.mark.parametrize("dn", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_the_four_evaluators_agree(dn, kind):
    # the differential table: every method on every ordered pair of its
    # arguments, the identity, two random homogeneous histories, at d = 2 a
    # history whose factors diag(1, 8e-9) pass validation at 1e-8 while
    # their Kronecker product would not, and three history projections of
    # random rank 0 ... D, which direct does not take
    d, n = dn
    dim = d ** n
    rng = np.random.default_rng([d, n, DIFFERENTIAL_SPECTRA.index(kind)])
    rho = spectrum_state(kind, d, rng)
    hs = [homogeneous_history([np.eye(d)] * n),
          *(dec.random_homogeneous(d, n, rng) for _ in range(2))]
    if d == 2:
        hs.append(homogeneous_history([np.diag([1.0, 8e-9])] * n))
    xs = hs + [history_projection(random_proj(dim, rng, int(rng.integers(0, dim + 1))), n, d)
               for _ in range(3)]

    table = {}
    for method, fn in free_functions(rho, dec.build_M(rho, d, n)).items():
        ev = dec.make_evaluator(method, rho, d, n)
        args = hs if method == "direct" else xs
        # (d) the free function checks, pads and embeds as value does and
        # computes as it does: the same bits or ShapeError.  The series gram
        # is the table of its values and every other value is its one-pair
        # gram, bit for bit
        table[method] = pairwise_gram(fn, args, args)
        values = pairwise_gram(ev.value, args, args)
        assert bits(table[method]) == bits(values), method
        if method == "series":
            assert bits(ev.gram(args, args)) == bits(values)
        else:
            one_pair = [[ev.gram([x], [y])[0, 0] for y in args] for x in args]
            assert bits(values) == bits(np.array(one_pair)), method
        if method == "direct":
            for call in (fn, ev.value):
                with pytest.raises(ShapeError):
                    call(xs[-2], xs[-1])
        # (e) the Gram square, from one list and from two, and rectangular:
        # the bits of the pairwise values for series and direct, within
        # 1e-12 of them for the kernel contractions
        for got, want in ((ev.gram(args, args), table[method]),
                          (ev.gram(args, list(args)), table[method]),
                          (ev.gram(args[:1], args[::-1]), table[method][:1, ::-1])):
            if method in ("direct", "series"):
                assert bits(got) == bits(want), method
            else:
                assert np.max(np.abs(got - want)) <= 1e-12, method
    # (a) the three methods that take projections, (b) direct against
    # series on the homogeneous pairs, (c) d(1, 1) = 1 for all four
    for method in ("ils", "stream"):
        assert np.max(np.abs(table[method] - table["series"])) <= 1e-12, method
    assert np.max(np.abs(table["direct"] - table["series"][:len(hs), :len(hs)])) <= 1e-10
    for method, values in table.items():
        assert abs(values[0, 0] - 1.0) <= 1e-10, method


@pytest.mark.parametrize("method", ["series", "stream", "ils"])
@pytest.mark.parametrize("misfit", ["single-dim", "order"])
def test_gram_raises_what_the_loop_raises(misfit, method):
    # a Gram with an argument outside the evaluator's geometry raises the
    # ShapeError, message included, of the first pair the value loop reaches
    xs = [embed([a, b]) for a in (P0, P1) for b in (P0, P1)]
    if misfit == "single-dim":  # single_dim 2 against the state's 3
        ev, ys = dec.make_evaluator(method, pure_e1(3), 3, 2), xs
    else:
        ev, ys = dec.make_evaluator(method, pure_e1(2), 2, 2), [embed([P0, P0, P0])]
    with pytest.raises(ShapeError) as batched:
        ev.gram(xs, ys)
    with pytest.raises(ShapeError) as loop:
        pairwise_gram(ev.value, xs, ys)
    assert str(batched.value) == str(loop.value)


def test_free_functions_refuse_mixed_orders_and_other_dimensions():
    rho, M = pure_e1(2), dec.build_M(pure_e1(2), 2, 2)
    p2, p3 = identity_history_projection(2, 2), identity_history_projection(2, 3)
    h3 = homogeneous_history([np.eye(3)] * 2)
    q3 = identity_history_projection(3, 2)
    for fn in free_functions(rho, M).values():
        for x, y in ((p2, p3), (p3, p2), (h3, h3), (q3, p2), (p2, q3)):
            with pytest.raises(ShapeError):
                fn(x, y)
    # the kernel fixes the order: a longer homogeneous history does not fit
    with pytest.raises(ShapeError, match="does not fit"):
        dec.d_via_M(M, homogeneous_history([P0] * 3), homogeneous_history([P0] * 3))
