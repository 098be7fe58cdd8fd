import numpy as np
import pytest

from histq import consistency as cs
from histq.consistency import pairwise_gram
from histq.decoherence import (ILSOperator, build_M, d_direct, d_series, d_via_M_streaming,
                               make_evaluator, partial_traces, random_homogeneous)
from histq.errors import ShapeError, ValidationError
from histq.historyspace import (density_from_spectral, density_matrix, history_projection,
                                identity_history_projection)
from histq.seeding import generator

from conftest import (P0, P1, PMINUS, PPLUS, haar_unitary, kron_chain, pure_e1,
                      pure_state, random_density)


def embed(mats):
    return history_projection(kron_chain(mats), len(mats), mats[0].shape[0])


def double_z_family():
    members = [embed([a, b]) for a in (P0, P1) for b in (P0, P1)]
    return cs.build_family(members, labels=("00", "01", "10", "11"))


def x_then_z_family():
    members = [embed([a, b]) for a in (PPLUS, PMINUS) for b in (P0, P1)]
    return cs.build_family(members, labels=("+0", "+1", "-0", "-1"))


def test_golden_double_z_is_consistent():
    rho = pure_state([1, 1])
    report = cs.check_consistent(make_evaluator("series", rho, 2, 2),
                                 double_z_family())
    assert report.consistent
    assert report.max_re_offdiag <= 1e-9
    expected = {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}
    for label, p in expected.items():
        assert abs(report.probabilities[label] - p) <= 1e-9
    assert abs(report.prob_sum - 1.0) <= 1e-9
    assert report.unphysical == ()


def test_golden_x_then_z_is_inconsistent():
    rho = pure_e1(2)
    report = cs.check_consistent(make_evaluator("series", rho, 2, 2),
                                 x_then_z_family())
    assert not report.consistent
    assert abs(report.max_re_offdiag - 0.25) <= 1e-12
    for label in ("+0", "+1", "-0", "-1"):
        assert abs(report.probabilities[label] - 0.25) <= 1e-12
    assert set(report.unphysical) == {"+0++1+-0", "+0+-0+-1"}


def test_trivial_identity_family(rng):
    rho = random_density(2, rng)
    family = cs.build_family([identity_history_projection(2, 2)])
    report = cs.check_consistent(make_evaluator("series", rho, 2, 2), family)
    assert report.consistent
    assert abs(report.probabilities["g0"] - 1.0) <= 1e-10
    assert family.atom_labels == ("g0",)


def unphysical_sets(family, report):
    # invert the "+"-joined rendering back to label sets, which are the
    # permutation-invariant content
    k = len(family.atom_labels)
    table = {}
    for m in range(1, 1 << k):
        chosen = [family.atom_labels[i] for i in range(k) if m >> i & 1]
        table["+".join(chosen)] = frozenset(chosen)
    return {table[u] for u in report.unphysical}


def test_report_invariant_under_member_permutation():
    rho = pure_e1(2)
    ev = make_evaluator("series", rho, 2, 2)
    members = [embed([a, b]) for a in (PPLUS, PMINUS) for b in (P0, P1)]
    labels = ("+0", "+1", "-0", "-1")
    base_family = cs.build_family(members, labels)
    base = cs.check_consistent(ev, base_family)
    perm = [2, 0, 3, 1]
    shuffled = cs.build_family([members[i] for i in perm],
                               [labels[i] for i in perm])
    other = cs.check_consistent(ev, shuffled)
    assert other.consistent == base.consistent
    assert abs(other.max_re_offdiag - base.max_re_offdiag) <= 1e-12
    assert other.probabilities == pytest.approx(base.probabilities, abs=1e-12)
    assert unphysical_sets(shuffled, other) == unphysical_sets(base_family, base)


def test_tolerance_relabels_verdict():
    rho = pure_e1(2)
    ev = make_evaluator("series", rho, 2, 2)
    report = cs.check_consistent(ev, x_then_z_family(), tol=0.3)
    assert report.consistent
    assert report.tol == 0.3


def test_complement_atom_added():
    rho = pure_e1(2)
    family = cs.build_family([embed([P0, P0])])
    assert family.atom_labels == ("g0", "rest")
    assert len(family.atoms) == 2
    report = cs.check_consistent(make_evaluator("series", rho, 2, 2), family)
    assert list(report.probabilities) == ["g0"]
    assert report.consistent


def test_build_family_rejections():
    p00 = embed([P0, P0])
    p01 = embed([P0, P1])
    with pytest.raises(ValidationError, match="at least one"):
        cs.build_family([])
    with pytest.raises(ValidationError, match="not orthogonal"):
        cs.build_family([p00, p00])
    with pytest.raises(ValidationError, match="unique"):
        cs.build_family([p00, p01], labels=("a", "a"))
    with pytest.raises(ValidationError, match="reserved"):
        cs.build_family([p00], labels=("rest",))
    with pytest.raises(ValidationError, match="labels for"):
        cs.build_family([p00, p01], labels=("a",))
    with pytest.raises(ShapeError, match="different history spaces"):
        cs.build_family([p00, history_projection(np.zeros((2, 2)), 1, 2)])


def test_first_non_orthogonal_pair_is_named_in_row_major_order():
    eye = np.eye(2)
    p00, p01, p1x = embed([P0, P0]), embed([P0, P1]), embed([P1, eye])
    # pairs (0, 3) and (1, 4) both fail; row-major order names (0, 3)
    with pytest.raises(ValidationError, match="'g0' and 'g3' are not orthogonal"):
        cs.build_family([p00, p01, p1x, p00, p01])
    with pytest.raises(ValidationError, match="'g2' and 'g3' are not orthogonal"):
        cs.build_family([p1x, p00, p01, p01])


def test_generator_count_is_capped_before_the_pair_check():
    members = [identity_history_projection(2, 1)] * (cs.MAX_ATOMS + 1)
    with pytest.raises(ValidationError, match="generators exceed cap"):
        cs.build_family(members)


def test_atom_cap():
    dim = 16
    members = []
    for i in range(12):
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[i, i] = 1.0
        members.append(history_projection(m, 4, 2))
    with pytest.raises(ValidationError, match="exceed cap"):
        cs.build_family(members)
    assert len(cs.build_family(members[:11]).atoms) == 12


def crafted_gram_evaluator(family, gram):
    atoms = family.atoms

    def fake(p, q):
        i = next(n for n, a in enumerate(atoms) if a is p)
        j = next(n for n, a in enumerate(atoms) if a is q)
        return gram[i, j]

    return fake


def test_bare_callable_evaluator_and_crafted_gram():
    family = cs.build_family([embed([P0, P0]), embed([P0, P1])])
    gram = np.diag([2.0, -0.2, 0.1])
    report = cs.check_consistent(crafted_gram_evaluator(family, gram), family)
    assert not report.consistent
    assert report.probabilities["g1"] == -0.2
    assert "g0" in report.unphysical
    assert report.max_re_offdiag == 0.0


def diagonal_family(k):
    # k atoms on the 8-dimensional history space of (d, n) = (2, 3): k - 1
    # coordinate projectors and the projector onto the remaining coordinates
    members = []
    for i in range(k):
        m = np.zeros((8, 8), dtype=np.complex128)
        if i < k - 1:
            m[i, i] = 1.0
        else:
            m[np.arange(i, 8), np.arange(i, 8)] = 1.0
        members.append(history_projection(m, 3, 2))
    return cs.build_family(members)


def brute_force_report(gram, atom_labels, tol):
    # walk every ordered pair (s, t) of non-empty disjoint closure elements
    k = gram.shape[0]
    re_gram = gram.real
    ind = [np.array([m >> i & 1 for i in range(k)], dtype=float)
           for m in range(1 << k)]
    max_re = 0.0
    for s in range(1, 1 << k):
        for t in range(1, 1 << k):
            if s & t == 0:
                max_re = max(max_re, abs(float(ind[s] @ re_gram @ ind[t])))
    unphysical = {frozenset(atom_labels[i] for i in range(k) if m >> i & 1)
                  for m in range(1, 1 << k)
                  if ind[m] @ re_gram @ ind[m] > 1.0 + tol}
    return max_re, unphysical


@pytest.mark.parametrize("k", range(1, 9))
def test_max_re_offdiag_matches_ordered_pair_walk(k):
    family = diagonal_family(k)
    assert len(family.atoms) == k
    gen = generator(4000 + k, "samples")
    for hermitian in (True, False):
        g = gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k))
        gram = (g + g.conj().T) / 2.0 if hermitian else g
        report = cs.check_consistent(crafted_gram_evaluator(family, gram),
                                     family, tol=1e-9)
        max_re, unphysical = brute_force_report(gram, family.atom_labels, 1e-9)
        assert abs(report.max_re_offdiag - max_re) <= 1e-12
        assert type(report.max_re_offdiag) is float
        assert unphysical_sets(family, report) == unphysical


def test_both_orientations_of_a_disjoint_pair_are_checked():
    eye = np.eye(2)
    family = cs.build_family([embed([P0, eye]), embed([P1, eye])])
    gram = np.array([[0.5, 0.0], [0.4, 0.5]], dtype=np.complex128)
    report = cs.check_consistent(crafted_gram_evaluator(family, gram), family)
    assert report.max_re_offdiag == pytest.approx(0.4, abs=1e-15)
    assert not report.consistent
    assert report.probabilities == {"g0": 0.5, "g1": 0.5}


def test_bare_callable_matches_bound_evaluator(rng):
    rho = random_density(2, rng)
    family = double_z_family()
    bound = cs.check_consistent(make_evaluator("series", rho, 2, 2), family)
    bare = cs.check_consistent(lambda p, q: d_series(rho, p, q), family)
    assert bound == bare


def test_search_finds_excess_diagonal():
    M = build_M(pure_e1(2), 2, 2)
    res = cs.diag_excess_search(M, budget=20, seed=0)
    assert res.value >= 1.05
    assert res.value == pytest.approx(2.25, abs=1e-6)
    assert res.value <= 8.0 + 1e-9
    assert res.rank == 2
    assert res.xi is None
    assert 0 <= res.restart_index < 20
    direct = d_series(pure_e1(2), res.projection, res.projection)
    assert abs(direct.real - res.value) <= 1e-9


def test_search_budget_monotone():
    M = build_M(pure_e1(2), 2, 2)
    small = cs.diag_excess_search(M, budget=5, seed=0)
    large = cs.diag_excess_search(M, budget=50, seed=0)
    assert large.value >= small.value - 1e-12


def test_search_single_time_finds_no_excess(rng):
    # at order 1 every diagonal is tr(p rho p) <= 1, so the probe must not
    # report a value above one; p = 1 attains the supremum 1 for every state
    M = build_M(random_density(2, rng), 2, 1)
    res = cs.diag_excess_search(M, budget=10, seed=0)
    assert 0.0 < res.value <= 1.0 + 1e-9
    assert abs(res.value - 1.0) <= 1e-12


def test_search_deterministic():
    M = build_M(pure_e1(2), 2, 2)
    r1 = cs.diag_excess_search(M, budget=10, seed=3)
    r2 = cs.diag_excess_search(M, budget=10, seed=3)
    assert r1.value == r2.value
    assert r1.restart_index == r2.restart_index
    assert r1.projection.matrix.tobytes() == r2.projection.matrix.tobytes()


def test_search_rejects_bad_budget():
    M = build_M(pure_e1(2), 2, 2)
    with pytest.raises(ValidationError, match="budget"):
        cs.diag_excess_search(M, budget=0)


def test_search_rank_one_peak_reports_xi():
    M = build_M(pure_e1(2), 2, 1)
    res = cs.diag_excess_search(M, budget=5, seed=0)
    assert res.rank == 1
    assert res.xi is not None
    assert abs(np.linalg.norm(res.xi) - 1.0) <= 1e-12
    assert np.allclose(np.outer(res.xi, np.conj(res.xi)),
                       res.projection.matrix, atol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_diagonals_never_exceed_one(rng):
    rho = random_density(2, rng)
    ev = make_evaluator("series", rho, 2, 2)
    gen = generator(77, "samples")
    for _ in range(200):
        h = random_homogeneous(2, 2, gen)
        v = ev.value(h, h)
        assert v.real <= 1.0 + 1e-9


def _reference_positive_projector(h):
    # the projector onto the positive eigenspace, multiplied out, with the
    # search's fallback to the top eigenvector
    vals, vecs = np.linalg.eigh(h)
    keep = vals > 1e-12
    v = vecs[:, keep] if np.any(keep) else vecs[:, -1:]
    return v @ v.conj().T


def _reference_search(source, budget, seed, sweeps=50):
    # the unfused sweep: X from an einsum against the identity, p = V V^dagger
    # multiplied out, and A(p) from `partial_traces`; returns the best
    # (value, p, restart) under the search's stop and tie rules
    d, n = source.single_dim, source.order
    dim, r = d ** n, d ** (n - 1)
    if isinstance(source, ILSOperator):
        rho_m = source.matrix.reshape(d, r, r, d, r, d, d, r)[:, 0, 0, 0, 0, 0, :, 0]
    else:
        rho_m = density_matrix(source.rho)
    w, v = np.linalg.eigh(rho_m)
    s = v[:, w > 1e-12] * np.sqrt(w[w > 1e-12])
    best_val, best_p, best_restart = -np.inf, None, -1
    for restart in range(budget):
        phi = s
        if restart:
            rng = generator(seed, "search", restart)
            phi = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        val = 0.0
        for _ in range(sweeps):
            x = np.einsum("tv,wu->twuv", s @ phi.conj().T, np.eye(r)).reshape(dim, dim)
            p = _reference_positive_projector((x + x.conj().T) / 2.0)
            a_s = partial_traces(p[None], d, n)[0][0] @ s
            norm = np.linalg.norm(a_s)
            gain, val = norm ** 2 - val, float(norm ** 2)
            if gain <= cs.STOP_TOL * max(1.0, val):
                break
            phi = a_s / norm
        if val > best_val + cs.TIE_TOL:
            best_val, best_p, best_restart = val, p, restart
    return best_val, best_p, best_restart


def assert_matches_reference(res, source, budget, seed):
    value, p, restart = _reference_search(source, budget, seed)
    assert res.restart_index == restart
    assert res.rank == int(round(np.trace(p).real))
    assert abs(res.value - value) <= 1e-12 * max(1.0, value)
    assert np.max(np.abs(res.projection.matrix - p)) <= 1e-10


def _einsum_ascent(M, budget, seed, sweeps=50):
    # the bilinear ascent on Re d(p, q) contracted against
    # M4 = M.reshape(D, D, D, D) directly: both slots move, restarts start
    # at q = a random rank-one projection, and the better diagonal of the
    # fixed point counts
    dim = M.single_dim ** M.order
    m4 = M.matrix.reshape(dim, dim, dim, dim)

    def diag_value(p):
        return complex(np.einsum("ac,be,ceab->", p, p, m4)).real

    best = (-np.inf, None, -1)
    for restart in range(budget):
        rng = generator(seed, "search", restart)
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        xi /= np.linalg.norm(xi)
        q = np.outer(xi, np.conj(xi))
        p = np.eye(dim, dtype=np.complex128)
        for _ in range(sweeps):
            w = np.einsum("be,ceab->ca", q, m4)
            p_new = _reference_positive_projector((w + w.conj().T) / 2.0)
            t = np.einsum("ac,ceab->eb", p_new, m4)
            q_new = _reference_positive_projector((t + t.conj().T) / 2.0)
            done = (np.max(np.abs(p_new - p)) <= 1e-13
                    and np.max(np.abs(q_new - q)) <= 1e-13)
            p, q = p_new, q_new
            if done:
                break
        for cand in (p, q):
            val = diag_value(cand)
            if val > best[0] + 1e-12:
                best = (val, cand, restart)
    return best


@pytest.mark.parametrize("state", ["pure", "mixed"])
@pytest.mark.parametrize("dn", [(2, 2), (3, 2), (2, 3)])
def test_search_matches_einsum_ascent(dn, state):
    d, n = dn
    rng = np.random.default_rng([d, n])
    rho = pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d)) \
        if state == "pure" else random_density(d, rng)
    M = build_M(rho, d, n)
    for seed in range(10):
        res = cs.diag_excess_search(M, budget=3, seed=seed)
        value, _, _ = _einsum_ascent(M, budget=3, seed=seed)
        assert res.value >= value - 1e-9, seed
        again = d_via_M_streaming(rho, res.projection, res.projection)
        assert abs(again - res.value) <= 1e-9, seed


def gram_state(kind, d, rng):
    if kind == "full":
        return random_density(d, rng)
    if kind == "rank-one":
        return pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    if kind == "rank-deficient":
        w = np.zeros(d)
        w[:d - 1] = rng.dirichlet(np.ones(d - 1)) if d > 2 else 1.0
        return density_from_spectral(w, haar_unitary(d, rng))
    w = np.zeros(d)
    w[:2] = (0.50001, 0.49999)
    return density_from_spectral(w, np.eye(d, dtype=np.complex128))


def gram_families(rho, d, n, rng):
    # (family, whether it must be consistent): a random orthogonal split of
    # the history space, consistent only at one time, and the always
    # consistent family of the state's eigenprojectors at the first time
    dim = d ** n
    basis = haar_unitary(dim, rng)
    cuts = sorted(rng.choice(np.arange(1, dim), size=min(3, dim - 1), replace=False))
    members = [basis[:, lo:hi] @ basis[:, lo:hi].conj().T
               for lo, hi in zip([0, *cuts[:-1]], cuts)]
    yield cs.build_family([history_projection(m, n, d) for m in members]), n == 1
    eig = np.linalg.eigh(rho.vectors * rho.weights @ rho.vectors.conj().T)[1]
    rest = np.eye(d ** (n - 1))
    yield cs.build_family([history_projection(np.kron(np.outer(v, v.conj()), rest), n, d)
                           for v in eig.T]), True


def hex_entries(g):
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(g).tolist()]


@pytest.mark.parametrize("state", ["full", "rank-one", "rank-deficient", "near-degenerate"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_matches_the_pairwise_loop(n, d, state):
    rng = np.random.default_rng([n, d, len(state)])
    rho = gram_state(state, d, rng)
    evs = {m: make_evaluator(m, rho, d, n) for m in ("series", "stream", "ils")}
    for family, must_be_consistent in gram_families(rho, d, n, rng):
        atoms = family.atoms
        oracle = evs["series"].gram(atoms, atoms)
        # the series Gram is d_series pair by pair to the bit, also rectangular
        for xs, ys in ((atoms, atoms), (atoms[:1], atoms[::-1])):
            want = pairwise_gram(lambda p, q: d_series(rho, p, q), xs, ys)
            assert hex_entries(evs["series"].gram(xs, ys)) == hex_entries(want)
        reports = {m: cs.check_consistent(ev, family) for m, ev in evs.items()}
        for m in ("stream", "ils"):
            ev = evs[m]
            g = ev.gram(atoms, atoms)
            assert g.shape == (len(atoms), len(atoms))
            assert np.max(np.abs(g - pairwise_gram(ev.value, atoms, atoms))) <= 1e-12
            assert np.max(np.abs(g - oracle)) <= 1e-9
            # rectangular, with different lists on the two sides
            rect = ev.gram(atoms[:1], atoms[::-1])
            assert np.max(np.abs(rect - pairwise_gram(ev.value, atoms[:1], atoms[::-1]))) <= 1e-12
            assert reports[m].consistent == reports["series"].consistent
            assert reports[m].unphysical == reports["series"].unphysical
        if must_be_consistent:
            assert reports["series"].consistent


@pytest.mark.parametrize("method", ["stream", "ils"])
def test_golden_families_through_the_batched_gram(method):
    for rho, family in ((pure_state([1, 1]), double_z_family()),
                        (pure_e1(2), x_then_z_family())):
        want = cs.check_consistent(make_evaluator("series", rho, 2, 2), family)
        got = cs.check_consistent(make_evaluator(method, rho, 2, 2), family)
        assert (got.consistent, got.unphysical) == (want.consistent, want.unphysical)
        assert abs(got.max_re_offdiag - want.max_re_offdiag) <= 1e-12
    assert got.unphysical == ("+0++1+-0", "+0+-0+-1")


def test_gram_of_empty_lists_is_empty():
    ev = make_evaluator("stream", pure_e1(2), 2, 2)
    assert ev.gram([], double_z_family().atoms).shape == (0, 4)
    assert ev.gram(double_z_family().atoms, ()).shape == (4, 0)


@pytest.mark.parametrize("method", ["series", "stream", "ils"])
def test_gram_raises_what_the_loop_raises(method):
    ev = make_evaluator(method, pure_e1(3), 3, 2)
    family = double_z_family()  # single_dim 2 against the state's 3
    with pytest.raises(ShapeError) as batched:
        cs.check_consistent(ev, family)
    with pytest.raises(ShapeError) as loop:
        pairwise_gram(ev.value, family.atoms, family.atoms)
    assert str(batched.value) == str(loop.value)
    with pytest.raises(ShapeError) as bare:
        cs.check_consistent(lambda p, q: d_via_M_streaming(pure_e1(3), p, q), family)
    assert "single-time dimension" in str(bare.value)


@pytest.mark.parametrize("state", ["full", "rank-deficient"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_direct_gram_matches_d_direct_pair_by_pair(n, d, state):
    rng = np.random.default_rng([n, d, len(state), 7])
    rho = gram_state(state, d, rng)
    hs = [random_homogeneous(d, n, rng) for _ in range(3)]
    ks = [random_homogeneous(d, n, rng) for _ in range(2)]
    got = make_evaluator("direct", rho, d, n).gram(hs, ks)
    assert got.shape == (3, 2)
    want = pairwise_gram(lambda h, k: d_direct(rho, h, k), hs, ks)
    assert hex_entries(got) == hex_entries(want)


def test_gram_order_mismatch_raises_as_the_loop_does():
    rho = pure_e1(2)
    family = double_z_family()
    other = embed([P0, P0, P0])
    for method in ("series", "stream", "ils"):
        ev = make_evaluator(method, rho, 2, 2)
        with pytest.raises(ShapeError) as batched:
            ev.gram(family.atoms, (other,))
        with pytest.raises(ShapeError) as loop:
            pairwise_gram(ev.value, family.atoms, (other,))
        assert str(batched.value) == str(loop.value)


def test_direct_evaluator_is_refused_by_check_consistent():
    ev = make_evaluator("direct", pure_e1(2), 2, 2)
    with pytest.raises(ShapeError, match="homogeneous"):
        cs.check_consistent(ev, double_z_family())
    with pytest.raises(ShapeError, match="homogeneous"):
        ev.gram(double_z_family().atoms[:1], [])
    assert ev.gram([], []).shape == (0, 0)


@pytest.mark.parametrize("state", ["pure", "mixed"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_search_reaches_the_symmetric_subspace_value(d, state):
    # at order 2 the symmetric-subspace projector q_u has A(q_u) = B(q_u) =
    # ((d+1)/2) 1, so d(q_u, q_u) = ((d+1)/2)^2 for every state; the ascent
    # reaches that value with rank-d projections for a pure state and with
    # projections of q_u's rank d(d+1)/2 for a mixed one
    rng = np.random.default_rng([d, 2])
    rho = gram_state("rank-one" if state == "pure" else "full", d, rng)
    M = build_M(rho, d, 2)
    for seed in range(3):
        res = cs.diag_excess_search(M, budget=8, seed=seed)
        assert abs(res.value - ((d + 1) / 2) ** 2) <= 1e-9, seed
        assert res.rank == (d if state == "pure" else d * (d + 1) // 2), seed


def pure_state_witness(psi, n):
    # p* projects onto the positive eigenspace of Herm X, where
    # X[(t,u),(u',v)] = delta(u,u') psi_t conj(psi_v), u running over the
    # last n - 1 slots of the row and the first n - 1 slots of the column
    d, r = psi.shape[0], psi.shape[0] ** (n - 1)
    x = (psi[:, None, None, None] * np.eye(r)[None, :, :, None]
         * psi.conj()[None, None, None, :]).reshape(d ** n, d ** n)
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    keep = v[:, w > 1e-9]
    return history_projection(keep @ keep.conj().T, n, d)


PURE_STATE_SUPREMUM = {
    2: lambda d: ((d + 1) / 2) ** 2,
    3: lambda d: ((d * d - 2 * d + 3 + (d - 1) * np.sqrt(2)) / 2) ** 2,
}


@pytest.mark.parametrize("d, n, rank", [(2, 2, 2), (3, 2, 3), (4, 2, 4),
                                        (2, 3, 3), (3, 3, 7), (4, 3, 13)])
def test_pure_state_witness_attains_the_closed_form(d, n, rank):
    # the named witness p* of a pure state gives s(d, n)^2 through every
    # evaluator that can hold it, and the ascent from a stream evaluator
    # reaches the same value with a projection of the same rank; nothing
    # here claims that s(d, n)^2 bounds d(p, p) from above
    rng = np.random.default_rng([d, n, 11])
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    p = pure_state_witness(psi, n)
    want = PURE_STATE_SUPREMUM[n](d)
    assert p.projection.rank == rank
    # ils at (4, 3) would need M of doubled dimension 4096, above the kernel cap
    methods = ("series", "stream") if (d, n) == (4, 3) else ("series", "stream", "ils")
    for method in methods:
        got = make_evaluator(method, rho, d, n).value(p, p)
        assert abs(got - want) <= 1e-9, method
    res = cs.diag_excess_search(make_evaluator("stream", rho, d, n), budget=10, seed=0)
    assert abs(res.value - want) <= 1e-9
    assert res.rank == rank


def test_search_value_never_decreases_with_sweeps():
    # each half-step maximizes Re tr(Phi^dagger A(p) S) in one variable, so
    # the diagonal of one restart climbs with every sweep; on these mixed
    # states restart 0 (Phi = S) is not yet at its fixed point
    for d, n in ((2, 3), (2, 4), (3, 3)):
        M = build_M(random_density(d, np.random.default_rng([d, n, 5])), d, n)
        values = [cs.diag_excess_search(M, budget=1, seed=4, sweeps=k).value
                  for k in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values
        assert values[-1] > values[0] + 1e-3, values


@pytest.mark.parametrize("state", ["full", "rank-one", "rank-deficient"])
@pytest.mark.parametrize("dn", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_search_kernel_and_evaluator_give_the_same_bytes(dn, state):
    d, n = dn
    rho = gram_state(state, d, np.random.default_rng([d, n, 9]))
    a = cs.diag_excess_search(build_M(rho, d, n), budget=4, seed=2)
    b = cs.diag_excess_search(make_evaluator("stream", rho, d, n), budget=4, seed=2)
    assert (a.value, a.rank, a.restart_index) == (b.value, b.rank, b.restart_index)
    assert a.projection.matrix.tobytes() == b.projection.matrix.tobytes()
    assert (a.xi is None) == (b.xi is None)
    assert a.xi is None or a.xi.tobytes() == b.xi.tobytes()


@pytest.mark.parametrize("state", ["full", "rank-one", "rank-deficient"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_kernel_slice_is_the_state(d, n, state):
    # M is a permutation of rho (x) 1, so one slice of it holds rho exactly
    rho = gram_state(state, d, np.random.default_rng([d, n, 3]))
    r = d ** (n - 1)
    m = build_M(rho, d, n).matrix.reshape(d, r, r, d, r, d, d, r)
    assert np.array_equal(m[:, 0, 0, 0, 0, 0, :, 0], density_matrix(rho))


@pytest.mark.parametrize("state", ["pure", "mixed"])
def test_search_stops_once_the_value_settles(state):
    # a restart ends when a sweep stops raising d(p, p), long before 1000
    # sweeps; the value and rank do not depend on the sweep limit
    rho = pure_state([1, 2j]) if state == "pure" else random_density(2, np.random.default_rng(4))
    ev = make_evaluator("stream", rho, 2, 2)
    short = cs.diag_excess_search(ev, budget=20, seed=1, sweeps=50)
    long = cs.diag_excess_search(ev, budget=20, seed=1, sweeps=1000)
    assert abs(short.value - long.value) <= 1e-12
    assert short.rank == long.rank
    assert abs(long.value - 2.25) <= 1e-12


@pytest.mark.parametrize("state", ["full", "rank-one", "rank-deficient", "near-degenerate"])
@pytest.mark.parametrize("dn", [(2, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3)])
def test_search_matches_the_unfused_sweep(dn, state):
    # the in-place Herm X and the factored A(V V^dagger) change only rounding:
    # every search picks the reference's restart and rank, with its value
    # and projection
    d, n = dn
    rho = gram_state(state, d, np.random.default_rng([d, n, 21]))
    ev = make_evaluator("stream", rho, d, n)
    for seed in range(3):
        res = cs.diag_excess_search(ev, budget=6, seed=seed)
        assert_matches_reference(res, ev, 6, seed)


def test_search_matches_the_unfused_sweep_at_full_budget():
    # the state and budget of acceptance criterion 8
    rng = generator(0, "samples")
    xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rho = density_from_spectral([1.0], (xi / np.linalg.norm(xi)).reshape(2, 1))
    M = build_M(rho, 2, 2)
    assert_matches_reference(cs.diag_excess_search(M, budget=200, seed=0), M, 200, 0)


@pytest.mark.parametrize("h", [-np.eye(4), np.zeros((4, 4)),
                               np.diag([-2.0, -1.0, 1e-13])])
def test_positive_columns_fall_back_to_the_top_eigenvector(h):
    # no eigenvalue clears 1e-12, so the sweep keeps the top eigenvector
    cols = cs._positive_columns(h)
    top = np.linalg.eigh(h)[1][:, -1:]
    assert cols.shape == (len(h), 1)
    assert np.array_equal(cols @ cols.conj().T, top @ top.conj().T)
