import math
from types import SimpleNamespace

import numpy as np
import pytest

from histq import consistency as cs
from histq.decoherence import (build_M, d_via_M_streaming, make_evaluator,
                               partial_trace_a, random_homogeneous, verify_axioms)
from histq.errors import ShapeError, ValidationError
from histq.historyspace import (HistoryProjection, Projection, density_from_spectral,
                                history_projection, homogeneous_history)
from histq.quadform import D_form, random_tensor_sum, uniqueness_check
from histq.seeding import generator

from conftest import (P0, P1, PMINUS, PPLUS, SPECTRA, bits, embed, haar_unitary,
                      identity_history_projection, pairwise_gram, pure_e1,
                      pure_state, pure_state_excess, random_density, spectrum_state)


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
    # Re d(+0, -0) = 1/4: mask 1 is the first to reach the maximum
    assert report.max_re_witness == ("+0", "-0")
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


@pytest.mark.parametrize("dn", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_rest_atom_is_the_unvalidated_complement_of_the_total(dn):
    # the rest atom is I - total, built from the validated total without a
    # second validation: the same bytes, rank dim - sum of ranks, and a
    # self-adjointness residual bit-equal to the total's
    d, n = dn
    dim = d ** n
    rng = np.random.default_rng([d, n, 21])
    basis = haar_unitary(dim, rng)
    cuts = sorted(rng.choice(np.arange(1, dim), size=min(3, dim - 1), replace=False))
    mats = [basis[:, lo:hi] @ basis[:, lo:hi].conj().T
            for lo, hi in zip([0, *cuts[:-1]], cuts)]
    family = cs.build_family([history_projection(m, n, d) for m in mats])
    assert family.atom_labels[-1] == "rest"
    rest, total = family.atoms[-1], np.array([m.matrix for m in family.members]).sum(axis=0)
    assert rest.matrix.tobytes() == (np.eye(dim) - total).tobytes()
    ranks = [m.projection.rank for m in family.members]
    assert rest.projection.rank == dim - sum(ranks) == dim - cuts[-1]

    def herm(m):
        return float(np.max(np.abs(m - m.conj().T)))
    assert herm(rest.matrix).hex() == herm(total).hex()


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
    with pytest.raises(ValidationError, match="1 labels for 2 generators"):
        cs.build_family([p00, p01], labels=["a"])
    # a string or a dict is refused, not read as its characters or keys
    for labels in ("ab", {"a": 0, "b": 1}):
        with pytest.raises(ValidationError, match="labels must be a list or a tuple"):
            cs.build_family([p00, p01], labels=labels)
    with pytest.raises(ShapeError, match="different history spaces"):
        cs.build_family([p00, history_projection(np.zeros((2, 2)), 1, 2)])
    # the total stays the gate for the rest atom: half the identity is
    # self-adjoint with integer trace at dim 4, but not idempotent
    half = HistoryProjection(Projection(0.5 * np.eye(4, dtype=np.complex128), 4, 2), 2, 2)
    with pytest.raises(ValidationError, match="not idempotent: max residual 2.500e-01"):
        cs.build_family([half])


@pytest.mark.parametrize("label", [1, None, True, {}])
def test_build_family_rejects_labels_that_are_not_strings(label):
    # malformed labels are rejected, not converted by str()
    p00, p01 = embed([P0, P0]), embed([P0, P1])
    with pytest.raises(ValidationError, match="label 1 must be a string"):
        cs.build_family([p00, p01], labels=["a", label])


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


def test_crafted_gram_evaluator():
    family = cs.build_family([embed([P0, P0]), embed([P0, P1])])
    gram = np.diag([2.0, -0.2, 0.1])
    report = cs.check_consistent(SimpleNamespace(gram=lambda ps, qs: gram), family)
    assert not report.consistent
    assert report.probabilities["g1"] == -0.2
    assert "g0" in report.unphysical
    assert report.max_re_offdiag == 0.0


def diagonal_family(k):
    # k atoms on the 16-dimensional history space of (d, n) = (2, 4): k - 1
    # coordinate projectors and the projector onto the remaining coordinates
    members = []
    for i in range(k):
        m = np.zeros((16, 16), dtype=np.complex128)
        if i < k - 1:
            m[i, i] = 1.0
        else:
            m[np.arange(i, 16), np.arange(i, 16)] = 1.0
        members.append(history_projection(m, 4, 2))
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
        report = cs.check_consistent(SimpleNamespace(gram=lambda ps, qs: gram),
                                     family, tol=1e-9)
        max_re, unphysical = brute_force_report(gram, family.atom_labels, 1e-9)
        assert abs(report.max_re_offdiag - max_re) <= 1e-12
        assert type(report.max_re_offdiag) is float
        assert unphysical_sets(family, report) == unphysical
        # the witness is a non-empty disjoint pair whose |Re d| is the
        # maximum, and there is none for one atom
        if k == 1:
            assert report.max_re_witness is None
            continue
        s, t = (witness_indicator(family, x) for x in report.max_re_witness)
        assert s.any() and t.any() and not (s * t).any()
        assert abs(abs(float(s @ gram.real @ t)) - max_re) <= 1e-12


def witness_indicator(family, label):
    return np.array([x in label.split("+") for x in family.atom_labels], dtype=float)


def fsum_scan(gram, tol):
    # per closure element: the candidate max(positive part, negative part)
    # of r_s outside s and whether its diagonal exceeds 1 + tol, every sum
    # correctly rounded by math.fsum
    re_gram = gram.real.tolist()
    k = len(re_gram)
    best, high = [], []
    for m in range(1 << k):
        inside = [i for i in range(k) if m >> i & 1]
        r = [math.fsum([re_gram[i][j] for i in inside]) for j in range(k)]
        out = [r[j] for j in range(k) if not m >> j & 1]
        best.append(max(math.fsum([x for x in out if x > 0.0]),
                        math.fsum([-x for x in out if x < 0.0])))
        high.append(m and math.fsum([r[j] for j in inside]) > 1.0 + tol)
    return best, high


def re_d(gram, s, t):
    return math.fsum([gram.real[i, j] for i in np.flatnonzero(s) for j in np.flatnonzero(t)])


@pytest.mark.parametrize("k", range(1, 13))
def test_scan_matches_an_fsum_scan(k):
    family = diagonal_family(k)
    gen = generator(5000 + k, "samples")
    grams = [0.3 * (gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k))),
             np.diag(gen.uniform(0.5, 2.0, k)) + 0j,
             # signed zeros off a negative diagonal, so every column of the
             # scan holds -0.0 entries; the maximum is a positive zero
             np.where(np.eye(k, dtype=bool), -gen.uniform(0.5, 2.0, k), -0.0) + 0j]
    for gram in grams:
        report = cs.check_consistent(SimpleNamespace(gram=lambda ps, qs: gram),
                                     family, tol=1e-9)
        best, high = fsum_scan(gram, 1e-9)
        max_re = max(best)
        assert abs(report.max_re_offdiag - max_re) <= 4 * math.ulp(max_re)
        assert not np.signbit(report.max_re_offdiag)
        assert unphysical_sets(family, report) == {
            frozenset(family.atom_labels[i] for i in range(k) if m >> i & 1)
            for m in range(1 << k) if high[m]}
        if max_re == 0.0:
            assert report.max_re_witness is None
            continue
        # s is the first mask within WITNESS_TOL of the maximum, and the
        # pair attains the maximum within that margin
        margin = cs.WITNESS_TOL * max_re
        first = next(m for m in range(1 << k) if best[m] >= max_re - margin)
        s, t = (witness_indicator(family, x) for x in report.max_re_witness)
        assert s.tolist() == [first >> i & 1 for i in range(k)]
        assert t.any() and not (s * t).any()
        assert abs(abs(re_d(gram, s, t)) - max_re) <= margin


# the real Gram of one benchmark family, 8 rank-one generators at (d, n) =
# (3, 2) and their complement under a mixed state, read from the stream
# evaluator: its largest |Re d| is attained by a disjoint pair (s, t) and by
# its mirror (t, s), which tie in exact arithmetic
MIRRORED_PAIR_GRAM = np.array([
    [0.12915408912830126, 0.017656845948008607, 0.07331187608775228,
     -0.013594379719976958, -0.009192183796960234, 0.03626698001487094,
     -0.0274240299985307, -0.06246112214875077, 0.030179335231474164],
    [0.017656845948008607, 0.09572886382200285, -0.017424594331909966,
     0.004679098937904054, 0.00257574929650144, 0.008518917618225723,
     -0.005949232788949682, 0.019958241484737755, -0.003961555797976034],
    [0.07331187608775226, -0.017424594331909966, 0.22573787239199047,
     -0.01894196974176756, 0.01924252317281518, 0.004387975725579507,
     0.06088051629101536, -0.07207646974515802, 0.08256011659798401],
    [-0.013594379719976955, 0.004679098937904051, -0.01894196974176755,
     0.056573967080305564, -0.010534826594232355, 0.025340666121428462,
     -0.015309739028053649, 0.019074384579304215, -0.03529902929793863],
    [-0.009192183796960223, 0.0025757492965014393, 0.019242523172815187,
     -0.010534826594232353, 0.06777789081659284, 0.01454457472692669,
     0.011461977610330644, -0.02695895899322629, 0.02615072564173305],
    [0.03626698001487094, 0.008518917618225723, 0.00438797572557951,
     0.025340666121428466, 0.014544574726926697, 0.07355724378480087,
     -0.03163273746641331, -0.031383193384198246, -0.01693798659474867],
    [-0.02742402999853071, -0.005949232788949674, 0.06088051629101534,
     -0.015309739028053652, 0.011461977610330645, -0.0316327374664133,
     0.12090837525970036, 0.01203838808778553, 0.007358655080663973],
    [-0.06246112214875078, 0.019958241484737745, -0.072076469745158,
     0.019074384579304215, -0.026958958993226284, -0.031383193384198246,
     0.01203838808778553, 0.06984292703909917, -0.03983325278045057],
    [0.030179335231474157, -0.003961555797976029, 0.082560116597984,
     -0.03529902929793864, 0.026150725641733052, -0.016937986594748676,
     0.00735865508066397, -0.03983325278045058, 0.08617419858560656]])


def test_mirrored_pair_tie_names_the_first_mask():
    # s = g1+g3+g7 is mask 138 and t = g0+g2+g4+g6+g8 is mask 341; the
    # candidate of mask 138 rounds below that of mask 341, so the
    # first exact maximum would be the mirror (t, s)
    report = cs.check_consistent(SimpleNamespace(gram=lambda ps, qs: MIRRORED_PAIR_GRAM),
                                 diagonal_family(9))
    assert report.max_re_witness == ("g1+g3+g7", "g0+g2+g4+g6+g8")
    s, t = (witness_indicator(diagonal_family(9), x) for x in report.max_re_witness)
    assert re_d(MIRRORED_PAIR_GRAM, s, t) == pytest.approx(re_d(MIRRORED_PAIR_GRAM, t, s),
                                                           abs=1e-15)
    assert abs(re_d(MIRRORED_PAIR_GRAM, s, t)) == pytest.approx(report.max_re_offdiag,
                                                                rel=1e-15)


def test_witness_is_the_first_mask_and_breaks_a_sign_tie_to_the_positive_part():
    # r_s of s = g0 is (0.3, -0.3) outside s, a tie; masks 2, 3, 4 and 5
    # reach 0.3 as well, but later
    gram = np.array([[1.0, 0.3, -0.3], [0.3, 1.0, 0.0], [-0.3, 0.0, 1.0]]) + 0j
    report = cs.check_consistent(SimpleNamespace(gram=lambda ps, qs: gram),
                                 diagonal_family(3))
    assert report.max_re_offdiag == 0.3
    assert report.max_re_witness == ("g0", "g1")
    assert report.as_dict()["max_re_witness"] == ["g0", "g1"]


def test_exactly_consistent_family_reports_a_positive_zero():
    report = cs.check_consistent(make_evaluator("series", pure_state([1, 1]), 2, 2),
                                 double_z_family())
    assert report.max_re_offdiag == 0.0
    assert not np.signbit(report.max_re_offdiag)
    assert report.max_re_witness is None


def test_closure_tables_are_cached_and_read_only():
    for k in (1, 5, 12):
        ind, comp = cs._closure_table(k)
        assert cs._closure_table(k)[0] is ind
        # one indicator column per mask: ind[i, m] is bit i of m
        assert ind.shape == comp.shape == (k, 1 << k)
        assert ind.flags.c_contiguous and comp.flags.c_contiguous
        masks = np.arange(1 << k)
        assert all(np.array_equal(ind[i], masks >> i & 1) for i in range(k))
        assert np.array_equal(ind + comp, np.ones((k, 1 << k)))
        for table in (ind, comp, *cs._upper_pairs(k)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0


def test_closure_names_join_the_atom_labels():
    # labels holding "+" and "-", as the x/z family's do, and the complement
    # "rest" last: every mask's name is its atoms' labels in atom order
    # joined by "+", and "" for the empty element
    pool = ("+0", "-1", *(f"a{j}" for j in range(2, 11)))
    for k in range(1, 13):
        labels = (*pool[:k - 1], "rest")
        names = cs._closure_labels(labels)
        assert isinstance(names, tuple) and len(names) == 1 << k
        assert all(names[m] == "+".join(labels[i] for i in range(k) if m >> i & 1)
                   for m in range(1 << k)), k
        # an equal label tuple, not the same object, reads the cached table
        assert cs._closure_labels(tuple(list(labels))) is names
    assert cs._closure_labels.cache_info().maxsize == 4


def test_both_orientations_of_a_disjoint_pair_are_checked():
    eye = np.eye(2)
    family = cs.build_family([embed([P0, eye]), embed([P1, eye])])
    gram = np.array([[0.5, 0.0], [0.4, 0.5]], dtype=np.complex128)
    report = cs.check_consistent(SimpleNamespace(gram=lambda ps, qs: gram), family)
    assert report.max_re_offdiag == pytest.approx(0.4, abs=1e-15)
    assert not report.consistent
    assert report.probabilities == {"g0": 0.5, "g1": 0.5}


def test_search_budget_monotone():
    M = build_M(pure_e1(2), 2, 2)
    small = cs.diag_excess_search(M, budget=5, seed=0)
    large = cs.diag_excess_search(M, budget=50, seed=0)
    assert large.value >= small.value - 1e-12


def test_counts_follow_the_integer_rule():
    # samples, budget, sweeps and probe_count are counts: a bool or a
    # non-integral number is refused before it is compared or run, an
    # integral float is its int
    M = build_M(pure_e1(2), 2, 2)
    ev = make_evaluator("stream", pure_e1(2), 2, 2)

    def probe(count, order=2):
        # off by 5 everywhere: any probe run reports the deviation
        return uniqueness_check(pure_e1(2), lambda u, v: D_form(pure_e1(2), u, v) + 5.0,
                                order, probe_count=count, seed=1)
    for bad in (True, 2.5):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            verify_axioms(ev, samples=bad)
        for key in ("budget", "sweeps"):
            with pytest.raises(ValidationError, match=f"{key} must be an integer"):
                cs.diag_excess_search(M, **{key: bad})
        with pytest.raises(ValidationError, match="probe_count must be an integer"):
            probe(bad)
        # the probe order and the order of a random tensor sum raised
        # TypeError at 2.5
        with pytest.raises(ValidationError, match=f"^order must be an integer, got {bad}$"):
            probe(2, order=bad)
        with pytest.raises(ValidationError, match=f"^n must be an integer, got {bad}$"):
            random_tensor_sum(2, bad, np.random.default_rng(0))
        # and the single-time dimension at 2.5 and True
        with pytest.raises(ValidationError, match=f"^d must be an integer, got {bad}$"):
            random_tensor_sum(bad, 2, np.random.default_rng(0))
    # zero probes would report no deviation for any form, zero samples no
    # violation, and zero sweeps or restarts no projection
    for bad in (0, -1):
        with pytest.raises(ValidationError, match=f"^samples must be >= 1, got {bad}$"):
            verify_axioms(ev, samples=bad)
        for key in ("budget", "sweeps"):
            with pytest.raises(ValidationError, match=f"^{key} must be >= 1, got {bad}$"):
                cs.diag_excess_search(M, **{key: bad})
        with pytest.raises(ValidationError, match=f"^probe_count must be >= 1, got {bad}$"):
            probe(bad)
        # order 0 raised ShapeError from the empty tensor sum
        with pytest.raises(ValidationError, match=f"^order must be >= 1, got {bad}$"):
            probe(2, order=bad)
        with pytest.raises(ValidationError, match=f"^n must be >= 1, got {bad}$"):
            random_tensor_sum(2, bad, np.random.default_rng(0))
        # d = 0 raised ShapeError from the empty factors
        with pytest.raises(ValidationError, match=f"^d must be >= 1, got {bad}$"):
            random_tensor_sum(bad, 2, np.random.default_rng(0))
    report = verify_axioms(ev, samples=2.0, seed=1)
    assert type(report.samples) is int and report == verify_axioms(ev, samples=2, seed=1)
    checked = probe(2.0)
    assert type(checked.probe_count) is int and checked == probe(2) == probe(2, order=2.0)
    assert checked.max_deviation == pytest.approx(5.0)
    want = cs.diag_excess_search(M, budget=2, sweeps=3)
    for counts in ({"budget": 2.0, "sweeps": 3}, {"budget": 2, "sweeps": 3.0}):
        got = cs.diag_excess_search(M, **counts)
        assert (got.value, got.restart_index) == (want.value, want.restart_index)
        assert got.projection.matrix.tobytes() == want.projection.matrix.tobytes()


@pytest.mark.parametrize("seed", [2.5, True, -1, "1", None])
def test_seeds_are_checked_before_any_work(seed):
    # a fractional seed ran its floor and was reported as given, True ran
    # seed 1, -1 raised a bare ValueError from the seed sequence or, in a
    # one-restart search, was never read
    M = build_M(pure_e1(2), 2, 2)
    ev = make_evaluator("stream", pure_e1(2), 2, 2)
    calls = [lambda: verify_axioms(ev, samples=1, seed=seed),
             lambda: cs.diag_excess_search(M, budget=1, seed=seed),
             lambda: uniqueness_check(pure_e1(2), lambda u, v: 0.0, 2, probe_count=1,
                                      seed=seed)]
    for call in calls:
        with pytest.raises(ValidationError, match="seed must be"):
            call()
    report = verify_axioms(ev, samples=1, seed=np.int64(3))
    assert type(report.seed) is int and report == verify_axioms(ev, samples=1, seed=3)


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
    # multiplied out, and A(p) from `partial_trace_a`; returns the best
    # (value, p, restart) under the search's stop and tie rules
    d, n = source.single_dim, source.order
    dim, r = d ** n, d ** (n - 1)
    w, v = np.linalg.eigh(source.rho.matrix)
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
            a_s = partial_trace_a(p[None], d, n)[0] @ s
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


def search_bytes(res):
    # everything a search reports, as bytes
    xi = None if res.xi is None else res.xi.tobytes()
    return (res.value.hex(), res.rank, res.restart_index, res.projection.matrix.tobytes(), xi)


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


@pytest.mark.parametrize("state", SPECTRA)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_matches_the_pairwise_loop(n, d, state):
    # on each family's atoms the Gram of series, stream and ils is its own
    # value pair by pair (series to the bit); the three agree on the verdict
    # and unphysical elements, and pass the families that must be consistent
    rng = np.random.default_rng([n, d, len(state)])
    rho = spectrum_state(state, d, rng)
    evs = {m: make_evaluator(m, rho, d, n) for m in ("series", "stream", "ils")}
    for family, must_be_consistent in gram_families(rho, d, n, rng):
        atoms = family.atoms
        for m, ev in evs.items():
            g, want = ev.gram(atoms, atoms), pairwise_gram(ev.value, atoms, atoms)
            assert bits(g) == bits(want) if m == "series" else np.max(np.abs(g - want)) <= 1e-12
        reports = {m: cs.check_consistent(ev, family) for m, ev in evs.items()}
        for m in ("stream", "ils"):
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


@pytest.mark.parametrize("method", ["direct", "series", "stream", "ils"])
def test_gram_of_one_shared_iterator_is_its_square_gram(method):
    # the iterator is consumed once, for both sides; it used to give a
    # (k, 0) matrix, the second side finding it empty
    make = homogeneous_history if method == "direct" else embed
    xs = [make([a, b]) for a in (P0, PPLUS) for b in (P0, P1)]
    ev = make_evaluator(method, random_density(2, np.random.default_rng(5)), 2, 2)
    it = iter(xs)
    got = ev.gram(it, it)
    assert got.shape == (4, 4)
    assert bits(got) == bits(ev.gram(xs, list(xs)))


def test_gram_of_empty_lists_is_empty():
    ev = make_evaluator("stream", pure_e1(2), 2, 2)
    assert ev.gram([], double_z_family().atoms).shape == (0, 4)
    assert ev.gram(double_z_family().atoms, ()).shape == (4, 0)


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
    rho = spectrum_state("rank-one" if state == "pure" else "full", d, rng)
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


PURE_STATE_CASES = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (2, 8), (3, 5)]


# each id ends in the rank of p*
@pytest.mark.parametrize("d, n", PURE_STATE_CASES, ids=[
    f"{d}-{n}-{pure_state_excess(d, n)[1]}" for d, n in PURE_STATE_CASES])
def test_pure_state_witness_attains_the_closed_form(d, n):
    # the named witness p* of a pure state gives s(d, n)^2 through every
    # evaluator that can hold it, and the ascent from a stream evaluator
    # reaches the same value with a projection of the same rank; nothing
    # here claims that s(d, n)^2 bounds d(p, p) from above
    rng = np.random.default_rng([d, n, 11])
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    rho = pure_state(psi)
    p = pure_state_witness(psi, n)
    want, rank = pure_state_excess(d, n)
    assert p.projection.rank == rank
    for method in ("series", "stream", "ils"):
        got = make_evaluator(method, rho, d, n).value(p, p)
        assert abs(got - want) <= 1e-9, method
    if d ** n > 64:
        return  # the search is too slow here
    res = cs.diag_excess_search(make_evaluator("stream", rho, d, n), budget=10, seed=0)
    assert abs(res.value - want) <= 1e-9
    assert res.rank == rank


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_every_restart_climbs_with_every_sweep(d, n):
    # each sweep maximizes Re tr(Phi^dagger A(p) S) in p and then in Phi, so
    # d(p, p) never decreases from one sweep to the next, on every restart:
    # restart 0 starts at Y = rho_S, restart i > 0 at the non-Hermitian
    # Y = S Phi_i^dagger of the search stream.  The search with the same
    # seed reports the value at which the best of these restarts stops
    for j in range(4):
        rho = random_density(d, np.random.default_rng([d, n, 5 + j]))
        w, vecs = np.linalg.eigh(rho.matrix)
        s = vecs[:, w > 1e-12] * np.sqrt(w[w > 1e-12])
        rho_s = s @ s.conj().T
        x, diagonal = cs._sweep_buffer(d, n)
        best = -np.inf
        for restart in range(3):
            half_y = 0.5 * rho_s
            if restart:
                rng = generator(j, "search", restart)
                phi = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
                half_y = 0.5 * (s @ phi.conj().T)
            values = []
            for _ in range(8):
                _, value, half_y = cs._sweep(x, diagonal, half_y, rho_s, d, n)
                values.append(value)
            assert all(b >= a - 1e-12 * max(1.0, a) for a, b in zip(values, values[1:])), \
                (j, restart, values)
            if restart == 0 and j == 0 and n >= 3:
                # on this state restart 0 is not yet at its fixed point
                assert values[-1] > values[0] + 1e-3, values
            gains = np.diff(values, prepend=0.0)
            stops = np.flatnonzero(gains <= cs.STOP_TOL * np.maximum(1.0, values))
            stop = values[stops[0]] if len(stops) else values[-1]
            if stop > best + cs.TIE_TOL:
                best = stop
        assert cs.diag_excess_search(make_evaluator("stream", rho, d, n),
                                     budget=3, seed=j, sweeps=8).value == best, j


@pytest.mark.parametrize("state", ["full", "rank-one", "rank-deficient"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_kernel_slice_is_the_state(d, n, state):
    # M is a permutation of rho (x) 1, so one slice of it holds rho exactly
    rho = spectrum_state(state, d, np.random.default_rng([d, n, 3]))
    r = d ** (n - 1)
    m = build_M(rho, d, n).matrix.reshape(d, r, r, d, r, d, d, r)
    assert np.array_equal(m[:, 0, 0, 0, 0, 0, :, 0], rho.matrix)


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


@pytest.mark.parametrize("state", SPECTRA)
@pytest.mark.parametrize("dn", [(2, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3)])
def test_search_matches_the_unfused_sweep(dn, state):
    # the sweep on Y = S Phi^dagger alone, its one buffer for X and the
    # factored A(V V^dagger) change only rounding: every search picks the
    # reference's restart and rank, with its value and projection.  The
    # kernel and a rerun give the same bytes, xi spans p exactly when p has
    # rank one, stream re-evaluates the value, and at one time step no
    # diagonal exceeds tr(rho) = 1, which p = 1 attains
    d, n = dn
    rho = spectrum_state(state, d, np.random.default_rng([d, n, 21]))
    ev = make_evaluator("stream", rho, d, n)
    M = build_M(rho, d, n)
    for seed in range(3):
        res = cs.diag_excess_search(ev, budget=6, seed=seed)
        assert_matches_reference(res, ev, 6, seed)
        for again in (cs.diag_excess_search(M, budget=6, seed=seed),
                      cs.diag_excess_search(ev, budget=6, seed=seed)):
            assert search_bytes(again) == search_bytes(res), seed
        assert (res.xi is None) == (res.rank != 1), seed
        if res.xi is not None:
            assert abs(np.linalg.norm(res.xi) - 1.0) <= 1e-12, seed
            xi_p = np.outer(res.xi, res.xi.conj())
            assert np.max(np.abs(xi_p - res.projection.matrix)) <= 1e-12, seed
        assert abs(ev.value(res.projection, res.projection) - res.value) <= 1e-9, seed
        if n == 1:
            assert abs(res.value - 1.0) <= 1e-12, seed


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


def sweep_tau(y, d, n):
    """tau(Y) = tr[Herm X]_+, with Y / 2 written into the search's own buffer
    through its flat index, as a sweep writes it."""
    x, diagonal = cs._sweep_buffer(d, n)
    x.reshape(-1)[diagonal] = (y / 2)[:, None, :]
    evals = np.linalg.eigvalsh(x + x.conj().T)
    return float(evals[evals > 0].sum())


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)])
def test_tau_is_covariant_and_sublinear(d, n):
    # W^(x)n commutes with the cyclic shift, so tau(W Y W^dagger) = tau(Y);
    # tr[.]_+ is convex and positively homogeneous and Herm X real-linear in
    # Y, so tau(Y) <= sum_i sigma_i tau(u_i v_i^dagger) over the SVD of Y
    rng = np.random.default_rng(8)
    for rank in range(1, d + 1):
        for _ in range(5):
            a, b = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                    for _ in range(2))
            y = a @ b.conj().T
            tau = sweep_tau(y, d, n)
            w = haar_unitary(d, rng)
            assert abs(sweep_tau(w @ y @ w.conj().T, d, n) - tau) <= 1e-12 * tau
            u, sigma, vh = np.linalg.svd(y)
            split = sum(s * sweep_tau(np.outer(u[:, i], vh[i]), d, n)
                        for i, s in enumerate(sigma))
            assert tau <= (1 + 1e-12) * split
