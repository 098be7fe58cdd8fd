import numpy as np
import pytest

from histq import divergence as dv
from histq.cli import main
from histq.decoherence import d_series
from histq.errors import ShapeError, SizeCapError, ValidationError
from histq.historyspace import history_projection

from conftest import P0, PPLUS, kron_chain, pure_e1, random_density

SWAP2 = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=np.complex128)


def test_swap_unitary_hand_cases():
    assert np.array_equal(dv.swap_unitary(1), np.eye(1))
    assert np.array_equal(dv.swap_unitary(2), SWAP2)
    # an integral float is its int: q_u(2.0) raised TypeError
    assert np.array_equal(dv.swap_unitary(2.0), SWAP2)
    assert np.array_equal(dv.q_u(np.float64(2.0)).matrix, dv.q_u(2).matrix)


def test_swap_unitary_involution_and_symmetry():
    for dim in (2, 3, 5):
        u = dv.swap_unitary(dim)
        assert np.array_equal(u @ u, np.eye(dim * dim))
        assert np.array_equal(u, u.T)
        for a in range(dim):
            for b in range(dim):
                e = np.zeros(dim * dim)
                e[a * dim + b] = 1.0
                assert u[:, a * dim + b][b * dim + a] == 1.0
                assert np.count_nonzero(u @ e) == 1


def test_swap_unitary_is_the_loop_permutation():
    # the index arithmetic writes exactly the entries the d^2 loop wrote
    for dim in range(1, 6):
        want = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
        for a in range(dim):
            for b in range(dim):
                want[a * dim + b, b * dim + a] = 1.0
        u = dv.swap_unitary(dim)
        assert (u.dtype, u.shape, u.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("dim", [2.5, True, "2", None])
def test_swap_unitary_and_q_u_follow_the_integer_rule(dim):
    # 2.5 raised TypeError and True gave a 1 x 1 matrix
    for build in (dv.swap_unitary, dv.q_u):
        with pytest.raises(ValidationError, match=f"^dim must be an integer, got {dim!r}$"):
            build(dim)


def test_swap_unitary_caps_and_rejections():
    with pytest.raises(SizeCapError):
        dv.swap_unitary(70)
    with pytest.raises(ShapeError):
        dv.swap_unitary(0)
    assert dv.swap_unitary(70, cap=4900).shape == (4900, 4900)


def test_qu_projector_structure():
    for dim in (2, 3, 4):
        q = dv.q_u(dim)
        assert q.rank == dim * (dim + 1) // 2
        assert np.array_equal(q.matrix, q.matrix.conj().T)
        assert np.array_equal(q.matrix @ q.matrix, q.matrix)
        assert set(np.unique(q.matrix.real)) <= {0.0, 0.5, 1.0}
        assert np.count_nonzero(q.matrix.imag) == 0


def test_qu_spectrum():
    evals = np.linalg.eigvalsh(dv.q_u(3).matrix)
    assert np.allclose(np.sort(evals), [0, 0, 0, 1, 1, 1, 1, 1, 1], atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValidationError, match="at least 3"):
        dv.TruncationSchedule(cutoffs=(4, 8))
    with pytest.raises(ValidationError, match="increasing"):
        dv.TruncationSchedule(cutoffs=(4, 8, 8))
    with pytest.raises(ValidationError, match="^cutoff must be >= 1, got 0$"):
        dv.TruncationSchedule(cutoffs=(0, 1, 2))
    with pytest.raises(ValidationError, match="threshold"):
        dv.TruncationSchedule(cutoffs=(4, 8, 16), convergence_threshold=2.0,
                              divergence_threshold=1.0)
    with pytest.raises(ValidationError, match="threshold"):
        dv.TruncationSchedule(cutoffs=(4, 8, 16), convergence_threshold=0.0)
    with pytest.raises(ValidationError, match="at most 2\\*\\*53"):
        dv.TruncationSchedule(cutoffs=(4, 8, 2**53 + 1))
    assert dv.TruncationSchedule(cutoffs=(4, 8, 2**53)).cutoffs[-1] == dv.MAX_CUTOFF


@pytest.mark.parametrize("cutoffs", [(4.5, 8, 16), (True, 8, 16), (4, 8, "16")])
def test_schedule_checks_cutoffs_are_integers(cutoffs):
    with pytest.raises(ValidationError, match="cutoff must be an integer"):
        dv.TruncationSchedule(cutoffs=cutoffs)


@pytest.mark.parametrize("key", ["convergence_threshold", "divergence_threshold"])
@pytest.mark.parametrize("bad", [True, "x", None])
def test_schedule_checks_thresholds_are_numbers(key, bad):
    # True compared as 1 and was accepted; "x" raised TypeError
    with pytest.raises(ValidationError, match=f"^{key} must be a number, got {bad!r}$"):
        dv.TruncationSchedule(cutoffs=(4, 8, 16), **{key: bad})


def test_schedule_takes_integral_floats_and_numpy_integers():
    cuts = dv.TruncationSchedule(cutoffs=(4.0, np.int64(8), 16)).cutoffs
    assert cuts == (4, 8, 16) and all(type(c) is int for c in cuts)


def test_default_schedule_powers_of_two():
    assert dv.default_schedule().cutoffs == (4, 8, 16, 32, 64, 128, 256, 512)
    assert dv.default_schedule(limit=16).cutoffs == (4, 8, 16)


def test_identity_pair_is_finite_one(rng):
    rho = random_density(2, rng)
    out = dv.truncated_d(rho, "identity", "identity")
    assert out.kind == "Finite"
    assert out.finite
    assert abs(out.value - 1.0) <= 1e-12
    assert out.reason is None


def test_symmetric_subspace_growth_exact():
    out = dv.truncated_d(pure_e1(2), "identity", "qu")
    assert out.kind == "Divergent"
    assert out.reason == "monotone-growth"
    assert out.value is None
    assert not out.finite
    for cut, s in zip(out.cutoffs, out.partial_sums):
        assert s == complex((cut + 1) / 2.0)


def test_swap_pair_growth_exact():
    out = dv.truncated_d(pure_e1(3), "identity", "swap")
    for cut, s in zip(out.cutoffs, out.partial_sums):
        assert s == complex(cut)
    assert out.reason == "monotone-growth"


def test_growth_is_state_independent(rng):
    expected = [(c + 1) / 2.0 for c in dv.default_schedule().cutoffs]
    for dim in (2, 3):
        for _ in range(5):
            rho = random_density(dim, rng)
            out = dv.truncated_d(rho, "identity", "qu")
            assert out.kind == "Divergent"
            assert out.reason == "monotone-growth"
            assert np.allclose([s.real for s in out.partial_sums], expected, atol=1e-9)
            assert max(abs(s.imag) for s in out.partial_sums) <= 1e-12


def test_threshold_reason():
    schedule = dv.TruncationSchedule(cutoffs=(4, 8, 16, 32), divergence_threshold=10.0)
    out = dv.truncated_d(pure_e1(2), "identity", "qu", schedule)
    assert out.kind == "Divergent"
    assert out.reason == "threshold"


def test_non_convergent_reason():
    # block 3: a[0] = sum over a < cut of M[3a, a] for the state e_1, and the
    # identity's b table is e_1, so the partial sums are 4, 4 - 3, 4 - 3 + 3
    m = np.zeros((9, 9), dtype=np.complex128)
    m[0, 0], m[3, 1], m[6, 2] = 4.0, -3.0, 3.0
    schedule = dv.TruncationSchedule(cutoffs=(1, 2, 3))
    out = dv.truncated_d(pure_e1(2), m, "identity", schedule)
    assert [s.real for s in out.partial_sums] == [4.0, 1.0, 4.0]
    assert out.kind == "Divergent"
    assert out.reason == "non-convergent"


def test_cutoff_far_beyond_any_table():
    # each table stops at the state's dimension, so 10**15 costs what 8 does
    schedule = dv.TruncationSchedule(cutoffs=(4, 8, 10**15))
    out = dv.truncated_d(pure_e1(2), "identity", "qu", schedule)
    assert out.kind == "Divergent"
    assert out.reason == "threshold"
    assert out.partial_sums[-1] == complex(5e14 + 0.5)


def test_diverge_cli_at_huge_cutoffs(tmp_path, capsys):
    out_path = tmp_path / "div.csv"
    argv = ["diverge", "--p", "builtin:identity", "--q", "builtin:qu", "--dim", "2",
            "--out", str(out_path), "--cutoffs"]
    assert main(argv + ["4,8,1000000000000000"]) == 0
    rows = out_path.read_text(encoding="utf-8").split()
    assert rows[-1] == "1000000000000000,500000000000000.5,0.0,Divergent"
    assert main(argv + ["4,8,1" + "0" * 399]) == 2
    assert "at most 2**53" in capsys.readouterr().err


def test_tables_stop_at_the_data(rng):
    psi = random_density(3, rng).vectors[:, 0]
    swap, qu5 = dv._pair_data("swap"), dv._pair_data(dv.q_u(5).matrix)
    for cut in (1, 2, 3, 4, 10**15):
        for op, block in ((swap, 3), (qu5, 5)):
            for left in (True, False):
                assert dv._table(op, psi, cut, left).shape == (min(cut, block),)


def test_short_tables_sum_as_if_zero_padded(rng):
    # the swap's tables stop at the state's dimension 3, the matrix's at its
    # block 5: each partial sum is that of both tables zero-padded to cut
    rho = random_density(3, rng)
    m = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    cutoffs = (1, 2, 3, 4, 5, 8)

    def padded(op, psi, cut, left):
        out = np.zeros(cut, dtype=np.complex128)
        table = dv._table(dv._pair_data(op), psi, cut, left)
        out[:table.shape[0]] = table
        return out

    for p, q in (("swap", m), (m, "swap"), (m, m)):
        want = []
        for cut in cutoffs:
            total = 0j
            for wgt, psi in zip(rho.weights, rho.vectors.T):
                acc = 0j
                for x, y in zip(padded(p, psi, cut, True), padded(q, psi, cut, False)):
                    acc += x * y
                total += float(wgt) * acc
            want.append(complex(total))
        out = dv.truncated_d(rho, p, q, dv.TruncationSchedule(cutoffs=cutoffs))
        assert out.partial_sums == tuple(want)


def test_embedded_history_pair_matches_series(rng):
    rho = random_density(2, rng)
    p = history_projection(kron_chain([P0, PPLUS]), 2, 2)
    q = history_projection(kron_chain([PPLUS, P0]), 2, 2)
    out = dv.truncated_d(rho, p, q)
    assert out.kind == "Finite"
    reference = d_series(rho, p, q)
    assert abs(out.value - reference) <= 1e-10
    assert max(abs(s - out.partial_sums[0]) for s in out.partial_sums) <= 1e-12


def test_matrix_pair_reproduces_finite_block(rng):
    rho = random_density(2, rng)
    out = dv.truncated_d(rho, "identity", dv.q_u(2).matrix)
    assert out.kind == "Finite"
    eye = history_projection(np.eye(4), 2, 2)
    qh = history_projection(dv.q_u(2).matrix, 2, 2)
    assert abs(out.value - d_series(rho, eye, qh)) <= 1e-10
    via_history = dv.truncated_d(rho, "identity", qh)
    assert out.partial_sums == via_history.partial_sums


def test_matrix_pair_rejections(rng):
    with pytest.raises(ShapeError, match="^matrix dimension 3 is not a doubled dimension$"):
        dv.truncated_d(pure_e1(2), np.eye(3), "identity")
    with pytest.raises(ShapeError, match="does not match doubled dim 4"):
        dv.truncated_d(pure_e1(2), "identity", np.ones((4, 5)))
    qu2 = dv.q_u(2).matrix
    with pytest.raises(ShapeError, match="exceeds operator block"):
        dv.truncated_d(random_density(3, rng), qu2, qu2)


def test_as_pair_rejections(rng):
    with pytest.raises(ShapeError, match="order-2"):
        dv.truncated_d(pure_e1(2), history_projection(P0, 1, 2),
                       history_projection(P0, 1, 2))
    for bad, message in ((3, "^cannot interpret int as a pair operator$"),
                         (np.ones(4), "^cannot interpret ndarray as a pair operator$"),
                         (np.eye(5), "^matrix dimension 5 is not a doubled dimension$")):
        with pytest.raises(ShapeError, match=message):
            dv.truncated_d(pure_e1(2), bad, "identity")
    with pytest.raises(ValidationError,
                       match=r"^unknown builtin 'nope'; have \['identity', 'qu', 'swap'\]$"):
        dv.truncated_d(pure_e1(2), "nope", "qu")
    # P is checked before Q
    with pytest.raises(ValidationError, match="unknown builtin"):
        dv.truncated_d(pure_e1(2), "nope", 3)
    with pytest.raises(ShapeError, match="^cannot interpret int as a pair operator$"):
        dv.truncated_d(pure_e1(2), 3, "nope")
    # the doubled identity matrix is the identity operator at every cutoff
    rho = random_density(2, rng)
    assert (dv.truncated_d(rho, np.eye(4), np.eye(4)).partial_sums
            == dv.truncated_d(rho, "identity", "identity").partial_sums)


def test_verdict_stable_across_schedules():
    short = dv.truncated_d(pure_e1(2), "identity", "qu", dv.default_schedule(128))
    long = dv.truncated_d(pure_e1(2), "identity", "qu", dv.default_schedule(512))
    assert short.kind == long.kind == "Divergent"
    assert long.partial_sums[:len(short.partial_sums)] == short.partial_sums


def test_truncated_d_is_total(rng):
    # every pair gets a verdict: a finite value or the point at infinity
    rho = random_density(2, rng)
    a = dv.truncated_d(rho, "identity", "qu")
    assert a.kind == "Divergent" and a.value is None
    c = dv.truncated_d(rho, "identity", "identity")
    assert c.finite and abs(c.value - 1.0) <= 1e-12


def test_decoherence_value_as_dict():
    out = dv.truncated_d(pure_e1(2), "identity", "qu")
    d = out.as_dict()
    assert d["kind"] == "Divergent"
    assert d["value"] is None
    assert d["reason"] == "monotone-growth"
    assert d["cutoffs"] == [4, 8, 16, 32, 64, 128, 256, 512]
    assert d["partial_sums"][0] == [2.5, 0.0]
    finite = dv.truncated_d(pure_e1(2), "identity", "identity")
    assert finite.as_dict()["value"] == [1.0, 0.0]
