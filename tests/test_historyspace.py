from functools import reduce

import numpy as np
import pytest

from histq import consistency as cs
from histq import historyspace as hs
from histq.decoherence import build_M, make_evaluator, verify_axioms
from histq.errors import ShapeError, ValidationError

from conftest import (P0, P1, PPLUS, PMINUS, embed, haar_unitary, identity_history_projection,
                      kron_chain, pure_e1, random_proj)


def test_validate_projection_accepts_standard_cases():
    for m in (P0, P1, PPLUS, PMINUS, np.eye(3), np.zeros((2, 2))):
        p = hs.validate_projection(m)
        assert p.dim == m.shape[0]
        assert p.rank == int(round(np.trace(m).real))


def test_validate_projection_rejects_non_idempotent():
    with pytest.raises(ValidationError, match="idempotent"):
        hs.validate_projection(np.diag([1.0, 0.5]))


def test_validate_projection_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="self-adjoint"):
        hs.validate_projection(np.array([[0, 1], [0, 0]], dtype=complex))


def test_validate_projection_rejects_non_square():
    with pytest.raises(ShapeError):
        hs.validate_projection(np.zeros((2, 3)))


def test_validate_projection_never_repairs():
    bumped = P0 + np.array([[0, 3e-8], [0, 0]])
    with pytest.raises(ValidationError):
        hs.validate_projection(bumped, tol=1e-8)
    loose = hs.validate_projection(bumped, tol=1e-6)
    assert np.array_equal(loose.matrix, bumped)


def test_validate_projection_copies_its_input():
    m = np.array(P0, dtype=np.complex128)
    p = hs.validate_projection(m)
    assert not np.shares_memory(p.matrix, m)
    m[0, 0] = 0.0
    assert p.matrix[0, 0] == 1.0


def test_density_from_spectral_pure_and_mixed():
    rho = hs.density_from_spectral([1.0], np.array([[1], [0]], dtype=complex))
    assert rho.dim == 2 and np.array_equal(rho.weights, [1.0])
    mixed = hs.density_from_spectral([0.5, 0.5], np.eye(2, dtype=complex))
    assert np.allclose(hs.density_matrix(mixed), np.eye(2) / 2, atol=1e-12)
    plus = hs.density_from_spectral([1.0], np.array([[1], [1]], dtype=complex) / np.sqrt(2))
    assert np.allclose(hs.density_matrix(plus), PPLUS, atol=1e-12)


def test_density_from_spectral_rejects_empty_spectral_data():
    with pytest.raises(ValidationError, match="at least one weight"):
        hs.density_from_spectral([], np.zeros((2, 0)))


@pytest.mark.parametrize("val, want", [(3, 3), (3.0, 3), (-2, -2), (np.int64(5), 5),
                                       (np.float64(6.0), 6), (2**60 + 1, 2**60 + 1)])
def test_checked_int_takes_integral_numbers(val, want):
    got = hs.checked_int(val, "value")
    assert got == want and type(got) is int
    # low is inclusive and is compared with the int
    assert hs.checked_int(val, "value", low=want) == want
    with pytest.raises(ValidationError, match=f"^value must be >= {want + 1}, got {want}$"):
        hs.checked_int(val, "value", low=want + 1)


@pytest.mark.parametrize("val", [True, np.bool_(False), 2.5, float("inf"), float("nan"),
                                 "3", None, [3], 1 + 0j])
def test_checked_int_rejects_bools_and_non_integral_values(val):
    for low in (None, 0):
        with pytest.raises(ValidationError, match="^value must be an integer"):
            hs.checked_int(val, "value", low)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, True, "1e-9", None])
def test_every_tolerance_must_be_positive_and_finite(tol):
    # nan passed every comparison, so a nan tolerance accepted any residual
    # and failed a maximum of 0; a negative one printed "0.000e+00 > -1"
    family = cs.build_family([embed([P0, P0]), embed([P0, P1])])
    ev = make_evaluator("stream", pure_e1(2), 2, 2)
    calls = [lambda: hs.validate_projection(np.ones((2, 2)), tol=tol),
             lambda: hs.density_from_spectral([0.3, 0.3], np.eye(2), tol=tol),
             lambda: hs.density_from_matrix(np.eye(2) / 2, tol=tol),
             lambda: cs.build_family(family.members, tol=tol),
             lambda: cs.check_consistent(ev, family, tol=tol),
             lambda: verify_axioms(ev, samples=1, tol=tol)]
    for call in calls:
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("tol, want", [(1e-9, 1e-9), (1, 1.0), (np.float64(2.5e-8), 2.5e-8)])
def test_checked_tol_takes_positive_finite_numbers(tol, want):
    got = hs.checked_float(tol, "tol", positive=True)
    assert got == want and type(got) is float


@pytest.mark.parametrize("val", [0.0, -1, float("nan"), float("inf"), np.int64(-2)])
def test_checked_float_without_positive_takes_any_real_number(val):
    got = hs.checked_float(val, "value")
    assert type(got) is float and (got == val or np.isnan(val))
    with pytest.raises(ValidationError, match="^value must be positive and finite, got"):
        hs.checked_float(val, "value", positive=True)


@pytest.mark.parametrize("val", [True, np.bool_(False), "1.0", None, [1.0], 1 + 0j])
def test_checked_float_rejects_bools_and_non_real_values(val):
    with pytest.raises(ValidationError, match="^value must be a number, got"):
        hs.checked_float(val, "value")
    with pytest.raises(ValidationError, match="^value must be positive and finite, got"):
        hs.checked_float(val, "value", positive=True)


def test_density_matrix_is_cached_read_only_and_exact(rng):
    weights = [*rng.dirichlet(np.ones(2)), 0.0]
    rho = hs.density_from_spectral(weights, haar_unitary(3, rng))
    m = hs.density_matrix(rho)
    assert hs.density_matrix(rho) is m and rho.matrix is m
    assert not m.flags.writeable
    want = (rho.vectors * rho.weights) @ rho.vectors.conj().T
    assert m.tobytes() == want.tobytes()


def test_state_and_kernel_arrays_refuse_writes(rng):
    rho = hs.density_from_spectral(rng.dirichlet(np.ones(2)), haar_unitary(2, rng))
    for arr in (rho.weights, rho.vectors, hs.density_matrix(rho),
                build_M(rho, 2, 2).matrix, hs.completed_basis(pure_e1(2)).weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_density_from_spectral_does_not_freeze_its_inputs():
    # the state holds read-only copies; the caller's arrays stay writable
    w, v = np.array([0.5, 0.5]), np.eye(2, dtype=complex)
    hs.density_from_spectral(w, v)
    w[0] = v[0, 0] = 1.0


def test_density_from_spectral_renormalizes_within_tol():
    rho = hs.density_from_spectral([0.5 + 4e-9, 0.5], np.eye(2, dtype=complex))
    assert np.isclose(float(np.sum(rho.weights)), 1.0, atol=1e-15)


def test_density_from_spectral_rejections():
    with pytest.raises(ValidationError, match="negative"):
        hs.density_from_spectral([1.2, -0.2], np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="sum"):
        hs.density_from_spectral([0.7, 0.7], np.eye(2, dtype=complex))
    with pytest.raises(ValidationError, match="orthonormal"):
        hs.density_from_spectral([0.5, 0.5],
                                 np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ShapeError):
        hs.density_from_spectral([1 / 3] * 3, np.eye(2, dtype=complex)[:, :2],)
    for weights in ("ab", [True, False], ["0.5", 0.5]):
        with pytest.raises(ValidationError, match="^density weight must be a number"):
            hs.density_from_spectral(weights, np.eye(2, dtype=complex))


def test_density_from_matrix_round_trip(rng):
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    rho = hs.density_from_matrix(m)
    assert np.allclose(hs.density_matrix(rho), m, atol=1e-9)


def test_density_from_matrix_rejections():
    with pytest.raises(ValidationError, match="trace"):
        hs.density_from_matrix(np.eye(2))
    with pytest.raises(ValidationError, match="eigenvalue"):
        hs.density_from_matrix(np.diag([1.5, -0.5]))


def test_completed_basis_extends_orthonormally():
    rho = pure_e1(3)
    full = hs.completed_basis(rho)
    assert full.vectors.shape == (3, 3)
    assert np.allclose(full.vectors.conj().T @ full.vectors, np.eye(3), atol=1e-12)
    assert np.array_equal(full.weights, [1.0, 0.0, 0.0])
    assert np.array_equal(full.vectors[:, 0], rho.vectors[:, 0])


def test_completed_basis_identity_when_full(rng):
    rho = hs.density_from_spectral([0.5, 0.5], haar_unitary(2, rng))
    assert hs.completed_basis(rho) is rho


def test_homogeneous_history_and_padding():
    h = hs.homogeneous_history([P0, PPLUS])
    assert h.order == 2 and h.single_dim == 2
    padded = hs.pad_history(h, 4)
    assert padded.order == 4
    assert np.array_equal(padded.projections[2].matrix, np.eye(2))
    assert hs.pad_history(h, 2) is h
    with pytest.raises(ShapeError):
        hs.pad_history(h, 1)
    with pytest.raises(ShapeError):
        hs.homogeneous_history([])
    with pytest.raises(ShapeError):
        hs.homogeneous_history([P0, np.eye(3)])


def test_embed_matches_kron_oracle():
    h = hs.homogeneous_history([P0, P1])
    emb = hs.embed_homogeneous(h)
    assert np.array_equal(emb.matrix, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    assert emb.order == 2 and emb.single_dim == 2 and emb.dim == 4


@pytest.mark.parametrize("d, n", [(2, 1), (2, 4), (3, 3), (4, 2), (2, 6)])
def test_embed_is_bit_identical_to_the_kron_chain(d, n):
    rng = np.random.default_rng([d, n, 7])
    for _ in range(20):
        h = hs.homogeneous_history([random_proj(d, rng) for _ in range(n)])
        want = reduce(np.kron, [p.matrix for p in h.projections])
        assert hs.embed_homogeneous(h).matrix.tobytes() == want.tobytes()


def test_one_time_embedding_does_not_alias_its_factor():
    h = hs.homogeneous_history([PPLUS])
    factor = h.projections[0].matrix
    emb = hs.embed_homogeneous(h).matrix
    assert emb is not factor and not np.shares_memory(emb, factor)
    assert np.array_equal(emb, factor)
    emb[0, 0] = 7.0
    assert factor[0, 0] == 0.5
    factor[1, 1] = 9.0
    assert emb[1, 1] == 0.5


def test_embed_rank_multiplies(rng):
    a = random_proj(3, rng, rank=2)
    b = random_proj(3, rng, rank=1)
    emb = hs.embed_homogeneous(hs.homogeneous_history([a, b]))
    assert emb.rank == 2
    assert np.allclose(emb.matrix, kron_chain([a, b]), atol=1e-12)


def test_embed_keeps_factors_that_pass_the_tolerance():
    # each factor diag(1, 8e-9) passes validation at 1e-8, their product's
    # trace (1 + 8e-9)^3 does not; the embedding takes the factors' word
    near = np.diag([1.0, 8e-9])
    with pytest.raises(ValidationError, match="trace"):
        hs.validate_projection(kron_chain([near] * 3))
    emb = hs.embed_homogeneous(hs.homogeneous_history([near] * 3))
    assert emb.rank == 1 and emb.dim == 8
    assert np.array_equal(emb.matrix, kron_chain([near] * 3))


def test_embed_has_no_size_cap():
    # 81 is above the command line's history cap of 64, which the library
    # does not check
    h = hs.homogeneous_history([np.eye(3)] * 4)
    emb = hs.embed_homogeneous(h)
    assert emb.dim == 81 and emb.rank == 81
    assert np.array_equal(emb.matrix, np.eye(81))


def test_history_projection_dimension_check():
    with pytest.raises(ShapeError):
        hs.history_projection(np.eye(3), order=2, single_dim=2)
    hp = hs.history_projection(np.eye(4), order=2, single_dim=2)
    assert hp.dim == 4
    for args, message in (((0, 2), "order must be >= 1"), (("a", 2), "order must be an integer"),
                          ((1, 0), "single_dim must be >= 1")):  # each 1 x 1 at order 0
        with pytest.raises(ValidationError, match=f"^{message}"):
            hs.history_projection(np.eye(1), *args)


def test_a_history_projection_is_a_projection():
    # a validated history projection is taken as the projection it is, as a
    # single-time factor or read at another order, and is never revalidated
    hp = hs.embed_homogeneous(hs.homogeneous_history([P0, PPLUS]))
    assert isinstance(hp, hs.Projection) and (hp.dim, hp.rank) == (4, 1)
    flat = hs.history_projection(hp, 1, 4)
    assert (flat.order, flat.single_dim, flat.rank) == (1, 4, 1) and flat.matrix is hp.matrix
    h = hs.homogeneous_history([hp, hp])
    assert (h.order, h.single_dim) == (2, 4) and h.projections == (hp, hp)
    with pytest.raises(ShapeError, match="^matrix dimension 4 is not 2\\*\\*3$"):
        hs.history_projection(hp, 3, 2)


def test_identity_and_zero_history_projections():
    eye = identity_history_projection(2, 2)
    zero = hs.history_projection(np.zeros((4, 4)), 2, 2)
    assert eye.rank == 4
    assert zero.rank == 0
    assert np.array_equal(zero.matrix, np.zeros((4, 4)))


def test_orthogonal():
    p = hs.embed_homogeneous(hs.homogeneous_history([P0, P0]))
    q = hs.embed_homogeneous(hs.homogeneous_history([P1, P0]))
    r = hs.embed_homogeneous(hs.homogeneous_history([PPLUS, P0]))
    assert hs.orthogonal(p, q)
    assert not hs.orthogonal(p, r)
    with pytest.raises(ShapeError):
        hs.orthogonal(p, identity_history_projection(2, 1))


def test_sum_projection():
    p = hs.history_projection(np.diag([1.0, 0, 0, 0]).astype(complex), 2, 2)
    q = hs.history_projection(np.diag([0, 1.0, 0, 0]).astype(complex), 2, 2)
    total = hs.sum_projection([p, q])
    assert np.array_equal(total.matrix, np.diag([1.0, 1, 0, 0]).astype(complex))
    with pytest.raises(ValidationError):
        hs.sum_projection([p, p])
    with pytest.raises(ShapeError):
        hs.sum_projection([])
