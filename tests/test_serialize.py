import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from histq import serialize as sz
from histq.consistency import build_family
from histq.errors import ValidationError
from histq.historyspace import (HistoryProjection, HomogeneousHistory, density_from_spectral,
                                embed_homogeneous, homogeneous_history)
from histq.quadform import identity_element

from conftest import P0, PPLUS, random_density


def test_matrix_round_trip_bit_exact(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = sz.matrix_from_json(json.loads(json.dumps(sz.matrix_to_json(m))))
    assert back.tobytes() == np.ascontiguousarray(m, dtype=np.complex128).tobytes()


def test_matrix_json_shape():
    obj = sz.matrix_to_json(np.array([[1 + 2j, 3]], dtype=complex))
    assert obj == {"rows": 1, "cols": 2, "data": [[1.0, 2.0], [3.0, 0.0]]}


def test_matrix_json_data_matches_per_entry_floats(rng):
    # the per-entry loop the vectorized layout replaced, signed zeros included
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    m[0, 0] = complex(-0.0, 0.0)
    m[1, 2] = complex(0.0, -0.0)
    m[3, 1] = complex(-0.0, -0.0)
    data = sz.matrix_to_json(m)["data"]
    want = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    assert repr(data) == repr(want)
    assert all(type(x) is float for pair in data for x in pair)
    assert repr(data[0]) == "[-0.0, 0.0]" and repr(data[5]) == "[0.0, -0.0]"


def test_matrix_from_json_rejections():
    with pytest.raises(ValidationError):
        sz.matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(ValidationError):
        sz.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ValidationError):
        sz.matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})
    with pytest.raises(ValidationError):
        sz.matrix_from_json([1, 2, 3])


def test_matrix_from_json_rejects_non_integral_dims():
    for rows in (1.9, True, "1"):
        with pytest.raises(ValidationError, match="rows"):
            sz.matrix_from_json({"rows": rows, "cols": 1, "data": [[1.0, 0.0]]})
    assert sz.matrix_from_json({"rows": 1.0, "cols": 1, "data": [[1, 0]]}).shape == (1, 1)


def test_matrix_from_json_rejects_non_numeric_entries():
    for entry in ([True, False], [1.0, None], ["1.5", 0.0]):
        with pytest.raises(ValidationError, match="number"):
            sz.matrix_from_json({"rows": 1, "cols": 1, "data": [entry]})


def test_history_from_json_rejects_coerced_dim():
    h = sz.history_to_json(homogeneous_history([P0]))
    for dim in (2.5, True, "2"):
        with pytest.raises(ValidationError, match="single_time_dim"):
            sz.history_from_json(dict(h, single_time_dim=dim))


def test_history_from_json_rejects_coerced_order():
    h = sz.history_to_json(homogeneous_history([P0]))
    for order in (1.5, True, "1"):
        with pytest.raises(ValidationError, match="order"):
            sz.history_from_json(dict(h, order=order))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=8, max_size=8))
def test_matrix_round_trip_hypothesis(xs):
    m = np.array(xs, dtype=np.complex128).reshape(2, 4)
    back = sz.matrix_from_json(json.loads(json.dumps(sz.matrix_to_json(m))))
    assert np.array_equal(back, m)


def test_history_round_trip():
    h = homogeneous_history([P0, PPLUS])
    back = sz.history_from_json(sz.history_to_json(h))
    assert back.order == 2 and back.single_dim == 2
    for a, b in zip(h.projections, back.projections):
        assert np.array_equal(a.matrix, b.matrix)


def test_history_from_json_rejections():
    h = sz.history_to_json(homogeneous_history([P0]))
    bad = dict(h)
    bad["order"] = 2
    with pytest.raises(ValidationError):
        sz.history_from_json(bad)
    bad = dict(h)
    bad["single_time_dim"] = 3
    with pytest.raises(ValidationError):
        sz.history_from_json(bad)
    with pytest.raises(ValidationError):
        sz.history_from_json({"order": 1})


def test_density_round_trip_spectral(rng):
    # vectors survive bit-exactly; weights pass through the constructor's
    # renormalization, which is a no-op only when they already sum to 1.0
    rho = random_density(3, rng)
    back = sz.density_from_json(sz.density_to_json(rho))
    assert np.array_equal(back.vectors, rho.vectors)
    assert np.allclose(back.weights, rho.weights, rtol=1e-14, atol=0.0)

    exact = density_from_spectral([0.5, 0.25, 0.25], np.eye(3))
    back = sz.density_from_json(sz.density_to_json(exact))
    assert np.array_equal(back.weights, exact.weights)
    assert np.array_equal(back.vectors, exact.vectors)


def test_density_from_matrix_form():
    rho = sz.density_from_json({"matrix": sz.matrix_to_json(np.eye(2) / 2)})
    assert rho.dim == 2
    assert np.allclose(rho.weights, [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValidationError):
        sz.density_from_json({"nope": 1})
    vectors = sz.matrix_to_json(np.eye(2)[:, :1])
    for weights in ([True], 5):
        with pytest.raises(ValidationError, match="weight"):
            sz.density_from_json({"weights": weights, "vectors": vectors})


def test_tensor_sum_round_trip():
    z = identity_element(2, 2)
    back = sz.tensor_sum_from_json(sz.tensor_sum_to_json(z))
    assert back.order == 2 and back.single_dim == 2
    assert len(back.terms) == 1
    with pytest.raises(ValidationError):
        sz.tensor_sum_from_json({"order": 2, "dim": 2,
                                 "terms": [[sz.matrix_to_json(np.eye(2))]]})
    with pytest.raises(ValidationError, match="order"):
        sz.tensor_sum_from_json(dict(sz.tensor_sum_to_json(z), order=2.5))
    for term in (1, None, "ab", {"rows": 2}):
        with pytest.raises(ValidationError, match="term must be a list"):
            sz.tensor_sum_from_json({"order": 2, "dim": 2, "terms": [term]})


def test_family_from_json_both_member_forms():
    obj = {
        "single_time_dim": 2,
        "order": 2,
        "members": [
            {"projections": [sz.matrix_to_json(P0), sz.matrix_to_json(P0)]},
            {"matrix": sz.matrix_to_json(np.diag([0, 1.0, 0, 0]).astype(complex))},
        ],
    }
    members, labels = sz.family_from_json(obj)
    # absent labels are passed on as None; build_family fills in the defaults
    assert labels is None
    # a history member is parsed, not embedded; a matrix member is a
    # history projection
    assert isinstance(members[0], HomogeneousHistory)
    assert (members[0].order, members[0].single_dim) == (2, 2)
    assert isinstance(members[1], HistoryProjection) and members[1].dim == 4
    members[0] = embed_homogeneous(members[0])
    assert build_family(members, labels).atom_labels == ("g0", "g1", "rest")
    assert members[0].dim == 4 and members[1].dim == 4
    assert sz.family_from_json(dict(obj, labels=["a", 1]))[1] == ["a", 1]
    with pytest.raises(ValidationError):
        sz.family_from_json({"single_time_dim": 2, "order": 2,
                             "members": [{"bogus": 1}]})
    with pytest.raises(ValidationError, match="single_time_dim"):
        sz.family_from_json(dict(obj, single_time_dim="2"))
    with pytest.raises(ValidationError, match="object"):
        sz.family_from_json(dict(obj, members=[1]))
    with pytest.raises(ValidationError, match='"labels" must be a list'):
        sz.family_from_json(dict(obj, labels=5))


def test_load_json_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        sz.load_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        sz.load_json(str(bad))
    # bytes that are not UTF-8 and deep nesting escaped as a bare
    # UnicodeDecodeError and RecursionError
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"label": "caf\u00e9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (latin1, deep):
        with pytest.raises(ValidationError, match=re.escape(f"cannot read JSON from {path}:")):
            sz.load_json(str(path))


def test_dump_json_stable_layout(tmp_path):
    path = tmp_path / "out.json"
    sz.dump_json(np.array([[1.5, 0.5 - 0.25j]]), str(path))
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text.index('"cols"') < text.index('"data"') < text.index('"rows"')
    assert sz.load_json(str(path)) == {"cols": 2, "data": [[1.5, 0.0], [0.5, -0.25]],
                                       "rows": 1}


def test_dump_json_writes_a_matrix_as_json_dumps_does(tmp_path):
    m = np.array([[-0.0, 5e-324, 1e-05, 1e16],
                  [1.0, -2.0, 3.0, -4.5e-300],
                  [-1e-05j, 2 - 0.0j, -1e16 + 1j, 0.1 - 7j]])
    for case in (m, m.T, m[:1], m[:, :1], np.eye(2), m.real.astype(np.int64)):
        path = tmp_path / "m.json"
        sz.dump_json(case, str(path))
        want = json.dumps(sz.matrix_to_json(case), sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        assert np.array_equal(sz.matrix_from_json(sz.load_json(str(path))), case)


def test_dump_json_writes_a_matrix_row_by_row(tmp_path):
    # the list of [re, im] pairs of a 256 x 256 matrix alone takes about 11 MB
    import tracemalloc

    rng = np.random.default_rng(7)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    tracemalloc.start()
    try:
        sz.dump_json(m, str(tmp_path / "m.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_dump_json_refuses_a_non_finite_matrix(tmp_path):
    path = tmp_path / "m.json"
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            sz.dump_json(m, str(path))
        assert not path.exists()
