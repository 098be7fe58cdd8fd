import gc
import json
from pathlib import Path

import numpy as np
import pytest

from histq import cli, decoherence, quadform, serialize
from histq.cli import RunConfig, main
from histq.divergence import (DEFAULT_CONVERGENCE_THRESHOLD, DEFAULT_DIVERGENCE_THRESHOLD,
                              default_schedule, q_u, swap_unitary)
from histq.errors import (HistqError, NumericalError, ShapeError, SizeCapError,
                          ValidationError)
from histq.historyspace import (CONSISTENCY_TOL, VALIDATION_TOL, density_from_spectral,
                                homogeneous_history)

from conftest import (P0, P1, PMINUS, PPLUS, kron_chain, near_degenerate_states,
                      pure_e1, pure_state, pure_state_excess, rerun_commands)


def jwrite(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def rho_file(tmp_path, rho, name="rho.json"):
    return jwrite(tmp_path, name, serialize.density_to_json(rho))


def history_file(tmp_path, mats, name):
    return jwrite(tmp_path, name, serialize.history_to_json(homogeneous_history(mats)))


def run_json(capsys, argv, out_path=None):
    code = main(argv)
    if out_path is None:
        payload = capsys.readouterr().out
    else:
        with open(out_path, encoding="utf-8") as fh:
            payload = fh.read()
    return code, json.loads(payload)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_eval_methods_agree(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    h = history_file(tmp_path, [PPLUS, P0], "h.json")
    k = history_file(tmp_path, [PMINUS, P0], "k.json")
    values = {}
    for method in ("direct", "series", "ils", "stream"):
        code, out = run_json(capsys, [
            "eval", "--rho", rho, "--h", h, "--k", k, "--method", method])
        assert code == 0
        assert out["method"] == method
        values[method] = complex(out["value"][0], out["value"][1])
        assert max(out["residuals"].values()) <= 1e-12
        assert out["meta"]["version"]
    for method, v in values.items():
        assert abs(v - 0.25) <= 1e-9, method


def test_eval_near_tolerance_history_by_every_method(tmp_path, capsys):
    # each factor passes validation at 1e-8, their Kronecker product would not
    rho = rho_file(tmp_path, pure_state([1, 1]))
    h = history_file(tmp_path, [np.diag([1.0, 8e-9])] * 3, "h.json")
    values = []
    for method in ("direct", "series", "ils", "stream"):
        code, out = run_json(capsys, ["eval", "--rho", rho, "--h", h, "--k", h,
                                      "--method", method])
        assert code == 0, method
        values.append(complex(*out["value"]))
    assert max(abs(v - values[0]) for v in values) <= 1e-9


def test_eval_writes_out_file(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    h = history_file(tmp_path, [P0, P0], "h.json")
    out_path = str(tmp_path / "val.json")
    code, out = run_json(capsys, [
        "eval", "--rho", rho, "--h", h, "--k", h, "--out", out_path], out_path)
    assert code == 0
    assert out["value"] == [1.0, 0.0]


def test_eval_tol_flag_relaxes_validation(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    fuzzy = np.array([[1.0, 0.0], [0.0, 1e-7]], dtype=complex)
    h = jwrite(tmp_path, "h.json", {
        "single_time_dim": 2, "order": 2,
        "projections": [serialize.matrix_to_json(fuzzy),
                        serialize.matrix_to_json(P0)],
    })
    k = history_file(tmp_path, [P0, P0], "k.json")
    argv = ["eval", "--rho", rho, "--h", h, "--k", k]
    assert main(argv) == 2
    capsys.readouterr()
    assert main(argv + ["--tol", "1e-5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residuals"]["h_idempotent"] == pytest.approx(1e-7, rel=1e-3)


def test_eval_reports_the_trace_residual_of_the_input_state(tmp_path, capsys):
    h = history_file(tmp_path, [P0, P0], "h.json")
    eye = serialize.matrix_to_json(np.eye(2, dtype=complex))
    spectral = jwrite(tmp_path, "spectral.json", {"weights": [0.5, 0.5000001], "vectors": eye})
    dense = jwrite(tmp_path, "dense.json", {"matrix": serialize.matrix_to_json(
        np.diag([0.5, 0.5000001]).astype(complex))})
    for rho in (spectral, dense):
        assert main(["eval", "--rho", rho, "--h", h, "--k", h]) == 2
        capsys.readouterr()
        code, out = run_json(capsys, ["eval", "--rho", rho, "--h", h, "--k", h,
                                      "--tol", "1e-5"])
        assert code == 0
        assert out["residuals"]["rho_trace"] == pytest.approx(1e-7, rel=1e-6)


def test_eval_exit_codes(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    h = history_file(tmp_path, [P0, P0], "h.json")
    bad_rho = jwrite(tmp_path, "bad.json", {"weights": [0.5],
                                            "vectors": {"rows": 2, "cols": 1,
                                                        "data": [[1, 0], [0, 0]]}})
    matrix_h = jwrite(tmp_path, "mat.json",
                      serialize.matrix_to_json(kron_chain([P0, P0])))
    cases = [
        (["eval", "--rho", bad_rho, "--h", h, "--k", h], 2),
        (["eval", "--rho", str(tmp_path / "absent.json"), "--h", h, "--k", h], 2),
        (["eval", "--rho", rho, "--h", h, "--k", h, "--method", "magic"], 1),
        (["eval", "--rho", rho, "--h", matrix_h, "--k", h, "--method", "direct"], 2),
        (["eval", "--rho", rho, "--h", h, "--k", h, "--bogus-flag"], 1),
        (["no-such-command"], 1),
        ([], 1),
    ]
    for argv, expected in cases:
        assert main(argv) == expected, argv
        capsys.readouterr()


def test_eval_one_dim_state(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_state([1]))
    one = jwrite(tmp_path, "one.json", serialize.matrix_to_json(np.eye(1)))
    code, out = run_json(capsys, ["eval", "--rho", rho, "--h", one, "--k", one,
                                  "--method", "stream"])
    assert code == 0
    assert out["value"] == [1.0, 0.0]
    # a 2 x 2 matrix is no power of 1: rejected at once, not searched for forever
    two = jwrite(tmp_path, "two.json", serialize.matrix_to_json(np.eye(2)))
    assert main(["eval", "--rho", rho, "--h", two, "--k", two, "--method", "stream"]) == 2
    assert ("matrix dimension 2 is not a power of the single-time dimension 1"
            in capsys.readouterr().err)


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert "histq" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert "histq" in capsys.readouterr().out


def test_build_m_roundtrip(tmp_path, capsys):
    for state in [pure_e1(2)] + near_degenerate_states():
        rho = rho_file(tmp_path, state)
        out_path = str(tmp_path / "m.json")
        code = main(["build-m", "--rho", rho, "-d", "2", "-n", "2", "--out", out_path])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dim"] == 16
        assert summary["trace"] == pytest.approx([1.0, 0.0], abs=1e-9)
        assert summary["state_fingerprint"] == decoherence.state_fingerprint(state)
        m = serialize.matrix_from_json(json.loads(Path(out_path).read_text()))
        assert m.shape == (16, 16)
        assert abs(np.trace(m) - 1.0) <= 1e-9
    # at the materialization cap the streamed file is the bytes of json.dumps
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    rho = rho_file(tmp_path, density_from_spectral([0.7, 0.3], u))
    assert main(["build-m", "--rho", rho, "-d", "2", "-n", "5", "--out", out_path]) == 0
    m = decoherence.build_M(serialize.density_from_json(serialize.load_json(rho)), 2, 5).matrix
    gc.disable()  # collections while a million [re, im] lists pile up triple the time
    try:
        want = json.dumps(serialize.matrix_to_json(m), sort_keys=True, check_circular=False)
    finally:
        gc.enable()
    assert Path(out_path).read_bytes() == (want + "\n").encode()


def test_build_m_size_cap(tmp_path, capsys):
    # the command line refuses the dense M before the kernel is built: at
    # the materialization cap for d**(2n) = 4096, at the history cap first
    # for d**n = 128
    rho4 = rho_file(tmp_path, pure_e1(4))
    rho2 = rho_file(tmp_path, pure_e1(2), "rho2.json")
    out = tmp_path / "m.json"
    for rho, d, n, message in (
            (rho4, 4, 3, "doubled dimension 4**6=4096 exceeds materialization cap 1024; "
                         "d_via_M and d_via_M_streaming evaluate without it"),
            (rho2, 2, 6, "doubled dimension 2**12=4096 exceeds materialization cap 1024; "
                         "d_via_M and d_via_M_streaming evaluate without it"),
            (rho2, 2, 7, "history dimension 2**7=128 exceeds cap 64")):
        code = main(["build-m", "--rho", rho, "-d", str(d), "-n", str(n), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"size cap: {message}\n"
        assert not out.exists()


def test_eval_ils_at_the_history_cap(tmp_path, capsys):
    # at order 6 the history dimension 64 is the history cap and the doubled
    # dimension 4096 is above the materialization cap: ils evaluates from the
    # kernel's entries, while build-m still refuses the dense M; the second
    # input is a mixed state (weights 0.8, 0.2) on a random unitary with
    # random rank-one projections
    rng = np.random.default_rng(6)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    mixed = density_from_spectral([0.8, 0.2], u)
    projs = [np.outer(v, v.conj()) for v in (
        np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0][:, 0]
        for _ in range(12))]
    inputs = [(pure_state([1, 2j]), [PPLUS, P0, PMINUS, P1, PPLUS, P0],
               [PPLUS, PPLUS, P0, PMINUS, P0, PPLUS]),
              (mixed, projs[:6], projs[6:])]
    for i, (state, h_mats, k_mats) in enumerate(inputs):
        rho = rho_file(tmp_path, state, f"rho{i}.json")
        h = history_file(tmp_path, h_mats, f"h{i}.json")
        k = history_file(tmp_path, k_mats, f"k{i}.json")
        values = {}
        for method in ("ils", "stream"):
            code, out = run_json(capsys, ["eval", "--rho", rho, "--h", h, "--k", k,
                                          "--method", method])
            assert code == 0, (i, method)
            values[method] = complex(*out["value"])
        assert abs(values["ils"] - values["stream"]) <= 1e-9, i
    assert main(["build-m", "--rho", rho, "-d", "2", "-n", "6",
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "exceeds materialization cap 1024" in capsys.readouterr().err


def test_build_m_dim_mismatch(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    code = main(["build-m", "--rho", rho, "-d", "3", "--out", str(tmp_path / "m.json")])
    assert code == 2
    capsys.readouterr()


def test_verify_defaults_and_csv(tmp_path, capsys):
    out_path = str(tmp_path / "verify.json")
    csv_path = str(tmp_path / "verify.csv")
    code, out = run_json(capsys, [
        "verify", "-d", "2", "-n", "2", "--samples", "20", "--seed", "5",
        "--method", "series", "--out", out_path, "--csv", csv_path], out_path)
    assert code == 0
    assert out["all_within_tol"] is True
    assert out["samples"] == 20
    assert out["meta"]["prng"]["stream"] == "verify"
    assert out["meta"]["prng"]["seed"] == 5
    header, rows = read_csv(csv_path)
    assert header == ["axiom", "violation"]
    assert [r[0] for r in rows] == ["hermitian", "positivity",
                                    "normalization", "additivity"]
    assert all(float(r[1]) <= 1e-9 for r in rows)


def test_quadform_identity(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    z = jwrite(tmp_path, "z.json",
               serialize.tensor_sum_to_json(quadform.identity_element(2, 2)))
    code, out = run_json(capsys, ["quadform", "--rho", rho, "--z", z, "--w", z])
    assert code == 0
    assert out["value"] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_unbounded_probe_refuses_sizes_above_the_cap(tmp_path, capsys):
    out_path = tmp_path / "probe.csv"
    assert main(["unbounded-probe", "--sizes", "4,1048577", "--out", str(out_path)]) == 3
    assert "exceeds cap" in capsys.readouterr().err
    assert not out_path.exists()


def test_unbounded_probe_csv(tmp_path):
    out_path = str(tmp_path / "probe.csv")
    assert main(["unbounded-probe", "--sizes", "1,2,4,8,1024,1048576", "--out", out_path]) == 0
    header, rows = read_csv(out_path)
    assert header == ["N", "norm", "value"]
    assert [int(r[0]) for r in rows] == [1, 2, 4, 8, 1024, 1048576]
    for r in rows:
        assert float(r[1]) == 1.0
        assert float(r[2]) == float(int(r[0]))


def test_diverge_builtin_growth(tmp_path):
    out_path = str(tmp_path / "div.csv")
    code = main(["diverge", "--p", "builtin:identity", "--q", "builtin:qu",
                 "--dim", "2", "--cutoffs", "4,8,16", "--out", out_path])
    assert code == 0
    header, rows = read_csv(out_path)
    assert header == ["cutoff", "re", "im", "verdict"]
    assert [float(r[1]) for r in rows] == [2.5, 4.5, 8.5]
    assert all(r[3] == "Divergent" for r in rows)
    assert all(float(r[2]) == 0.0 for r in rows)


def test_diverge_swap_matches_cutoff(tmp_path):
    out_path = str(tmp_path / "div.csv")
    assert main(["diverge", "--p", "builtin:identity", "--q", "builtin:swap",
                 "--dim", "3", "--cutoffs", "4,8,16,32", "--out", out_path]) == 0
    _, rows = read_csv(out_path)
    assert [float(r[1]) for r in rows] == [4.0, 8.0, 16.0, 32.0]
    # a swap matrix file stops at its block 8, where the builtin keeps growing
    swap8 = jwrite(tmp_path, "swap8.json", serialize.matrix_to_json(swap_unitary(8)))
    for q, want in ((swap8, [2, 4, 8, 8, 8]), ("builtin:swap", [2, 4, 8, 16, 1024])):
        assert main(["diverge", "--p", "builtin:identity", "--q", q, "--dim", "8",
                     "--cutoffs", "2,4,8,16,1024", "--out", out_path]) == 0
        assert [float(r[1]) for r in read_csv(out_path)[1]] == want, q


def test_diverge_file_operator_finite(tmp_path):
    qmat = jwrite(tmp_path, "qu2.json", serialize.matrix_to_json(q_u(2).matrix))
    out_path = str(tmp_path / "div.csv")
    assert main(["diverge", "--p", qmat, "--q", qmat, "--dim", "2",
                 "--out", out_path]) == 0
    _, rows = read_csv(out_path)
    assert len(rows) == 8
    assert all(r[3] == "Finite" for r in rows)
    assert all(float(r[1]) == pytest.approx(2.25, abs=1e-9) for r in rows)


def test_diverge_unknown_builtin(tmp_path, capsys):
    assert main(["diverge", "--p", "builtin:nope", "--q", "builtin:qu",
                 "--dim", "2"]) == 2
    assert "unknown builtin" in capsys.readouterr().err


def test_diverge_matrix_file_needs_a_doubled_dimension(tmp_path, capsys):
    m3 = jwrite(tmp_path, "m3.json", serialize.matrix_to_json(np.eye(3)))
    assert main(["diverge", "--p", m3, "--q", "builtin:qu", "--dim", "2"]) == 2
    assert capsys.readouterr().err == (
        "validation error: matrix dimension 3 is not a doubled dimension\n")


def test_consistency_golden_inconsistent(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    members = [serialize.history_to_json(homogeneous_history([a, b]))
               for a in (PPLUS, PMINUS) for b in (P0, P1)]
    family = jwrite(tmp_path, "family.json", {
        "single_time_dim": 2, "order": 2, "members": members,
        "labels": ["+0", "+1", "-0", "-1"],
    })
    # the batched Grams of stream and ils give the verdict of the series loop
    for method in ("series", "stream", "ils"):
        code, out = run_json(capsys, ["consistency", "--rho", rho, "--family", family,
                                      "--method", method])
        assert code == 0, method
        assert out["consistent"] is False, method
        assert out["max_re_offdiag"] == pytest.approx(0.25, abs=1e-12), method
        assert out["max_re_witness"] == ["+0", "-0"], method
        assert out["probabilities"] == pytest.approx(
            {"+0": 0.25, "+1": 0.25, "-0": 0.25, "-1": 0.25}, abs=1e-12), method
        assert len(out["unphysical"]) == 2, method


def test_consistency_on_twelve_atoms_by_every_method(tmp_path, capsys):
    # the largest closure the checker accepts: stream and ils give the series
    # report, and every name in it is distinct family labels in label order
    consistency = rerun_commands(tmp_path)[1]
    reports = [run_json(capsys, consistency + ["--method", m]) for m in ("series", "stream", "ils")]
    assert [code for code, _ in reports] == [0, 0, 0]
    keys, series = ("consistent", "unphysical", "max_re_witness"), reports[0][1]
    for _, out in reports[1:]:
        assert [out[k] for k in keys] == [series[k] for k in keys]
        assert abs(out["max_re_offdiag"] - series["max_re_offdiag"]) <= 1e-9
    labels = [f"a{j}" for j in range(11)] + ["rest"]
    names = [x for _, out in reports for x in out["unphysical"] + (out["max_re_witness"] or [])]
    assert names and all("+".join(sorted(set(x.split("+")), key=labels.index)) == x
                         for x in names)


def test_consistency_matrix_members_consistent(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_state([1, 1]))
    members = [{"matrix": serialize.matrix_to_json(kron_chain([a, b]))}
               for a in (P0, P1) for b in (P0, P1)]
    family = jwrite(tmp_path, "family.json", {
        "single_time_dim": 2, "order": 2, "members": members,
    })
    code, out = run_json(capsys, ["consistency", "--rho", rho, "--family", family])
    assert code == 0
    assert out["consistent"] is True
    assert out["probabilities"]["g0"] == pytest.approx(0.5, abs=1e-9)
    assert out["prob_sum"] == pytest.approx(1.0, abs=1e-9)


def test_consistency_and_diverge_refuse_history_files_above_the_cap(tmp_path, capsys):
    # the command line checks the history members of a family and a history
    # file given to diverge before embedding them; the whole family is parsed
    # first, so a malformed member wins over a member above the cap
    rho = rho_file(tmp_path, pure_e1(2))
    h7 = serialize.history_to_json(homogeneous_history([PPLUS] + [P0] * 6))
    out = tmp_path / "out.json"
    family = jwrite(tmp_path, "family7.json", {
        "single_time_dim": 2, "order": 7,
        "members": [h7, serialize.history_to_json(homogeneous_history([PMINUS] + [P0] * 6))]})
    h7_file = jwrite(tmp_path, "h7.json", h7)
    for argv in (["consistency", "--rho", rho, "--family", family],
                 ["diverge", "--p", h7_file, "--q", "builtin:qu", "--dim", "2"]):
        assert main(argv + ["--out", str(out)]) == 3, argv
        assert capsys.readouterr().err == "size cap: history dimension 2**7=128 exceeds cap 64\n"
        assert not out.exists()
    malformed = jwrite(tmp_path, "malformed.json", {
        "single_time_dim": 2, "order": 7, "members": [h7, {"bogus": 1}]})
    assert main(["consistency", "--rho", rho, "--family", malformed]) == 2
    assert capsys.readouterr().err == (
        'validation error: family member needs "projections" or "matrix"\n')
    # under the cap a family may mix history and matrix members
    mixed = jwrite(tmp_path, "mixed.json", {
        "single_time_dim": 2, "order": 2,
        "members": [serialize.history_to_json(homogeneous_history([P0, P0])),
                    {"matrix": serialize.matrix_to_json(kron_chain([P1, P0]))}]})
    code, report = run_json(capsys, ["consistency", "--rho", rho, "--family", mixed])
    assert code == 0
    assert report["probabilities"] == pytest.approx({"g0": 1.0, "g1": 0.0}, abs=1e-12)


def test_consistency_dim_mismatch(tmp_path, capsys):
    rho3 = rho_file(tmp_path, pure_e1(3))
    members = [serialize.history_to_json(homogeneous_history([P0, P0]))]
    family = jwrite(tmp_path, "family.json",
                    {"single_time_dim": 2, "order": 2, "members": members})
    assert main(["consistency", "--rho", rho3, "--family", family]) == 2
    capsys.readouterr()
    order0 = jwrite(tmp_path, "order0.json", {"single_time_dim": 2, "order": 0, "members": [
        {"matrix": serialize.matrix_to_json(np.eye(1))}]})
    assert main(["consistency", "--rho", rho_file(tmp_path, pure_e1(2)), "--family", order0]) == 2
    assert capsys.readouterr().err == "validation error: order must be >= 1, got 0\n"


@pytest.mark.parametrize("labels", [[1, "b"], ["a", {"a": 2}], ["a", None], ["a", True]])
def test_consistency_rejects_labels_that_are_not_strings(tmp_path, capsys, labels):
    # malformed JSON is rejected, not coerced by str()
    rho = rho_file(tmp_path, pure_e1(2))
    members = [serialize.history_to_json(homogeneous_history([p, P0])) for p in (P0, P1)]
    family = jwrite(tmp_path, "family.json", {
        "single_time_dim": 2, "order": 2, "members": members, "labels": labels})
    assert main(["consistency", "--rho", rho, "--family", family]) == 2
    assert "must be a string" in capsys.readouterr().err


def test_search_excess_output(tmp_path, capsys):
    out_path = str(tmp_path / "search.json")
    code, out = run_json(capsys, [
        "search-excess", "-d", "2", "-n", "2", "--budget", "20", "--seed", "0",
        "--out", out_path], out_path)
    assert code == 0
    assert out["value"] >= 1.05
    assert out["rank"] >= 1
    proj = serialize.matrix_from_json(out["projection"])
    assert proj.shape == (4, 4)
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    assert (out["xi"] is None) == (out["rank"] != 1)
    assert out["meta"]["prng"]["stream"] == "search"


def test_search_excess_near_degenerate_rho(tmp_path, capsys):
    for i, state in enumerate(near_degenerate_states()):
        rho = rho_file(tmp_path, state, name=f"rho{i}.json")
        out_path = str(tmp_path / f"search{i}.json")
        code, out = run_json(capsys, [
            "search-excess", "--rho", rho, "-d", "2", "-n", "2", "--budget", "3",
            "--out", out_path], out_path)
        assert code == 0
        assert out["value"] >= 1.0


def test_search_excess_at_the_history_cap(tmp_path, capsys):
    # the search holds d**n x d**n projections and no kernel, so it runs up to
    # the history cap of 64 and refuses beyond it
    rho = rho_file(tmp_path, pure_state([1, 2j]))
    out_path = str(tmp_path / "search.json")
    code, out = run_json(capsys, ["search-excess", "--rho", rho, "-d", "2", "-n", "6",
                                  "--budget", "2", "--out", out_path], out_path)
    assert code == 0
    assert out["value"] > 1.0
    proj = jwrite(tmp_path, "proj.json", out["projection"])
    code, again = run_json(capsys, ["eval", "--rho", rho, "--h", proj, "--k", proj,
                                    "--method", "stream"])
    assert code == 0
    assert abs(complex(*again["value"]) - out["value"]) <= 1e-9
    # from the default pure state it reaches s(2, 6)^2 with a rank-22 witness
    want, rank = pure_state_excess(2, 6)
    code, out = run_json(capsys, ["search-excess", "-d", "2", "-n", "6", "--budget", "2",
                                  "--out", out_path], out_path)
    assert code == 0 and abs(out["value"] - want) <= 1e-12 * want and out["rank"] == rank == 22
    assert main(["search-excess", "--rho", rho, "-d", "2", "-n", "7",
                 "--budget", "2"]) == 3
    assert "exceeds cap 64" in capsys.readouterr().err


def test_bench_csv(tmp_path):
    out_path = str(tmp_path / "bench.csv")
    code = main(["bench", "-d", "2", "-n", "2", "--methods", "direct,series",
                 "--pairs", "5", "--seed", "1", "--out", out_path])
    assert code == 0
    header, rows = read_csv(out_path)
    assert header == ["method", "setup_seconds", "wall_seconds",
                      "max_abs_dev_vs_first"]
    assert [r[0] for r in rows] == ["direct", "series"]
    assert float(rows[0][3]) == 0.0
    assert float(rows[1][3]) <= 1e-9
    # at the history cap stream and ils stay within 1e-12 of series
    assert main(["bench", "-d", "2", "-n", "6", "--methods", "series,stream,ils",
                 "--pairs", "3", "--seed", "0", "--out", out_path]) == 0
    _, rows = read_csv(out_path)
    assert [r[0] for r in rows] == ["series", "stream", "ils"]
    assert all(float(r[3]) <= 1e-12 for r in rows)


@pytest.mark.parametrize("method", ["series", "ils", "stream"])
def test_verify_and_bench_refuse_histories_above_the_cap(tmp_path, capsys, method):
    # 2**40 exceeds the history cap of 64; direct holds only 2 x 2 factors
    out = str(tmp_path / "bench.csv")
    for argv in (["verify", "-d", "2", "-n", "40", "--method", method],
                 ["bench", "-d", "2", "-n", "40", "--methods", f"direct,{method}",
                  "--pairs", "1", "--out", out]):
        assert main(argv) == 3, argv
        assert "exceeds cap 64" in capsys.readouterr().err
    assert main(["verify", "-d", "2", "-n", "40", "--method", "direct",
                 "--samples", "1"]) == 0
    assert main(["bench", "-d", "2", "-n", "40", "--methods", "direct",
                 "--pairs", "1", "--out", out]) == 0


def test_verify_and_bench_check_before_building_the_default_state(tmp_path, capsys,
                                                                    monkeypatch):
    # a d x d default state costs O(d^2) memory and an O(d^3) check, so it
    # is built only after the method names and the cap let the run through
    def refuse(*args, **kwargs):
        raise AssertionError("default state built before the checks")

    monkeypatch.setattr(cli, "density_from_spectral", refuse)
    for argv in (["verify", "--method", "stream", "-d", "2000", "-n", "1"],
                 ["bench", "-d", "2000", "-n", "1", "--methods", "stream"],
                 ["search-excess", "-d", "100", "-n", "2"]):
        assert main(argv) == 3, argv
        assert "exceeds cap 64" in capsys.readouterr().err
    # the method names are checked before --rho is read
    missing = str(tmp_path / "missing.json")
    for rho in ([], ["--rho", missing]):
        assert main(["bench", "-d", "2000", "-n", "1", "--methods", "foo", *rho]) == 2
        assert "unknown evaluation method 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("error, code, prefix", [
    (cli.UsageError, 1, "usage error"), (ValidationError, 2, "validation error"),
    (ShapeError, 2, "validation error"), (HistqError, 2, "validation error"),
    (SizeCapError, 3, "size cap"), (NumericalError, 4, "numerical error")])
def test_each_error_has_one_exit_code_and_prefix(error, code, prefix, capsys, monkeypatch):
    def fail(args, cfg):
        raise error("boom")

    # the parser binds each subcommand when main builds it
    monkeypatch.setattr(cli, "_cmd_unbounded_probe", fail)
    assert main(["unbounded-probe"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_bench_rejects_unknown_method(tmp_path, capsys, monkeypatch):
    assert main(["bench", "--methods", "direct,magic"]) == 2
    capsys.readouterr()
    # every name is checked before the size cap and before any evaluation
    assert main(["bench", "--methods", "foo", "-d", "2", "-n", "40"]) == 2
    assert "unknown evaluation method 'foo'" in capsys.readouterr().err

    def refuse(*args, **kwargs):
        raise AssertionError("bench evaluated before checking every method name")

    monkeypatch.setattr(decoherence, "make_evaluator", refuse)
    assert main(["bench", "--methods", "stream,foo", "-d", "2", "-n", "2"]) == 2
    assert "unknown evaluation method 'foo'" in capsys.readouterr().err


def test_config_file_cutoffs_and_rejection(tmp_path, capsys):
    cfg = jwrite(tmp_path, "cfg.json", {"cutoffs": [4, 8, 16]})
    out_path = str(tmp_path / "div.csv")
    assert main(["diverge", "--config", cfg, "--p", "builtin:identity",
                 "--q", "builtin:qu", "--dim", "2", "--out", out_path]) == 0
    _, rows = read_csv(out_path)
    assert len(rows) == 3
    bad = jwrite(tmp_path, "bad.json", {"bogus_key": 1})
    assert main(["diverge", "--config", bad, "--p", "builtin:identity",
                 "--q", "builtin:qu", "--dim", "2"]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    rejected = [{"materialize_cap": 0}, {"single_dim": 2.5}, {"seed": 1.5},
                {"seed": -1}, {"validation_tol": True}, {"materialize_cap": True},
                {"cutoffs": "123"}, {"convergence_threshold": "x"}]
    for i, obj in enumerate(rejected):
        worse = jwrite(tmp_path, f"worse{i}.json", obj)
        assert main(["diverge", "--config", worse, "--p", "builtin:identity",
                     "--q", "builtin:qu"]) == 2, obj
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err, obj
    # the schedule owns the rule for each cutoff, and the config keeps its ints
    fraction = jwrite(tmp_path, "fraction.json", {"cutoffs": [4, 8.5, 16]})
    assert main(["diverge", "--config", fraction, "--p", "builtin:identity",
                 "--q", "builtin:qu"]) == 2
    assert "cutoff must be an integer, got 8.5" in capsys.readouterr().err
    cutoffs = RunConfig(cutoffs=[4, 8.0, 16]).cutoffs
    assert cutoffs == (4, 8, 16) and all(type(c) is int for c in cutoffs)


def test_flags_replace_config_values_before_validation(tmp_path, capsys):
    cfg = jwrite(tmp_path, "cfg.json", {"order": 0})
    argv = ["verify", "--config", cfg, "-d", "2", "--samples", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("validation error:")
    code, out = run_json(capsys, argv + ["-n", "2"])
    assert code == 0
    assert out["all_within_tol"] is True


def test_run_config_defaults_are_the_library_constants():
    cfg = RunConfig()
    assert cfg.validation_tol == VALIDATION_TOL
    # the caps are settings of the command line alone
    assert (cfg.history_cap, cfg.materialize_cap) == (64, 1024)
    assert cfg.cutoffs == default_schedule().cutoffs
    assert cfg.convergence_threshold == DEFAULT_CONVERGENCE_THRESHOLD
    assert cfg.divergence_threshold == DEFAULT_DIVERGENCE_THRESHOLD
    assert cfg.consistency_tol == CONSISTENCY_TOL
    assert (cfg.single_dim, cfg.order, cfg.seed) == (2, 2, 0)


DIVERGE = ["diverge", "--p", "builtin:identity", "--q", "builtin:qu"]


@pytest.mark.parametrize("argv", [
    ["build-m", "--rho", "{rho}", "-n", "0", "--out", "{out}"],
    ["search-excess", "-d", "2", "-n", "0"],
    ["verify", "-d", "1"],
    ["verify", "-d", "0"],
    DIVERGE + ["-d", "0"],
    DIVERGE + ["-d", "1"],
    ["verify", "--seed", "-1"],
    ["search-excess", "--seed", "-1"],
    ["bench", "--seed", "-1"],
    ["verify", "--tol", "0"],
    ["verify", "--tol", "inf"],
    ["verify", "--samples", "0"],
    ["verify", "--samples", "-3"],
    ["bench", "--pairs", "0"],
    ["bench", "--pairs", "-2"],
    ["search-excess", "--sweeps", "0"],
    ["search-excess", "--sweeps", "-1"],
], ids=" ".join)
def test_invalid_settings_exit_2_without_traceback(tmp_path, capsys, argv):
    rho = rho_file(tmp_path, pure_e1(2))
    argv = [a.format(rho=rho, out=tmp_path / "m.json") for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, low", [("single_dim", 2), ("order", 1), ("seed", 0),
                                       ("materialize_cap", 1), ("history_cap", 1)])
def test_integer_settings_name_their_least_value(capsys, name, low):
    assert getattr(RunConfig(**{name: float(low)}), name) == low
    with pytest.raises(ValidationError, match=f"^setting '{name}' must be >= {low}, got {low - 1}$"):
        RunConfig(**{name: low - 1})
    flag = {"single_dim": "-d", "order": "-n", "seed": "--seed"}.get(name)
    if flag is not None:
        assert main(["verify", flag, str(low - 1)]) == 2
        err = capsys.readouterr().err
        assert err == f"validation error: setting '{name}' must be >= {low}, got {low - 1}\n"


def test_bench_pairs_follow_the_count_rule(capsys):
    assert main(["bench", "--pairs", "0"]) == 2
    assert capsys.readouterr().err == "validation error: --pairs must be >= 1, got 0\n"


def test_json_that_cannot_be_read_exits_2_without_traceback(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    rho.write_bytes(b'{"dim": 2, "label": "caf\xe9"}')
    assert main(["search-excess", "--rho", str(rho)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot read JSON from {rho}: 'utf-8' codec")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["search-excess", "--out", "{out}.json"],
    ["unbounded-probe", "--sizes", "1,2", "--out", "{out}.csv"],
    ["build-m", "--rho", "{rho}", "-n", "2", "--out", "{out}.json"],
], ids=lambda argv: argv[0])
def test_output_in_a_missing_directory_exits_2_without_traceback(tmp_path, capsys, argv):
    # a JSON, a CSV and a streamed kernel: each open raised a bare
    # FileNotFoundError, exit 1
    rho = rho_file(tmp_path, pure_e1(2))
    out = tmp_path / "missing" / "out"
    assert main([a.format(rho=rho, out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write {out}.")
    assert err.count("\n") == 1



@pytest.mark.parametrize("argv", [
    ["verify", "-d", "9", "-n", "2", "--method", "stream"],
    ["bench", "-d", "9", "-n", "2", "--methods", "stream"],
    ["search-excess", "-d", "9", "-n", "2"],
    ["build-m", "-d", "5", "-n", "3", "--out", "{out}"],
], ids=" ".join)
def test_state_dimension_is_checked_before_the_size_caps(tmp_path, capsys, argv):
    # -d disagrees with the 2-dim state and d**n is above the history cap
    # (verify, bench, search-excess) or d**(2n) above the materialization cap
    # (build-m): the mismatch is reported, not the cap
    rho = rho_file(tmp_path, pure_e1(2))
    argv = [a.format(out=tmp_path / "m.json") for a in argv] + ["--rho", rho]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: state dimension 2 does not match d=")


@pytest.mark.parametrize("obj, message", [
    ({"order": -1, "dim": 2, "terms": []}, "tensor-sum order and dim must be positive"),
    ({"order": 2, "dim": 0, "terms": []}, "tensor-sum order and dim must be positive"),
    ({"order": 0, "dim": 2, "terms": [[]]}, "a tensor-sum term needs at least one factor"),
])
def test_quadform_rejects_malformed_tensor_sums(tmp_path, capsys, obj, message):
    rho = rho_file(tmp_path, pure_e1(2))
    z = jwrite(tmp_path, "z.json", obj)
    out_path = tmp_path / "out.json"
    assert main(["quadform", "--rho", rho, "--z", z, "--w", z, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {message}")
    assert not out_path.exists()


def test_quadform_rejects_a_term_that_is_not_a_list(tmp_path, capsys):
    rho = rho_file(tmp_path, pure_e1(2))
    z = jwrite(tmp_path, "z.json", {"order": 2, "dim": 2, "terms": [1]})
    assert main(["quadform", "--rho", rho, "--z", z, "--w", z]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: tensor-sum term must be a list")
    assert "Traceback" not in err
