"""One test per shipping criterion, each at its contract tolerance.

Every test prints one ACCEPTANCE line after its assertions so a verbose run
reads as a checklist.  Timed criteria measure wall clock around the computing
section only.
"""

import json
import time
from pathlib import Path

import numpy as np

from histq import consistency, decoherence, divergence, quadform, serialize
from histq.cli import main
from histq.historyspace import (density_from_spectral, history_projection,
                                homogeneous_history)
from histq.seeding import generator

from conftest import (P0, P1, PMINUS, PPLUS, embed, pure_e1, pure_state, random_density,
                      random_proj)


def _pass(capsys, criterion, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


def test_criterion_1_oracle_triangle(capsys):
    start = time.perf_counter()
    worst = 0.0
    for combo_seed, (d, n) in enumerate(((2, 2), (2, 3), (3, 2), (3, 3))):
        rng = np.random.default_rng(1000 + combo_seed)
        rho = random_density(d, rng)
        evs = {m: decoherence.make_evaluator(m, rho, d, n)
               for m in ("direct", "series", "ils", "stream")}
        for _ in range(100):
            h = decoherence.random_homogeneous(d, n, rng)
            k = decoherence.random_homogeneous(d, n, rng)
            v = {m: ev.value(h, k) for m, ev in evs.items()}
            for gap in (abs(v["direct"] - v["series"]),
                        abs(v["direct"] - v["ils"]),
                        abs(v["ils"] - v["stream"])):
                worst = max(worst, gap)
                assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _pass(capsys, 1, f"max dev {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_kernel_contracts(capsys):
    worst_tr = 0.0
    worst_norm = 0.0
    for d, n in ((2, 2), (3, 2)):
        rng = np.random.default_rng(2000 + d)
        for _ in range(10):
            rho = random_density(d, rng)
            M = decoherence.build_M(rho, d, n)
            tr_dev = abs(np.trace(M.matrix) - 1.0)
            norm = float(np.linalg.norm(M.matrix, 2))
            worst_tr = max(worst_tr, tr_dev)
            worst_norm = max(worst_norm, norm)
            assert tr_dev <= 1e-9
            assert norm <= 1.0 + 1e-8
    _pass(capsys, 2, f"max |trace-1| {worst_tr:.3e}, max norm {worst_norm:.12f}")


def test_criterion_3_axiom_suite(capsys):
    rng = np.random.default_rng(3000)
    rho = random_density(2, rng)
    worst = 0.0
    for method in ("direct", "series", "ils", "stream"):
        ev = decoherence.make_evaluator(method, rho, 2, 2)
        report = decoherence.verify_axioms(ev, samples=200, seed=0, tol=1e-9)
        worst = max(worst, report.max_violation)
        assert report.all_within_tol, report.as_dict()
    _pass(capsys, 3, f"max violation {worst:.3e} over 4 evaluators x 200 samples")


def test_criterion_4_divergence_witness(capsys):
    schedule = divergence.default_schedule(512)
    out = divergence.truncated_d(pure_e1(2), "identity", "qu", schedule)
    assert out.kind == "Divergent"
    for cut, s in zip(out.cutoffs, out.partial_sums):
        assert abs(s - (cut + 1) / 2.0) <= 1e-9
    swap = divergence.truncated_d(pure_e1(2), "identity", "swap", schedule)
    for cut, s in zip(swap.cutoffs, swap.partial_sums):
        assert s == complex(cut)
    rng = np.random.default_rng(4000)
    for _ in range(5):
        other = divergence.truncated_d(random_density(2, rng), "identity", "qu", schedule)
        assert other.kind == out.kind
        assert other.reason == out.reason
    _pass(capsys, 4, "(N+1)/2 sums, exact N swap sums, verdict state-independent x5")


def test_criterion_5_quadratic_form(capsys):
    rng = np.random.default_rng(5000)
    worst = 0.0
    for d, n in ((2, 2), (3, 2)):
        rho = random_density(d, rng)
        for _ in range(50):
            mats_h = [random_proj(d, rng) for _ in range(n)]
            mats_k = [random_proj(d, rng) for _ in range(n)]
            gap = abs(
                quadform.D_form(rho, quadform.simple_tensor_sum([tuple(mats_h)]),
                                quadform.simple_tensor_sum([tuple(mats_k)]))
                - decoherence.d_direct(rho, homogeneous_history(mats_h),
                                       homogeneous_history(mats_k)))
            worst = max(worst, gap)
            assert gap <= 1e-10
    rho = random_density(2, rng)
    for _ in range(100):
        z = quadform.random_tensor_sum(2, 2, rng)
        assert quadform.D_form(rho, z, z).real >= -1e-9
    one = quadform.identity_element(2, 2)
    assert abs(quadform.D_form(rho, one, one) - 1.0) <= 1e-12
    _pass(capsys, 5, f"max projection-tensor dev {worst:.3e}, 100 diagonals >= -1e-9")


def test_criterion_6_unboundedness_probe(tmp_path, capsys):
    sizes = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    rows = quadform.unboundedness_probe(sizes)
    for row in rows:
        assert abs(row.norm - 1.0) <= 1e-8
        assert abs(row.value - row.size) <= 1e-8
    csv_path = str(tmp_path / "probe.csv")
    assert main(["unbounded-probe", "--sizes", ",".join(map(str, sizes)),
                 "--out", csv_path]) == 0
    lines = Path(csv_path).read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "N,norm,value"
    table = [line.split(",") for line in lines[1:]]
    slope = np.polyfit([float(r[0]) for r in table],
                       [float(r[2]) for r in table], 1)[0]
    assert abs(slope - 1.0) <= 1e-8
    _pass(capsys, 6, f"norms within 1e-8 of 1, CSV growth slope {slope:.12f}")


def test_criterion_7_consistency_goldens(capsys):
    ev_plus = decoherence.make_evaluator("series", pure_state([1, 1]), 2, 2)
    fam_z = consistency.build_family(
        [embed([a, b]) for a in (P0, P1) for b in (P0, P1)],
        labels=("00", "01", "10", "11"))
    rep1 = consistency.check_consistent(ev_plus, fam_z, tol=1e-9)
    assert rep1.consistent
    for label, expected in (("00", 0.5), ("01", 0.0), ("10", 0.0), ("11", 0.5)):
        assert abs(rep1.probabilities[label] - expected) <= 1e-9
    assert abs(rep1.prob_sum - 1.0) <= 1e-9

    ev_e1 = decoherence.make_evaluator("series", pure_e1(2), 2, 2)
    fam_xz = consistency.build_family(
        [embed([a, b]) for a in (PPLUS, PMINUS) for b in (P0, P1)],
        labels=("+0", "+1", "-0", "-1"))
    rep2 = consistency.check_consistent(ev_e1, fam_xz, tol=1e-9)
    assert not rep2.consistent
    assert abs(rep2.max_re_offdiag - 0.25) <= 1e-9
    _pass(capsys, 7, f"golden verdicts reproduced, max off-diag {rep2.max_re_offdiag}")


def test_criterion_8_diagonal_excess(capsys):
    rng = generator(0, "samples")
    xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    xi = (xi / np.linalg.norm(xi)).reshape(2, 1)
    rho = density_from_spectral([1.0], xi)
    M = decoherence.build_M(rho, 2, 2)
    start = time.perf_counter()
    res = consistency.diag_excess_search(M, budget=200, seed=0)
    elapsed = time.perf_counter() - start
    assert res.value >= 1.05
    assert elapsed <= 10.0

    ev = decoherence.make_evaluator("series", rho, 2, 2)
    sweep_rng = generator(1, "samples")
    worst = -np.inf
    for _ in range(1000):
        h = decoherence.random_homogeneous(2, 2, sweep_rng)
        v = ev.value(h, h).real
        worst = max(worst, v)
        assert v <= 1.0 + 1e-9
    _pass(capsys, 8, f"excess {res.value:.6f} in {elapsed:.1f}s, "
                     f"1000-sweep max diagonal {worst:.6f}")


def test_criterion_9_streaming_performance(capsys):
    rng = np.random.default_rng(9000)
    rho4 = random_density(4, rng)
    p = history_projection(random_proj(64, rng), 3, 4)
    q = history_projection(random_proj(64, rng), 3, 4)
    start = time.perf_counter()
    value = decoherence.d_via_M_streaming(rho4, p, q)
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    assert np.isfinite(value.real) and np.isfinite(value.imag)

    rho3 = random_density(3, rng)
    M = decoherence.build_M(rho3, 3, 2)
    worst = 0.0
    for _ in range(5):
        a = history_projection(random_proj(9, rng), 2, 3)
        b = history_projection(random_proj(9, rng), 2, 3)
        gap = abs(decoherence.d_via_M(M, a, b)
                  - decoherence.d_via_M_streaming(rho3, a, b))
        worst = max(worst, gap)
        assert gap <= 1e-9
    _pass(capsys, 9, f"(4,3) streamed in {elapsed:.2f}s, "
                     f"materialized agreement {worst:.3e}")


def test_criterion_10_determinism(tmp_path, capsys):
    rng = np.random.default_rng(10000)
    rho_path = str(tmp_path / "rho.json")
    with open(rho_path, "w", encoding="utf-8") as fh:
        json.dump(serialize.density_to_json(random_density(2, rng)), fh)
    commands = {
        "verify": ["verify", "-d", "2", "-n", "2", "--samples", "25", "--seed",
                   "7", "--method", "series"],
        "build_m": ["build-m", "--rho", rho_path, "-d", "2", "-n", "2"],
        "diverge": ["diverge", "--p", "builtin:identity", "--q", "builtin:qu",
                    "--dim", "2"],
        "search": ["search-excess", "-d", "2", "-n", "2", "--budget", "10",
                   "--seed", "7"],
        "probe": ["unbounded-probe", "--sizes", "1,2,4,8"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in ("x", "y"):
            out_path = str(tmp_path / f"{name}_{run}.out")
            assert main(argv + ["--out", out_path]) == 0
            capsys.readouterr()
            with open(out_path, "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1], f"{name} rerun differs"
    _pass(capsys, 10, f"{len(commands)} command reruns byte-identical")
