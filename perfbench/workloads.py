"""The benchmark's four workloads.

Each workload repeats one fixed kind of operation (an "op") over an input
pool drawn from the benchmark seed.  ``setup`` makes and validates the
inputs (timed as set-up), ``op`` is the timed call into histq, ``check``
compares an op's output with the independent references of ``oracle`` and
``perturbed`` yields outputs nudged by 1e-6 that ``check`` must reject.
Calls go through module attributes (``decoherence.d_series``), so a traced
phase sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import reduce

import numpy as np

from histq import cli, consistency, decoherence, historyspace
from histq.errors import HistqError

import clock
import oracle
from oracle import close, expect

EPS = 1e-6


class OpFailed(Exception):
    """A cli subcommand exited with a non-zero code."""


# an op that raises one of these counts as failed, not as a benchmark error
OP_ERRORS = (HistqError, OpFailed)


def timed(fn, *args):
    """Run fn(*args) between two calibrations: (result, op error or None,
    raw wall time, rescaled wall time)."""
    before = clock.calibrate()
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except OP_ERRORS as exc:
        result, error = None, exc
    elapsed = time.perf_counter() - start
    return result, error, elapsed, clock.scale(elapsed, before, clock.calibrate())


def unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector(cols: np.ndarray) -> np.ndarray:
    return cols @ cols.conj().T


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    return projector(unitary(dim, rng)[:, :rank])


def mixed_state(d: int, rng: np.random.Generator):
    """Full-rank weights with a top gap of at least 0.1, so the kernel's
    power-iteration gate converges on every seed."""
    top = rng.uniform(0.55, 0.95)
    weights = np.array([top] + list((1.0 - top) * rng.dirichlet(np.ones(d - 1))))
    return weights, unitary(d, rng)


class Workload:
    name = ""
    round_size = 1      # ops per round; a run attempts whole rounds
    pool = 16           # distinct op inputs, cycled

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def new_rng(self) -> np.random.Generator:
        """The input stream of this workload and seed, from its start: every
        timed repeat of the set-up makes the same inputs."""
        return np.random.default_rng([self.seed, *self.name.encode()])

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Reference values for the pool, computed outside the timed set-up."""

    def op(self, i: int):
        """One op on pool input i."""
        raise NotImplementedError

    def timed_op(self, i: int, tracer=None):
        """(output, op error or None, raw and rescaled wall time) of one op;
        ``tracer`` is set in the traced rounds."""
        return timed(self.op, i)

    def read(self, i: int, result):
        """The output of an op in the form ``check`` takes, read outside the
        timed section."""
        return result

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def perturbed(self, i: int, out):
        raise NotImplementedError

    def extra_checks(self) -> None:
        """Fixed-input checks run once per run."""

    def expected_failure(self, i: int) -> bool:
        return False


class Evaluate(Workload):
    """The oracle triangle on one value at (d, n) = (2, 4), under a
    full-rank and a rank-one state whose kernels are built in set-up."""

    name = "evaluate"
    D, N = 2, 4
    pool = 32

    def setup(self):
        rng = self.new_rng()
        weights, vectors = mixed_state(self.D, rng)
        pure = unitary(self.D, rng)[:, :1]
        self.states = []
        self.dense = []
        for w, v in ((weights, vectors), ([1.0], pure)):
            rho = historyspace.density_from_spectral(w, v)
            self.states.append((rho, decoherence.build_M(rho, self.D, self.N)))
            self.dense.append(oracle.density(w, v))
        dim = self.D ** self.N
        self.inputs = []
        self.raw = []
        for _ in range(self.pool):
            per_state, raw = [], []
            for _ in self.states:
                hf = [random_projector(self.D, 1, rng) for _ in range(self.N)]
                kf = [random_projector(self.D, 1, rng) for _ in range(self.N)]
                pm = random_projector(dim, int(rng.integers(1, dim)), rng)
                qm = random_projector(dim, int(rng.integers(1, dim)), rng)
                per_state.append((historyspace.homogeneous_history(hf),
                                  historyspace.homogeneous_history(kf),
                                  historyspace.history_projection(pm, self.N, self.D),
                                  historyspace.history_projection(qm, self.N, self.D)))
                raw.append((reduce(np.kron, hf), reduce(np.kron, kf), pm, qm))
            self.inputs.append(per_state)
            self.raw.append(raw)

    def prepare_checks(self):
        self.expected = [[(oracle.contraction(r, h, k), oracle.contraction(r, p, q))
                          for r, (h, k, p, q) in zip(self.dense, raw)]
                         for raw in self.raw]

    def op(self, i):
        out = []
        for (rho, M), (h, k, pp, qq) in zip(self.states, self.inputs[i]):
            p = historyspace.embed_homogeneous(h)
            q = historyspace.embed_homogeneous(k)
            out.append((decoherence.d_direct(rho, h, k),
                        decoherence.d_series(rho, p, q),
                        decoherence.d_via_M_streaming(rho, p, q),
                        decoherence.d_via_M(M, p, q),
                        decoherence.d_series(rho, pp, qq),
                        decoherence.d_via_M_streaming(rho, pp, qq),
                        decoherence.d_via_M(M, pp, qq)))
        return out

    def check(self, i, out):
        methods = ("direct", "series", "stream", "ils")
        for s, (values, (fact, arb)) in enumerate(zip(out, self.expected[i])):
            for method, v in zip(methods, values[:4]):
                close(v, fact, f"state {s} factorized pair, {method}")
            for method, v in zip(methods[1:], values[4:]):
                close(v, arb, f"state {s} projection pair, {method}")

    def perturbed(self, i, out):
        for pos in range(7):
            bad = [list(v) for v in out]
            bad[0][pos] += EPS
            yield bad


class Kernel(Workload):
    """Kernel assembly, a few kernel evaluations and a short excess search
    at (2, 3).  One op in each round of ten uses the fixed near-degenerate
    state (0.50001, 0.49999), whose build_M raises NumericalError today."""

    name = "kernel"
    D, N = 2, 3
    round_size = 10
    pool = 30
    PAIRS = 3
    BUDGET = 2
    DEGENERATE = ([0.50001, 0.49999], np.eye(2, dtype=np.complex128))

    def expected_failure(self, i):
        return i % self.round_size == self.round_size - 1

    def setup(self):
        dim = self.D ** self.N
        rng_seeded = self.new_rng()
        fixed = np.random.default_rng(0)
        self.inputs = []
        self.raw = []
        for i in range(self.pool):
            rng = fixed if self.expected_failure(i) else rng_seeded
            weights, vectors = (self.DEGENERATE if self.expected_failure(i)
                                else mixed_state(self.D, rng))
            rho = historyspace.density_from_spectral(weights, vectors)
            pairs_raw = [(random_projector(dim, int(rng.integers(1, dim)), rng),
                          random_projector(dim, int(rng.integers(1, dim)), rng))
                         for _ in range(self.PAIRS)]
            pairs = [(historyspace.history_projection(p, self.N, self.D),
                      historyspace.history_projection(q, self.N, self.D))
                     for p, q in pairs_raw]
            search_seed = int(rng.integers(0, 2 ** 31))
            self.inputs.append((rho, pairs, search_seed))
            self.raw.append((np.asarray(weights), oracle.density(weights, vectors),
                             pairs_raw))

    def prepare_checks(self):
        self.expected = [[oracle.contraction(r, p, q) for p, q in pairs]
                         for _, r, pairs in self.raw]

    def op(self, i):
        rho, pairs, search_seed = self.inputs[i]
        M = decoherence.build_M(rho, self.D, self.N)
        values = [decoherence.d_via_M(M, p, q) for p, q in pairs]
        res = consistency.diag_excess_search(M, budget=self.BUDGET, seed=search_seed)
        return M.matrix, values, res.projection.matrix, res.value

    def check(self, i, out):
        m, values, proj, value = out
        weights, dense, _ = self.raw[i]
        oracle.check_kernel(m, weights, self.D, self.N)
        for j, (v, want) in enumerate(zip(values, self.expected[i])):
            close(v, want, f"d_via_M pair {j}")
        oracle.check_projection(proj, "search result")
        close(value, oracle.contraction(dense, proj, proj).real, "search diagonal value")
        expect(value > 1.0, f"search value {value} does not exceed 1")

    def perturbed(self, i, out):
        m, values, proj, value = out
        bad_m = m.copy()
        bad_m[0, 0] += EPS
        yield bad_m, values, proj, value
        yield m, [values[0] + EPS] + values[1:], proj, value
        bad_p = proj.copy()
        bad_p[0, 0] += EPS
        yield m, values, bad_p, value
        yield m, values, proj, value + EPS


class Consistency(Workload):
    """build_family and check_consistent through the stream evaluator on
    families of 8 rank-one generators at (3, 2) plus the complement atom:
    81 evaluator calls for the Gram matrix and a scan of the 9330 unordered
    pairs of disjoint closure elements."""

    name = "consistency"
    D, N = 3, 2
    GENERATORS = 8
    TOL = 1e-9

    def setup(self):
        dim = self.D ** self.N
        rng = self.new_rng()
        self.labels = [f"a{j}" for j in range(self.GENERATORS)]
        self.inputs = []
        self.raw = []
        for _ in range(self.pool):
            weights, vectors = mixed_state(self.D, rng)
            rho = historyspace.density_from_spectral(weights, vectors)
            basis = unitary(dim, rng)
            mats = [projector(basis[:, j:j + 1]) for j in range(self.GENERATORS)]
            members = [historyspace.history_projection(m, self.N, self.D) for m in mats]
            ev = decoherence.make_evaluator("stream", rho, self.D, self.N)
            self.inputs.append((ev, members))
            self.raw.append((oracle.density(weights, vectors), mats))

    def prepare_checks(self):
        self.grams = []
        for dense, mats in self.raw:
            atoms = mats + [np.eye(mats[0].shape[0]) - sum(mats)]
            self.grams.append(np.array([[oracle.contraction(dense, a, b) for b in atoms]
                                        for a in atoms]))

    def op(self, i):
        ev, members = self.inputs[i]
        family = consistency.build_family(members, self.labels)
        return consistency.check_consistent(ev, family, tol=self.TOL)

    def check(self, i, out):
        oracle.check_consistency_report(out.as_dict(), self.grams[i], self.labels,
                                        self.labels + ["rest"], self.TOL)

    def perturbed(self, i, out):
        yield replace(out, max_re_offdiag=out.max_re_offdiag + EPS)
        probs = dict(out.probabilities)
        probs["a0"] += EPS
        yield replace(out, probabilities=probs)

    def extra_checks(self):
        """The two families of the paper, evaluated by the program."""
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])

        def report(state, firsts, labels):
            rho = historyspace.density_from_spectral([1.0], np.array(state).reshape(2, 1))
            members = [historyspace.history_projection(np.kron(a, b), 2, 2)
                       for a in firsts for b in (p0, p1)]
            ev = decoherence.make_evaluator("stream", rho, 2, 2)
            return consistency.check_consistent(
                ev, consistency.build_family(members, labels), tol=self.TOL)

        z = report(np.array([1.0, 1.0]) / np.sqrt(2), (p0, p1), ("00", "01", "10", "11"))
        expect(z.consistent, "z-basis family under |+> reported inconsistent")
        for label, want in (("00", 0.5), ("01", 0.0), ("10", 0.0), ("11", 0.5)):
            close(z.probabilities[label], want, f"z-basis family, probability {label}")
        xz = report([1.0, 0.0], (plus, minus), ("+0", "+1", "-0", "-1"))
        expect(not xz.consistent, "x/z family under e1 reported consistent")
        close(xz.max_re_offdiag, 0.25, "x/z family max_re_offdiag")


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(historyspace.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD = "from histq.cli import main_entry; main_entry()"


def _matrix_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def _matrix_from(obj) -> np.ndarray:
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


CLI_LABELS = ("eval_stream", "eval_ils", "build-m", "verify", "quadform",
              "unbounded-probe", "diverge", "consistency", "search-excess", "bench")


class Cli(Workload):
    """One op is a session: every histq subcommand once, each in a child
    interpreter started the way the installed ``histq`` script starts, on
    files written in set-up.  The traced run calls ``cli.main`` in-process."""

    name = "cli"
    pool = 1
    in_process = False
    KERNEL_ORDER = 4

    def setup(self):
        rng = self.new_rng()
        w = self.workdir
        self.path = lambda name: os.path.join(w, name)
        weights, vectors = mixed_state(2, rng)
        pure = unitary(2, rng)[:, :1]
        hf = [random_projector(2, 1, rng) for _ in range(3)]
        kf = [random_projector(2, 1, rng) for _ in range(3)]
        zt = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(2)] for _ in range(2)]
        wt = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(2)] for _ in range(2)]
        basis = unitary(4, rng)
        gens = [projector(basis[:, j:j + 1]) for j in range(3)]
        # the program validates what the files will hold
        historyspace.density_from_spectral(weights, vectors)
        historyspace.density_from_spectral([1.0], pure)
        historyspace.homogeneous_history(hf)
        historyspace.homogeneous_history(kf)
        for g in gens:
            historyspace.history_projection(g, 2, 2)
        files = {
            "rho.json": {"weights": list(weights), "vectors": _matrix_json(vectors)},
            "pure.json": {"weights": [1.0], "vectors": _matrix_json(pure)},
            "h.json": {"single_time_dim": 2, "order": 3,
                       "projections": [_matrix_json(m) for m in hf]},
            "k.json": {"single_time_dim": 2, "order": 3,
                       "projections": [_matrix_json(m) for m in kf]},
            "z.json": {"order": 2, "dim": 2,
                       "terms": [[_matrix_json(f) for f in t] for t in zt]},
            "w.json": {"order": 2, "dim": 2,
                       "terms": [[_matrix_json(f) for f in t] for t in wt]},
            "family.json": {"single_time_dim": 2, "order": 2,
                            "members": [{"matrix": _matrix_json(g)} for g in gens],
                            "labels": ["b0", "b1", "b2"]},
        }
        for name, obj in files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        self.raw = dict(weights=weights, rho=oracle.density(weights, vectors),
                        pure=oracle.density([1.0], pure), h=reduce(np.kron, hf),
                        k=reduce(np.kron, kf), z=zt, w=wt, gens=gens)
        p = self.path
        s = str(self.seed)
        self.commands = [
            ("eval_stream", ["eval", "--rho", p("rho.json"), "--h", p("h.json"),
                             "--k", p("k.json"), "--method", "stream",
                             "--out", p("eval_stream.json")]),
            ("eval_ils", ["eval", "--rho", p("rho.json"), "--h", p("h.json"),
                          "--k", p("k.json"), "--method", "ils",
                          "--out", p("eval_ils.json")]),
            ("build-m", ["build-m", "--rho", p("rho.json"), "-d", "2",
                         "-n", str(self.KERNEL_ORDER), "--out", p("m.json")]),
            ("verify", ["verify", "--rho", p("rho.json"), "-d", "2", "-n", "2",
                        "--samples", "40", "--seed", s, "--method", "stream",
                        "--out", p("verify.json")]),
            ("quadform", ["quadform", "--rho", p("rho.json"), "--z", p("z.json"),
                          "--w", p("w.json"), "--out", p("quadform.json")]),
            ("unbounded-probe", ["unbounded-probe", "--out", p("probe.csv")]),
            ("diverge", ["diverge", "--p", "builtin:identity", "--q", "builtin:qu",
                         "--dim", "2", "--out", p("diverge.csv")]),
            ("consistency", ["consistency", "--rho", p("rho.json"),
                             "--family", p("family.json"), "--method", "stream",
                             "--out", p("consistency.json")]),
            ("search-excess", ["search-excess", "--rho", p("pure.json"), "-d", "2",
                               "-n", "2", "--budget", "4", "--seed", s,
                               "--out", p("search.json")]),
            ("bench", ["bench", "--rho", p("rho.json"), "-d", "2", "-n", "3",
                       "--methods", "direct,series,ils,stream", "--pairs", "5",
                       "--seed", s, "--out", p("bench.csv")]),
        ]
        self.env = _child_env()

    def run_child(self, argv) -> int:
        return subprocess.run([sys.executable, "-c", CHILD, *argv], env=self.env,
                              stdout=subprocess.DEVNULL, check=False).returncode

    def run_in_process(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def import_ms(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import histq"], env=self.env, check=True)
        return 1e3 * (time.perf_counter() - start)

    def timed_op(self, i, tracer=None):
        """Each subcommand is timed and rescaled on its own: a session spans
        several seconds, over which the host speed can change."""
        run = self.run_in_process if self.in_process else self.run_child
        raw = scaled = 0.0
        for label, argv in self.commands:
            if tracer is None:
                code, _, r, s = timed(run, argv)
            else:
                with tracer.span(f"cli.{label}"):
                    code, _, r, s = timed(run, argv)
            raw += r
            scaled += s
            if code != 0:
                return None, OpFailed(f"histq {label} exited with code {code}"), raw, scaled
        return None, None, raw, scaled

    def read(self, i, result):
        p = self.path
        out = {}
        out["eval_stream"] = _read_json(p("eval_stream.json"))["value"]
        out["eval_ils"] = _read_json(p("eval_ils.json"))["value"]
        out["m"] = _matrix_from(_read_json(p("m.json")))
        out["verify"] = _read_json(p("verify.json"))
        out["quadform"] = _read_json(p("quadform.json"))["value"]
        out["probe"] = [(int(r["N"]), float(r["norm"]), float(r["value"]))
                        for r in _read_csv(p("probe.csv"))]
        out["diverge"] = [(int(r["cutoff"]), float(r["re"]), float(r["im"]), r["verdict"])
                          for r in _read_csv(p("diverge.csv"))]
        out["consistency"] = _read_json(p("consistency.json"))
        search = _read_json(p("search.json"))
        out["search"] = (_matrix_from(search["projection"]), search["value"])
        out["bench"] = [float(r["max_abs_dev_vs_first"]) for r in _read_csv(p("bench.csv"))]
        # remove the outputs so that the next session cannot pass on stale files
        for name in ("eval_stream.json", "eval_ils.json", "m.json", "verify.json",
                     "quadform.json", "probe.csv", "diverge.csv", "consistency.json",
                     "search.json", "bench.csv"):
            os.remove(p(name))
        return out

    def check(self, i, out):
        r = self.raw
        want = oracle.contraction(r["rho"], r["h"], r["k"])
        for label in ("eval_stream", "eval_ils"):
            close(complex(*out[label]), want, label)
        oracle.check_kernel(out["m"], r["weights"], 2, self.KERNEL_ORDER)
        v = out["verify"]
        expect(v["all_within_tol"] and v["max_violation"] <= oracle.TOL,
               f"verify max_violation {v['max_violation']}")

        def pi(terms):
            return sum(reduce(np.matmul, reversed(t)) for t in terms)
        want = np.trace(pi(r["w"]).conj().T @ pi(r["z"]) @ r["rho"])
        close(complex(*out["quadform"]), want, "quadform")
        for n, norm, value in out["probe"]:
            close(norm, 1.0, f"unbounded-probe norm at N={n}")
            close(value, n, f"unbounded-probe value at N={n}")
        for cut, re_, im_, verdict in out["diverge"]:
            close(complex(re_, im_), (cut + 1) / 2, f"diverge partial sum at {cut}")
            expect(verdict == "Divergent", f"diverge verdict {verdict}")
        gens = r["gens"]
        atoms = gens + [np.eye(4) - sum(gens)]
        gram = np.array([[oracle.contraction(r["rho"], a, b) for b in atoms] for a in atoms])
        c = out["consistency"]
        oracle.check_consistency_report(c, gram, ["b0", "b1", "b2"],
                                        ["b0", "b1", "b2", "rest"], c["tol"])
        proj, value = out["search"]
        oracle.check_projection(proj, "search-excess projection")
        close(value, oracle.contraction(r["pure"], proj, proj).real, "search-excess value")
        expect(value > 1.0, f"search-excess value {value} does not exceed 1")
        expect(len(out["bench"]) == 4 and max(out["bench"]) <= oracle.TOL,
               f"bench deviations {out['bench']}")

    def perturbed(self, i, out):
        def bump(key, value):
            bad = dict(out)
            bad[key] = value
            return bad
        yield bump("eval_stream", [out["eval_stream"][0] + EPS, out["eval_stream"][1]])
        yield bump("quadform", [out["quadform"][0] + EPS, out["quadform"][1]])
        n, norm, value = out["probe"][-1]
        yield bump("probe", out["probe"][:-1] + [(n, norm, value + EPS)])
        cut, re_, im_, verdict = out["diverge"][0]
        yield bump("diverge", [(cut, re_ + EPS, im_, verdict)] + out["diverge"][1:])
        proj, value = out["search"]
        yield bump("search", (proj, value + EPS))


WORKLOADS = {w.name: w for w in (Evaluate, Kernel, Consistency, Cli)}
