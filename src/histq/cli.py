"""histq command line: JSON/CSV front end over the evaluators and probes.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 usage, 2 validation, 3 size cap, 4 numerical non-convergence.  A run's
settings come from one place: ``main`` reads the ``--config`` file once,
lays the flags that were given over its values and builds one
``RunConfig``, whose ``__post_init__`` is the only place a setting is
checked; every subcommand reads its settings from that object.  All
randomness flows from the seed through named PRNG streams recorded in
output metadata, so reruns are bit-identical.

Each ``histq`` run is a new process, so a subcommand imports the modules it
runs in its own body: importing this module loads neither ``decoherence``
nor ``consistency``, and ``quadform``, ``unbounded-probe`` and ``diverge``
never load them.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, divergence, quadform, serialize
from .divergence import (DEFAULT_CONVERGENCE_THRESHOLD, DEFAULT_DIVERGENCE_THRESHOLD,
                         default_schedule)
from .errors import HistqError, NumericalError, SizeCapError, ValidationError
from .historyspace import (CONSISTENCY_TOL, METHODS, VALIDATION_TOL, DensityOperator,
                           HomogeneousHistory, checked_float, checked_int, density_from_spectral,
                           embed_homogeneous, history_projection, projection_residuals)
from .seeding import generator, stream_metadata


class UsageError(Exception):
    """Bad flags or malformed command line; exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# the least value of each integer setting
_LOW = {"single_dim": 2, "order": 1, "seed": 0, "materialize_cap": 1, "history_cap": 1}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, checked by `checked_int` and `checked_float`."""

    single_dim: int = 2
    order: int = 2
    seed: int = 0
    validation_tol: float = VALIDATION_TOL
    consistency_tol: float = CONSISTENCY_TOL
    materialize_cap: int = 1024
    history_cap: int = 64
    cutoffs: tuple[int, ...] = default_schedule().cutoffs
    convergence_threshold: float = DEFAULT_CONVERGENCE_THRESHOLD
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD

    def __post_init__(self):
        for f in fields(self):
            val, what = getattr(self, f.name), f"setting {f.name!r}"
            if f.name == "cutoffs":
                if not isinstance(val, (list, tuple)):
                    raise ValidationError(f"{what} must be a list of integers, got {val!r}")
            elif f.name in _LOW:
                object.__setattr__(self, f.name, checked_int(val, what, _LOW[f.name]))
            else:
                # validation_tol and consistency_tol must be positive; the
                # schedule orders the two thresholds
                object.__setattr__(self, f.name,
                                   checked_float(val, what, positive=f.name.endswith("_tol")))
        # the schedule checks each cutoff and both thresholds
        object.__setattr__(self, "cutoffs", self.schedule().cutoffs)

    def schedule(self) -> divergence.TruncationSchedule:
        return divergence.TruncationSchedule(self.cutoffs, self.convergence_threshold,
                                             self.divergence_threshold)


def load_config(path: str | None, flags: dict) -> RunConfig:
    """The config file's values with ``flags`` laid over them."""
    obj = {} if path is None else serialize.load_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("config file must hold a JSON object")
    unknown = set(obj) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{**obj, **flags})


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _meta(seed: int | None = None, stream: str | None = None) -> dict:
    meta = {"version": __version__}
    if seed is not None and stream is not None:
        meta["prng"] = stream_metadata(seed, stream)
    return meta


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with serialize.open_output(path) as fh:
            fh.write(text)


def _write_json(obj, path: str | None) -> None:
    _write_text(serialize.dumps(obj) + "\n", path)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(header, rows, path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c)
                              for c in row))
    _write_text("\n".join(lines) + "\n", path)


def _load_density(path: str, cfg: RunConfig) -> DensityOperator:
    return serialize.density_from_json(serialize.load_json(path),
                                       tol=cfg.validation_tol)


def _mixed_state(cfg: RunConfig) -> DensityOperator:
    d = cfg.single_dim
    return density_from_spectral([1.0 / d] * d, np.eye(d, dtype=np.complex128),
                                 tol=cfg.validation_tol)


def _random_pure(cfg: RunConfig) -> DensityOperator:
    """A pure state drawn from the ``samples`` stream of the run's seed."""
    d = cfg.single_dim
    rng = generator(cfg.seed, "samples")
    xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    xi = (xi / np.linalg.norm(xi)).reshape(d, 1)
    return density_from_spectral([1.0], xi, tol=cfg.validation_tol)


def _pure_e1(cfg: RunConfig) -> DensityOperator:
    return density_from_spectral([1.0], np.eye(cfg.single_dim, 1), tol=cfg.validation_tol)


def _infer_order(dim: int, d: int) -> int:
    n = 0
    acc = 1
    while acc < dim and d > 1:
        acc *= d
        n += 1
    if acc != dim:
        raise ValidationError(
            f"matrix dimension {dim} is not a power of the single-time dimension {d}")
    return max(n, 1)


def _load_history_like(path: str, d: int, cfg: RunConfig):
    """A HomogeneousHistory or a HistoryProjection."""
    obj = serialize.load_json(path)
    if isinstance(obj, dict) and "projections" in obj:
        return serialize.history_from_json(obj, tol=cfg.validation_tol)
    if isinstance(obj, dict) and "rows" in obj:
        m = serialize.matrix_from_json(obj)
        n = _infer_order(m.shape[0], d)
        return history_projection(m, n, d, tol=cfg.validation_tol)
    raise ValidationError(f"{path}: expected a history or matrix JSON object")


def _factor_residuals(obj) -> tuple[float, float]:
    if isinstance(obj, HomogeneousHistory):
        pairs = [projection_residuals(p.matrix) for p in obj.projections]
        return max(p[0] for p in pairs), max(p[1] for p in pairs)
    return projection_residuals(obj.matrix)


def _check_history_cap(d: int, n: int, cfg: RunConfig, state_dim: int | None = None,
                       method: str | None = None) -> None:
    """Refuse d**n above the history cap before a history is embedded at it,
    by every method but ``direct``, which holds only the d x d factors.  A
    ``state_dim`` other than d passes, so that make_evaluator or build_M
    rejects it first as a validation error."""
    if method != "direct" and state_dim in (None, d) and d ** n > cfg.history_cap:
        raise SizeCapError(
            f"history dimension {d}**{n}={d ** n} exceeds cap {cfg.history_cap}")


def _state(args, cfg: RunConfig, methods, default) -> DensityOperator:
    """The ``--rho`` state, or ``default(cfg)`` once every method has passed
    the history cap at (single_dim, order): a d x d default state costs
    O(d^2) memory and an O(d^3) check, so a refused run never builds it."""
    rho = None if args.rho is None else _load_density(args.rho, cfg)
    d = cfg.single_dim
    for method in methods:
        _check_history_cap(d, cfg.order, cfg, d if rho is None else rho.dim, method)
    return default(cfg) if rho is None else rho


def _cmd_eval(args, cfg: RunConfig) -> int:
    from . import decoherence

    rho = _load_density(args.rho, cfg)
    d = rho.dim
    h = _load_history_like(args.h, d, cfg)
    k = _load_history_like(args.k, d, cfg)
    residuals = {"rho_trace": rho.trace_residual}
    residuals["h_hermitian"], residuals["h_idempotent"] = _factor_residuals(h)
    residuals["k_hermitian"], residuals["k_idempotent"] = _factor_residuals(k)
    n = max(h.order, k.order)
    if isinstance(h, HomogeneousHistory) or isinstance(k, HomogeneousHistory):
        _check_history_cap(d, n, cfg, method=args.method)
    evaluator = decoherence.make_evaluator(args.method, rho, d, n)
    value = evaluator.value(h, k)
    out = {
        "value": [value.real, value.imag],
        "method": args.method,
        "residuals": residuals,
        "meta": _meta(),
    }
    _write_json(out, args.out)
    return 0


def _cmd_build_m(args, cfg: RunConfig) -> int:
    from . import decoherence

    rho = _load_density(args.rho, cfg)
    # here -d defaults to the state's dimension, not to single_dim
    d = rho.dim if args.single_dim is None else cfg.single_dim
    n = cfg.order
    # the kernel's entries are held at history dimension d**n, as by ils;
    # the materialization cap bounds the dense M read from them
    _check_history_cap(d, n, cfg, rho.dim)
    if rho.dim == d and d ** (2 * n) > cfg.materialize_cap:
        raise SizeCapError(
            f"doubled dimension {d}**{2 * n}={d ** (2 * n)} exceeds materialization cap "
            f"{cfg.materialize_cap}; d_via_M and d_via_M_streaming evaluate without it")
    m = decoherence.build_M(rho, d, n).matrix
    serialize.dump_json(m, args.out)
    summary = {
        "out": args.out,
        "dim": int(m.shape[0]),
        "single_dim": d,
        "order": n,
        "trace": [np.trace(m).real, np.trace(m).imag],
        "state_fingerprint": decoherence.state_fingerprint(rho),
        "meta": _meta(),
    }
    _write_json(summary, None)
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    from . import decoherence

    d, n, seed = cfg.single_dim, cfg.order, cfg.seed
    rho = _state(args, cfg, [args.method], _mixed_state)
    evaluator = decoherence.make_evaluator(args.method, rho, d, n)
    report = decoherence.verify_axioms(evaluator, samples=args.samples,
                                       seed=seed, tol=cfg.consistency_tol)
    out = report.as_dict()
    out["meta"] = _meta(seed=seed, stream="verify")
    _write_json(out, args.out)
    if args.csv is not None:
        rows = [("hermitian", report.max_hermitian),
                ("positivity", report.max_positivity),
                ("normalization", report.max_normalization),
                ("additivity", report.max_additivity)]
        _write_csv(("axiom", "violation"), rows, args.csv)
    return 0


def _cmd_quadform(args, cfg: RunConfig) -> int:
    rho = _load_density(args.rho, cfg)
    z = serialize.tensor_sum_from_json(serialize.load_json(args.z))
    w = serialize.tensor_sum_from_json(serialize.load_json(args.w))
    value = quadform.D_form(rho, z, w)
    out = {"value": [value.real, value.imag], "meta": _meta()}
    _write_json(out, args.out)
    return 0


def _cmd_unbounded_probe(args, cfg: RunConfig) -> int:
    rows = quadform.unboundedness_probe(args.sizes)
    _write_csv(("N", "norm", "value"),
               [(r.size, r.norm, r.value) for r in rows], args.out)
    return 0


def _load_pair_operator(spec_text: str, cfg: RunConfig):
    """A builtin name, the embedded HistoryProjection of a history file, or
    the matrix of a matrix file; truncated_d checks each."""
    if spec_text.startswith("builtin:"):
        return spec_text.split(":", 1)[1]
    obj = serialize.load_json(spec_text)
    if isinstance(obj, dict) and "projections" in obj:
        h = serialize.history_from_json(obj, tol=cfg.validation_tol)
        _check_history_cap(h.single_dim, h.order, cfg)
        return embed_homogeneous(h)
    if isinstance(obj, dict) and "rows" in obj:
        return serialize.matrix_from_json(obj)
    raise ValidationError(f"{spec_text}: expected builtin:NAME, history, or matrix JSON")


def _cmd_diverge(args, cfg: RunConfig) -> int:
    rho = (_pure_e1(cfg) if args.rho is None
           else _load_density(args.rho, cfg))
    p = _load_pair_operator(args.p, cfg)
    q = _load_pair_operator(args.q, cfg)
    result = divergence.truncated_d(rho, p, q, cfg.schedule())
    rows = [(cut, s.real, s.imag, result.kind)
            for cut, s in zip(result.cutoffs, result.partial_sums)]
    _write_csv(("cutoff", "re", "im", "verdict"), rows, args.out)
    return 0


def _cmd_consistency(args, cfg: RunConfig) -> int:
    from . import consistency, decoherence

    rho = _load_density(args.rho, cfg)
    obj = serialize.load_json(args.family)
    members, labels = serialize.family_from_json(obj, tol=cfg.validation_tol)
    # parsed whole first, so that a malformed member wins over the cap
    for i, m in enumerate(members):
        if isinstance(m, HomogeneousHistory):
            _check_history_cap(m.single_dim, m.order, cfg)
            members[i] = embed_homogeneous(m)
    fam = consistency.build_family(members, labels, tol=cfg.validation_tol)
    evaluator = decoherence.make_evaluator(args.method, rho, fam.single_dim, fam.order)
    report = consistency.check_consistent(evaluator, fam, tol=cfg.consistency_tol)
    out = report.as_dict()
    out["meta"] = _meta()
    _write_json(out, args.out)
    return 0


def _cmd_search_excess(args, cfg: RunConfig) -> int:
    from . import consistency, decoherence

    d, n, seed = cfg.single_dim, cfg.order, cfg.seed
    rho = _state(args, cfg, ["stream"], _random_pure)
    ev = decoherence.make_evaluator("stream", rho, d, n)
    res = consistency.diag_excess_search(ev, budget=args.budget, seed=seed, sweeps=args.sweeps)
    out = {
        "value": res.value,
        "rank": res.rank,
        "restart_index": res.restart_index,
        "xi": None if res.xi is None else serialize.matrix_to_json(res.xi.reshape(-1, 1)),
        "projection": serialize.matrix_to_json(res.projection.matrix),
        "meta": _meta(seed=seed, stream="search"),
    }
    _write_json(out, args.out)
    return 0


def _cmd_bench(args, cfg: RunConfig) -> int:
    from . import decoherence

    d, n, seed = cfg.single_dim, cfg.order, cfg.seed
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods needs at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValidationError(f"unknown evaluation method {unknown[0]!r}")
    checked_int(args.pairs, "--pairs", low=1)
    rho = _state(args, cfg, methods, _mixed_state)
    rng = generator(seed, "bench")
    pairs = [(decoherence.random_homogeneous(d, n, rng),
              decoherence.random_homogeneous(d, n, rng))
             for _ in range(args.pairs)]
    all_values = []
    rows = []
    for method in methods:
        start = time.perf_counter()
        evaluator = decoherence.make_evaluator(method, rho, d, n)
        setup = time.perf_counter() - start
        start = time.perf_counter()
        values = [evaluator.value(h, k) for h, k in pairs]
        wall = time.perf_counter() - start
        all_values.append(values)
        dev = max((abs(v - v0) for v, v0 in zip(values, all_values[0])),
                  default=0.0)
        rows.append((method, setup, wall, float(dev)))
    _write_csv(("method", "setup_seconds", "wall_seconds", "max_abs_dev_vs_first"),
               rows, args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="histq",
                     description="history-space decoherence functional laboratory")
    parser.add_argument("--version", action="version", version=f"histq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*flags, **kwargs):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kwargs)
        return p

    # settings flags use the RunConfig field name as their dest
    config = shared("--config", default=None, metavar="FILE")
    out = shared("--out", default=None, metavar="FILE")
    rho = shared("--rho", default=None, metavar="FILE")
    rho_required = shared("--rho", required=True, metavar="FILE")
    dim = shared("-d", "--dim", dest="single_dim", type=int, default=None, metavar="DIM")
    order = shared("-n", "--order", type=int, default=None)
    seed = shared("--seed", type=int, default=None)
    tol = shared("--tol", dest="consistency_tol", type=float, default=None, metavar="TOL")

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[config, *parents])
        p.set_defaults(func=func)
        return p

    p = command("eval", _cmd_eval, "evaluate d(h, k) by one method", out, rho_required)
    p.add_argument("--h", required=True, metavar="FILE")
    p.add_argument("--k", required=True, metavar="FILE")
    p.add_argument("--method", default="direct", choices=METHODS)
    p.add_argument("--tol", dest="validation_tol", type=float, default=None, metavar="TOL")

    p = command("build-m", _cmd_build_m, "materialize the kernel operator",
                rho_required, dim, order)
    p.add_argument("--out", required=True, metavar="FILE")

    p = command("verify", _cmd_verify, "axiom violation report",
                out, rho, dim, order, seed, tol)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--method", default="direct", choices=METHODS)
    p.add_argument("--csv", default=None, metavar="FILE")

    p = command("quadform", _cmd_quadform, "evaluate the quadratic form D(z, w)",
                out, rho_required)
    p.add_argument("--z", required=True, metavar="FILE")
    p.add_argument("--w", required=True, metavar="FILE")

    p = command("unbounded-probe", _cmd_unbounded_probe, "norm/value growth table", out)
    p.add_argument("--sizes", type=_int_list,
                   default=(1, 2, 4, 8, 16, 32, 64, 128, 256))

    p = command("diverge", _cmd_diverge, "truncated series partial sums and verdict",
                out, rho, dim)
    p.add_argument("--p", required=True, metavar="FILE|builtin:NAME")
    p.add_argument("--q", required=True, metavar="FILE|builtin:NAME")
    p.add_argument("--cutoffs", type=_int_list, default=None)

    p = command("consistency", _cmd_consistency, "consistent-set report for a family",
                out, rho_required, tol)
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--method", default="series", choices=METHODS[1:])

    p = command("search-excess", _cmd_search_excess,
                "search for diagonal values above one", out, rho, dim, order, seed)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--sweeps", type=int, default=50)

    p = command("bench", _cmd_bench, "compare evaluation methods",
                out, rho, dim, order, seed)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--pairs", type=int, default=20)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
        return args.func(args, load_config(args.config, flags))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except HistqError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
