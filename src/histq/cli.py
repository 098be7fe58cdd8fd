"""histq command line: JSON/CSV front end over the evaluators and probes.

stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 usage, 2 validation, 3 size cap, 4 numerical non-convergence.  All
randomness flows from --seed through named PRNG streams recorded in output
metadata, so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, consistency, decoherence, divergence, quadform, serialize
from .errors import (HistqError, NumericalError, ShapeError, SizeCapError,
                     ValidationError)
from .historyspace import (DensityOperator, density_from_spectral,
                           history_projection, pad_history, embed_homogeneous)
from .seeding import generator, stream_metadata


class UsageError(Exception):
    """Bad flags or malformed command line; exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    single_dim: int = 2
    order: int = 2
    seed: int = 0
    validation_tol: float = 1e-8
    consistency_tol: float = 1e-9
    materialize_cap: int = 1024
    history_cap: int = 64
    cutoffs: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256, 512)
    convergence_threshold: float = 1e-9
    divergence_threshold: float = 1e6

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", tuple(int(c) for c in self.cutoffs))
        if self.single_dim < 2:
            raise ValidationError("single_dim must be >= 2")
        if self.order < 1:
            raise ValidationError("order must be >= 1")
        if self.materialize_cap < 1 or self.history_cap < 1:
            raise ValidationError("size caps must be positive")
        for name in ("validation_tol", "consistency_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    obj = serialize.load_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("config file must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    try:
        return RunConfig(**obj)
    except TypeError as exc:
        raise ValidationError(f"malformed config: {exc}") from exc


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
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _write_json(obj, path: str | None) -> None:
    _write_text(serialize.dumps(obj), path)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(header, rows, path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c)
                              for c in row))
    _write_text("\n".join(lines) + "\n", path)


def _load_density(path: str | None, cfg: RunConfig,
                  default: DensityOperator | None = None) -> DensityOperator:
    if path is None:
        if default is None:
            raise UsageError("--rho is required here")
        return default
    return serialize.density_from_json(serialize.load_json(path),
                                       tol=cfg.validation_tol)


def _mixed_state(d: int, cfg: RunConfig) -> DensityOperator:
    return density_from_spectral([1.0 / d] * d, np.eye(d, dtype=np.complex128),
                                 tol=cfg.validation_tol)


def _pure_e1(d: int, cfg: RunConfig) -> DensityOperator:
    v = np.zeros((d, 1), dtype=np.complex128)
    v[0, 0] = 1.0
    return density_from_spectral([1.0], v, tol=cfg.validation_tol)


def _infer_order(dim: int, d: int) -> int:
    n = 0
    acc = 1
    while acc < dim:
        acc *= d
        n += 1
    if acc != dim:
        raise ValidationError(
            f"matrix dimension {dim} is not a power of the single-time dimension {d}")
    return max(n, 1)


def _load_history_like(path: str, d: int, cfg: RunConfig):
    """Returns ("homogeneous", HomogeneousHistory) or ("projection", HistoryProjection)."""
    obj = serialize.load_json(path)
    if isinstance(obj, dict) and "projections" in obj:
        return "homogeneous", serialize.history_from_json(obj, tol=cfg.validation_tol)
    if isinstance(obj, dict) and "rows" in obj:
        m = serialize.matrix_from_json(obj)
        n = _infer_order(m.shape[0], d)
        return "projection", history_projection(m, n, d, tol=cfg.validation_tol)
    raise ValidationError(f"{path}: expected a history or matrix JSON object")


def _projection_residuals(m: np.ndarray) -> tuple[float, float]:
    herm = float(np.max(np.abs(m - m.conj().T)))
    idem = float(np.max(np.abs(m @ m - m)))
    return herm, idem


def _factor_residuals(kind, obj) -> tuple[float, float]:
    if kind == "homogeneous":
        pairs = [_projection_residuals(p.matrix) for p in obj.projections]
        return max(p[0] for p in pairs), max(p[1] for p in pairs)
    return _projection_residuals(obj.matrix)


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if args.tol is not None:
        cfg = replace(cfg, validation_tol=args.tol)
    rho = _load_density(args.rho, cfg)
    d = rho.dim
    kind_h, h = _load_history_like(args.h, d, cfg)
    kind_k, k = _load_history_like(args.k, d, cfg)
    residuals = {"rho_trace": abs(float(np.sum(rho.weights)) - 1.0)}
    residuals["h_hermitian"], residuals["h_idempotent"] = _factor_residuals(kind_h, h)
    residuals["k_hermitian"], residuals["k_idempotent"] = _factor_residuals(kind_k, k)
    n = max(h.order, k.order)
    if args.method == "direct":
        if kind_h != "homogeneous" or kind_k != "homogeneous":
            raise ValidationError("the direct method needs factorized histories")
        value = decoherence.make_evaluator("direct", rho, d, n).value_history(h, k)
    else:
        if kind_h == "homogeneous":
            h = embed_homogeneous(pad_history(h, n), cap=cfg.history_cap,
                                  tol=cfg.validation_tol)
        if kind_k == "homogeneous":
            k = embed_homogeneous(pad_history(k, n), cap=cfg.history_cap,
                                  tol=cfg.validation_tol)
        evaluator = decoherence.make_evaluator(args.method, rho, d, n,
                                               cap=cfg.materialize_cap)
        value = evaluator.value(h, k)
    out = {
        "value": [value.real, value.imag],
        "method": args.method,
        "residuals": residuals,
        "meta": _meta(),
    }
    _write_json(out, args.out)
    return 0


def _cmd_build_m(args) -> int:
    cfg = load_config(args.config)
    rho = _load_density(args.rho, cfg)
    d = args.dim if args.dim is not None else rho.dim
    if d != rho.dim:
        raise ValidationError(f"-d {d} does not match the state dimension {rho.dim}")
    n = args.order if args.order is not None else cfg.order
    M = decoherence.build_M(rho, d, n, cap=cfg.materialize_cap)
    serialize.dump_json(serialize.matrix_to_json(M.matrix), args.out)
    summary = {
        "out": args.out,
        "dim": int(M.matrix.shape[0]),
        "single_dim": d,
        "order": n,
        "trace": [np.trace(M.matrix).real, np.trace(M.matrix).imag],
        "state_fingerprint": M.state_fingerprint,
        "meta": _meta(),
    }
    _write_json(summary, None)
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    d = args.dim if args.dim is not None else cfg.single_dim
    n = args.order if args.order is not None else cfg.order
    rho = _load_density(args.rho, cfg, default=_mixed_state(d, cfg))
    if rho.dim != d:
        raise ValidationError(f"-d {d} does not match the state dimension {rho.dim}")
    seed = args.seed if args.seed is not None else cfg.seed
    tol = args.tol if args.tol is not None else cfg.consistency_tol
    evaluator = decoherence.make_evaluator(args.method, rho, d, n,
                                           cap=cfg.materialize_cap)
    report = decoherence.verify_axioms(evaluator, samples=args.samples,
                                       seed=seed, tol=tol)
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


def _cmd_quadform(args) -> int:
    cfg = load_config(args.config)
    rho = _load_density(args.rho, cfg)
    z = serialize.tensor_sum_from_json(serialize.load_json(args.z))
    w = serialize.tensor_sum_from_json(serialize.load_json(args.w))
    value = quadform.D_form(rho, z, w)
    out = {"value": [value.real, value.imag], "meta": _meta()}
    _write_json(out, args.out)
    return 0


def _cmd_unbounded_probe(args) -> int:
    cfg = load_config(args.config)
    rows = quadform.unboundedness_probe(args.sizes)
    _write_csv(("N", "norm", "value"),
               [(r.size, r.norm, r.value) for r in rows], args.out)
    return 0


def _load_pair_operator(spec_text: str, cfg: RunConfig):
    if spec_text.startswith("builtin:"):
        name = spec_text.split(":", 1)[1]
        klass = divergence.BUILTIN_PAIRS.get(name)
        if klass is None:
            raise ValidationError(
                f"unknown builtin {name!r}; have {sorted(divergence.BUILTIN_PAIRS)}")
        return klass()
    obj = serialize.load_json(spec_text)
    if isinstance(obj, dict) and "projections" in obj:
        h = serialize.history_from_json(obj, tol=cfg.validation_tol)
        emb = embed_homogeneous(h, cap=cfg.history_cap, tol=cfg.validation_tol)
        if emb.order != 2:
            raise ValidationError("truncation probe arguments must have order 2")
        return divergence.MatrixPairOperator(emb.matrix, emb.single_dim)
    if isinstance(obj, dict) and "rows" in obj:
        m = serialize.matrix_from_json(obj)
        s = int(round(m.shape[0] ** 0.5))
        if s * s != m.shape[0]:
            raise ValidationError(
                f"{spec_text}: matrix dimension {m.shape[0]} is not a doubled dimension")
        return divergence.MatrixPairOperator(m, s)
    raise ValidationError(f"{spec_text}: expected builtin:NAME, history, or matrix JSON")


def _cmd_diverge(args) -> int:
    cfg = load_config(args.config)
    d = args.dim if args.dim is not None else cfg.single_dim
    rho = _load_density(args.rho, cfg, default=_pure_e1(d, cfg))
    p = _load_pair_operator(args.p, cfg)
    q = _load_pair_operator(args.q, cfg)
    cutoffs = args.cutoffs if args.cutoffs is not None else cfg.cutoffs
    schedule = divergence.TruncationSchedule(
        cutoffs=cutoffs,
        convergence_threshold=cfg.convergence_threshold,
        divergence_threshold=cfg.divergence_threshold,
    )
    result = divergence.truncated_d(rho, p, q, schedule)
    rows = [(cut, s.real, s.imag, result.kind)
            for cut, s in zip(result.cutoffs, result.partial_sums)]
    _write_csv(("cutoff", "re", "im", "verdict"), rows, args.out)
    return 0


def _cmd_consistency(args) -> int:
    cfg = load_config(args.config)
    rho = _load_density(args.rho, cfg)
    obj = serialize.load_json(args.family)
    members, labels = serialize.family_from_json(obj, cap=cfg.history_cap,
                                                 tol=cfg.validation_tol)
    fam = consistency.build_family(members, labels, tol=cfg.validation_tol)
    if fam.single_dim != rho.dim:
        raise ValidationError(
            f"family dimension {fam.single_dim} does not match state dimension {rho.dim}")
    evaluator = decoherence.make_evaluator(args.method, rho, fam.single_dim,
                                           fam.order, cap=cfg.materialize_cap)
    tol = args.tol if args.tol is not None else cfg.consistency_tol
    report = consistency.check_consistent(evaluator, fam, tol=tol)
    out = report.as_dict()
    out["meta"] = _meta()
    _write_json(out, args.out)
    return 0


def _cmd_search_excess(args) -> int:
    cfg = load_config(args.config)
    d = args.dim if args.dim is not None else cfg.single_dim
    n = args.order if args.order is not None else cfg.order
    seed = args.seed if args.seed is not None else cfg.seed
    if args.rho is not None:
        rho = _load_density(args.rho, cfg)
    else:
        rng = generator(seed, "samples")
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        xi = (xi / np.linalg.norm(xi)).reshape(d, 1)
        rho = density_from_spectral([1.0], xi, tol=cfg.validation_tol)
    if rho.dim != d:
        raise ValidationError(f"-d {d} does not match the state dimension {rho.dim}")
    M = decoherence.build_M(rho, d, n, cap=cfg.materialize_cap)
    res = consistency.diag_excess_search(M, budget=args.budget, seed=seed,
                                         sweeps=args.sweeps)
    out = {
        "value": res.value,
        "rank": res.rank,
        "restart_index": res.restart_index,
        "xi": None if res.xi is None else serialize.vector_to_json(res.xi.reshape(-1, 1)),
        "projection": serialize.matrix_to_json(res.projection.matrix),
        "meta": _meta(seed=seed, stream="search"),
    }
    _write_json(out, args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    d = args.dim if args.dim is not None else cfg.single_dim
    n = args.order if args.order is not None else cfg.order
    seed = args.seed if args.seed is not None else cfg.seed
    rho = _load_density(args.rho, cfg, default=_mixed_state(d, cfg))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods needs at least one method")
    rng = generator(seed, "bench")
    pairs = [(decoherence.random_homogeneous(d, n, rng),
              decoherence.random_homogeneous(d, n, rng))
             for _ in range(args.pairs)]
    all_values = []
    rows = []
    for method in methods:
        start = time.perf_counter()
        evaluator = decoherence.make_evaluator(method, rho, d, n,
                                               cap=cfg.materialize_cap)
        setup = time.perf_counter() - start
        start = time.perf_counter()
        values = [evaluator.value_history(h, k) for h, k in pairs]
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

    def common(p, rho_required=False):
        p.add_argument("--config", default=None, metavar="FILE")
        p.add_argument("--out", default=None, metavar="FILE")
        p.add_argument("--rho", default=None, required=rho_required, metavar="FILE")

    p = sub.add_parser("eval", help="evaluate d(h, k) by one method")
    common(p, rho_required=True)
    p.add_argument("--h", required=True, metavar="FILE")
    p.add_argument("--k", required=True, metavar="FILE")
    p.add_argument("--method", default="direct",
                   choices=("direct", "series", "ils", "stream"))
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("build-m", help="materialize the kernel operator")
    p.add_argument("--config", default=None, metavar="FILE")
    p.add_argument("--rho", required=True, metavar="FILE")
    p.add_argument("-d", "--dim", type=int, default=None)
    p.add_argument("-n", "--order", type=int, default=None)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_build_m)

    p = sub.add_parser("verify", help="axiom violation report")
    common(p)
    p.add_argument("-d", "--dim", type=int, default=None)
    p.add_argument("-n", "--order", type=int, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--method", default="direct",
                   choices=("direct", "series", "ils", "stream"))
    p.add_argument("--csv", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("quadform", help="evaluate the quadratic form D(z, w)")
    common(p, rho_required=True)
    p.add_argument("--z", required=True, metavar="FILE")
    p.add_argument("--w", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_quadform)

    p = sub.add_parser("unbounded-probe", help="norm/value growth table")
    p.add_argument("--config", default=None, metavar="FILE")
    p.add_argument("--sizes", type=_int_list,
                   default=(1, 2, 4, 8, 16, 32, 64, 128, 256))
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_unbounded_probe)

    p = sub.add_parser("diverge", help="truncated series partial sums and verdict")
    common(p)
    p.add_argument("--p", required=True, metavar="FILE|builtin:NAME")
    p.add_argument("--q", required=True, metavar="FILE|builtin:NAME")
    p.add_argument("-d", "--dim", type=int, default=None)
    p.add_argument("--cutoffs", type=_int_list, default=None)
    p.set_defaults(func=_cmd_diverge)

    p = sub.add_parser("consistency", help="consistent-set report for a family")
    common(p, rho_required=True)
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--method", default="series",
                   choices=("series", "ils", "stream"))
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("search-excess", help="search for diagonal values above one")
    common(p)
    p.add_argument("-d", "--dim", type=int, default=None)
    p.add_argument("-n", "--order", type=int, default=None)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--sweeps", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_search_excess)

    p = sub.add_parser("bench", help="compare evaluation methods")
    common(p)
    p.add_argument("-d", "--dim", type=int, default=None)
    p.add_argument("-n", "--order", type=int, default=None)
    p.add_argument("--methods", default="direct,series,ils,stream")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, ShapeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except HistqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
