"""JSON schemas and bit-exact round-tripping for the package's file formats."""

from __future__ import annotations

import json

import numpy as np

from .errors import ShapeError, ValidationError
from .historyspace import (
    DEFAULT_HISTORY_CAP,
    VALIDATION_TOL,
    DensityOperator,
    HistoryProjection,
    HomogeneousHistory,
    checked_int,
    density_from_matrix,
    density_from_spectral,
    embed_homogeneous,
    history_projection,
    homogeneous_history,
)
from .quadform import simple_tensor_sum


def matrix_to_json(m: np.ndarray) -> dict:
    """{"rows": n, "cols": m, "data": [[re, im], ...]} row-major."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError("only 2-d matrices are serialized")
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack([flat.real, flat.imag], 1).tolist(),
    }


def json_float(val, what: str) -> float:
    """val as a float; bools and strings are rejected."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{what} must be a number, got {val!r}")
    return float(val)


def _json_int(obj, key: str, what: str) -> int:
    try:
        val = obj[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {what} JSON: missing {key!r}") from exc
    return checked_int(val, f"{what} JSON {key!r}")


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("matrix JSON must be an object")
    rows = _json_int(obj, "rows", "matrix")
    cols = _json_int(obj, "cols", "matrix")
    data = obj.get("data")
    if not isinstance(data, list):
        raise ValidationError('matrix JSON needs a "data" list')
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix JSON has {len(data)} entries, expected {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValidationError(f"entry {i} is not an [re, im] pair")
        out[i] = complex(json_float(pair[0], f"entry {i}"),
                         json_float(pair[1], f"entry {i}"))
    if not np.isfinite(out.view(np.float64)).all():
        raise ValidationError("matrix JSON contains non-finite entries")
    return out.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> dict:
    return matrix_to_json(np.asarray(v, dtype=np.complex128).reshape(-1, 1))


def history_to_json(h: HomogeneousHistory) -> dict:
    return {
        "single_time_dim": h.single_dim,
        "order": h.order,
        "projections": [matrix_to_json(p.matrix) for p in h.projections],
    }


def history_from_json(obj, tol: float = VALIDATION_TOL) -> HomogeneousHistory:
    d = _json_int(obj, "single_time_dim", "history")
    n = _json_int(obj, "order", "history")
    mats = obj.get("projections")
    if not isinstance(mats, list):
        raise ValidationError('history JSON needs a "projections" list')
    if len(mats) != n:
        raise ValidationError(f"history JSON lists {len(mats)} projections, order is {n}")
    h = homogeneous_history([matrix_from_json(m) for m in mats], tol=tol)
    if h.single_dim != d:
        raise ValidationError(
            f"history JSON declares dim {d}, projections have dim {h.single_dim}"
        )
    return h


def density_to_json(rho: DensityOperator) -> dict:
    return {
        "weights": [float(w) for w in rho.weights],
        "vectors": matrix_to_json(rho.vectors),
    }


def density_from_json(obj, tol: float = VALIDATION_TOL) -> DensityOperator:
    if not isinstance(obj, dict):
        raise ValidationError("density JSON must be an object")
    if "matrix" in obj:
        return density_from_matrix(matrix_from_json(obj["matrix"]), tol=tol)
    if "weights" in obj and "vectors" in obj:
        if not isinstance(obj["weights"], list):
            raise ValidationError('density JSON "weights" must be a list')
        return density_from_spectral(
            [json_float(w, "density weight") for w in obj["weights"]],
            matrix_from_json(obj["vectors"]),
            tol=tol,
        )
    raise ValidationError('density JSON needs "matrix" or "weights"+"vectors"')


def tensor_sum_to_json(z) -> dict:
    return {
        "order": z.order,
        "dim": z.single_dim,
        "terms": [[matrix_to_json(f) for f in term] for term in z.terms],
    }


def tensor_sum_from_json(obj):
    n = _json_int(obj, "order", "tensor-sum")
    d = _json_int(obj, "dim", "tensor-sum")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise ValidationError('tensor-sum JSON needs a "terms" list')
    parsed = []
    for term in terms:
        if not isinstance(term, list):
            raise ValidationError(
                f"tensor-sum term must be a list of factors, got {type(term).__name__}")
        if len(term) != n:
            raise ValidationError(f"term has {len(term)} factors, order is {n}")
        parsed.append(tuple(matrix_from_json(f) for f in term))
    return simple_tensor_sum(parsed, order=n, single_dim=d)


def family_from_json(obj, cap: int = DEFAULT_HISTORY_CAP, tol: float = VALIDATION_TOL):
    """Parse {"single_time_dim", "order", "members": [...]} into projections.

    Each member is either a homogeneous history object (embedded here) or
    {"matrix": matrix-json} giving the tensor-space projection directly.
    Returns (members, labels), labels being the "labels" list as given or
    None when it is absent or null; `consistency.build_family` checks them.
    """
    d = _json_int(obj, "single_time_dim", "family")
    n = _json_int(obj, "order", "family")
    raw = obj.get("members")
    if not isinstance(raw, list):
        raise ValidationError('family JSON needs a "members" list')
    members: list[HistoryProjection] = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValidationError("family member must be an object")
        if "projections" in item:
            inner = dict(item)
            inner.setdefault("single_time_dim", d)
            inner.setdefault("order", n)
            members.append(embed_homogeneous(history_from_json(inner, tol=tol), cap=cap))
        elif "matrix" in item:
            members.append(history_projection(matrix_from_json(item["matrix"]), n, d, tol=tol))
        else:
            raise ValidationError('family member needs "projections" or "matrix"')
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValidationError('family JSON "labels" must be a list')
    return members, labels


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(obj, path: str) -> None:
    # one json.dumps call without indent runs CPython's C encoder; indent or
    # the streaming json.dump fall back to the pure-Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True))
        fh.write("\n")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
