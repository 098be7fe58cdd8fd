"""JSON schemas and bit-exact round-tripping for the package's file formats.

Every matrix that is read or written passes `matrixcore.as_complex_matrix`:
2-d, at least 1 x 1, complex128 and finite.  So a writer refuses what a
reader would refuse, and what is written reads back to the same bits.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .errors import ValidationError
from .historyspace import (
    VALIDATION_TOL,
    DensityOperator,
    HistoryProjection,
    HomogeneousHistory,
    checked_float,
    checked_int,
    density_from_matrix,
    density_from_spectral,
    history_projection,
    homogeneous_history,
)
from .matrixcore import as_complex_matrix, check_matrix_shape
from .quadform import simple_tensor_sum


def matrix_to_json(m: np.ndarray) -> dict:
    """{"rows": n, "cols": m, "data": [[re, im], ...]} row-major; m must
    pass `as_complex_matrix`, as `matrix_from_json` requires of what it reads."""
    m = as_complex_matrix(m)
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack([flat.real, flat.imag], 1).tolist(),
    }


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
    # the declared shape is checked before anything of that size is allocated
    check_matrix_shape((rows, cols))
    if len(data) != rows * cols:
        raise ValidationError(
            f"matrix JSON has {len(data)} entries, expected {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValidationError(f"entry {i} is not an [re, im] pair")
        re, im = pair
        # the message is formatted only for an entry that is not a plain number
        if type(re) not in (float, int) or type(im) not in (float, int):
            re, im = (checked_float(x, f"entry {i}") for x in pair)
        out[i] = complex(re, im)
    return as_complex_matrix(out.reshape(rows, cols))


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
        return density_from_spectral(obj["weights"], matrix_from_json(obj["vectors"]), tol=tol)
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


def family_from_json(obj, tol: float = VALIDATION_TOL):
    """Parse {"single_time_dim", "order", "members": [...]}.

    Each member is either a homogeneous history object, parsed into a
    `HomogeneousHistory` but not embedded, or {"matrix": matrix-json}, the
    tensor-space projection as a `HistoryProjection`.  Returns (members,
    labels), labels being the "labels" list as given or None when it is
    absent or null; `consistency.build_family` checks them.
    """
    d = _json_int(obj, "single_time_dim", "family")
    n = _json_int(obj, "order", "family")
    raw = obj.get("members")
    if not isinstance(raw, list):
        raise ValidationError('family JSON needs a "members" list')
    members: list[HomogeneousHistory | HistoryProjection] = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValidationError("family member must be an object")
        if "projections" in item:
            inner = dict(item)
            inner.setdefault("single_time_dim", d)
            inner.setdefault("order", n)
            members.append(history_from_json(inner, tol=tol))
        elif "matrix" in item:
            members.append(history_projection(matrix_from_json(item["matrix"]), n, d, tol=tol))
        else:
            raise ValidationError('family member needs "projections" or "matrix"')
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValidationError('family JSON "labels" must be a list')
    return members, labels


def load_json(path: str):
    """The JSON value in the file at path; a file that cannot be opened or
    decoded, or is not JSON that json can parse, raises ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError holds JSONDecodeError, UnicodeDecodeError for bytes that are
    # not UTF-8 and the int digit limit; deep nesting exhausts the parser's
    # recursion
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


@contextmanager
def open_output(path: str):
    """path opened for writing UTF-8 text; an OSError from opening or
    writing it, such as a missing directory, raises ValidationError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def dump_json(m: np.ndarray, path: str) -> None:
    """Write the matrix m to path as one line of its matrix JSON.

    The file is written one row at a time, byte for byte what dumping
    `matrix_to_json` of m with sorted keys writes, without forming the list
    of [re, im] pairs.  m must pass `as_complex_matrix` before the file is
    opened, so no file is written that `matrix_from_json` would refuse.  A
    path that cannot be written raises ValidationError through `open_output`.
    """
    m = as_complex_matrix(m)
    with open_output(path) as fh:
        # the keys in sorted order and json's separators; json writes a
        # finite float as its repr
        fh.write('{"cols": %d, "data": [' % m.shape[1])
        sep = ""
        for row in m:
            fh.write(sep)
            fh.write(", ".join(["[%r, %r]" % pair
                                for pair in zip(row.real.tolist(), row.imag.tolist())]))
            sep = ", "
        fh.write('], "rows": %d}\n' % m.shape[0])


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
