"""Spans around calls into histq, recorded from outside the package.

A traced phase replaces each wrapped function by a timing wrapper in every
histq module that holds it, including names one module imported from
another (``consistency`` holds ``historyspace.validate_projection``), so
calls that cross layers are seen.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

# Functions wrapped in a traced phase: the entry points of each layer that the
# workloads reach, including every one called from another layer, so that
# each layer's self time holds only its own work.
TARGETS = {
    "matrixcore": ("as_complex_matrix", "kron", "hermitian_eig", "operator_norm",
                   "operator_norm_matvec"),
    "historyspace": ("validate_projection", "density_from_spectral",
                     "density_from_matrix", "density_matrix", "completed_basis",
                     "homogeneous_history", "history_projection", "pad_history",
                     "embed_homogeneous", "orthogonal", "sum_projection"),
    "decoherence": ("d_direct", "d_series", "build_M", "d_via_M",
                    "d_via_M_streaming", "make_evaluator", "verify_axioms"),
    "quadform": ("simple_tensor_sum", "D_form", "unboundedness_probe"),
    "divergence": ("truncated_d",),
    "consistency": ("build_family", "check_consistent", "diag_excess_search"),
    "serialize": ("load_json", "dump_json", "dumps", "matrix_to_json",
                  "matrix_from_json", "density_from_json", "history_from_json",
                  "tensor_sum_from_json", "family_from_json"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)

# span record fields
NAME, LAYER, START, END, PARENT, OP, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.op = -1

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrapper(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        tracer = self

        if fname == "operator_norm_matvec":
            # counts power-iteration steps: one matvec per step
            def wrapped(matvec, rmatvec, *args, **kwargs):
                rec = tracer._open(name, layer)

                def counting(v):
                    rec[COUNT] += 1
                    return matvec(v)
                try:
                    return fn(counting, rmatvec, *args, **kwargs)
                finally:
                    tracer._close(rec)
        elif fname == "dump_json":
            def wrapped(obj, path, *args, **kwargs):
                rec = tracer._open(name, layer)
                try:
                    return fn(obj, path, *args, **kwargs)
                finally:
                    tracer._close(rec)
                    rec[COUNT] = os.path.getsize(path)
        elif fname == "dumps":
            def wrapped(*args, **kwargs):
                rec = tracer._open(name, layer)
                try:
                    text = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                rec[COUNT] = len(text.encode("utf-8"))
                return text
        else:
            def wrapped(*args, **kwargs):
                rec = tracer._open(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (module, name) in histq bound to a wrapped function."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "histq" or key.startswith("histq."))]
        patches = []
        for layer, names in TARGETS.items():
            home = sys.modules[f"histq.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrapper(layer, fname, orig)
                patches += [(mod, attr, orig, wrapped) for mod in modules
                            for attr, val in vars(mod).items() if val is orig]
        return patches

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "layer": s[LAYER],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP],
                                     "count": s[COUNT]}) + "\n")


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run, keyed by metric name.

    ``call_ms`` is the median duration of one call over every traced call,
    set-up included; ``calls``, ``self_ms`` and the counters are per traced op.
    A function a workload never reaches reads 0.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    in_op = [s[OP] >= 0 for s in spans]
    ops = max(ops, 1)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]

    def per_op_count(name):
        return sum(1 for i in by_name.get(name, ()) if in_op[i]) / ops

    out: dict[str, tuple[float, str]] = {}
    for name in ("decoherence.d_series", "decoherence.d_via_M_streaming",
                 "decoherence.d_via_M", "decoherence.d_direct",
                 "decoherence.build_M", "decoherence.verify_axioms",
                 "historyspace.embed_homogeneous", "historyspace.validate_projection",
                 "matrixcore.operator_norm", "consistency.check_consistent",
                 "consistency.build_family", "consistency.diag_excess_search",
                 "quadform.unboundedness_probe", "quadform.D_form",
                 "divergence.truncated_d", "serialize.load_json",
                 "serialize.dump_json", "serialize.matrix_to_json",
                 "serialize.matrix_from_json"):
        out[f"{name}.call_ms"] = (_median_ms(durations(name)), "ms")
    for name in ("historyspace.validate_projection", "historyspace.completed_basis"):
        out[f"{name}.calls"] = (per_op_count(name), "count")

    def under(i, name):
        i = spans[i][PARENT]
        while i >= 0:
            if spans[i][NAME] == name:
                return True
            i = spans[i][PARENT]
        return False

    builds = by_name.get("decoherence.build_M", ())
    steps = sum(spans[i][COUNT] for i in by_name.get("matrixcore.operator_norm_matvec", ())
                if under(i, "decoherence.build_M"))
    out["matrixcore.power_steps"] = (steps / len(builds) if builds else 0.0, "count")

    checks = {i for i in by_name.get("consistency.check_consistent", ()) if in_op[i]}
    children = sum(1 for s in spans if s[PARENT] in checks)
    out["consistency.evaluator_calls"] = (children / ops, "count")
    out["consistency.check_consistent.self_ms"] = (
        _median_ms([selfs[i] for i in by_name.get("consistency.check_consistent", ())]),
        "ms")

    written = sum(spans[i][COUNT] for name in ("serialize.dump_json", "serialize.dumps")
                  for i in by_name.get(name, ()) if in_op[i])
    out["serialize.bytes_written"] = (written / ops, "B")

    for layer in LAYERS:
        total = sum(selfs[i] for i, s in enumerate(spans) if in_op[i] and s[LAYER] == layer)
        out[f"{layer}.self_ms"] = (1e3 * total / ops, "ms")
    return out
