"""The benchmark's tracer wraps histq functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

from conftest import run_child

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve():
    tracing = load_tracing()
    missing = [f"{layer}.{name}" for layer, names in tracing.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"histq.{layer}"),
                                       name, None))]
    assert not missing


def test_the_workloads_import_line_loads_every_traced_layer(tmp_path):
    # the tracer reads each layer from sys.modules after the workloads import
    # only these four, so the rest must load with them
    script = ("import sys; from histq import cli, consistency, decoherence, historyspace; "
              "print(*sorted(sys.modules))")
    done = run_child(script, [], tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert [layer for layer in load_tracing().TARGETS
            if f"histq.{layer}" not in loaded] == []
