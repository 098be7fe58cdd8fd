"""The package's surface: the benchmark's tracer wraps histq functions by
name, and each must exist; no top-level name lives in the package for the
tests alone; CI keeps no inline check outside its benchmark smoke step."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import histq
from conftest import run_child

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
PACKAGE = Path(histq.__file__).resolve().parent

# the write half of the file formats: nothing in the package writes these
# objects, but they are the inverse of the readers, and tests make their input
# files with them
WRITERS = {"serialize.history_to_json", "serialize.density_to_json",
           "serialize.tensor_sum_to_json"}


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


def _references(stmt, modules):
    """Names a statement uses: bare names, imported names, and attributes
    read from a package module (``serialize.load_json``)."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            out.add(node.attr)
    return out


def test_every_top_level_name_has_a_caller_in_the_package():
    # a function or class that nothing else in histq references is kept for
    # the tests alone, and belongs in them; the exceptions are the exports,
    # dunders, the console-script entry, the tracer's targets and the writers
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    refs = {(mod, i): _references(stmt, trees)
            for mod, tree in trees.items() for i, stmt in enumerate(tree.body)}
    kept = WRITERS | {f"{layer}.{name}" for layer, names in load_tracing().TARGETS.items()
                      for name in names}
    unused = [f"{mod}.{stmt.name}" for mod, tree in trees.items()
              for i, stmt in enumerate(tree.body)
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not (stmt.name in histq.__all__ or stmt.name == "main_entry"
                       or stmt.name.startswith("__") or f"{mod}.{stmt.name}" in kept)
              and not any(stmt.name in names for key, names in refs.items()
                          if key != (mod, i))]
    assert sorted(unused) == []


def test_ci_runs_no_inline_python_outside_the_benchmark_smoke_step():
    # tier-1 holds every check, where a local run sees it fail; read as text,
    # the workflow splits at each "- " list item, and a step's chunk starts
    # with its first key, the name
    steps = re.split(r"\n\s*- ", WORKFLOW.read_text(encoding="utf-8"))
    assert not [step for step in steps if re.search(r"\bpython3? -c\b", step)
                and not step.startswith("name: Benchmark correctness smoke")]
