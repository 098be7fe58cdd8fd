"""The package and its console entry point in a child interpreter.

Each run starts a fresh process, through ``histq.cli.main_entry`` (the target
of the ``histq`` script in ``pyproject.toml``) or a short script, with the
``histq`` package that this interpreter imports.  Run against an installed
package it checks the install; under ``PYTHONPATH=src`` it checks the source
tree.  A fresh process also shows which modules a start-up loads.
"""

import json

import pytest

import histq
from histq import serialize
from histq.historyspace import homogeneous_history
from histq.quadform import identity_element

from conftest import P0, pure_state, rerun_commands, run_child

ENTRY = "from histq.cli import main_entry; main_entry()"
# runs the argv lists in the JSON of its one argument
BATCH = ("import json, sys; from histq.cli import main; "
         "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
# prefixed to a child's script: its last stderr line names every loaded module
REPORT_MODULES = ("import atexit, sys; atexit.register(lambda: "
                  "print(*sorted(sys.modules), file=sys.stderr)); ")
# loaded only by the subcommands that evaluate d or check a family
HEAVY = {"histq.decoherence", "histq.consistency"}


def run_histq(argv, cwd):
    return run_child(ENTRY, argv, cwd)


def loaded_modules(script, argv, cwd):
    done = run_child(REPORT_MODULES + script, argv, cwd)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def test_help(tmp_path):
    done = run_histq(["--help"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "search-excess" in done.stdout


def test_two_processes_write_the_same_bytes(tmp_path):
    # README "Determinism": the same seed gives the same bytes in a new
    # process, on stdout and in each --out file; each process runs every
    # command to stdout and then to a file, one after another
    runs = [["search-excess", "-d", "2", "-n", "2", "--budget", "5", "--seed", "7"],
            ["diverge", "--p", "builtin:identity", "--q", "builtin:swap", "--dim", "2"],
            *rerun_commands(tmp_path)]
    outputs = []
    for tag in ("a", "b"):
        files = [tmp_path / f"{tag}{i}.out" for i in range(len(runs))]
        batch = runs + [argv + ["--out", str(f)] for argv, f in zip(runs, files)]
        done = run_child(BATCH, [json.dumps(batch)], tmp_path)
        assert done.returncode == 0, done.stderr
        outputs.append([done.stdout, *(f.read_bytes() for f in files)])
    assert outputs[0] == outputs[1] and all(outputs[0])


@pytest.fixture(scope="module")
def by_numpy(tmp_path_factory):
    """What ``import numpy`` loads: hashlib counts against histq only where
    numpy does not load it (numpy 1.x imports numpy.random, and with it
    hashlib, at start-up)."""
    return loaded_modules("import numpy", [], tmp_path_factory.mktemp("numpy"))


def test_importing_the_cli_loads_no_evaluator(tmp_path, by_numpy):
    loaded = loaded_modules("import histq.cli", [], tmp_path)
    assert "histq.serialize" in loaded
    assert not (HEAVY | {"hashlib"}) - by_numpy & loaded


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    return {name: _write(tmp_path / f"{name}.json", obj) for name, obj in (
        ("rho", serialize.density_to_json(pure_state([1, 1j]))),
        ("h", serialize.history_to_json(homogeneous_history([P0, P0]))),
        ("z", serialize.tensor_sum_to_json(identity_element(2, 2))))}


# none of these draws random numbers, and only build-m hashes a state
@pytest.mark.parametrize("argv, absent, present", [
    (["unbounded-probe", "--sizes", "1,4"], HEAVY, {"histq.quadform"}),
    (["quadform", "--rho", "{rho}", "--z", "{z}", "--w", "{z}"], HEAVY,
     {"histq.quadform"}),
    (["diverge", "--p", "builtin:identity", "--q", "builtin:swap", "--dim", "2"],
     HEAVY, {"histq.divergence"}),
    (["eval", "--rho", "{rho}", "--h", "{h}", "--k", "{h}", "--method", "stream"],
     {"histq.consistency"}, {"histq.decoherence"}),
], ids=["unbounded-probe", "quadform", "diverge", "eval"])
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, inputs, by_numpy, argv,
                                                     absent, present):
    argv = [a.format(**inputs) for a in argv]
    loaded = loaded_modules(ENTRY, argv, tmp_path)
    assert not (absent | {"hashlib"}) - by_numpy & loaded
    assert present <= loaded


LAZY_PACKAGE = """
import importlib, json, sys

def submodules():
    return sorted(m for m in sys.modules if m.startswith("histq."))

import histq
out = {"at_import": submodules(), "version": histq.__version__}
out["after_version"] = submodules()
out["dir_has_all"] = "__all__" in dir(histq) and set(histq.__all__) <= set(dir(histq))
try:
    histq.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["after_unknown"] = submodules()
names = [name for name in histq.__all__ if name != "__version__"]
out["not_home"] = []
for name in names:
    obj = getattr(histq, name)
    if getattr(importlib.import_module(obj.__module__), name) is not obj:
        out["not_home"].append(name)
out["cached"] = [name for name in names if name in vars(histq)]
star = {}
exec("from histq import *", star)
out["unbound"] = [name for name in histq.__all__ if name not in star]
real = histq.decoherence.build_M
histq.decoherence.build_M = object()
out["sees_patch"] = histq.build_M is histq.decoherence.build_M
histq.decoherence.build_M = real
print(json.dumps(out))
"""


def test_the_package_resolves_its_exports_on_first_use(tmp_path):
    done = run_child(LAZY_PACKAGE, [], tmp_path)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["at_import"] == out["after_version"] == out["after_unknown"] == []
    assert out["version"] == histq.__version__
    assert out["dir_has_all"]
    assert "no_such_name" in out["unknown"]
    # each name is its home module's object, looked up there on every access
    assert out["not_home"] == out["cached"] == out["unbound"] == []
    assert out["sees_patch"]
