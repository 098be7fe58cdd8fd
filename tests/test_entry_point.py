"""The console entry point in a child interpreter.

Each run starts a fresh process through ``histq.cli.main_entry``, the target
of the ``histq`` script in ``pyproject.toml``, with the ``histq`` package
that this interpreter imports.  Run against an installed package it checks
the install; under ``PYTHONPATH=src`` it checks the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import histq

ENTRY = "from histq.cli import main_entry; main_entry()"


def run_histq(argv, cwd):
    env = dict(os.environ)
    root = str(Path(histq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def test_help(tmp_path):
    done = run_histq(["--help"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "search-excess" in done.stdout


def test_two_processes_write_the_same_bytes(tmp_path):
    # README "Determinism": the same seed gives the same bytes in a new process
    runs = {
        "search": ["search-excess", "-d", "2", "-n", "2", "--budget", "5", "--seed", "7",
                   "--out"],
        "diverge": ["diverge", "--p", "builtin:identity", "--q", "builtin:swap", "--dim",
                    "2", "--out"],
    }
    for name, argv in runs.items():
        outputs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}.out"
            done = run_histq(argv + [str(path)], tmp_path)
            assert done.returncode == 0, (name, done.stderr)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], name
        assert outputs[0], name
