"""The package's public surface: what `from qarylp import *` promises."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import qarylp

SRC = Path(__file__).resolve().parents[1] / "src" / "qarylp"


def test_all_names_resolve_and_are_listed_once():
    names = qarylp.__all__
    assert len(names) == len(set(names)), sorted(
        {n for n in names if names.count(n) > 1})
    missing = [n for n in names if not hasattr(qarylp, n)]
    assert not missing, missing


def test_package_never_imports_the_tests():
    # the per-edge reference path lives in tests/oracles.py; the package
    # must decode without it
    banned = {"oracles", "tests"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import oracles" names the module in its aliases
                modules = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any(set(m.split(".")) & banned for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_readme_quick_start_runs():
    # every public name a README example uses must still exist
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    found = [line for line in run.stdout.splitlines()
             if line.startswith("Status.CODEWORD_FOUND")]
    assert len(found) == 2, run.stdout


def test_import_leaves_the_process_pool_unloaded():
    # only run_sweep with workers > 1 needs a process pool, and importing
    # one pulls in multiprocessing, socket and subprocess
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, qarylp; "
             "print('concurrent.futures.process' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
