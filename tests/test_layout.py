"""The referee module ``hallq.hloracle`` stays off the production path.

The tests compare ``symfun`` against ``hloracle``; a production module that
imported it would make the referee a dependency of what it referees.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFEREE = "hloracle"
PRODUCTION = sorted(p.stem for p in (SRC / "hallq").glob("*.py") if p.stem != REFEREE)


def _imports_referee(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == f"hallq.{REFEREE}" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in (REFEREE, f"hallq.{REFEREE}"):
            return True
        if node.module in (None, "hallq"):
            return any(alias.name == REFEREE for alias in node.names)
    return False


def test_production_modules_do_not_load_the_referee():
    assert "cli" in PRODUCTION and "symfun" in PRODUCTION
    code = (
        "import importlib, sys\n"
        f"for name in {PRODUCTION!r}:\n"
        "    importlib.import_module('hallq' if name == '__init__' else 'hallq.' + name)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('hallq'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {f"hallq.{name}" for name in PRODUCTION if name != "__init__"} <= loaded
    assert f"hallq.{REFEREE}" not in loaded


def test_no_production_source_imports_the_referee():
    offenders = [
        f"{name}.py:{node.lineno}"
        for name in PRODUCTION
        for node in ast.walk(ast.parse((SRC / "hallq" / f"{name}.py").read_text(encoding="utf-8")))
        if _imports_referee(node)
    ]
    assert offenders == []
