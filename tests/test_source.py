"""Checks over the package's source files, not its behaviour."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "cobweb").rglob("*.py"))

# An import of threading, or a `with` statement that takes a lock.
_THREADING = re.compile(r"^\s*(import|from)\s.*\bthreading\b|^\s*with\b.*lock", re.IGNORECASE)


def test_no_threading_and_no_lock_outside_the_memo_class():
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in MODULES if path != SRC / "cobweb" / "_memo.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _THREADING.search(line)
    ]
    assert found == [], "only cobweb._memo may import threading or take a lock"


def test_every_module_compiles_with_warnings_as_errors():
    # Compiled from source, so a warning shows whatever the bytecode caches hold.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in MODULES:
            compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)


def test_every_module_imports_with_warnings_as_errors():
    code = "import cobweb.cli, cobweb._parts; from cobweb import *"
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
