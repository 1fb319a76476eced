"""Stdlib references for the CLI outputs pinned in test_references.py.

Nothing here imports ``cobweb``.  The benchmark's ``bench/checks.py`` already
holds the references for F-nomials, Bell sums, Catalan numbers and grid
Möbius rows; it is read from its file and run as ``checks``, so no reference
is written twice and nothing under ``bench/`` is written, bytecode included.
This module adds only what ``checks`` lacks.
"""

import math
import types
from pathlib import Path

CHECKS_PATH = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def _load(path: Path) -> types.ModuleType:
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


checks = _load(CHECKS_PATH)


def gcd_witness(values: list[int]) -> tuple[int, int] | None:
    """The first pair n < m, scanning n then m, at which
    gcd(F_n, F_m) != F_gcd(n, m) for F_s = values[s - 1], or None."""
    count = len(values)
    for n in range(1, count + 1):
        for m in range(n + 1, count + 1):
            if math.gcd(values[n - 1], values[m - 1]) != values[math.gcd(n, m) - 1]:
                return n, m
    return None
