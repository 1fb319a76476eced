"""Whitney rows and Bell-like numbers of the prime-layer structure over an
F-sequence: W_k = (n-k over k)_F and B_n(F) = sum of the row.

For F = naturals this is the diagonal-of-Pascal identity, so B_n recovers
Fibonacci(n + 1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .fnomial import FNomialTable
from .sequences import FSequence

__all__ = [
    "PrefabWhitneyRow",
    "BellSequence",
    "whitney_prefab",
    "whitney_row",
    "bell_f",
    "bell_f_table",
]

_tables: dict[FSequence, FNomialTable] = {}
_tables_lock = threading.Lock()


def _table_for(seq: FSequence) -> FNomialTable:
    table = _tables.get(seq)
    if table is None:
        with _tables_lock:
            table = _tables.setdefault(seq, FNomialTable(seq))
    return table


@dataclass(frozen=True)
class PrefabWhitneyRow:
    """Second-kind Whitney numbers W_k = (n-k over k)_F for k = 0..floor(n/2)."""

    seq: FSequence
    n: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class BellSequence:
    """B_0(F), ..., B_{n_max}(F)."""

    seq: FSequence
    values: tuple[int, ...]


def whitney_prefab(seq: FSequence, n: int, k: int) -> int:
    """(n - k over k)_F; zero when k < 0 or 2k > n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if k < 0 or 2 * k > n:
        return 0
    return _table_for(seq).fnomial(n - k, k)


def whitney_row(seq: FSequence, n: int) -> PrefabWhitneyRow:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    table = _table_for(seq)
    values = tuple(table.fnomial(n - k, k) for k in range(n // 2 + 1))
    return PrefabWhitneyRow(seq, n, values)


def bell_f(seq: FSequence, n: int) -> int:
    """B_n(F): the diagonal sum over k of (n - k over k)_F."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    table = _table_for(seq)
    return sum(table.fnomial(n - k, k) for k in range(n // 2 + 1))


def bell_f_table(seq: FSequence, n_max: int) -> BellSequence:
    """B_0(F) .. B_{n_max}(F), computed off one shared factorial memo."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    return BellSequence(seq, tuple(bell_f(seq, n) for n in range(n_max + 1)))
