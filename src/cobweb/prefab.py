"""Whitney rows and Bell-like numbers of the prime-layer structure over an
F-sequence: W_k = (n-k over k)_F and B_n(F) = sum of the row.

For F = naturals this is the diagonal-of-Pascal identity, so B_n recovers
Fibonacci(n + 1).
"""

from __future__ import annotations

from typing import NamedTuple

from .fnomial import FNomialTable, non_integral
from .sequences import FSequence

__all__ = [
    "PrefabWhitneyRow",
    "BellSequence",
    "whitney_prefab",
    "whitney_row",
    "bell_f",
    "bell_f_table",
]


class PrefabWhitneyRow(NamedTuple):
    """Second-kind Whitney numbers W_k = (n-k over k)_F for k = 0..floor(n/2)."""

    seq: FSequence
    n: int
    values: tuple[int, ...]


class BellSequence(NamedTuple):
    """B_0(F), ..., B_{n_max}(F)."""

    seq: FSequence
    values: tuple[int, ...]


def whitney_prefab(seq: FSequence, n: int, k: int) -> int:
    """(n - k over k)_F; zero when k < 0 or 2k > n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if k < 0 or 2 * k > n:
        return 0
    return FNomialTable(seq).fnomial(n - k, k)


def _row(seq: FSequence, n: int) -> list[int]:
    """W_0 .. W_{n//2} by the row ratio
    W_{k+1} = W_k * F_{n-2k} F_{n-2k-1} / (F_{n-k} F_{k+1}), each step checked."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    vals = seq.values(n)
    row = [1]
    for k in range(n // 2):
        q, r = divmod(
            row[-1] * (vals[n - 2 * k - 1] * vals[n - 2 * k - 2]), vals[n - k - 1] * vals[k]
        )
        if r:
            raise non_integral(vals, n - k - 1, k + 1)
        row.append(q)
    return row


def whitney_row(seq: FSequence, n: int) -> PrefabWhitneyRow:
    return PrefabWhitneyRow(seq, n, tuple(_row(seq, n)))


def bell_f(seq: FSequence, n: int) -> int:
    """B_n(F): the diagonal sum over k of (n - k over k)_F."""
    return sum(_row(seq, n))


def bell_f_table(seq: FSequence, n_max: int) -> BellSequence:
    """B_0(F) .. B_{n_max}(F).

    Row n of the W(n, k) = (n - k over k)_F follows from row n - 2 by the
    diagonal W(n, k) = W(n - 2, k - 1) * F_{n-k} / F_k, each step checked;
    only the two previous rows are kept.  F_n is fetched when row n starts,
    so errors surface at the same row as bell_f(seq, n) would raise them.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    vals: list[int] = []
    before, last = [], []  # rows n - 2 and n - 1
    sums = []
    for n in range(n_max + 1):
        if n:
            vals.append(seq.value(n))
        row = [1]
        for k in range(1, n // 2 + 1):
            q, r = divmod(before[k - 1] * vals[n - k - 1], vals[k - 1])
            if r:
                raise non_integral(vals, n - k, k)
            row.append(q)
        sums.append(sum(row))
        before, last = last, row
    return BellSequence(seq, tuple(sums))
