"""Whitney rows and Bell-like numbers of the prime-layer structure over an
F-sequence: W_k = (n-k over k)_F and B_n(F) = sum of the row.

For F = naturals this is the diagonal-of-Pascal identity, so B_n recovers
Fibonacci(n + 1).

The row W(n, 0..n//2), its sum B_n and the table B_0..B_n are computed once
per prefix F_1..F_n and kept as results of its entry in the bounded memo of
`cobweb._parts`, which value-equal custom sequences share.  Each is read
through `_parts.entry`, which also refuses n < 0: `bell_f` reads the kept
B_n, and a repeat on a built-in or custom sequence fetches no values.  Any
other rule is computed afresh and never kept, and an error is raised afresh
on every call.  The CLI produces its rows and Bell tables through
`fnomial._cli_rows`; a large certified row is walked by `_row` over its
values as Decimals there, and not kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import _parts
from .errors import IndexOutOfDomain
from .fnomial import FNomialTable, _exact
from .sequences import FSequence

if TYPE_CHECKING:
    from ._parts import _Entry

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


def _row(vals: list[int]) -> Iterator[int]:
    """W_0 .. W_{n//2} for vals = F_1..F_n by the row ratio
    W_{k+1} = W_k * F_{n-2k} F_{n-2k-1} / (F_{n-k} F_{k+1}), each step checked
    as it is read."""
    n = len(vals)
    yield (w := 1)
    for k in range(n // 2):
        num = w * (vals[n - 2 * k - 1] * vals[n - 2 * k - 2])
        yield (w := _exact(num, vals[n - k - 1] * vals[k], vals, n - k - 1, k + 1))


def _row_of(e: _Entry) -> tuple[int, ...]:
    return tuple(_row(e.vals))


def whitney_row(seq: FSequence, n: int) -> PrefabWhitneyRow:
    return PrefabWhitneyRow(seq, n, _parts.entry(seq, n).kept("row", _row_of))


def bell_f(seq: FSequence, n: int) -> int:
    """B_n(F): the diagonal sum over k of (n - k over k)_F, the sum of the
    kept row, itself kept."""
    return _parts.entry(seq, n).kept("sum", lambda e: sum(e.kept("row", _row_of)))


def _bell_sums(seq: FSequence, n_max: int) -> Iterator[int]:
    """B_0(F) .. B_{n_max}(F), each yielded as its row finishes, or
    ValueError when read if n_max < 0.

    Row n of the W(n, k) = (n - k over k)_F follows from row n - 2 by the
    diagonal W(n, k) = W(n - 2, k - 1) * F_{n-k} / F_k, each step checked;
    only the two previous rows are kept.  F_n is fetched when row n starts,
    so errors surface at the same row as bell_f(seq, n) would raise them.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    vals: list[int] = []
    before, last = [], []  # rows n - 2 and n - 1
    for n in range(n_max + 1):
        if n:
            vals.append(seq.value(n))
        row = [1]
        for k in range(1, n // 2 + 1):
            row.append(_exact(before[k - 1] * vals[n - k - 1], vals[k - 1], vals, n - k, k))
        yield sum(row)
        before, last = last, row


def bell_f_table(seq: FSequence, n_max: int) -> BellSequence:
    """B_0(F) .. B_{n_max}(F) by _bell_sums, kept on the memo entry of
    F_1..F_{n_max}.  When n_max < 0 or the sequence stops before n_max, only
    the walk runs, so it raises what it meets first: a NonIntegral row or
    the missing term."""
    if n_max >= 0:
        try:
            return BellSequence(
                seq, _parts.entry(seq, n_max).kept("bell", lambda e: tuple(_bell_sums(seq, n_max)))
            )
        except IndexOutOfDomain:
            pass
    return BellSequence(seq, tuple(_bell_sums(seq, n_max)))
