"""The layer poset over labels (l, m) ordered componentwise, its size, rank
and chain formulas, Stirling-like numbers of both kinds, and Bell-like sums.

Two natural readings of the element set exist and both are supported as an
explicit mode:

* strict - {(l, m) : 0 <= l <= k, l < m <= n}; matches the closed size
  formula (n - k)(k + 1) + k(k + 1)/2 and the rank form l + m - 1.
* weak - adds the diagonal and (0, 0) as bottom: {(l, m) : 0 <= l <= k,
  l <= m <= n}; matches the ballot / Catalan maximal-chain counts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat, starmap
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple, Sequence

from .base import MobiusMatrix, View, WhitneyVector, _cut, _T
from .errors import InvalidBounds, UndefinedRank

if TYPE_CHECKING:
    from .poset import FinitePoset

__all__ = [
    "GridElement",
    "GridPoset",
    "GridMode",
    "build_grid",
    "grid_mobius",
    "size_formula",
    "grid_rank",
    "stirling2_grid",
    "stirling2_closed",
    "stirling1_grid",
    "bell_grid",
    "grid_chain_count",
    "grid_whitney",
]

GridMode = Literal["strict", "weak"]


class GridElement(NamedTuple):
    """A layer label (l, m)."""

    l: int
    m: int

    def __str__(self) -> str:
        return f"({self.l},{self.m})"


class GridPoset(View):
    """The grid of labels (l, m), generated from (k, n, mode) alone.

    Elements, unit-step covers, size and ranks are closed-form; `poset` is
    the generic engine over the same elements and covers.
    """

    _fields = ("k", "n", "mode")

    def __init__(self, k: int, n: int, mode: GridMode) -> None:
        self.__dict__.update(k=k, n=n, mode=mode)

    @cached_property
    def elements(self) -> tuple[GridElement, ...]:
        """Every label, l-major with m ascending: the engine's order."""
        return tuple(starmap(GridElement, _label_rows(self, False)))

    def _blocks(self, labels: Sequence[_T]) -> Iterator[tuple[_T, Sequence[_T]]]:
        """(e, its 0-2 covers) for every element e in element order, each given
        as its entry of `labels`: the unit steps (l, m) -> (l, m+1), then
        (l, m) -> (l+1, m), each when the target is present; the engine's
        cover order."""
        rows = _rows(self, labels)
        for row, above in zip(rows, rows[1:]):
            # Row l + 1 is not empty and starts one m on: row[t] steps up to above[t - 1].
            yield row[0], row[1:2]
            yield from zip(row[1:-1], zip(row[2:], above))
            yield row[-1], above[-1:]
        top = rows[-1]
        yield from zip(top, zip(top[1:]))
        yield top[-1], ()

    def __len__(self) -> int:
        return size_formula(self.k, self.n) + (self.k + 1 if self.mode == "weak" else 0)

    @property
    def poset(self) -> FinitePoset:
        """The generic engine over the same elements and covers, for the oracle
        and `method="brute"`, from `cobweb.poset._engine`: refused past
        CHAIN_COUNT_BUDGET elements on the closed-form size before anything is
        built, else built on first use and shared by equal grids."""
        from .poset import FinitePoset, _engine

        return _engine(
            self, len(self), lambda: FinitePoset(self.elements, _blocks=self.cover_blocks())
        )

    def level_of(self) -> dict[GridElement, int]:
        """Element -> rank: l + m - 1 in strict mode, l + m in weak mode."""
        gap = _gap(self.mode)
        return {e: e.l + e.m - gap for e in self.elements}


def _gap(mode: GridMode) -> int:
    """The smallest m - l of an element: 1 in strict mode, 0 in weak mode."""
    return 1 if mode == "strict" else 0


def _label_rows(g: GridPoset, ranks: bool) -> Iterator[tuple[int, ...]]:
    """(l, m) for every label in element order, or (l, m, l + m - gap) when
    `ranks`, from range arithmetic alone: no GridElement and no dict."""
    gap = _gap(g.mode)
    for l in range(g.k + 1):
        ls, ms = repeat(l), range(l + gap, g.n + 1)
        yield from zip(ls, ms, range(2 * l, l + g.n + 1 - gap)) if ranks else zip(ls, ms)


def _rows(g: GridPoset, labels: Sequence[_T]) -> list[Sequence[_T]]:
    """`labels`, one per element in element order, cut into the rows
    l = 0 .. k: row l holds the labels of (l, l + gap) .. (l, n), one fewer
    than row l - 1."""
    w = g.n + 1 - _gap(g.mode)
    return _cut(labels, range(w, w - g.k - 1, -1))


def build_grid(k: int, n: int, mode: GridMode = "strict") -> GridPoset:
    """The poset of labels (l, m) under the componentwise order.

    The order is generated by unit steps (l, m) -> (l+1, m) and
    (l, m) -> (l, m+1) inside the element set.
    """
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    if k < 0 or n < k:
        raise InvalidBounds(f"need 0 <= k <= n, got k={k}, n={n}")
    if mode == "strict" and k == n:
        raise InvalidBounds(f"strict mode needs k < n, got k=n={k}")
    return GridPoset(k, n, mode)


def _mobius_blocks(
    g: GridPoset, labels: Sequence[_T]
) -> Iterator[tuple[_T, Sequence[_T], tuple[int, ...]]]:
    """(x, ys, head) for each x = (l, m) in element order and each row b >= l:
    ys are the y >= x in row b, in element order, and head the nonzero mu(x, y)
    that lead them; every later y in ys has mu 0.  Each element is given as
    its entry of `labels`, one per element in element order: the elements
    themselves, or their text.  Both are read from `_rows`: x is entry i of
    row l, m = l + gap + i, and the y >= x in row b are that row from entry
    max(l + i - b, 0) on.

    The grid is closed under componentwise min and max, so it is a
    distributive sublattice of N^2 and mu(x, y) is nonzero only on Boolean
    intervals (Stanley, EC1 3.9): mu = 1 at x = y, -1 on a cover, +1 at
    x + (1, 1) when x has two covers, and 0 otherwise.  So the head, cut to
    len(ys), is (1, -1) in row l, (-1, 1) in row l + 1 when (l + 1, m) is
    present, that is when i > 0, and empty otherwise.
    """
    rows = _rows(g, labels)
    for l, row in enumerate(rows):
        for i, x in enumerate(row):
            for d, above in enumerate(rows[l:]):  # row b = l + d
                ys = above[max(i - d, 0) :]
                head = (1, -1) if d == 0 else (-1, 1) if d == 1 and i > 0 else ()
                yield x, ys, head[: len(ys)]


def grid_mobius(k: int, n: int, mode: GridMode = "strict") -> MobiusMatrix:
    """The Möbius matrix from _mobius_blocks: every comparable pair, x-major in element order."""
    g = build_grid(k, n, mode)
    entries: dict[tuple[GridElement, GridElement], int] = {}
    for x, ys, head in _mobius_blocks(g, g.elements):
        entries.update(zip(zip(repeat(x), ys), chain(head, repeat(0))))
    return MobiusMatrix(entries)


def _mobius_chunks(g: GridPoset, frame: tuple[str, str, str, str]) -> Iterator[str]:
    """The rows (x_l, x_m, y_l, y_m, mu) of _mobius_blocks as text in a row
    frame (cell separator, text before and after each row, text between
    rows), one text per block, each but the first led by the text between
    rows: nothing comes before the first row or after the last.

    Each label's cells 'l<sep>m<sep>' are formatted once.  A block is written
    as its 0-2 head rows, then its zero run as one join over the cells of its
    ys.  How blocks are joined into writes is the writer's choice.
    """
    sep, start, end, between = frame
    cells = [f"{l}{sep}{m}{sep}" for l, m in _label_rows(g, False)]
    lead = ""
    for x, ys, head in _mobius_blocks(g, cells):
        pre = start + x
        rows = [f"{pre}{y}{mu}{end}" for y, mu in zip(ys, head)]
        if len(ys) > len(head):
            rows.append(pre + f"0{end}{between}{pre}".join(ys[len(head) :]) + "0" + end)
        yield lead + between.join(rows)
        lead = between


def size_formula(k: int, n: int) -> int:
    """(n - k)(k + 1) + k(k + 1)/2: the strict element count, in closed form."""
    if k < 0 or n < k:
        raise InvalidBounds(f"need 0 <= k <= n, got k={k}, n={n}")
    return (n - k) * (k + 1) + k * (k + 1) // 2


def grid_rank(e: GridElement) -> int:
    """Closed-form rank l + m - 1 of a strict label (l < m)."""
    if e.l < 0 or e.m < 0:
        raise InvalidBounds(f"labels need l, m >= 0, got {e}")
    if e.l >= e.m:
        raise UndefinedRank(f"rank l + m - 1 is defined for l < m only, got {e}")
    return e.l + e.m - 1


def stirling2_grid(k_rank: int, l: int, m: int) -> int:
    """Second-kind Stirling-like number: strict labels (a, b) with
    a + b - 1 = k_rank, counted one by one along the slant a + b = k_rank + 1."""
    if l < 0 or m < l:
        raise InvalidBounds(f"need 0 <= l <= m, got l={l}, m={m}")
    target = k_rank + 1
    count = 0
    for a in range(l + 1):
        b = target - a
        if a < b <= m:
            count += 1
    return count


def stirling2_closed(k_rank: int, l: int, m: int) -> int:
    """Closed form for stirling2_grid: the slant a + b = k_rank + 1 clipped to
    the strict grid gives max(0, min(l, ceil((k_rank+1)/2) - 1) - max(0, k_rank+1-m) + 1)."""
    if l < 0 or m < l:
        raise InvalidBounds(f"need 0 <= l <= m, got l={l}, m={m}")
    target = k_rank + 1
    hi = min(l, (target + 1) // 2 - 1)
    lo = max(0, target - m)
    return max(0, hi - lo + 1)


def grid_whitney(l: int, m: int, kind: Literal["second", "first"] = "second") -> WhitneyVector:
    """Whitney vector of the strict grid, ranks 0 .. l + m - 1.

    Second kind: the slant counts stirling2_closed.  First kind: by the
    Boolean-interval rule of _mobius_blocks, mu((0, 1), pi) is -1 at (0, 2) and
    0 at every other element above rank 0, since (1, 1) is not strict; so the
    vector is (1, -1, 0, ...).
    """
    if l < 0 or m <= l:
        raise InvalidBounds(f"strict grid needs 0 <= l < m, got l={l}, m={m}")
    if kind == "second":
        return WhitneyVector(kind, tuple(stirling2_closed(r, l, m) for r in range(l + m)))
    if kind == "first":
        return WhitneyVector(kind, (1, -1, *(0,) * (l + m - 2))[: l + m])
    raise ValueError(f"kind must be 'second' or 'first', got {kind!r}")


def stirling1_grid(k_rank: int, l: int, m: int) -> int:
    """First-kind Stirling-like number: sum of mu((0,1), pi) over the rank-k_rank
    elements of the strict grid, read from the closed first-kind vector."""
    vec = grid_whitney(l, m, "first").values
    if 0 <= k_rank < len(vec):
        return vec[k_rank]
    return 0


def bell_grid(l: int, m: int) -> int:
    """Bell-like number of the strict grid: the Whitney numbers of the second
    kind summed over all ranks, which is the element count size_formula(l, m)."""
    if l < 0 or m <= l:
        raise InvalidBounds(f"strict grid needs 0 <= l < m, got l={l}, m={m}")
    return size_formula(l, m)


def grid_chain_count(
    k: int, n: int, mode: GridMode = "strict", method: Literal["brute", "closed"] = "closed"
) -> int:
    """Number of maximal chains of the grid.

    `brute` counts saturated paths through the generic engine; `closed`
    evaluates the ballot form ((n-k+1)/(n+1)) C(n+k, k) of the weak grid.
    In strict mode m -> m - 1 maps the grid (k, n) onto the weak grid
    (k, n - 1), so the count is ballot(k, n - 1).  The two methods are pinned
    to each other by the test suite.  `brute` is bounded by `GridPoset.poset`.
    """
    g = build_grid(k, n, mode)
    if method == "brute":
        from .poset import maximal_chains

        count = maximal_chains(g.poset, "count")
        assert isinstance(count, int)
        return count
    if method == "closed":
        from .fnomial import ballot

        return ballot(k, n - _gap(mode)).count
    raise ValueError(f"method must be 'brute' or 'closed', got {method!r}")
