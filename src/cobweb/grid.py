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
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple

from .base import MobiusMatrix, View, WhitneyVector
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
        k, n, gap = self.k, self.n, _gap(self.mode)
        return tuple(GridElement(l, m) for l in range(k + 1) for m in range(l + gap, n + 1))

    def cover_blocks(self) -> Iterator[tuple[GridElement, tuple[GridElement, ...]]]:
        """(e, its 0-2 covers) for every element e in element order: the unit
        steps (l, m) -> (l, m+1), then (l, m) -> (l+1, m), each when the
        target is present; the engine's cover order."""
        els, start = self.elements, _row_starts(self)
        for l in range(self.k + 1):
            row = els[start[l] : start[l + 1]]
            if l == self.k:
                yield from zip(row, zip(row[1:]))
                yield row[-1], ()
            else:  # row l + 1 is not empty and starts one m on: row[t] steps up to above[t - 1]
                above = els[start[l + 1] : start[l + 2]]
                yield row[0], row[1:2]
                yield from zip(row[1:-1], zip(row[2:], above))
                yield row[-1], above[-1:]

    def __len__(self) -> int:
        return size_formula(self.k, self.n) + (self.k + 1 if self.mode == "weak" else 0)

    @property
    def poset(self) -> FinitePoset:
        """The generic engine over the same elements and covers, for the oracle
        and `method="brute"`: refused past CHAIN_COUNT_BUDGET elements before
        anything is built, else built on first use and shared by equal grids
        through the memo in `cobweb.poset`."""
        from .poset import _ENGINES, FinitePoset, check_count_budget

        check_count_budget(len(self))
        return _ENGINES.get(self, lambda: FinitePoset(self.elements, _blocks=self.cover_blocks()))

    def level_of(self) -> dict[GridElement, int]:
        """Element -> rank: l + m - 1 in strict mode, l + m in weak mode."""
        gap = _gap(self.mode)
        return {e: e.l + e.m - gap for e in self.elements}


def _gap(mode: GridMode) -> int:
    """The smallest m - l of an element: 1 in strict mode, 0 in weak mode."""
    return 1 if mode == "strict" else 0


def _row_starts(g: GridPoset) -> list[int]:
    """start[b]: where row b, (b, b + gap) .. (b, n), begins in g.elements;
    the row is elements[start[b] : start[b + 1]], for b = 0 .. k."""
    gap = _gap(g.mode)
    return list(accumulate((g.n + 1 - b - gap for b in range(g.k + 1)), initial=0))


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
    g: GridPoset,
) -> Iterator[tuple[GridElement, tuple[GridElement, ...], list[int]]]:
    """(x, ys, mus) for each x = (l, m) in element order and each row b >= l:
    ys are the y >= x in row b, in element order, and mus their mu(x, y).

    The grid is closed under componentwise min and max, so it is a
    distributive sublattice of N^2 and mu(x, y) is nonzero only on Boolean
    intervals (Stanley, EC1 3.9): mu = 1 at x = y, -1 on a cover, +1 at
    x + (1, 1) when x has two covers, and 0 otherwise.  So mus is 0 but for a
    head, cut to len(ys): (1, -1) in row l, and (-1, 1) in row l + 1 when
    (l + 1, m) is present.
    """
    els, gap, start = g.elements, _gap(g.mode), _row_starts(g)
    for x in els:
        l, m = x
        for b in range(l, g.k + 1):
            # The y >= x in row b are its suffix from (b, max(m, b + gap)).
            ys = els[start[b] + max(m - b - gap, 0) : start[b + 1]]
            head = (1, -1) if b == l else (-1, 1) if b == l + 1 and m >= b + gap else ()
            yield x, ys, [*head, *repeat(0, len(ys))][: len(ys)]


def grid_mobius(k: int, n: int, mode: GridMode = "strict") -> MobiusMatrix:
    """The Möbius matrix from _mobius_blocks: every comparable pair, x-major in element order."""
    entries: dict[tuple[GridElement, GridElement], int] = {}
    for x, ys, mus in _mobius_blocks(build_grid(k, n, mode)):
        entries.update(zip(zip(repeat(x), ys), mus))
    return MobiusMatrix(entries)


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
