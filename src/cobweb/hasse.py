"""Cobweb Hasse diagrams over an F-sequence: level s holds F_s vertices and
consecutive levels are joined completely, so any two vertices on different
levels are comparable.  Includes layer slices, chain counts, and DOT export.

Levels are 1-based here; that is a fixed convention of this module.  The
generic engine in `cobweb.poset` is imported only by the paths that build it,
so the closed-form views and DOT export run without it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from math import prod
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .base import View, _cut, _T
from .errors import BudgetExceeded, InvalidBounds

if TYPE_CHECKING:
    from .poset import FinitePoset
    from .sequences import FSequence

__all__ = [
    "CobwebVertex",
    "CobwebPoset",
    "build_cobweb",
    "layer_subposet",
    "layer_chain_count",
    "to_dot",
    "VERTEX_BUDGET",
]

VERTEX_BUDGET = 10_000


class CobwebVertex(NamedTuple):
    """Vertex j on level s (1 <= j <= F_s)."""

    s: int
    j: int

    def __str__(self) -> str:
        return f"({self.s},{self.j})"


class CobwebPoset(View):
    """Levels 1..level_max of a cobweb, generated from the level widths alone.

    Vertices, covers and levels are closed-form; `poset` is the generic
    engine over the same vertices and covers.
    """

    _fields = ("seq", "level_max", "widths")

    def __init__(self, seq: FSequence, level_max: int, widths: tuple[int, ...]) -> None:
        # widths[s-1] = F_s
        self.__dict__.update(seq=seq, level_max=level_max, widths=widths)

    @cached_property
    def elements(self) -> tuple[CobwebVertex, ...]:
        """Every vertex, level-major with j ascending: the engine's order."""
        return tuple(chain.from_iterable(_levels(self.widths, 1)))

    def _blocks(self, labels: Sequence[_T]) -> Iterator[tuple[_T, Sequence[_T]]]:
        """(x, the vertices covering x) for every vertex x in element order,
        each given as its entry of `labels`: `labels` cut into levels, where
        the vertices of one level share one sequence, the next level."""
        return _level_blocks(_cut(labels, self.widths))

    def __len__(self) -> int:
        return sum(self.widths)

    @property
    def poset(self) -> FinitePoset:
        """The generic engine of levels 1..level_max from `_slice_engine`,
        shared with every cobweb and slice of the same widths from level 1;
        `build_cobweb` refuses a cobweb past VERTEX_BUDGET vertices."""
        return _slice_engine(self, 1, self.level_max)

    def level_of(self) -> dict[CobwebVertex, int]:
        """Vertex -> level map, e.g. for DOT rank grouping."""
        return {v: v.s for v in self.elements}


def _levels(widths: Sequence[int], first: int) -> list[tuple[CobwebVertex, ...]]:
    """The vertices of levels first, first + 1, ... of the given widths, one
    tuple per level."""
    return [
        tuple(map(CobwebVertex, repeat(s, w), range(1, w + 1)))
        for s, w in enumerate(widths, first)
    ]


def _level_blocks(levels: Sequence[Sequence[_T]]) -> Iterator[tuple[_T, Sequence[_T]]]:
    """(x, the entries covering x) for every entry x of consecutive levels, in
    order: every x shares the sequence of the next level, and the last level
    shares the empty tuple."""
    for level, above in zip(levels, [*levels[1:], ()]):
        yield from zip(level, repeat(above))


def build_cobweb(seq: FSequence, level_max: int) -> CobwebPoset:
    """Levels 1..level_max with complete bipartite covers between neighbours."""
    if level_max < 1:
        raise InvalidBounds(f"need level_max >= 1, got {level_max}")
    widths: list[int] = []
    total = 0
    for s in range(1, level_max + 1):
        total += (w := seq.value(s))
        if total > VERTEX_BUDGET:
            raise BudgetExceeded(
                f"cobweb over {seq.name!r} needs more than {VERTEX_BUDGET} vertices "
                f"by level {s}"
            )
        widths.append(w)
    return CobwebPoset(seq, level_max, tuple(widths))


def _check_slice(c: CobwebPoset, k: int, n: int) -> None:
    if not 1 <= k < n <= c.level_max:
        raise InvalidBounds(f"need 1 <= k < n <= {c.level_max}, got k={k}, n={n}")


def layer_subposet(c: CobwebPoset, k: int, n: int) -> FinitePoset:
    """The induced subposet on levels k..n (1 <= k < n <= level_max), as the
    generic engine that `_slice_engine` builds or finds in the memo."""
    _check_slice(c, k, n)
    return _slice_engine(c, k, n)


def _slice_engine(c: CobwebPoset, k: int, n: int) -> FinitePoset:
    """The engine of levels k..n, from `cobweb.poset._engine`: it makes the
    vertices of those levels alone, one tuple per level, and their cover
    blocks from the same tuples.  The widths of those levels and k determine
    it, so slices that agree on them share one engine; the key holds no
    sequence, since the memo's bound charges engines only."""
    from .poset import FinitePoset, _engine

    w = c.widths[k - 1 : n]

    def build() -> FinitePoset:
        levels = _levels(w, k)
        return FinitePoset(chain.from_iterable(levels), _blocks=_level_blocks(levels))

    return _engine((w, k), sum(w), build)


def layer_chain_count(
    c: CobwebPoset, k: int, n: int, method: str = "closed"
) -> int:
    """Maximal chains of the levels-k..n slice: one vertex per level, so the
    closed count is the product of the level widths."""
    if method == "closed":
        _check_slice(c, k, n)
        return prod(c.widths[s - 1] for s in range(k, n + 1))
    if method == "brute":
        from .poset import maximal_chains

        count = maximal_chains(layer_subposet(c, k, n), "count")
        assert isinstance(count, int)
        return count
    raise ValueError(f"method must be 'brute' or 'closed', got {method!r}")


def _quote(label: object) -> str:
    text = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


# The quoted name of a view's element, a CobwebVertex or a GridElement: both
# print as "(a,b)" over two ints, which need no escaping.
_VIEW_NAME = '"(%d,%d)"'


def to_dot(
    poset: View | FinitePoset,
    levels: Mapping[object, int] | None = None,
    name: str = "poset",
) -> str:
    """Render a Hasse diagram, a view or the engine, as a DOT digraph: one
    node per element, one edge per cover oriented upward, and (when `levels`
    is given) rank=same groups so layout engines reproduce the layered
    displays.

    Output is byte-deterministic: nodes in element order, edges in cover
    order.  The edges are written a source at a time from the cover blocks
    over the element names, so no list of cover pairs is built.
    """
    return "".join(_dot_chunks(poset, levels, name))


def _dot_chunks(
    poset: View | FinitePoset, levels: Mapping[object, int] | None, name: str
) -> Iterator[str]:
    """The text of `to_dot` in pieces, each rendered only when it is read:
    the header, one rank=same line per level (or, without `levels`, one node
    line per element), one text per source with covers, and the closing
    brace.  How pieces are joined into writes is the writer's choice.

    Each name is formatted once, in element order, and the edges come from
    `poset._blocks(names)`: the cover blocks with every element given as its
    name, so nothing is looked up by element.  A source x with covers ys is
    written as pre, then one join over the names of ys with ';\n' + pre
    between them, then ';\n', where pre is '  "x" -> '.
    """
    els = poset.elements
    names = list(map(_VIEW_NAME.__mod__ if isinstance(poset, View) else _quote, els))
    yield f"digraph {_quote(name)} {{\n  rankdir=BT;\n"
    if levels is not None:
        by_level: dict[int, list[str]] = {}
        for q, level in zip(names, map(levels.__getitem__, els)):
            by_level.setdefault(level, []).append(q)
        for level in sorted(by_level):
            members = " ".join(f"{q};" for q in by_level[level])
            yield f"  {{ rank=same; {members} }}\n"
    else:
        yield from map("  {};\n".format, names)
    for q, ys in poset._blocks(names):
        if ys:
            pre = f"  {q} -> "
            yield pre + f";\n{pre}".join(ys) + ";\n"
    yield "}\n"
