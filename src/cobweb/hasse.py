"""Cobweb Hasse diagrams over an F-sequence: level s holds F_s vertices and
consecutive levels are joined completely, so any two vertices on different
levels are comparable.  Includes layer slices, chain counts, and DOT export.

Levels are 1-based here; that is a fixed convention of this module.  The
generic engine in `cobweb.poset` is imported only by the paths that build it,
so the closed-form views and DOT export run without it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from math import prod
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .base import View
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
        return tuple(_vertices(self.widths, 1, self.level_max))

    @property
    def covers(self) -> Iterator[tuple[CobwebVertex, CobwebVertex]]:
        """Every (s, i) below every (s+1, j), in the engine's cover order."""
        return _covers(self.widths, 1, self.level_max)

    def __len__(self) -> int:
        return sum(self.widths)

    def level_of(self) -> dict[CobwebVertex, int]:
        """Vertex -> level map, e.g. for DOT rank grouping."""
        return {v: v.s for v in self.elements}


def _vertices(widths: Sequence[int], lo: int, hi: int) -> Iterator[CobwebVertex]:
    """The vertices of levels lo..hi, level-major with j ascending."""
    for s in range(lo, hi + 1):
        for j in range(1, widths[s - 1] + 1):
            yield CobwebVertex(s, j)


def _covers(
    widths: Sequence[int], lo: int, hi: int
) -> Iterator[tuple[CobwebVertex, CobwebVertex]]:
    """Every (s, i) below every (s+1, j) for lo <= s < hi, level-major."""
    for s in range(lo, hi):
        above = [CobwebVertex(s + 1, j) for j in range(1, widths[s] + 1)]
        for i in range(1, widths[s - 1] + 1):
            x = CobwebVertex(s, i)
            for y in above:
                yield x, y


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
    """The induced subposet on levels k..n (1 <= k < n <= level_max)."""
    _check_slice(c, k, n)
    from .poset import FinitePoset

    return FinitePoset(_vertices(c.widths, k, n), _covers(c.widths, k, n))


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
    order.
    """
    return "".join(_dot_chunks(poset, levels, name))


_BATCH_LINES = 1024  # edge lines per chunk


def _dot_chunks(
    poset: View | FinitePoset, levels: Mapping[object, int] | None, name: str
) -> Iterator[str]:
    """The text of `to_dot` in chunks, each rendered only when it is read:
    the header and node lines, whose size the element count bounds, then the
    edge lines _BATCH_LINES at a time, then the closing brace."""
    quoted = {el: _quote(el) for el in poset.elements}
    lines = [f"digraph {_quote(name)} {{\n", "  rankdir=BT;\n"]
    if levels is not None and quoted:
        by_level: dict[int, list[str]] = {}
        for el, q in quoted.items():
            by_level.setdefault(levels[el], []).append(q)
        for level in sorted(by_level):
            members = " ".join(f"{q};" for q in by_level[level])
            lines.append(f"  {{ rank=same; {members} }}\n")
    else:
        lines += [f"  {q};\n" for q in quoted.values()]
    yield "".join(lines)
    covers = iter(poset.covers)
    while edges := [f"  {quoted[x]} -> {quoted[y]};\n" for x, y in islice(covers, _BATCH_LINES)]:
        yield "".join(edges)
    yield "}\n"
