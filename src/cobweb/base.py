"""Types several modules share: the Möbius and Whitney records that both the
engine (`cobweb.poset`) and the closed-form grid return, and the base of the
two closed-form views, with `_cut`, which both views use to cut their labels
into rows.  Nothing here loads the engine.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Hashable, Iterable, Iterator, Literal, NamedTuple, Sequence, TypeVar

__all__ = ["MobiusMatrix", "WhitneyVector", "View"]

_T = TypeVar("_T")


class MobiusMatrix(NamedTuple):
    """Möbius values mu(x, y) for every comparable pair x <= y."""

    entries: dict[tuple[Hashable, Hashable], int]

    def value(self, x: Hashable, y: Hashable) -> int:
        """mu(x, y); zero for incomparable pairs."""
        return self.entries.get((x, y), 0)


class WhitneyVector(NamedTuple):
    """Rank-indexed Whitney numbers; plain counts (second kind) or signed
    Möbius sums from the bottom element (first kind)."""

    kind: Literal["second", "first"]
    values: tuple[int, ...]


def _cover_pairs(
    blocks: Iterable[tuple[Hashable, tuple[Hashable, ...]]]
) -> Iterator[tuple[Hashable, Hashable]]:
    """The cover pairs (x, y) of `cover_blocks`-style blocks, in block order."""
    return ((x, y) for x, ys in blocks for y in ys)


def _cut(labels: Sequence[_T], widths: Iterable[int]) -> list[Sequence[_T]]:
    """`labels` cut into consecutive rows of the given widths, each a slice."""
    starts = list(accumulate(widths, initial=0))
    return [labels[a:b] for a, b in zip(starts, starts[1:])]


class View:
    """A poset generated from the parameters named in `_fields`, which a
    subclass's __init__ stores, and its covers from the subclass's
    `_blocks(labels)`.  A view compares, hashes and prints by its
    parameters, and assigning or deleting one raises AttributeError.  Unlike
    a NamedTuple it has an instance __dict__, where cached_property keeps
    what it computes.

    A subclass defines `elements` and `_blocks(labels)`: the cover blocks
    with each element given as its entry of `labels`, one per element in
    element order, so callers that want names or text instead of elements
    (DOT) cut them by the same rule and look nothing up by element.
    """

    _fields: tuple[str, ...]

    def _params(self) -> tuple[object, ...]:
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash(self._params())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._params()))
        return f"{type(self).__name__}({args})"

    def cover_blocks(self) -> Iterator[tuple[Hashable, tuple[Hashable, ...]]]:
        """(x, the elements covering x) for every element x, each once and in
        element order, x never in its own tuple; consecutive elements may
        share one tuple object, and then share one set in the engine."""
        return self._blocks(self.elements)

    @property
    def covers(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Every cover pair (x, y), y covering x, in the engine's cover order."""
        return _cover_pairs(self.cover_blocks())
