"""Types several modules share: the Möbius and Whitney records that both the
engine (`cobweb.poset`) and the closed-form grid return, and the base of the
two closed-form views.  Nothing here loads the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Literal, NamedTuple

if TYPE_CHECKING:
    from .poset import FinitePoset

__all__ = ["MobiusMatrix", "WhitneyVector", "View"]


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


class View:
    """A poset generated from the parameters named in `_fields`, which a
    subclass's __init__ stores.  A view compares, hashes and prints by its
    parameters, and assigning or deleting one raises AttributeError.  Unlike
    a NamedTuple it has an instance __dict__, where cached_property keeps
    what it computes.
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

    def _engine_key(self) -> Hashable:
        """What determines the engine of `poset`: here the view itself."""
        return self

    @property
    def poset(self) -> FinitePoset:
        """The generic engine over the same elements and covers (for the
        oracle and `method="brute"`), built on first use.  Equal views share
        one engine through the bounded memo in `cobweb.poset`."""
        from .poset import _ENGINES, FinitePoset

        return _ENGINES.get(self._engine_key(), lambda: FinitePoset(self.elements, self.covers))
