"""F-sequences: positive integer sequences F_1, F_2, ... that set the level
widths of every cobweb and the weights of every F-nomial.

Built-ins are pure functions of the 1-based index; custom sequences come from
an explicit list of values (usually loaded from a text file, one value per
line) and refuse queries beyond their bound.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import IndexOutOfDomain, InvalidBounds

__all__ = [
    "FSequence",
    "GcdMorphicReport",
    "NATURALS",
    "ODD",
    "EVEN1",
    "DIV31",
    "FIBONACCI",
    "BUILTIN_SEQUENCES",
    "from_values",
    "from_file",
    "is_gcd_morphic",
]

_fib_lock = threading.Lock()
_fib_values = [1, 1]  # F_1, F_2; extended on demand, never evicted


def _fib(s: int) -> int:
    if s > len(_fib_values):
        with _fib_lock:
            while len(_fib_values) < s:
                _fib_values.append(_fib_values[-1] + _fib_values[-2])
    return _fib_values[s - 1]


class FSequence(NamedTuple):
    """A positive integer sequence addressed by 1-based index."""

    name: str
    rule: Callable[[int], int]
    limit: int | None = None  # custom sequences only; None means total

    def __repr__(self) -> str:  # the rule is left out
        return f"FSequence(name={self.name!r}, limit={self.limit!r})"

    def value(self, s: int) -> int:
        """F_s for s >= 1."""
        if s < 1:
            raise IndexOutOfDomain(f"sequence index must be >= 1, got {s}")
        if self.limit is not None and s > self.limit:
            raise IndexOutOfDomain(
                f"sequence {self.name!r} is defined up to index {self.limit}, got {s}"
            )
        return self.rule(s)

    def values(self, count: int) -> list[int]:
        """The prefix [F_1, ..., F_count]."""
        return [self.value(s) for s in range(1, count + 1)]


NATURALS = FSequence("naturals", lambda s: s)
ODD = FSequence("odd", lambda s: 2 * s - 1)
EVEN1 = FSequence("even1", lambda s: 1 if s == 1 else 2 * (s - 1))
DIV31 = FSequence("div31", lambda s: 1 if s == 1 else 3 * (s - 1))
FIBONACCI = FSequence("fibonacci", _fib)

BUILTIN_SEQUENCES: dict[str, FSequence] = {
    seq.name: seq for seq in (NATURALS, ODD, EVEN1, DIV31, FIBONACCI)
}


class _Terms(NamedTuple):
    """The rule of a custom sequence.  It compares by its values, so
    value-equal custom sequences are equal and share every cache keyed by
    the sequence."""

    vals: tuple[int, ...]

    def __call__(self, s: int) -> int:
        return self.vals[s - 1]


def from_values(name: str, values: Iterable[int]) -> FSequence:
    """Custom sequence from an explicit list; index s maps to values[s-1]."""
    vals = tuple(values)
    if not vals:
        raise ValueError("custom sequence needs at least one value")
    for i, v in enumerate(vals, 1):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"value at index {i} must be a positive integer, got {v!r}")
    return FSequence(name, _Terms(vals), limit=len(vals))


def from_file(path: str) -> FSequence:
    """Load a custom sequence: one positive decimal integer per line, line s
    holding F_s.  Blank lines are ignored."""
    vals = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                v = int(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected an integer, got {text!r}") from None
            if v < 1:
                raise ValueError(f"{path}:{lineno}: values must be positive, got {v}")
            vals.append(v)
    return from_values(f"file:{path}", vals)


class GcdMorphicReport(NamedTuple):
    """Outcome of the exhaustive GCD-morphism check.

    When ``holds`` is false, ``witness`` is the lexicographically smallest
    violating index pair (n, m), ``gcd_of_values`` is GCD[F_n, F_m] and
    ``f_at_gcd`` is F_GCD[n, m]; the two values differ.
    """

    holds: bool
    witness: tuple[int, int] | None = None
    gcd_of_values: int | None = None
    f_at_gcd: int | None = None


def is_gcd_morphic(seq: FSequence, range_max: int) -> GcdMorphicReport:
    """Check GCD[F_n, F_m] = F_GCD[n, m] for all 1 <= n, m <= range_max.

    The pair (n, n) always holds and (n, m) fails exactly when (m, n) does,
    so only n < m is scanned; the smallest failing such pair is also the
    lexicographically smallest over the whole square.
    """
    if range_max < 2:
        raise InvalidBounds(f"range_max must be >= 2, got {range_max}")
    vals: Sequence[int] = [seq.value(s) for s in range(1, range_max + 1)]
    for n in range(1, range_max + 1):
        for m in range(n + 1, range_max + 1):
            g = math.gcd(vals[n - 1], vals[m - 1])
            expected = vals[math.gcd(n, m) - 1]
            if g != expected:
                return GcdMorphicReport(False, (n, m), g, expected)
    return GcdMorphicReport(True)
