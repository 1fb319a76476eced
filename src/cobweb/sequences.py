"""F-sequences: positive integer sequences F_1, F_2, ... that set the level
widths of every cobweb and the weights of every F-nomial.

Built-ins are pure functions of the 1-based index and keep no state;
custom sequences come from an explicit list of values (usually loaded from a
text file, one value per line) and refuse queries beyond their bound.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

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


class _Fibonacci:
    """F_s by fast doubling: O(log s) multiplications, and nothing kept."""

    def __call__(self, s: int) -> int:
        a, b = 0, 1  # F_k, F_k+1 for k the bits of s read so far
        for bit in bin(s)[2:]:
            a, b = a * (2 * b - a), a * a + b * b  # F_2k, F_2k+1
            if bit == "1":
                a, b = b, a + b
        return a

    def prefix(self, count: int) -> list[int]:  # F_1..F_count by the addition loop
        vals = [1, 1]
        while len(vals) < count:
            vals.append(vals[-1] + vals[-2])
        return vals[:count]

    def __reduce__(self) -> str:  # copy and pickle give back the one instance
        return "_FIBONACCI_RULE"


_FIBONACCI_RULE = _Fibonacci()


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
        """The prefix [F_1, ..., F_count], by the rule's own ``prefix`` if it
        has one; ValueError if count < 0, and past the limit it raises as
        value() does at the first index beyond it."""
        if count < 0:
            raise ValueError(f"need count >= 0, got {count}")
        if self.limit is not None and count > self.limit:
            self.value(self.limit + 1)
        if hasattr(self.rule, "prefix"):
            return self.rule.prefix(count)
        return list(map(self.rule, range(1, count + 1)))


NATURALS = FSequence("naturals", lambda s: s)
ODD = FSequence("odd", lambda s: 2 * s - 1)
EVEN1 = FSequence("even1", lambda s: 1 if s == 1 else 2 * (s - 1))
DIV31 = FSequence("div31", lambda s: 1 if s == 1 else 3 * (s - 1))
FIBONACCI = FSequence("fibonacci", _FIBONACCI_RULE)

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
    holding F_s.  Blank lines are ignored; any other line that is not ASCII
    digits after an optional sign is refused."""
    vals = []
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                if not text.lstrip("+-").isdigit():
                    raise ValueError
                v = int(text)
            except ValueError:
                got = repr(text) if len(text) <= 32 else f"{text[:32]!r}… ({len(text)} characters)"
                why = "expected an integer"
                if text.isdigit():  # int() refuses digits only past its limit
                    why = f"{len(text)} digits are past the interpreter's int digit limit"
                raise ValueError(f"{path}:{lineno}: {why}, got {got}") from None
            if v < 1:
                raise ValueError(f"{path}:{lineno}: values must be positive, got {v}")
            vals.append(v)
    if not vals:
        raise ValueError(f"{path}: custom sequence needs at least one value")
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

    A certificate settles most inputs without the pair scan.  Write F_n as
    the product of the primitive parts P_d over d | n.  If every P_b with
    b <= range_max is an integer and gcd(P_b, prod(P_a for a < b, a ∤ b)) = 1,
    F is GCD-morphic on [1, range_max]: for each prime p the indices d with
    p | P_d form a chain under divisibility, and the members of a chain that
    divide n form a prefix of it, so min(v_p(F_n), v_p(F_m)) = v_p(F_gcd(n, m)).
    When the certificate first fails at b0, [1, b0 - 1] is GCD-morphic, so
    the scan starts each n at m = max(n + 1, b0).  The pair (n, n) always
    holds and (n, m) fails exactly when (m, n) does, so only n < m is
    scanned; the smallest failing such pair is also the lexicographically
    smallest over the whole square.  The parts and b0 are memoized per rule
    and range_max (value-equal custom sequences share one entry), within
    2**25 charged bits, least recently used out first.
    """
    if range_max < 2:
        raise InvalidBounds(f"range_max must be >= 2, got {range_max}")
    vals = seq.values(range_max)
    from . import _parts

    b0 = _parts.first_failure(seq.rule, vals)
    if b0 is not None:
        for n in range(1, range_max + 1):
            for m in range(max(n + 1, b0), range_max + 1):
                g = math.gcd(vals[n - 1], vals[m - 1])
                expected = vals[math.gcd(n, m) - 1]
                if g != expected:
                    return GcdMorphicReport(False, (n, m), g, expected)
    return GcdMorphicReport(True)
