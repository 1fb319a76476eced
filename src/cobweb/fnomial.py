"""Exact big-integer F-factorials and F-nomial coefficients, plus ballot and
Catalan path counts backed by a brute-force string oracle.

Everything is exact integer arithmetic; there are no floating-point paths.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, IndexOutOfDomain, NonIntegral

if TYPE_CHECKING:
    from .sequences import FSequence

__all__ = [
    "FNomialTable",
    "BallotCount",
    "catalan",
    "ballot",
    "dominated_strings_brute",
    "BRUTE_LENGTH_BUDGET",
]

# Exhaustive string-enumeration bound for the oracle (2^(n+k)-style work).
BRUTE_LENGTH_BUDGET = 28

# Estimated result bits from which FNomialTable.fnomial builds the result from
# primitive parts rather than dividing the falling product by F_k!.
_KERNEL_BITS = 12_000


def _prod(xs: Sequence[int]) -> int:
    """The product of xs, split in halves so that big factors meet big factors."""
    if len(xs) <= 16:
        return math.prod(xs)
    mid = len(xs) // 2
    return _prod(xs[:mid]) * _prod(xs[mid:])


def non_integral(vals: Sequence[int], n: int, k: int) -> NonIntegral:
    """The error for a non-integral (n over k)_F, carrying the canonical
    quotient F_n!/(F_k! F_{n-k}!); vals holds at least F_1..F_n."""
    return NonIntegral(_prod(vals[:n]), _prod(vals[:k]) * _prod(vals[: n - k]))


class FNomialTable:
    """Exact F-factorials and F-nomial coefficients of one sequence.

    F_0! = 1 and F_n! = F_1 * F_2 * ... * F_n.  The table keeps no state of
    its own, so concurrent queries are safe and deterministic.  Coefficients
    divide no factorials: a single one is a falling product over F_k!, or,
    once its estimated size reaches _KERNEL_BITS, a product of primitive
    parts; a triangle row follows from the row ratio.  Every division is
    checked.
    """

    def __init__(self, seq: FSequence) -> None:
        self.seq = seq

    def f_factorial(self, n: int) -> int:
        """F_n!, exactly, as a balanced product of F_1..F_n."""
        if n < 0:
            raise IndexOutOfDomain(f"factorial index must be >= 0, got {n}")
        return _prod(self.seq.values(n))

    def fnomial(self, n: int, k: int) -> int:
        """The coefficient (n over k)_F = F_n F_{n-1} ... F_{n-k+1} / F_k!;
        0 outside 0 <= k <= n.

        By symmetry the shorter of the two falling products is taken.  When
        its bit lengths estimate the result at _KERNEL_BITS or more and every
        primitive part P_d of F_1..F_n is an integer, the result is the
        product of the P_d with floor(n/d) - floor(k/d) - floor((n-k)/d) = 1
        (the exponent is 0 or 1): no large product is divided.  The parts
        come from the memo in cobweb._parts, one entry per rule and n.
        Otherwise the one division is checked rather than assumed: sequences
        that are not GCD-morphic can make it non-integral, which raises
        NonIntegral with the quotient F_n!/(F_k! F_{n-k}!).
        """
        if k < 0 or k > n:
            return 0
        vals = self.seq.values(n)
        j = min(k, n - k)
        top, bottom = vals[n - j :], vals[:j]
        if sum(map(int.bit_length, top)) - sum(map(int.bit_length, bottom)) >= _KERNEL_BITS:
            from . import _parts

            parts, bad = _parts.parts(self.seq.rule, vals)
            if bad is None:
                return _prod([parts[d] for d in range(2, n + 1) if n // d - k // d - (n - k) // d])
        q, r = divmod(_prod(top), _prod(bottom))
        if r:
            raise non_integral(vals, n, k)
        return q

    def rows(self, n_max: int) -> Iterator[list[int]]:
        """The triangle rows [(n over 0)_F, ..., (n over n)_F] for n = 0..n_max, or
        ValueError when read if n_max < 0.

        Each row follows from (n over k+1)_F = (n over k)_F * F_{n-k} / F_{k+1}
        up to the middle and is mirrored beyond it.  F_n is fetched when row n
        starts, and a non-integral entry raises at its first (n, k) in
        row-major order, as a walk over single coefficients would.
        """
        if n_max < 0:
            raise ValueError(f"need n_max >= 0, got {n_max}")
        vals: list[int] = []
        for n in range(n_max + 1):
            if n:
                vals.append(self.seq.value(n))
            row = [1]
            for k in range(n // 2):
                q, r = divmod(row[-1] * vals[n - k - 1], vals[k])
                if r:
                    raise non_integral(vals, n, k + 1)
                row.append(q)
            yield row + row[: (n + 1) // 2][::-1]


class BallotCount(NamedTuple):
    """Count of 0-dominated binary strings with n zeros and k ones."""

    k: int
    n: int
    count: int


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n)/(n + 1): the ballot diagonal."""
    if n < 0:
        raise ValueError(f"catalan index must be >= 0, got {n}")
    return ballot(n, n).count


def ballot(k: int, n: int) -> BallotCount:
    """Ballot number: 0-dominated strings with n zeros and k ones.

    Closed form ((n - k + 1)/(n + 1)) * C(n + k, k) for k <= n, zero
    otherwise; pinned to dominated_strings_brute by the test suite.
    """
    if k < 0 or n < 0:
        raise ValueError(f"ballot arguments must be >= 0, got k={k}, n={n}")
    if k > n:
        return BallotCount(k, n, 0)
    q, r = divmod((n - k + 1) * math.comb(n + k, k), n + 1)
    assert r == 0, (k, n)
    return BallotCount(k, n, q)


def dominated_strings_brute(k: int, n: int) -> int:
    """Oracle: count 0-dominated strings with n zeros and k ones by explicit
    enumeration of every arrangement.

    A string is 0-dominated when every prefix holds at least as many 0's as
    1's.  With the ones at sorted positions p_1 < ... < p_k, the prefix
    through p_j holds j ones and p_j + 1 - j zeros, so domination is
    p_j >= 2j - 1 for every j.
    """
    if k < 0 or n < 0:
        raise ValueError(f"string counts need k, n >= 0, got k={k}, n={n}")
    if n + k > BRUTE_LENGTH_BUDGET:
        raise BudgetExceeded(
            f"string length {n + k} exceeds the enumeration budget {BRUTE_LENGTH_BUDGET}"
        )
    count = 0
    for ones in combinations(range(n + k), k):
        if all(p >= 2 * j - 1 for j, p in enumerate(ones, 1)):
            count += 1
    return count
