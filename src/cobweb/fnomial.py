"""Exact big-integer F-factorials and F-nomial coefficients, plus ballot and
Catalan path counts backed by a brute-force string oracle.

Everything is exact integer arithmetic; there are no floating-point paths.
`_cli_rows` is the one rule by which the CLI produces its F-nomial tables,
prefab Whitney rows and Bell tables: computed as they are written when the
primitive parts prove no entry non-integral, else listed in full; a large
certified table or row runs the same recurrences over integer Decimals, in a
context of `cobweb._digits` where any rounding raises.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, IndexOutOfDomain, NonIntegral

if TYPE_CHECKING:
    from ._parts import _Entry
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

# Estimated result bits (_estimated_bits) from which FNomialTable.fnomial
# builds the result from primitive parts rather than dividing the falling
# product by F_k!.
_KERNEL_BITS = 12_000

# Estimated bits of the largest entry of a certified table or prefab row from
# which the CLI computes it in Decimal (_cli_rows), so that no entry is
# converted from int to decimal text.
_DECIMAL_BITS = 3_000


def _prod(xs: Sequence[int]) -> int:
    """The product of xs, split in halves so that big factors meet big factors."""
    if len(xs) <= 16:
        return math.prod(xs)
    mid = len(xs) // 2
    return _prod(xs[:mid]) * _prod(xs[mid:])


def _kernel(parts: list[int], n: int, k: int) -> int:
    """(n over k)_F as the product of the primitive parts P_d, 2 <= d <= n,
    whose exponent floor(n/d) - floor(k/d) - floor((n-k)/d) is 1 (it is 0
    or 1); parts = [1, P_1, ..., P_n], all integers."""
    return _prod([parts[d] for d in range(2, n + 1) if n // d - k // d - (n - k) // d])


def _estimated_bits(vals: Sequence[int], n: int, k: int) -> int:
    """The estimated bit length of (n over k)_F, 0 <= k <= n <= len(vals)
    for vals = F_1, F_2, ...: the bits of F_{n-k+1}..F_n less those of
    F_1..F_k.  Every size switch reads it."""
    return sum(map(int.bit_length, vals[n - k : n])) - sum(map(int.bit_length, vals[:k]))


def _cli_rows(
    seq: FSequence,
    n_max: int,
    make: Callable[[FSequence], Iterable[Any]],
    largest: tuple[int, int] | None = None,
) -> Iterable[Any]:
    """The CLI's rows make(seq) of an F-nomial table, prefab Whitney row or
    Bell table over F_1..F_n_max, chosen by one fetch of the prefix and its
    certificate, `_parts.entry(seq, n_max)`.  When the primitive parts prove
    no entry non-integral: make over the prefix as exact Decimals, each row
    computed under the context of cobweb._digits, if the C `_decimal` core
    is loaded and the largest entry, (n over k)_F for largest = (n, k), is
    estimated at _DECIMAL_BITS or more; else make(seq), to be computed as it
    is written.  Otherwise, so also when n_max < 0 or seq stops before n_max,
    make(seq) in full, so that it raises its own first error before any
    output."""
    from . import _parts

    try:
        e = _parts.entry(seq, n_max)
        certified = e.parts()[1] is None
    except (IndexOutOfDomain, ValueError):
        certified = False
    if not certified:
        return list(make(seq))
    if largest is not None and _estimated_bits(e.vals, *largest) >= _DECIMAL_BITS:
        from . import _digits

        if _digits.EXACT is not None:
            from .sequences import FSequence

            dvals = [_digits.to_decimal(v) for v in e.vals]
            return _digits.exact_steps(make(FSequence(seq.name, lambda s: dvals[s - 1], n_max)))
    return make(seq)


def _exact(num: int, den: int, vals: Sequence[int], n: int, k: int) -> int:
    """num // den, or NonIntegral for (n over k)_F, carrying the canonical
    quotient F_n!/(F_k! F_{n-k}!), when den leaves a remainder; vals holds at
    least F_1..F_n.  Every F-nomial, row and Bell-sum division goes here,
    also those of the Decimal rows, for which divmod is exact under the
    context of cobweb._digits."""
    q, r = divmod(num, den)
    if r:
        raise NonIntegral(_prod(vals[:n]), _prod(vals[:k]) * _prod(vals[: n - k]))
    return q


class FNomialTable:
    """Exact F-factorials and F-nomial coefficients of one sequence.

    F_0! = 1 and F_n! = F_1 * F_2 * ... * F_n.  The table holds only its
    sequence.  Coefficients divide no factorials: a single one is a falling
    product over F_k!, or, once its estimated size reaches _KERNEL_BITS, a
    product of primitive parts, kept in the bounded memo of cobweb._parts
    that every table over a value-equal sequence shares; a triangle row
    follows from the row ratio.  Concurrent queries are safe and
    deterministic, and every division is checked.
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
        (the exponent is 0 or 1): no large product is divided.  Otherwise the
        one division is checked rather than assumed: sequences that are not
        GCD-morphic can make it non-integral, which raises NonIntegral with
        the quotient F_n!/(F_k! F_{n-k}!).

        A kernel-sized estimate loads the memo of cobweb._parts.  Once it is
        loaded, every result, by either product, is kept under
        j = min(k, n - k) on the entry for the rule and n, beside the parts,
        so a repeat, or n - k in place of k, reads it back: for a built-in or
        custom sequence before any value is fetched.  Any other rule is
        computed afresh and never kept.  A result past the memo's bound is
        returned but not kept, and a NonIntegral is raised afresh on every
        call.  Until the memo is loaded, nothing is kept.
        """
        if k < 0 or k > n:
            return 0
        j = min(k, n - k)

        def kernel_sized(vals: list[int]) -> bool:  # the estimate picks the kernel
            return _estimated_bits(vals, n, j) >= _KERNEL_BITS

        def falling(vals: list[int]) -> int:
            return _exact(_prod(vals[n - j :]), _prod(vals[:j]), vals, n, k)

        def compute(e: _Entry) -> int:
            if kernel_sized(e.vals):
                parts, bad = e.parts()
                if bad is None:
                    return _kernel(parts, n, j)
            return falling(e.vals)

        # Until cobweb._parts is loaded, no coefficient can be kept.
        parts = sys.modules.get(f"{__package__}._parts")
        if parts is None:
            vals = self.seq.values(n)
            if not kernel_sized(vals):
                return falling(vals)
            from . import _parts as parts
        return parts.entry(self.seq, n).kept(j, compute)

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
                row.append(_exact(row[-1] * vals[n - k - 1], vals[k], vals, n, k + 1))
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
