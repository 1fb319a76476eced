"""Primitive parts of F-sequence prefixes, one bounded memo of them, and the
GCD-morphism certificate built on them.

For a prefix F_1..F_n the primitive part P_d = F_d / prod(P_e for e | d,
e < d), so F_m = prod(P_d for d | m).  `sieve` is the only code that divides
the parts out.  `parts` (the F-nomial kernel) and `first_failure`
(`is_gcd_morphic`) read it through `MEMO`, a `cobweb._memo.Memo` charged by
`_Entry.bits` and keyed by the sequence's rule and the prefix length, so
value-equal custom sequences share one entry and an entry answers only the
values it was built from; `integral_up_to` tells the CLI when a table may
stream.  The package imports this module on first use only, so no start-up
path compiles it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._memo import Memo
from .errors import IndexOutOfDomain
from .sequences import FSequence, _Terms

# Bits the memo may hold: each stored int is charged its bit length plus
# INT_BITS, about what its object header and its list slot take (36 bytes on
# 64-bit CPython).
MEMO_BITS = 1 << 25
INT_BITS = 288


def sieve(vals: Sequence[int]) -> tuple[list[int], int | None]:
    """([1, P_1, ..., P_n], bad) for vals = [F_1, ..., F_n], where bad is the
    smallest m whose P_m is not an integer, or None.  P_1..P_{bad-1} are
    exact; the entries from bad on are not parts.

    Each final P_d divides its multiples below bad, and a remainder at m
    lowers bad to m, so a small m that fails after a larger one still wins.
    """
    parts = [1, *vals]
    bad = len(parts)
    d = 1
    while 2 * d < bad:
        if (p := parts[d]) != 1:
            for m in range(2 * d, bad, d):
                parts[m], r = divmod(parts[m], p)
                if r:
                    bad = m
                    break
        d += 1
    return parts, (bad if bad < len(parts) else None)


def _certify(parts: list[int], hi: int) -> int | None:
    """The first b <= hi with gcd(P_b, prod(P_a for a < b, a ∤ b)) != 1, or
    None; P_1..P_hi must be integers."""
    seen: list[tuple[int, int]] = []
    for b in range(2, hi + 1):
        q = parts[b]
        if q == 1:
            continue
        r = 1
        for a, p in seen:
            if b % a:
                r = r * p % q
        if math.gcd(r, q) != 1:
            return b
        seen.append((b, q))
    return None


class _Entry:
    """The parts of one stored prefix and, once first_failure has asked, the
    first b where its certificate fails."""

    __slots__ = ("vals", "parts", "bad", "b0", "bits")

    def __init__(self, rule: Callable[[int], int], vals: list[int]) -> None:
        self.vals = vals
        self.parts, self.bad = sieve(vals)
        self.b0: int | None = 0  # 0 until first_failure computes it
        held = rule.vals if isinstance(rule, _Terms) else vals  # a custom key holds its values
        self.bits = sum(map(int.bit_length, held)) + sum(map(int.bit_length, self.parts))
        self.bits += INT_BITS * (len(held) + len(self.parts))


MEMO = Memo(MEMO_BITS)


def _entry(rule: Callable[[int], int], vals: list[int]) -> _Entry:
    """The entry for vals = [F_1, ..., F_n] under (rule, n): the stored one
    when its values equal vals, else a fresh sieve that replaces it, so a
    rule whose values change gets fresh parts."""
    try:
        hash(rule)
    except TypeError:
        return _Entry(rule, vals)
    key = (rule, len(vals))
    old = MEMO.get(key)
    if old is not None and old.vals == vals:
        return old
    new = _Entry(rule, vals)
    MEMO.put(key, new, new.bits)
    return new


def parts(rule: Callable[[int], int], vals: list[int]) -> tuple[list[int], int | None]:
    """sieve(vals) through the memo."""
    e = _entry(rule, vals)
    return e.parts, e.bad


def first_failure(rule: Callable[[int], int], vals: list[int]) -> int | None:
    """The first b <= N = len(vals) at which P_b is not an integer or
    gcd(P_b, prod(P_a for a < b, a ∤ b)) != 1, or None: then F is
    GCD-morphic on [1, N], and otherwise on [1, b - 1]."""
    e = _entry(rule, vals)
    if e.b0 == 0:  # threads that race here store equal values
        e.b0 = _certify(e.parts, len(vals) if e.bad is None else e.bad - 1) or e.bad
    return e.b0


def integral_up_to(seq: FSequence, n_max: int) -> bool:
    """True when P_1..P_{n_max} of seq are all integers.  Then every
    (n over k)_F with n <= n_max is a product of parts with exponents 0 or 1
    (see FNomialTable.fnomial), so no F-nomial table or Bell sum up to n_max
    can raise NonIntegral.  False when n_max < 0 or seq stops before n_max."""
    if n_max < 0:
        return False
    try:
        vals = seq.values(n_max)
    except IndexOutOfDomain:
        return False
    return parts(seq.rule, vals)[1] is None
