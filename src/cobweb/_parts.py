"""Primitive parts of F-sequence prefixes, one bounded memo of results
computed from a prefix, and the GCD-morphism certificate built on the parts.

For a prefix F_1..F_n the primitive part P_d = F_d / prod(P_e for e | d,
e < d), so F_m = prod(P_d for d | m).  `sieve` is the only code that divides
the parts out.  `MEMO`, a `cobweb._memo.Memo` charged by `_Entry.bits`, keeps
one entry per sequence rule and prefix length, so value-equal custom
sequences share one entry and an entry answers only the values it was built
from; a lookup hashes the rule once.  An entry fills each result on first
use: the parts for `parts`, the certificate's first failure for
`first_failure` (`is_gcd_morphic`), the F-nomial kernel's coefficients
(n over j)_F, j = min(k, n - k), for `coefficient`, and the Whitney row and
Bell table for `kept` (`cobweb.prefab`); a result that would take the entry
past the memo's bound is returned but not stored.  `integral_up_to` tells
the CLI when a table may stream.  The package imports this module on first
use only, so no start-up path compiles it.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Sequence

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
    """One stored prefix F_1..F_N and what has been computed from it, each
    filled on first use: its parts and the first index bad where they fail,
    the first b0 where its certificate fails, the kernel coefficients
    (N over j)_F by j, and the prefab Whitney row W(N, 0..N//2) and Bell
    table B_0..B_N of `cobweb.prefab`."""

    __slots__ = ("vals", "held_bits", "parts", "bad", "b0", "coefficients", "row", "bell")

    def __init__(self, rule: Callable[[int], int], vals: list[int]) -> None:
        self.vals = vals
        # A custom sequence's key holds all of its values.
        self.held_bits = _bits(rule.vals if isinstance(rule, _Terms) else vals)
        self.parts: list[int] | None = None
        self.bad: int | None = None
        self.b0: int | None = 0  # 0 until first_failure computes it
        # Replaced, never changed in place, so a reader never sees it grow.
        self.coefficients: dict[int, int] = {}
        self.row: tuple[int, ...] | None = None
        self.bell: tuple[int, ...] | None = None

    @property
    def bits(self) -> int:
        """The charge of everything the entry holds."""
        held = (self.parts, self.coefficients.values(), self.row, self.bell)
        return self.held_bits + sum(_bits(xs) for xs in held if xs)


def _bits(xs: Collection[int]) -> int:
    return sum(map(int.bit_length, xs)) + INT_BITS * len(xs)


class _Key(tuple):
    """The memo key (rule, N), hashed once: a custom rule hashes all of its
    terms, and the memo hashes a key on every read and store."""

    def __new__(cls, rule: Callable[[int], int], n: int) -> _Key:
        key = super().__new__(cls, (rule, n))
        key.hash = tuple.__hash__(key)  # TypeError for an unhashable rule
        return key

    def __hash__(self) -> int:
        return self.hash


MEMO = Memo(MEMO_BITS)


def _entry(rule: Callable[[int], int], vals: list[int]) -> _Entry:
    """The entry for vals = [F_1, ..., F_n] under (rule, n): the stored one
    when its values equal vals, else a fresh one that replaces it, so a rule
    whose values change gets fresh results."""
    try:
        key = _Key(rule, len(vals))
    except TypeError:
        return _Entry(rule, vals)
    old = MEMO.get(key)
    if old is not None and old.vals == vals:
        return old
    new = _Entry(rule, vals)
    MEMO.put(key, new, new.bits)
    return new


def _fill(e: _Entry, name: str, value: object, bits: int) -> None:
    """Store value as e.<name>, which adds bits to what e holds, and charge e
    again, unless e would then cost more than the memo may hold.  Threads
    that fill one entry at once each charge it again until the charge they
    made is what it holds."""
    if e.bits + bits > MEMO.limit:
        return
    setattr(e, name, value)
    while True:
        charge = e.bits
        MEMO.recharge(e, charge)
        if e.bits == charge:
            return


def _sieved(e: _Entry) -> tuple[list[int], int | None]:
    """sieve(e.vals), kept on e from its first use."""
    if e.parts is None:
        parts, e.bad = sieve(e.vals)  # threads that race here store equal values
        _fill(e, "parts", parts, _bits(parts))
        return parts, e.bad
    return e.parts, e.bad


def parts(rule: Callable[[int], int], vals: list[int]) -> tuple[list[int], int | None]:
    """sieve(vals) through the memo."""
    return _sieved(_entry(rule, vals))


def first_failure(rule: Callable[[int], int], vals: list[int]) -> int | None:
    """The first b <= N = len(vals) at which P_b is not an integer or
    gcd(P_b, prod(P_a for a < b, a ∤ b)) != 1, or None: then F is
    GCD-morphic on [1, N], and otherwise on [1, b - 1]."""
    e = _entry(rule, vals)
    if e.b0 == 0:  # threads that race here store equal values
        parts, bad = _sieved(e)
        e.b0 = _certify(parts, len(vals) if bad is None else bad - 1) or bad
    return e.b0


def coefficient(
    rule: Callable[[int], int], vals: list[int], j: int, kernel: Callable[[list[int]], int]
) -> int | None:
    """The coefficient (N over j)_F, N = len(vals), as kernel(parts) of the
    entry for vals, kept on it under j; None, with nothing kept, when some
    P_d with d <= N is not an integer."""
    e = _entry(rule, vals)
    if (c := e.coefficients.get(j)) is None:
        parts, bad = _sieved(e)
        if bad is not None:
            return None
        c = kernel(parts)
        _fill(e, "coefficients", {**e.coefficients, j: c}, _bits((c,)))
    return c


def kept(
    rule: Callable[[int], int], vals: list[int], name: str, compute: Callable[[], tuple[int, ...]]
) -> tuple[int, ...]:
    """The prefab result `name` ("row" or "bell") of the entry for vals, made
    by compute() on first use; an error it raises is not kept, so each call
    raises it afresh."""
    e = _entry(rule, vals)
    value = getattr(e, name)
    if value is None:
        value = compute()
        _fill(e, name, value, _bits(value))
    return value


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
