"""Primitive parts of F-sequence prefixes, one bounded memo of results
computed from a prefix, and the GCD-morphism certificate built on the parts.

For a prefix F_1..F_n the primitive part P_d = F_d / prod(P_e for e | d,
e < d), so F_m = prod(P_d for d | m).  `sieve` is the only code that divides
the parts out.  `MEMO`, a `cobweb._memo.Memo` charged by `_Entry.bits`, keeps
one entry per value-stable rule and prefix length under the plain key
(rule, n), so value-equal custom sequences share one entry.  The
value-stable rules are the five built-ins (pure and stateless) and a custom
sequence's terms (whose key holds every value).  `entry` is the one lookup
and the only way into `MEMO`: it answers them from their entry before any
value is fetched, so a repeat fetches no values.  Any other rule is computed
afresh on every call and never kept.  `_Entry.kept` is the one fill: it
makes a result by name on first use, charges it by `_charge` and has the
memo charge the entry again.  The results are "parts" (`_Entry.parts`), the
certificate's first failure "b0" (`_Entry.first_failure`), the first
failing pair "witness" of `is_gcd_morphic`, every (n over j)_F that
`FNomialTable.fnomial` returns under j = min(k, n - k), and the Whitney row
"row", its sum B_n "sum" and the Bell table "bell" of `cobweb.prefab`; a
result that would take the entry past the memo's bound is returned but not
stored, and an error is raised afresh on every call.
`cobweb.fnomial._cli_rows` reads an entry's parts to decide when a CLI
table may stream, and when a table or prefab row may be computed in
`Decimal`.  The package imports this module on first use only, or with
`cobweb.prefab`, so no start-up path compiles it.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Sequence

from ._memo import Memo
from .sequences import DIV31, EVEN1, FIBONACCI, NATURALS, ODD, FSequence, _Terms

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
    """One prefix F_1..F_N, the charge of holding it, and `results`, each
    result computed from the prefix by name, with the bits it adds.  The
    table is replaced, never changed in place, so a reader never sees it
    grow."""

    __slots__ = ("vals", "held_bits", "results")

    def __init__(self, rule: Callable[[int], int], vals: list[int]) -> None:
        self.vals = vals
        # A custom sequence's key holds every term, and the memo holds one key
        # per entry, so the entry is charged those terms once; vals shares
        # their ints.
        self.held_bits = _bits(rule.vals if isinstance(rule, _Terms) else vals)
        self.results: dict[object, tuple[object, int]] = {}

    @property
    def bits(self) -> int:
        """The charge of everything the entry holds."""
        return self.held_bits + sum(bits for _, bits in self.results.values())

    def kept(self, name: object, compute: Callable[[_Entry], object]) -> object:
        """The result `name`, made on first use by compute(self) and stored,
        charged by _charge, unless the entry would then cost more than the
        memo may hold; the memo measures the entry again under its lock, so
        threads that fill it at once leave its charge exact.  An error
        compute raises is not kept, so each call raises it afresh."""
        if (kept := self.results.get(name)) is None:
            value = compute(self)
            kept = (value, _charge(value))
            if self.bits + kept[1] <= MEMO.limit:
                self.results = {**self.results, name: kept}
                MEMO.recharge(self, lambda: self.bits)
        return kept[0]

    def parts(self) -> tuple[list[int], int | None]:
        """sieve(self.vals), kept."""
        return self.kept("parts", lambda e: sieve(e.vals))

    def first_failure(self) -> int | None:
        """The first b <= N with P_b not an integer or gcd(P_b, prod(P_a for
        a < b, a ∤ b)) != 1, kept as "b0", or None: F is GCD-morphic on [1, N]."""

        def b0(e: _Entry) -> int | None:
            parts, bad = e.parts()
            return _certify(parts, len(e.vals) if bad is None else bad - 1) or bad

        return self.kept("b0", b0)


def _bits(xs: Collection[int]) -> int:
    return sum(map(int.bit_length, xs)) + INT_BITS * len(xs)


def _charge(result: object) -> int:
    """The bits of holding a result: every int it holds costs its bit length
    plus INT_BITS, and None costs 0.  A result is an int, None, a tuple or
    list of ints, or a pair of such, as the sieve's (parts, bad)."""
    if result is None:
        return 0
    if isinstance(result, int):
        return result.bit_length() + INT_BITS
    try:
        return _bits(result)  # ints alone, at C speed
    except TypeError:
        return sum(map(_charge, result))


MEMO = Memo(MEMO_BITS)

# The built-in rules by id, each pure and stateless, so it cannot change its
# values; held here, so no other object can take one of their ids.
_PURE = {id(rule): rule for rule in (NATURALS.rule, ODD.rule, EVEN1.rule, DIV31.rule,
                                     FIBONACCI.rule)}


def entry(seq: FSequence, n: int) -> _Entry:
    """The entry for F_1..F_n of seq, the memo's only door; ValueError when
    n < 0.  A value-stable rule, a built-in or a custom sequence's terms
    within its limit, has its entry kept under (rule, n), and answered before
    any value is fetched.  Any other rule gets a fresh entry, never stored,
    so its values are fetched and its results computed on every call."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rule = seq.rule
    if not ((type(rule) is _Terms or id(rule) in _PURE) and (seq.limit is None or n <= seq.limit)):
        return _Entry(rule, seq.values(n))
    key = (rule, n)
    if (e := MEMO.get(key)) is None:
        e = _Entry(rule, seq.values(n))
        MEMO.put(key, e, e.bits)
    return e
