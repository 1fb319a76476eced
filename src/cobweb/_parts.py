"""Primitive parts of F-sequence prefixes, one bounded memo of results
computed from a prefix, and the GCD-morphism certificate built on the parts.

For a prefix F_1..F_n the primitive part P_d = F_d / prod(P_e for e | d,
e < d), so F_m = prod(P_d for d | m).  `sieve` is the only code that divides
the parts out.  `MEMO`, a `cobweb._memo.Memo` charged by `_Entry.bits`, keeps
one entry per sequence rule and prefix length, so value-equal custom
sequences share one entry; a lookup hashes the rule once, and a custom
rule hashes its length and a few terms.  The value-stable rules, the five
built-ins (pure and stateless) and a custom sequence's terms (whose key
holds every value), are answered from their entry before any value is
fetched, so a repeat on one fetches no values; any other rule's values are
fetched and compared, and an entry answers only the values it was built
from.  `_result` fills an entry's result table on first use: "parts" for
`parts`, the certificate's first failure "b0" for `first_failure`, the
first failing pair "witness" of a failing `witness` (`is_gcd_morphic`),
every (n over j)_F that `coefficient` returns (`FNomialTable.fnomial`, by
the kernel or the falling product) under j = min(k, n - k), and the
Whitney row "row", its sum B_n "sum" and the Bell table "bell" for `kept`
(`cobweb.prefab`); a result that would take the entry past the memo's bound
is returned but not stored, and an error is raised afresh on every call.
`integral_up_to` tells the CLI when a table may stream, and when a table
or prefab row may be computed in `Decimal`.  The package imports
this module on first use only, so no start-up path compiles it.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Sequence

from ._memo import Memo
from .errors import IndexOutOfDomain
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
    """One stored prefix F_1..F_N, the charge of holding it, and `results`,
    each result computed from the prefix by name, with the bits it adds.  The
    table is replaced, never changed in place, so a reader never sees it
    grow."""

    __slots__ = ("vals", "held_bits", "results")

    def __init__(self, rule: Callable[[int], int], vals: list[int]) -> None:
        self.vals = vals
        # Charged per entry: `Memo.get` keeps each caller's key, so its own tuple.
        self.held_bits = _bits(rule.vals if isinstance(rule, _Terms) else vals)
        self.results: dict[object, tuple[object, int]] = {}

    @property
    def bits(self) -> int:
        """The charge of everything the entry holds."""
        return self.held_bits + sum(bits for _, bits in self.results.values())


def _bits(xs: Collection[int]) -> int:
    return sum(map(int.bit_length, xs)) + INT_BITS * len(xs)


class _Key(tuple):
    """The memo key (rule, N), hashed once, as the memo hashes a key on every
    read and store."""

    def __new__(cls, rule: Callable[[int], int], n: int) -> _Key:
        key = super().__new__(cls, (rule, n))
        key.hash = tuple.__hash__(key)  # TypeError for an unhashable rule
        return key

    def __hash__(self) -> int:
        return self.hash


MEMO = Memo(MEMO_BITS)

# The built-in rules by id, each pure and stateless, so it cannot change its
# values; held here, so no other object can take one of their ids.
_PURE = {id(rule): rule for rule in (NATURALS.rule, ODD.rule, EVEN1.rule, DIV31.rule,
                                     FIBONACCI.rule)}


def _value_stable(seq: FSequence, n: int) -> bool:
    """True when an entry stored under (seq.rule, n) holds F_1..F_n of seq
    without a look at them: seq reaches n, and its rule is a built-in or a
    custom sequence's terms, whose key holds every value it answers."""
    rule = seq.rule
    return (type(rule) is _Terms or id(rule) in _PURE) and (seq.limit is None or n <= seq.limit)


def _entry(seq: FSequence, n: int) -> _Entry:
    """The entry for F_1..F_n of seq under (rule, n).  A stored one answers a
    value-stable rule before any value is fetched; for any other rule the
    values are fetched, and the stored entry answers only when its values
    equal them, so a rule whose values change gets fresh results.  Without
    such an entry, a fresh one is made and stored in its place."""
    try:
        key = _Key(seq.rule, n)
    except TypeError:
        return _Entry(seq.rule, seq.values(n))
    old = MEMO.get(key)
    if old is not None and _value_stable(seq, n):
        return old
    vals = seq.values(n)
    if old is not None and old.vals == vals:
        return old
    new = _Entry(seq.rule, vals)
    MEMO.put(key, new, new.bits)
    return new


def _result(e: _Entry, name: object, compute: Callable[[], tuple[object, int]]) -> object:
    """e's result `name`, made on first use by compute() as (value, the bits
    it adds) and stored unless e would then cost more than the memo may hold;
    the memo measures e again under its lock, so threads that fill e at once
    leave its charge exact."""
    if (kept := e.results.get(name)) is None:
        kept = compute()
        if e.bits + kept[1] <= MEMO.limit:
            e.results = {**e.results, name: kept}
            MEMO.recharge(e, lambda: e.bits)
    return kept[0]


def _sieved(e: _Entry) -> tuple[list[int], int | None]:
    """sieve(e.vals), kept on e."""
    return _result(e, "parts", lambda: (sieved := sieve(e.vals), _bits(sieved[0])))


def parts(seq: FSequence, n: int) -> tuple[list[int], int | None]:
    """sieve(seq.values(n)) through the memo."""
    return _sieved(_entry(seq, n))


def _first_failure(e: _Entry, n: int) -> int | None:
    """first_failure on the entry e for F_1..F_n."""

    def b0() -> tuple[int | None, int]:
        parts, bad = _sieved(e)
        return _certify(parts, n if bad is None else bad - 1) or bad, 0

    return _result(e, "b0", b0)


def first_failure(seq: FSequence, n: int) -> int | None:
    """The first b <= n at which P_b of seq is not an integer or
    gcd(P_b, prod(P_a for a < b, a ∤ b)) != 1, or None: then F is
    GCD-morphic on [1, n], and otherwise on [1, b - 1]."""
    return _first_failure(_entry(seq, n), n)


def witness(
    seq: FSequence, n: int, scan: Callable[[list[int], int], tuple[int, ...] | None]
) -> tuple[int, ...] | None:
    """None when first_failure(seq, n) is None; otherwise scan(vals, b0) for
    vals = F_1..F_n of seq and that first failure b0, kept on the entry for
    vals as "witness", so a repeat neither fetches the values nor scans."""
    e = _entry(seq, n)
    if (b0 := _first_failure(e, n)) is None:
        return None
    return _result(e, "witness", lambda: (w := scan(e.vals, b0), 0 if w is None else _bits(w)))


def coefficient(
    seq: FSequence,
    n: int,
    j: int,
    compute: Callable[[list[int], Callable[[], tuple[list[int], int | None]]], int],
) -> int:
    """(n over j)_F of seq, kept on the entry for F_1..F_n under j and made on
    first use by compute(vals, sieved), where sieved() gives the parts of
    vals as `parts` does, kept on the same entry; an error compute raises is
    not kept, so each call raises it afresh."""
    e = _entry(seq, n)
    return _result(e, j, lambda: (c := compute(e.vals, lambda: _sieved(e)), _bits((c,))))


def kept(
    seq: FSequence, n: int, name: str, compute: Callable[[list[int], Callable], object]
) -> object:
    """The prefab result `name` of the entry for F_1..F_n of seq (the Whitney
    row "row", its sum "sum" or the Bell table "bell"), made on first use by
    compute(vals, read), where read(name, compute) reads another result of
    the same entry the same way; an error compute raises is not kept, so
    each call raises it afresh."""
    e = _entry(seq, n)

    def read(name: str, compute: Callable) -> object:
        def made() -> tuple[object, int]:
            value = compute(e.vals, read)
            return value, _bits(value if isinstance(value, tuple) else (value,))

        return _result(e, name, made)

    return read(name, compute)


def integral_up_to(seq: FSequence, n_max: int) -> bool:
    """True when P_1..P_{n_max} of seq are all integers.  Then every
    (n over k)_F with n <= n_max is a product of parts with exponents 0 or 1
    (see FNomialTable.fnomial), so no F-nomial table or Bell sum up to n_max
    can raise NonIntegral.  False when n_max < 0 or seq stops before n_max."""
    if n_max < 0:
        return False
    try:
        return parts(seq, n_max)[1] is None
    except IndexOutOfDomain:
        return False
