"""Primitive parts of F-sequence prefixes, one bounded memo of them, and the
GCD-morphism certificate built on them.

For a prefix F_1..F_n the primitive part P_d = F_d / prod(P_e for e | d,
e < d), so F_m = prod(P_d for d | m).  `sieve` is the only code that divides
the parts out.  `parts` (the F-nomial kernel) and `first_failure`
(`is_gcd_morphic`) read it through `MEMO`, a `cobweb._memo.Memo` charged by
`_Entry.bits` and keyed by the sequence's rule, so value-equal custom
sequences share one entry; `integral_up_to` tells the CLI when a table may
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


def _certify(parts: list[int], lo: int, hi: int) -> int | None:
    """The first b in [lo, hi] with gcd(P_b, prod(P_a for a < b, a ∤ b)) != 1,
    or None; P_1..P_hi must be integers."""
    seen = [(a, p) for a in range(2, lo) if (p := parts[a]) != 1]
    for b in range(lo, hi + 1):
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
    """The parts of one stored prefix and how far its certificate is known."""

    __slots__ = ("vals", "parts", "bad", "cert", "bits")

    def __init__(self, rule: Callable[[int], int], vals: list[int],
                 cert: tuple[int, int | None] = (1, None)) -> None:
        self.vals = vals
        self.parts, bad = sieve(vals)
        self.bad = len(vals) + 1 if bad is None else bad
        # (checked, b0): the certificate holds at every b <= checked, and b0
        # is the first b where it fails (a non-integral part included), or None.
        self.cert = cert
        held = rule.vals if isinstance(rule, _Terms) else vals  # a custom key holds its values
        self.bits = sum(map(int.bit_length, held)) + sum(map(int.bit_length, self.parts))
        self.bits += INT_BITS * (len(held) + len(self.parts))


MEMO = Memo(MEMO_BITS)


def _entry(rule: Callable[[int], int], vals: list[int]) -> _Entry:
    """An entry whose parts are exact for vals = [F_1, ..., F_n] up to
    min(n, bad - 1), sieving and storing one unless the memo holds one whose
    values agree with vals, so a rule whose values change gets fresh parts."""
    try:
        hash(rule)
    except TypeError:
        return _Entry(rule, vals)
    old = MEMO.get(rule)
    cert = (1, None)
    if old is not None:
        n, held = len(vals), len(old.vals)
        if n <= held:
            if old.vals[:n] == vals:
                return old
        elif vals[:held] == old.vals:
            if old.bad <= held:  # the first non-integral part is already known
                return old
            cert = old.cert  # the certificate reads P_1..P_b only
    new = _Entry(rule, vals, cert)
    MEMO.put(rule, new, new.bits)
    return new


def parts(rule: Callable[[int], int], vals: list[int]) -> tuple[list[int], int | None]:
    """sieve(vals) through the memo: parts[d] is P_d for every d <= len(vals)
    below bad, and the list may run longer."""
    e = _entry(rule, vals)
    return e.parts, (e.bad if e.bad <= len(vals) else None)


def first_failure(rule: Callable[[int], int], vals: list[int]) -> int | None:
    """The first b <= N = len(vals) at which P_b is not an integer or
    gcd(P_b, prod(P_a for a < b, a ∤ b)) != 1, or None: then F is
    GCD-morphic on [1, N], and otherwise on [1, b - 1]."""
    n = len(vals)
    e = _entry(rule, vals)
    checked, b0 = e.cert
    if b0 is not None and b0 <= n:
        return b0
    if checked >= n:
        return None
    b0 = _certify(e.parts, checked + 1, min(n, e.bad - 1))
    if b0 is None and e.bad <= n:
        b0 = e.bad
    cert = (n, None) if b0 is None else (b0 - 1, b0)
    with MEMO.lock:  # record the progress, unless the entry knows as much
        if e.cert[1] is None and cert[0] >= e.cert[0]:
            e.cert = cert
    return b0


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
