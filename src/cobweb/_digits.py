"""Exact decimal text for integers of any size, and an exact `Decimal`
context for the CLI's large rows.

Only the paths that need it load this module: the renderer's retry for an
int past the interpreter's int-to-str digit limit, and the certified
F-nomial tables and prefab Whitney rows that the CLI builds in `Decimal`.
The digit limit is never changed.

With the C `_decimal` core, `to_decimal` converts an int in subquadratic
time: the int is split by bits at multiples of _CHUNK_BITS, each chunk is
converted by one Decimal() call, and the pieces are recombined under EXACT
with powers of two, each computed once per conversion.  EXACT has the
largest precision and exponent range, and traps Inexact and Rounded, so a
step that would round raises instead.  Without the C core, `decimal` is the
pure-Python `_pydecimal`, whose Decimal(int) goes through str() and meets
the same limit; EXACT is then None, and `text` halves an int by powers of
ten until str() takes each piece.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

try:  # the C core: without it, `decimal` is the pure-Python `_pydecimal`
    from _decimal import (
        MAX_EMAX,
        MAX_PREC,
        MIN_EMIN,
        Context,
        Decimal,
        DivisionByZero,
        Inexact,
        InvalidOperation,
        Overflow,
        Rounded,
        localcontext,
    )
except ImportError:
    EXACT = None
else:
    EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])

T = TypeVar("T")
_END = object()

# Bits one Decimal() call converts: every split point is a multiple of it.
_CHUNK_BITS = 1024


def to_decimal(v: int) -> Decimal:
    """v as an exact Decimal (EXACT must not be None)."""
    pows: dict[int, Decimal] = {}

    def joined(v: int, chunks: int) -> Decimal:  # 0 <= v < 2**(chunks * _CHUNK_BITS)
        if chunks == 1:
            return Decimal(v)
        low = chunks // 2
        s = low * _CHUNK_BITS
        if (p := pows.get(s)) is None:
            p = pows[s] = Decimal(2) ** s
        return joined(v >> s, chunks - low) * p + joined(v & ((1 << s) - 1), low)

    a = abs(v)
    with localcontext(EXACT):
        d = joined(a, -(-a.bit_length() // _CHUNK_BITS) or 1)
        return d if v >= 0 else -d


def _halved(v: int) -> str:
    """The digits of v >= 0: str(v), or, past the digit limit, those of the
    two halves of v by a power of ten, the lower padded with zeros."""
    try:
        return str(v)
    except ValueError:
        d = v.bit_length() * 3 // 20  # about half its digits
        high, low = divmod(v, 10**d)
        return _halved(high) + _halved(low).zfill(d)


def text(v: int) -> str:
    """str(v), exact at any size: past the digit limit, through to_decimal,
    or by halving when the C core is missing."""
    try:
        return str(v)
    except ValueError:
        if EXACT is not None:
            return str(to_decimal(v))
        return "-" + _halved(-v) if v < 0 else _halved(v)


def exact_steps(items: Iterable[T]) -> Iterator[T]:
    """The items, each computed under EXACT (which must not be None); the
    reader's own context holds between them."""
    items = iter(items)
    while True:
        with localcontext(EXACT):
            item = next(items, _END)
        if item is _END:
            return
        yield item
