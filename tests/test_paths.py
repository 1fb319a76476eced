"""One registry of production paths, each with the settings that force it and
an independent oracle.

A path taken only past a size threshold, only when a certificate holds, or
only when a memo keeps a value, is never reached by small random inputs on
its own.  So every entry lists its modes, each a patch that forces one path,
and runs under hypothesis in every mode against the same oracle.
"""

from contextlib import ExitStack, contextmanager, nullcontext
from decimal import Decimal
from fractions import Fraction
from functools import partial
from io import StringIO
from itertools import accumulate
import json
import math
import sys
from math import prod
from types import SimpleNamespace
from typing import Callable, ContextManager, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import (
    BUILTIN_SEQUENCES,
    FIBONACCI,
    FinitePoset,
    FNomialTable,
    FSequence,
    NonIntegral,
    _digits,
    _parts,
    build_cobweb,
    build_grid,
    cli,
    fnomial,
    from_values,
    is_gcd_morphic,
    layer_subposet,
    poset,
    prefab,
    sequences,
)
from cobweb.errors import CobwebError
from cobweb._memo import Memo
from test_cli import _record_texts
from test_poset import _engine_fingerprint
from test_sequences import fibonacci_by_addition, full_square_scan


class Path(NamedTuple):
    modes: dict[str, Callable[[], ContextManager]]  # mode -> patch that forces it
    args: Callable  # (data, n) -> the arguments after the sequence
    production: Callable
    oracle: Callable


def _kernel_bits(bits: int, memo_bits: int = _parts.MEMO_BITS) -> Callable[[], ContextManager]:
    """Estimates from bits on take the kernel, whose results go to a fresh
    memo of memo_bits, so no result kept before can hide the path."""

    @contextmanager
    def mode():
        with mock.patch.object(fnomial, "_KERNEL_BITS", bits), mock.patch.object(
            _parts, "MEMO", Memo(memo_bits)
        ):
            yield

    return mode


def _fnomial_by_product(seq, n, k):
    """(n over k)_F as prod F_{n-k+i}/F_i in exact rationals; the quotient of
    a NonIntegral where that is not an integer."""
    if k < 0 or k > n:
        return 0
    r = prod(Fraction(seq.value(n - k + i), seq.value(i)) for i in range(1, k + 1))
    return r.numerator if r.denominator == 1 else ("NonIntegral", r)


def _fnomial(seq, n, k):
    try:
        return FNomialTable(seq).fnomial(n, k)
    except NonIntegral as exc:
        return ("NonIntegral", Fraction(exc.numerator, exc.denominator))


def _parts_by_definition(seq, n):
    """P_1, ..., P_{m-1} and m, the first index whose P_m = F_m / prod(P_d for
    d | m, d < m) is not an integer, or all n parts and None."""
    parts = [1]
    for m, f in enumerate(seq.values(n), 1):
        below = prod(parts[d] for d in range(1, m) if m % d == 0)
        if f % below:
            return parts, m
        parts.append(f // below)
    return parts, None


def _exact_prefix(parts_and_bad, n):
    """The parts a sieve result vouches for: P_1..P_{bad-1}, or P_1..P_n."""
    parts, bad = parts_and_bad
    return parts[: bad or n + 1], bad


def _prefab_results(seq, n):
    """The Whitney row, B_n and B_0..B_n, each as its value or the quotient
    of the NonIntegral it raises; B_n reads the row whitney_row kept."""
    out = []
    for fn in (lambda: prefab.whitney_row(seq, n).values, lambda: prefab.bell_f(seq, n),
               lambda: prefab.bell_f_table(seq, n).values):
        try:
            out.append(fn())
        except NonIntegral as exc:
            out.append(("NonIntegral", Fraction(exc.numerator, exc.denominator)))
    return out


def _prefab_by_product(seq, n):
    """The same from sums of _fnomial_by_product: a row, and so its sum, fails
    at its first non-integral entry, and the table at its first failing row."""
    rows = [[_fnomial_by_product(seq, m - k, k) for k in range(m // 2 + 1)] for m in range(n + 1)]
    sums = [next((w for w in row if isinstance(w, tuple)), None) or sum(row) for row in rows]
    row = sums[n] if isinstance(sums[n], tuple) else tuple(rows[n])
    return [row, sums[n], next((b for b in sums if isinstance(b, tuple)), tuple(sums))]


def _small_views(data, n):
    """A grid, a cobweb over drawn widths and its levels lo..hi, all small
    enough to enumerate their chains; the drawn terms are not used."""
    gn = data.draw(st.integers(1, 7), label="grid n")
    mode = data.draw(st.sampled_from(("strict", "weak")), label="mode")
    grid = build_grid(data.draw(st.integers(0, gn - (mode == "strict")), label="grid k"), gn, mode)
    widths = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=6), label="widths")
    hi = data.draw(st.integers(2, len(widths)), label="hi")
    lo = data.draw(st.integers(1, hi - 1), label="lo")
    return grid, build_cobweb(from_values("widths", widths), len(widths)), lo, hi


def _fresh_engines(seq, grid, c, lo, hi):
    """Engines built afresh from each view's elements and cover pairs, and
    from the cobweb's restricted to levels lo..hi."""
    levels = [v for v in c.elements if lo <= v.s <= hi]
    covers = [(x, y) for x, y in c.covers if lo <= x.s and y.s <= hi]
    engines = [FinitePoset(v.elements, v.covers) for v in (grid, c)]
    return [_engine_fingerprint(p) for p in (*engines, FinitePoset(levels, covers))]


def _table_request(data, n, commands=("fnomial", "bell")):
    """A table request, an F-nomial triangle, a Bell table or a Whitney row,
    over the drawn sequence (named "drawn") or a built-in: (command,
    sequence name, n_max, format)."""
    return (data.draw(st.sampled_from(commands), label="command"),
            data.draw(st.sampled_from(("drawn", *BUILTIN_SEQUENCES)), label="seq"),
            data.draw(st.integers(0, 60), label="n_max"),
            data.draw(st.sampled_from(("text", "csv", "json")), label="format"))


def _table_argv(command, name, n_max, fmt):
    if command == "fnomial":
        return ["fnomial", "--seq", name, "--table", str(n_max), "--format", fmt]
    if command == "whitney":
        return ["whitney", "--family", "prefab", "--seq", name, "--n", str(n_max), "--format", fmt]
    return ["bell", "--family", "prefab", "--seq", name, "--n", str(n_max), "--table",
            "--format", fmt]


def _table_output(seq, command, name, n_max, fmt):
    """(exit code, stdout, stderr) of the table request, through the CLI with
    "drawn" naming the drawn sequence."""
    out, err = StringIO(), StringIO()
    with mock.patch.dict(BUILTIN_SEQUENCES, {"drawn": seq}):
        code = cli.run(_table_argv(command, name, n_max, fmt), out, err)
    return code, out.getvalue(), err.getvalue()


def _table_by_factorials(seq, command, name, n_max, fmt):
    """The output of a table computed in full before any of it is written:
    each entry F_n!/(F_k! F_{n-k}!), F_n fetched as row n starts (a Whitney
    row fetches them all first), the first failure in row-major order
    reported alone, and the text formed here."""
    seq = seq if name == "drawn" else BUILTIN_SEQUENCES[name]
    fact = [1]

    def coefficient(n, k):  # (n over k)_F
        q, r = divmod(fact[n], fact[k] * fact[n - k])
        if r:
            raise NonIntegral(fact[n], fact[k] * fact[n - k])
        return q

    rows = []
    try:
        for n in range(n_max + 1):
            if n:
                fact.append(fact[-1] * seq.value(n))
            if command == "fnomial":
                rows += [(n, k, coefficient(n, k)) for k in range(n + 1)]
            elif command == "bell":
                rows.append((n, sum(coefficient(n - k, k) for k in range(n // 2 + 1))))
        if command == "whitney":  # (n_max - k over k)_F
            rows = [(k, coefficient(n_max - k, k)) for k in range(n_max // 2 + 1)]
    except CobwebError as exc:
        return 1, "", f"error: {type(exc).__name__}: {exc}\n"
    if command == "fnomial":
        params, columns = {"seq": name, "table": n_max}, ["n", "k", "value"]
    elif command == "whitney":
        params = {"family": "prefab", "seq": name, "n": n_max, "kind": "second"}
        columns = ["k", "value"]
    else:
        params, columns = {"family": "prefab", "seq": name, "n": n_max, "table": True}, ["n", "value"]
    if fmt == "json":
        result = {"columns": columns, "rows": [list(map(str, row)) for row in rows]}
        return 0, json.dumps({"command": command, "params": params, "result": result}) + "\n", ""
    sep = "," if fmt == "csv" else " "
    return 0, "".join(sep.join(map(str, row)) + "\n" for row in [columns, *rows]), ""


def _decimal_bits(bits):
    """Certified rows whose largest entry is estimated at bits or more are
    built in Decimal."""
    return lambda: mock.patch.object(fnomial, "_DECIMAL_BITS", bits)


@contextmanager
def _digit_limit(digits):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _past_the_limit(data, n):
    """An int of 2,000 to 40,000 bits, most of them past 640 digits, or a
    power of ten moved by a little, whose halves have leading zeros; and a
    format."""
    bits = data.draw(st.integers(2_000, 40_000), label="bits")
    v = data.draw(st.one_of(
        st.integers(2 ** (bits - 1), 2**bits - 1),
        st.builds(lambda d, o: 10**d + o, st.integers(600, 12_000), st.integers(-(10**6), 10**6)),
    ), label="magnitude")
    v = -v if data.draw(st.booleans(), label="negative") else v
    return v, data.draw(st.sampled_from(("text", "csv", "json")), label="format")


def _past_records(v):
    """v alone, and in a table between smaller rows."""
    rows = [(0, 1), (1, v), (2, -v), (3, v // 3)]
    return [cli.OutputRecord("t", {}, value=v),
            cli.OutputRecord("t", {}, columns=("k", "value"), rows=rows)]


def _rendered_at_640(seq, v, fmt):
    """The records of v as the renderer writes them under the lowest digit
    limit, 640 digits, so that most of them take its retry."""
    with _digit_limit(640):
        return ["".join(cli._render(rec, fmt)) for rec in _past_records(v)]


@contextmanager
def _scan_all():
    """The certificate fails at b = 2, which leaves the whole n < m scan, on a
    fresh memo, so no witness kept before can hide it."""
    with mock.patch.object(_parts, "_certify", lambda parts, hi: 2), mock.patch.object(
        _parts, "MEMO", Memo(_parts.MEMO_BITS)
    ):
        yield


# How a memo-read path sees its sequence: as given, or under the "unkept"
# mode with its rule wrapped once in a plain lambda.
_views = SimpleNamespace(of=lambda seq: seq)


def _memo_hits(unkept: bool) -> Callable[[], ContextManager]:
    """The kernel at every size over a fresh memo; when unkept, each rule is
    wrapped once in a plain lambda, which the memo cannot tell from a rule
    whose values change, so every call fetches the values, computes afresh
    and keeps nothing."""

    @contextmanager
    def mode():
        wrapped = {}

        def of(seq):
            rule = wrapped.setdefault(seq.rule, lambda s, rule=seq.rule: rule(s))
            return FSequence(seq.name, rule, seq.limit)

        with _kernel_bits(-(10**9))(), (
            mock.patch.object(_views, "of", of) if unkept else nullcontext()
        ):
            yield

    return mode


def _memo_reads(seq, n):
    """The Whitney row, B_n, B_0..B_n, (n over n//2)_F and the GCD report, as
    _prefab_results and _fnomial give them."""
    return [*_prefab_results(seq, n), _fnomial(seq, n, n // 2), is_gcd_morphic(seq, n)]


def _read_twice(seq, n):
    """Each result made on a rebuilt copy of seq, then read back from another."""
    vals = seq.values(seq.limit)
    return [_memo_reads(_views.of(from_values(seq.name, vals)), n) for _ in range(2)]


def _read_by_product(seq, n):
    return [[*_prefab_by_product(seq, n), _fnomial_by_product(seq, n, n // 2),
             full_square_scan(seq, n)]] * 2


REGISTRY = {
    "is_gcd_morphic": Path(
        modes={"certificate": nullcontext, "scan": _scan_all},
        args=lambda data, n: (data.draw(st.integers(2, n), label="range_max"),),
        production=is_gcd_morphic,
        oracle=full_square_scan,
    ),
    "FNomialTable.fnomial": Path(
        # Below every estimate (a lumpy list's can be negative), and above every
        # one; a memo of 0 bits keeps no coefficient, so every call computes it.
        modes={"kernel": _kernel_bits(-(10**9)), "falling": _kernel_bits(10**9),
               "no memo": _kernel_bits(-(10**9), 0)},
        args=lambda data, n: (m := data.draw(st.integers(0, n), label="n"),
                              data.draw(st.integers(-1, m + 1), label="k")),
        production=_fnomial,
        oracle=_fnomial_by_product,
    ),
    "primitive parts": Path(
        # A memo of 0 bits stores nothing, so every call sieves afresh.
        modes={"memo": nullcontext,
               "no memo": lambda: mock.patch.object(_parts, "MEMO", Memo(0))},
        args=lambda data, n: (data.draw(st.integers(1, n), label="n"),),
        production=lambda seq, n: _exact_prefix(_parts.entry(seq, n).parts(), n),
        oracle=_parts_by_definition,
    ),
    "prefab results": Path(
        # A memo of 0 bits keeps no entry, so every call computes afresh.
        modes={"memo": nullcontext,
               "no memo": lambda: mock.patch.object(_parts, "MEMO", Memo(0))},
        args=lambda data, n: (data.draw(st.integers(0, n), label="n"),),
        production=_prefab_results,
        oracle=_prefab_by_product,
    ),
    "memo hits": Path(
        # A value-stable rule (a built-in, or a custom sequence's terms) is
        # answered from its entry before any value is fetched; any other rule
        # is computed afresh and never kept.
        modes={"value-stable": _memo_hits(False), "unkept": _memo_hits(True)},
        args=lambda data, n: (data.draw(st.integers(2, n), label="n"),),
        production=_read_twice,
        oracle=_read_by_product,
    ),
    "view engine": Path(
        # A memo of 0 bytes keeps no engine, so every call builds afresh.
        modes={"memo": nullcontext,
               "no memo": lambda: mock.patch.object(poset, "_ENGINES", Memo(0))},
        args=_small_views,
        production=lambda seq, grid, c, lo, hi: [
            _engine_fingerprint(p) for p in (grid.poset, c.poset, layer_subposet(c, lo, hi))
        ],
        oracle=_fresh_engines,
    ),
    "fibonacci values": Path(
        # A rule that is a plain function offers no prefix, so values() maps it.
        modes={"prefix": nullcontext,
               "per index": lambda: mock.patch.object(
                   sequences, "FIBONACCI", FSequence("fibonacci", lambda s: FIBONACCI.rule(s)))},
        args=lambda data, n: (data.draw(st.integers(0, 3000), label="count"),),
        production=lambda seq, count: sequences.FIBONACCI.values(count),
        oracle=lambda seq, count: list(fibonacci_by_addition(count)),
    ),
    "table streaming": Path(
        # With the certificate refused, every table is computed in full first.
        modes={"certified": nullcontext,
               "materialized": lambda: mock.patch.object(
                   _parts._Entry, "parts", lambda e: (None, 1))},
        args=_table_request,
        production=_table_output,
        oracle=_table_by_factorials,
    ),
    "table digits": Path(
        # Certified rows are built in Decimal at every estimate, or at none.
        modes={"decimal rows": _decimal_bits(-(10**9)), "int rows": _decimal_bits(10**9)},
        args=partial(_table_request, commands=("fnomial", "whitney")),
        production=_table_output,
        oracle=_table_by_factorials,
    ),
    "digit retry": Path(
        # An int str() refuses goes through the converter's chunks, one
        # Decimal() call, or, as without the C core, halving by powers of ten.
        modes={"converter": nullcontext,
               "Decimal()": lambda: mock.patch.object(_digits, "_CHUNK_BITS", 10**9),
               "halving": lambda: mock.patch.object(_digits, "EXACT", None)},
        args=_past_the_limit,
        production=_rendered_at_640,
        oracle=lambda seq, v, fmt: [_record_texts(rec, fmt) for rec in _past_records(v)],
    ),
}


@st.composite
def term_lists(draw):
    """F_1..F_n with F_m = prod(Q_d for d | m) for drawn parts Q, or a prefix of
    naturals, Fibonacci or Mersenne numbers, then maybe one term perturbed,
    so failures sit deep in the prefix."""
    n = draw(st.integers(2, 40))
    base = draw(st.sampled_from(("parts", "naturals", "fibonacci", "mersenne")))
    if base == "parts":
        qs = draw(st.lists(st.sampled_from((1, 1, 1, 1, 2, 3, 5, 7, 4, 9)), min_size=n, max_size=n))
        vals = [prod(qs[d - 1] for d in range(1, m + 1) if m % d == 0) for m in range(1, n + 1)]
    elif base == "fibonacci":
        vals = [1, 1]
        while len(vals) < n:
            vals.append(vals[-1] + vals[-2])
    else:
        vals = [s if base == "naturals" else 2**s - 1 for s in range(1, n + 1)]
    if draw(st.booleans()):
        j = draw(st.integers(2, n)) - 1
        c = draw(st.sampled_from((2, 3, 5, 7)))
        vals[j] = vals[j] * c if draw(st.booleans()) else vals[j] + c
    return vals


def _entries():
    return [(name, mode) for name, path in REGISTRY.items() for mode in path.modes]


@pytest.mark.parametrize("name, mode", _entries())
@settings(max_examples=150, deadline=None)
@given(vals=term_lists(), data=st.data())
def test_path_matches_oracle(name, mode, vals, data):
    path = REGISTRY[name]
    seq = from_values("drawn", vals)
    args = path.args(data, len(vals))
    with path.modes[mode]():
        assert path.production(seq, *args) == path.oracle(seq, *args), args


def test_every_mode_takes_its_path():
    mersenne = from_values("mersenne", [2**s - 1 for s in range(1, 61)])
    terms = mersenne.values(60)
    spoiled = [*terms[:-1], terms[-1] * terms[6]]  # F_60 shares F_7 = 127
    # The scan's gcds go through cobweb.sequences.math; the certificate's do not.
    gcds = []
    counting = SimpleNamespace(gcd=lambda a, b: gcds.append(0) or math.gcd(a, b))
    for mode, scans in (("certificate", False), ("scan", True)):
        gcds.clear()
        with REGISTRY["is_gcd_morphic"].modes[mode](), mock.patch.object(sequences, "math", counting):
            assert is_gcd_morphic(mersenne, 60).holds
        assert bool(gcds) == scans, mode
    # A failing check scans once in either mode, and keeps its witness.
    report = full_square_scan(from_values("spoiled", spoiled), 60)
    for mode in ("certificate", "scan"):
        with mock.patch.object(_parts, "MEMO", Memo(_parts.MEMO_BITS)), REGISTRY[
            "is_gcd_morphic"
        ].modes[mode](), mock.patch.object(sequences, "math", counting):
            scanned = []
            for _ in range(3):
                gcds.clear()
                assert is_gcd_morphic(from_values("spoiled", spoiled), 60) == report
                scanned.append(bool(gcds))
        assert scanned == [True, False, False], mode
    # With its memo, the kernel computes each (n, min(k, n - k)) once, k and
    # n - k alike, and so does the falling product; with no memo, the kernel
    # runs on every call.  Only the kernel sieves, once with its memo; the
    # falling product reads the values alone.
    kernel, exact, sieve = fnomial._kernel, fnomial._exact, _parts.sieve

    def sieving():  # counted in `sieved`
        return mock.patch.object(_parts, "sieve", lambda vals: sieved.append(0) or sieve(vals))

    ks = (30, 30, 30, 20, 40, 40, 20)
    for mode, products, divisions, sieves in (("kernel", [30, 20], [], 1),
                                              ("no memo", [30, 30, 30, 20, 20, 20, 20], [], 7),
                                              ("falling", [], [30, 20], 0)):
        computed, divided, sieved = [], [], []
        with REGISTRY["FNomialTable.fnomial"].modes[mode](), mock.patch.object(
            fnomial, "_kernel", lambda parts, n, k: computed.append(k) or kernel(parts, n, k)
        ), mock.patch.object(fnomial, "_exact", lambda num, den, vals, n, k: divided.append(
            min(k, n - k)) or exact(num, den, vals, n, k)
        ), sieving():
            for k in ks:
                assert FNomialTable(mersenne).fnomial(60, k) == _fnomial_by_product(mersenne, 60, k)
        assert (computed, divided, len(sieved)) == (products, divisions, sieves), mode
    for mode, sieves in (("memo", 1), ("no memo", 2)):
        sieved = []
        with mock.patch.object(_parts, "MEMO", Memo(_parts.MEMO_BITS)), REGISTRY[
            "primitive parts"
        ].modes[mode](), sieving():
            for _ in range(2):
                _parts.entry(mersenne, 60).parts()
        assert len(sieved) == sieves, mode
    # A fresh memo computes each row and table once; no memo, on every call.
    row, sums = prefab._row, prefab._bell_sums
    expected = _prefab_by_product(mersenne, 60)
    for mode, once in (("memo", True), ("no memo", False)):
        computed = []
        with mock.patch.object(_parts, "MEMO", Memo(_parts.MEMO_BITS)), REGISTRY[
            "prefab results"
        ].modes[mode](), mock.patch.object(
            prefab, "_row", lambda vals: computed.append("row") or row(vals)
        ), mock.patch.object(
            prefab, "_bell_sums", lambda seq, n: computed.append("bell") or sums(seq, n)
        ):
            for _ in range(3):
                assert _prefab_results(mersenne, 60) == expected
        assert computed == (["row", "bell"] if once else ["row", "row", "bell"] * 3), mode
    # Read back, each kept result makes no rule or prefix call on a
    # value-stable rule.  On the same rule wrapped in a lambda nothing is
    # kept: each call fetches the values again, index by index (the Bell
    # table's walk fetches them a second time), and the memo stays empty.
    calls = []

    @contextmanager
    def counted():
        with ExitStack() as stack:
            for cls in (type(FIBONACCI.rule), sequences._Terms):
                for name in ("__call__", "prefix"):
                    f = getattr(cls, name)
                    stack.enter_context(mock.patch.object(
                        cls, name, lambda self, *a, f=f, name=name: calls.append(name) or f(self, *a)))
            yield

    def falling(seq):  # below every estimate, so by the falling product
        with mock.patch.object(fnomial, "_KERNEL_BITS", 10**9):
            return FNomialTable(seq).fnomial(60, 20)

    holding = (lambda: FIBONACCI, lambda: from_values("mersenne", terms))
    reads = {
        "whitney_row": (holding, lambda seq: prefab.whitney_row(seq, 60)),
        "bell_f": (holding, lambda seq: prefab.bell_f(seq, 60)),
        "bell_f_table": (holding, lambda seq: prefab.bell_f_table(seq, 60)),
        "fnomial": (holding, lambda seq: FNomialTable(seq).fnomial(60, 30)),
        "falling fnomial": (holding, falling),
        "is_gcd_morphic": (holding, lambda seq: is_gcd_morphic(seq, 60).holds),
        "failing is_gcd_morphic": ((lambda: from_values("spoiled", spoiled),),
                                   lambda seq: is_gcd_morphic(seq, 60)),
    }
    for mode in ("value-stable", "unkept"):
        for name, (builds, read) in reads.items():
            fetch = 0 if mode == "value-stable" else 120 if name == "bell_f_table" else 60
            for build in builds:
                with REGISTRY["memo hits"].modes[mode](), counted():
                    first = read(_views.of(build()))
                    calls.clear()
                    assert read(_views.of(build())) == first
                    assert calls == ["__call__"] * fetch, (mode, build().name, name)
    # With its memo, a view's engine is fetched again; with none, built again.
    grid, c = build_grid(2, 5), build_cobweb(from_values("widths", [1, 2, 3]), 3)
    fetches = (lambda: grid.poset, lambda: c.poset, lambda: layer_subposet(c, 2, 3))
    for mode, stores in (("memo", True), ("no memo", False)):
        with mock.patch.object(poset, "_ENGINES", Memo(poset._MEMO_BYTES)), REGISTRY[
            "view engine"
        ].modes[mode]():
            assert [fetch() is fetch() for fetch in fetches] == [stores] * 3, mode
    fib = type(FIBONACCI.rule)
    rule, prefix = fib.__call__, fib.prefix
    for mode, per_index in (("prefix", False), ("per index", True)):
        calls = []
        with REGISTRY["fibonacci values"].modes[mode](), mock.patch.object(
            fib, "__call__", lambda self, s: calls.append("rule") or rule(self, s)
        ), mock.patch.object(fib, "prefix", lambda self, c: calls.append("prefix") or prefix(self, c)):
            assert sequences.FIBONACCI.values(30) == list(fibonacci_by_addition(30))
        assert calls == (["rule"] * 30 if per_index else ["prefix"]), mode
    # How many rows each table has computed when each chunk is written: none
    # yet at the head when streamed, all of them when materialized.
    made = []
    rows, sums = FNomialTable.rows, prefab._bell_sums
    counted = {
        "fnomial": mock.patch.object(FNomialTable, "rows", lambda self, n: (
            made.append(0) or row for row in rows(self, n))),
        "bell": mock.patch.object(prefab, "_bell_sums", lambda seq, n: (
            made.append(0) or b for b in sums(seq, n))),
    }

    class Chunks:
        def __init__(self):
            self.rows_made = []  # per chunk written

        def writelines(self, chunks):
            self.rows_made += [len(made) for _ in chunks]

        def flush(self):
            pass

    for mode, streams in (("certified", True), ("materialized", False)):
        for command, patch in counted.items():
            made.clear()
            out = Chunks()
            with REGISTRY["table streaming"].modes[mode](), patch, mock.patch.dict(
                BUILTIN_SEQUENCES, {"drawn": mersenne}
            ):
                assert cli.run(_table_argv(command, "drawn", 60, "csv"), out) == 0
            assert out.rows_made[0] == (0 if streams else 61), (mode, command)
            assert out.rows_made[-1] == 61, (mode, command)
    # A certified table or prefab row whose largest entry is estimated at
    # _DECIMAL_BITS or more converts each value of its prefix to Decimal once
    # and writes Decimal cells; a small one, an uncertified one (odd) and
    # one over a short file convert nothing, in either mode.
    converted = []
    to_decimal = _digits.to_decimal
    short = from_values("short", FIBONACCI.values(100))
    large = {"fnomial": 140, "whitney": 400}  # estimates 3,400 and 13,900 bits
    for mode in ("decimal rows", "int rows", None):  # None: the default _DECIMAL_BITS
        for command, n_max in large.items():
            for name, n, taken in (("fibonacci", n_max, mode != "int rows"),
                                   ("fibonacci", 20, mode == "decimal rows"),
                                   ("odd", n_max, False), ("drawn", n_max, False)):
                converted.clear()
                forced = REGISTRY["table digits"].modes[mode]() if mode else nullcontext()
                with forced, mock.patch.object(
                    _digits, "to_decimal", lambda v: converted.append(v) or to_decimal(v)
                ), mock.patch.dict(BUILTIN_SEQUENCES, {"drawn": short}):
                    ns = cli._plain_parse(_table_argv(command, name, n, "csv"))
                    try:
                        cells = {type(row[-1]) for row in ns.handler(ns).rows}
                    except CobwebError:
                        cells = None
                assert len(converted) == (n if taken else 0), (mode, command, name, n)
                assert cells == ({int, Decimal} if taken else {int} if name == "fibonacci"
                                 else None), (mode, command, name, n)
    # Past the digit limit, the converter splits a 16,610-bit int into 17
    # chunks; the Decimal() mode converts it in one call, halving in none.
    made = []
    real = _digits.Decimal
    for mode, calls in (("converter", 17), ("Decimal()", 1), ("halving", 0)):
        made.clear()
        with REGISTRY["digit retry"].modes[mode](), mock.patch.object(
            _digits, "Decimal", lambda v: made.append(v) or real(v)
        ), _digit_limit(640):
            assert _digits.text(10**5000 + 7) == "1" + "0" * 4999 + "7"
        assert len([v for v in made if v != 2]) == calls, mode


def test_both_gcd_modes_find_a_deep_witness():
    # 160 naturals with F_120 tripled: the certificate first fails at b = 120.
    vals = list(range(1, 161))
    vals[119] *= 3
    seq = from_values("tripled", vals)
    assert _parts.entry(seq, 160).first_failure() == 120
    report = full_square_scan(seq, 160)
    assert report.witness == (9, 120)
    for mode in REGISTRY["is_gcd_morphic"].modes.values():
        with mode():
            assert is_gcd_morphic(seq, 160) == report
    # Fibonacci with F_900 tripled, at range 2000: the certificate first fails
    # at b = 900, and the smallest witness is (108, 900).
    vals = FIBONACCI.values(2000)
    vals[899] *= 3
    seq = from_values("tripled", vals)
    assert _parts.entry(seq, 2000).first_failure() == 900
    report = full_square_scan(seq, 2000)
    assert report.witness == (108, 900)
    for mode in REGISTRY["is_gcd_morphic"].modes.values():
        with mode():
            assert is_gcd_morphic(seq, 2000) == report
