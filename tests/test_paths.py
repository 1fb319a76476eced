"""One registry of production paths, each with the settings that force it and
an independent oracle.

A path taken only past a size threshold, only when a certificate holds, or
only when a memo keeps a value, is never reached by small random inputs on
its own.  So every entry lists its modes, each a patch that forces one path,
and runs under hypothesis in every mode against the same oracle.
"""

from contextlib import nullcontext
from fractions import Fraction
from io import StringIO
from itertools import accumulate
import json
import math
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
from test_poset import _engine_fingerprint
from test_sequences import fibonacci_by_addition, full_square_scan


class Path(NamedTuple):
    modes: dict[str, Callable[[], ContextManager]]  # mode -> patch that forces it
    args: Callable  # (data, n) -> the arguments after the sequence
    production: Callable
    oracle: Callable


def _kernel_bits(bits: int) -> Callable[[], ContextManager]:
    return lambda: mock.patch.object(fnomial, "_KERNEL_BITS", bits)


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


def _table_request(data, n):
    """A table request over the drawn sequence (named "drawn") or a
    built-in: (command, sequence name, n_max, format)."""
    return (data.draw(st.sampled_from(("fnomial", "bell")), label="command"),
            data.draw(st.sampled_from(("drawn", *BUILTIN_SEQUENCES)), label="seq"),
            data.draw(st.integers(0, 60), label="n_max"),
            data.draw(st.sampled_from(("text", "csv", "json")), label="format"))


def _table_argv(command, name, n_max, fmt):
    if command == "fnomial":
        return ["fnomial", "--seq", name, "--table", str(n_max), "--format", fmt]
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
    each entry F_n!/(F_k! F_{n-k}!), F_n fetched as row n starts, the first
    failure in row-major order reported alone, and the text formed here."""
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
            else:
                rows.append((n, sum(coefficient(n - k, k) for k in range(n // 2 + 1))))
    except CobwebError as exc:
        return 1, "", f"error: {type(exc).__name__}: {exc}\n"
    if command == "fnomial":
        params, columns = {"seq": name, "table": n_max}, ["n", "k", "value"]
    else:
        params, columns = {"family": "prefab", "seq": name, "n": n_max, "table": True}, ["n", "value"]
    if fmt == "json":
        result = {"columns": columns, "rows": [list(map(str, row)) for row in rows]}
        return 0, json.dumps({"command": command, "params": params, "result": result}) + "\n", ""
    sep = "," if fmt == "csv" else " "
    return 0, "".join(sep.join(map(str, row)) + "\n" for row in [columns, *rows]), ""


REGISTRY = {
    "is_gcd_morphic": Path(
        # The helper reporting failure at b = 2 leaves the whole n < m scan.
        modes={"certificate": nullcontext,
               "scan": lambda: mock.patch.object(_parts, "first_failure", lambda rule, vals: 2)},
        args=lambda data, n: (data.draw(st.integers(2, n), label="range_max"),),
        production=is_gcd_morphic,
        oracle=full_square_scan,
    ),
    "FNomialTable.fnomial": Path(
        # Below every estimate (a lumpy list's can be negative), and above every one.
        modes={"kernel": _kernel_bits(-(10**9)), "falling": _kernel_bits(10**9)},
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
        production=lambda seq, n: _exact_prefix(_parts.parts(seq.rule, seq.values(n)), n),
        oracle=_parts_by_definition,
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
                   _parts, "integral_up_to", lambda seq, n_max: False)},
        args=_table_request,
        production=_table_output,
        oracle=_table_by_factorials,
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
    # The scan's gcds go through cobweb.sequences.math; the certificate's do not.
    gcds = []
    counting = SimpleNamespace(gcd=lambda a, b: gcds.append(0) or math.gcd(a, b))
    for mode, scans in (("certificate", False), ("scan", True)):
        gcds.clear()
        with REGISTRY["is_gcd_morphic"].modes[mode](), mock.patch.object(sequences, "math", counting):
            assert is_gcd_morphic(mersenne, 60).holds
        assert bool(gcds) == scans, mode
    parts = _parts.parts
    for mode, sieves in (("kernel", True), ("falling", False)):
        calls = []
        with REGISTRY["FNomialTable.fnomial"].modes[mode](), mock.patch.object(
            _parts, "parts", lambda rule, vals: calls.append(0) or parts(rule, vals)
        ):
            assert FNomialTable(mersenne).fnomial(60, 30) == _fnomial_by_product(mersenne, 60, 30)
        assert calls == ([0] if sieves else []), mode
    for mode, stores in (("memo", True), ("no memo", False)):
        with REGISTRY["primitive parts"].modes[mode]():
            _parts.parts(mersenne.rule, mersenne.values(60))
            assert ((mersenne.rule, 60) in _parts.MEMO.entries) == stores, mode
    c = build_cobweb(from_values("widths", [1, 2, 3]), 3)
    for mode, stores in (("memo", True), ("no memo", False)):
        with REGISTRY["view engine"].modes[mode]():
            grid = build_grid(2, 5)
            grid.poset, c.poset, layer_subposet(c, 2, 3)
            memo = poset._ENGINES
            kept = [key in memo.entries for key in (grid, (c.widths, 1), ((2, 3), 2))]
            assert kept == [stores] * 3, mode
            assert stores or (not memo.entries and memo.charged == 0), mode
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


def test_both_gcd_modes_find_a_deep_witness():
    # 160 naturals with F_120 tripled: the certificate first fails at b = 120.
    vals = list(range(1, 161))
    vals[119] *= 3
    seq = from_values("tripled", vals)
    assert _parts.first_failure(seq.rule, vals) == 120
    report = full_square_scan(seq, 160)
    assert report.witness == (9, 120)
    for mode in REGISTRY["is_gcd_morphic"].modes.values():
        with mode():
            assert is_gcd_morphic(seq, 160) == report
