import functools
import gc
import math
import random
import tracemalloc
from fractions import Fraction
from io import StringIO

import pytest

from cobweb import (
    BUILTIN_SEQUENCES,
    FIBONACCI,
    NATURALS,
    FNomialTable,
    NonIntegral,
    _parts,
    bell_f,
    bell_f_table,
    cli,
    from_values,
    prefab,
    whitney_prefab,
    whitney_row,
)
from test_paths import REGISTRY


def fnomial_by_product(seq, n, k):
    """Independent route: (n over k)_F as the telescoped product
    prod_{i=1..k} F_{n-k+i}/F_i, in exact rationals."""
    if k < 0 or k > n:
        return 0
    r = Fraction(1)
    for i in range(1, k + 1):
        r *= Fraction(seq.value(n - k + i), seq.value(i))
    assert r.denominator == 1
    return r.numerator


def fib_direct(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_whitney_prefab_examples():
    assert whitney_prefab(NATURALS, 5, 1) == 4  # C(4, 1)
    assert whitney_prefab(FIBONACCI, 5, 2) == 2  # (3 over 2)_F = F_3!/(F_2! F_1!)
    for n in (0, 3, 9):
        assert whitney_prefab(FIBONACCI, n, 0) == 1


def test_whitney_prefab_zero_region():
    assert whitney_prefab(NATURALS, 4, 3) == 0  # 2k > n
    assert whitney_prefab(NATURALS, 4, -1) == 0
    assert whitney_prefab(NATURALS, 5, 3) == 0
    assert whitney_prefab(NATURALS, 6, 3) == 1  # 2k = n stays in
    with pytest.raises(ValueError):
        whitney_prefab(NATURALS, -1, 0)


def test_whitney_row_matches_independent_product():
    for n in range(0, 25):
        row = whitney_row(FIBONACCI, n)
        assert row.values == tuple(
            fnomial_by_product(FIBONACCI, n - k, k) for k in range(n // 2 + 1)
        )
        assert row.values[0] == 1


def test_bell_f_naturals_is_fibonacci():
    assert bell_f(NATURALS, 5) == 1 + 4 + 3 == 8 == fib_direct(6)
    for n in range(0, 25):
        assert bell_f(NATURALS, n) == fib_direct(n + 1)


def test_bell_f_fibonacci_prefix():
    # recomputed by direct summation of the fibonomial diagonals
    expected = [
        sum(fnomial_by_product(FIBONACCI, n - k, k) for k in range(n // 2 + 1))
        for n in range(6)
    ]
    assert expected == [1, 1, 2, 2, 4, 6]
    assert [bell_f(FIBONACCI, n) for n in range(6)] == expected


def test_bell_f_table():
    assert bell_f_table(NATURALS, 8).values == (1, 1, 2, 3, 5, 8, 13, 21, 34)
    assert bell_f_table(FIBONACCI, 3).values == (1, 1, 2, 2)
    assert bell_f_table(NATURALS, 0).values == (1,)
    with pytest.raises(ValueError):
        bell_f_table(NATURALS, -1)


def test_bell_f_table_prefix_stable():
    long = bell_f_table(FIBONACCI, 12).values
    short = bell_f_table(FIBONACCI, 5).values
    assert long[: len(short)] == short


def test_non_integral_propagates():
    lumpy = from_values("lumpy", [2, 3, 4])
    with pytest.raises(NonIntegral):
        whitney_prefab(lumpy, 3, 1)  # (2 over 1)_F = 6/4
    with pytest.raises(NonIntegral):
        bell_f(lumpy, 3)


def test_value_equal_sequences_share_one_table():
    # prefab keeps no table or cache at all, so rebuilds leave nothing behind
    vals = [2**s - 1 for s in range(1, 20)]
    expected = sum(fnomial_by_product(from_values("m", vals), 6 - k, k) for k in range(4))
    tracemalloc.start()
    try:
        for _ in range(1000):
            assert bell_f(from_values("m", vals), 6) == expected
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_prefab = snapshot.filter_traces([tracemalloc.Filter(True, prefab.__file__)])
    assert sum(stat.size for stat in in_prefab.statistics("filename")) == 0


# -- the ratio recurrences against the product oracle --------------------------

MERSENNE = from_values("mersenne", [2**s - 1 for s in range(1, 61)])


def _lumpy(seed):
    rng = random.Random(seed)
    return from_values(f"lumpy{seed}", [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(16)])


ORACLE_SEQS = [*BUILTIN_SEQUENCES.values(), MERSENNE]
LUMPY_SEQS = [from_values("lumpy", [2, 3, 4]), *map(_lumpy, range(12))]


@functools.lru_cache(maxsize=None)
def _product(seq, n, k):
    return math.prod(Fraction(seq.value(n - k + i), seq.value(i)) for i in range(1, k + 1))


def expected_fnomial(seq, n, k):
    """(n over k)_F by the product oracle; where that is not an integer, the
    NonIntegral of the factorial quotient F_n!/(F_k! F_{n-k}!)."""
    if k < 0 or k > n:
        return 0
    r = _product(seq, n, k)
    if r.denominator != 1:
        fact = [math.prod(seq.values(i)) for i in (n, k, n - k)]
        raise NonIntegral(fact[0], fact[1] * fact[2])
    return r.numerator


def outcome(fn, *args):
    """fn(*args), or the quotient carried by the NonIntegral it raises."""
    try:
        return fn(*args)
    except NonIntegral as exc:
        return ("NonIntegral", exc.numerator, exc.denominator)


# The tables walk row-major, so each raises at its first non-integral entry.
def expected_triangle(seq, n_max):
    return [[expected_fnomial(seq, n, k) for k in range(n + 1)] for n in range(n_max + 1)]


def expected_whitney_row(seq, n):
    return tuple(expected_fnomial(seq, n - k, k) for k in range(n // 2 + 1))


def expected_bell_table(seq, n_max):
    return tuple(sum(expected_whitney_row(seq, n)) for n in range(n_max + 1))


def cli_triangle(seq, n_max, tmp_path):
    """The `fnomial --table` rows for seq, read back from CSV, or the
    NonIntegral quotient parsed from the error line."""
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{v}\n" for v in seq.values(n_max)))
    out, err = StringIO(), StringIO()
    code = cli.run(["fnomial", "--seq", f"file:{path}", "--table", str(n_max), "--format", "csv"],
                   out, err)
    if code:
        prefix, suffix = "error: NonIntegral: quotient ", " is not an integer\n"
        text = err.getvalue()
        assert (code, text[: len(prefix)], text[-len(suffix) :]) == (1, prefix, suffix)
        num, den = text[len(prefix) : -len(suffix)].split("/")
        return ("NonIntegral", int(num), int(den))
    rows = [[] for _ in range(n_max + 1)]
    for line in out.getvalue().splitlines()[1:]:
        n, k, v = map(int, line.split(","))
        assert k == len(rows[n])
        rows[n].append(v)
    return rows


@pytest.mark.parametrize("seq", ORACLE_SEQS + LUMPY_SEQS, ids=lambda s: s.name)
def test_recurrences_match_product_oracle(seq, tmp_path):
    n_max = min(60, seq.limit or 60)
    table = FNomialTable(seq)
    for n in range(n_max + 1):
        for k in range(-1, n + 2):
            assert outcome(table.fnomial, n, k) == outcome(expected_fnomial, seq, n, k), (n, k)
        expected = outcome(expected_whitney_row, seq, n)
        assert outcome(lambda: whitney_row(seq, n).values) == expected, n
        assert outcome(bell_f, seq, n) == (expected if expected[0] == "NonIntegral" else sum(expected))
    assert outcome(lambda: bell_f_table(seq, n_max).values) == outcome(
        expected_bell_table, seq, n_max
    )
    triangle = outcome(expected_triangle, seq, n_max)
    assert outcome(lambda: list(table.rows(n_max))) == triangle
    assert cli_triangle(seq, n_max, tmp_path) == triangle


@pytest.mark.parametrize("path", sorted(REGISTRY["FNomialTable.fnomial"].modes))
@pytest.mark.parametrize("seq", ORACLE_SEQS + LUMPY_SEQS, ids=lambda s: s.name)
def test_fnomial_switch_both_ways_matches_product_oracle(seq, path, monkeypatch):
    calls = []
    parts = _parts.parts
    monkeypatch.setattr(_parts, "parts", lambda rule, vals: calls.append(0) or parts(rule, vals))
    n_max = min(60, seq.limit or 60)
    table = FNomialTable(seq)
    with REGISTRY["FNomialTable.fnomial"].modes[path]():
        for n in range(n_max + 1):
            for k in range(-1, n + 2):
                expected = outcome(expected_fnomial, seq, n, k)
                assert outcome(table.fnomial, n, k) == expected, (n, k)
                if n + k >= 0:
                    assert outcome(whitney_prefab, seq, n + k, k) == expected, (n, k)
    in_range = (n_max + 1) * (n_max + 2) // 2
    assert len(calls) == (2 * in_range if path == "kernel" else 0)


def test_oracle_sequences_include_non_integral_ones():
    raised = [s.name for s in ORACLE_SEQS + LUMPY_SEQS
              if outcome(expected_bell_table, s, min(60, s.limit or 60))[0] == "NonIntegral"]
    assert "odd" in raised and "lumpy" in raised and len(raised) >= 6, raised
