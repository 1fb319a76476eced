import functools
import math
import random
from collections import Counter
from fractions import Fraction
from io import StringIO
from unittest import mock

import pytest

from cobweb import (
    BUILTIN_SEQUENCES,
    FIBONACCI,
    NATURALS,
    FNomialTable,
    FSequence,
    IndexOutOfDomain,
    NonIntegral,
    _parts,
    bell_f,
    bell_f_table,
    cli,
    fnomial,
    from_file,
    from_values,
    prefab,
    whitney_prefab,
    whitney_row,
)
from cobweb._memo import Memo
from test_paths import REGISTRY, _prefab_by_product, entry_results


@pytest.fixture
def memo(monkeypatch):
    """A fresh memo in place of the process-wide one."""
    fresh = Memo(_parts.MEMO_BITS)
    monkeypatch.setattr(_parts, "MEMO", fresh)
    return fresh


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


def test_value_equal_sequences_share_one_table(memo):
    vals = [2**s - 1 for s in range(1, 20)]
    expected = sum(fnomial_by_product(from_values("m", vals), 6 - k, k) for k in range(4))
    for _ in range(1000):
        assert bell_f(from_values("m", vals), 6) == expected
    assert list(memo.entries) == [(from_values("m", vals).rule, 6)]


# -- one row and one table per prefix, kept on its entry in _parts.MEMO --------


def prefab_results(seq, n):
    """whitney_row, bell_f and bell_f_table of seq at n, each as its value or
    as the type, message and quotient of the error it raises."""
    out = []
    for fn in (lambda: whitney_row(seq, n).values, lambda: bell_f(seq, n),
               lambda: bell_f_table(seq, n).values):
        try:
            out.append(fn())
        except Exception as exc:
            out.append((type(exc), str(exc), getattr(exc, "numerator", None)))
    return out


def _mersenne(count):  # rebuilt for each call, so only its values find the entry
    return from_values("mersenne", [2**s - 1 for s in range(1, count + 1)])


def test_each_row_and_table_is_computed_once_per_prefix(memo, monkeypatch):
    seqs = (lambda: FIBONACCI, lambda: NATURALS, lambda: _mersenne(100))
    calls = [(seq, n) for _ in range(3) for n in (40, 80) for seq in seqs]
    with mock.patch.object(_parts, "MEMO", Memo(0)):
        unmemoized = [prefab_results(seq(), n) for seq, n in calls]
    counts = Counter()
    row, sums = prefab._row, prefab._bell_sums
    monkeypatch.setattr(prefab, "_row", lambda vals: counts.update([("row", *vals)]) or row(vals))
    monkeypatch.setattr(prefab, "_bell_sums", lambda seq, n: counts.update(
        [("bell", *seq.values(n))]) or sums(seq, n))
    assert [prefab_results(seq(), n) for seq, n in calls] == unmemoized
    expected = {(kind, *seq().values(n)) for kind in ("row", "bell") for seq in seqs
                for n in (40, 80)}
    assert set(counts) == expected and set(counts.values()) == {1}
    assert set(memo.entries) == {(seq().rule, n) for seq in seqs for n in (40, 80)}
    # prefab needs no sieve
    assert all(set(entry_results(e)) == {"row", "sum", "bell"} for e, _ in memo.entries.values())


def test_a_rule_whose_values_change_gets_fresh_results(memo):
    terms = list(range(1, 41))
    seq = FSequence("mutable", lambda s: terms[s - 1])
    naturals = _prefab_by_product(seq, 40)
    assert prefab_results(seq, 40) == naturals
    terms[:] = [1, 1]
    while len(terms) < 40:
        terms.append(terms[-1] + terms[-2])
    fibonacci = _prefab_by_product(seq, 40)
    assert fibonacci != naturals and prefab_results(seq, 40) == fibonacci
    terms[:] = range(1, 41)
    terms[29] = 31  # (30 over 2)_F = 31 * 29 / 2
    assert [r[0] for r in prefab_results(seq, 40)] == [NonIntegral] * 3
    terms[29] = 30
    assert prefab_results(seq, 40) == naturals


def test_errors_are_raised_afresh_on_every_call(memo, tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("".join(f"{s}\n" for s in range(1, 11)))
    lumpy = tmp_path / "lumpy.txt"
    lumpy.write_text("2\n3\n4\n")
    cases = {
        (from_values("lumpy", [2, 3, 4]), 3): [NonIntegral] * 3,
        (from_file(str(short)), 12): [IndexOutOfDomain] * 3,
        # The table stops at the NonIntegral of row 3 before it runs out of terms.
        (from_file(str(lumpy)), 10): [IndexOutOfDomain, IndexOutOfDomain, NonIntegral],
        (NATURALS, -1): [ValueError] * 3,
    }
    with mock.patch.object(_parts, "MEMO", Memo(0)):
        unmemoized = {case: prefab_results(*case) for case in cases}
    for _ in range(3):
        for case, errors in cases.items():
            results = prefab_results(*case)
            assert results == unmemoized[case] and [r[0] for r in results] == errors, case
    assert unmemoized[from_file(str(short)), 12][2][1].endswith("up to index 10, got 11")
    assert [r[1] for r in unmemoized[NATURALS, -1]] == [
        "need n >= 0, got -1", "need n >= 0, got -1", "need n_max >= 0, got -1"]
    assert all(entry_results(e) == {} for e, _ in memo.entries.values())


def test_prefab_results_filling_the_memo_stay_within_its_bits(memo):
    for n in range(100, 251):
        seq = _mersenne(250)
        assert whitney_row(seq, n).values[-1] == fnomial_by_product(seq, n - n // 2, n // 2)
        assert memo.charged == sum(e.bits for e, _ in memo.entries.values()) <= _parts.MEMO_BITS
    assert 10 < len(memo.entries) < 151
    assert all("row" in entry_results(e) for e, _ in memo.entries.values())


def test_a_result_past_the_bound_is_returned_but_not_stored(monkeypatch):
    seq = _mersenne(100)
    entry_bits = _parts._bits(seq.rule.vals)
    memo = Memo(entry_bits + 1000)
    monkeypatch.setattr(_parts, "MEMO", memo)
    expected = _prefab_by_product(seq, 100)
    for _ in range(2):
        assert prefab_results(seq, 100) == expected
        [(e, charged)] = memo.entries.values()
        assert (entry_results(e), charged) == ({}, entry_bits)


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


def cli_bell_table(seq, n_max, tmp_path):
    """The `bell --family prefab --table` sums for seq, read back from CSV, or
    the NonIntegral quotient parsed from the error line."""
    path = tmp_path / "bell.txt"
    path.write_text("".join(f"{v}\n" for v in seq.values(n_max)))
    out, err = StringIO(), StringIO()
    code = cli.run(["bell", "--family", "prefab", "--seq", f"file:{path}", "--n", str(n_max),
                    "--table", "--format", "csv"], out, err)
    if code:
        prefix, suffix = "error: NonIntegral: quotient ", " is not an integer\n"
        text = err.getvalue()
        assert (code, text[: len(prefix)], text[-len(suffix) :]) == (1, prefix, suffix)
        num, den = text[len(prefix) : -len(suffix)].split("/")
        return ("NonIntegral", int(num), int(den))
    lines = out.getvalue().splitlines()
    assert lines[0] == "n,value"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert [n for n, _ in rows] == list(range(n_max + 1))
    return tuple(v for _, v in rows)


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
    assert cli_bell_table(seq, n_max, tmp_path) == outcome(expected_bell_table, seq, n_max)


@pytest.mark.parametrize("path", sorted(REGISTRY["FNomialTable.fnomial"].modes))
@pytest.mark.parametrize("seq", ORACLE_SEQS + LUMPY_SEQS, ids=lambda s: s.name)
def test_fnomial_switch_both_ways_matches_product_oracle(seq, path, monkeypatch):
    products = []
    kernel = fnomial._kernel
    monkeypatch.setattr(fnomial, "_kernel", lambda parts, n, k: products.append((n, k)) or kernel(
        parts, n, k))
    n_max = min(60, seq.limit or 60)
    table = FNomialTable(seq)
    with REGISTRY["FNomialTable.fnomial"].modes[path]():  # each on a fresh memo
        for n in range(n_max + 1):
            for k in range(-1, n + 2):
                expected = outcome(expected_fnomial, seq, n, k)
                assert outcome(table.fnomial, n, k) == expected, (n, k)
                if n + k >= 0:
                    assert outcome(whitney_prefab, seq, n + k, k) == expected, (n, k)
    # Each in-range (n, k) is asked for twice.  Where P_1..P_n are integers the
    # kernel builds it: once per (n, min(k, n - k)) with the memo, on every
    # call without it, and never on the falling product.
    integral = [n for n in range(n_max + 1) if _parts.sieve(seq.values(n))[1] is None]
    asked = Counter((n, min(k, n - k)) for n in integral for k in range(n + 1) for _ in range(2))
    built = {"kernel": Counter(set(asked)), "no memo": asked, "falling": Counter()}
    assert Counter(products) == built[path]


def test_oracle_sequences_include_non_integral_ones():
    raised = [s.name for s in ORACLE_SEQS + LUMPY_SEQS
              if outcome(expected_bell_table, s, min(60, s.limit or 60))[0] == "NonIntegral"]
    assert "odd" in raised and "lumpy" in raised and len(raised) >= 6, raised
