import random
from collections import Counter
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
    fnomial,
    from_file,
    from_values,
    prefab,
    whitney_prefab,
    whitney_row,
)
import references
from test_parts import _CHANGING, _cost, _mersenne, model
from test_paths import REGISTRY, outcome


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
        assert row.values == references.whitney_row(FIBONACCI.values(n), n)
        assert row.values[0] == 1


def test_bell_f_naturals_is_fibonacci():
    fib = [0, *references.fibonacci(25)]  # fib[s] = F_s
    assert bell_f(NATURALS, 5) == 1 + 4 + 3 == 8 == fib[6]
    for n in range(0, 25):
        assert bell_f(NATURALS, n) == fib[n + 1]


def test_bell_f_fibonacci_prefix():
    # recomputed by direct summation of the fibonomial diagonals
    expected = [references.bell(FIBONACCI.values(n), n) for n in range(6)]
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
    with model() as m:
        for _ in range(20):
            m.call("sum", from_values("m", [2**s - 1 for s in range(1, 20)]), 6)


# -- one row and one table per prefix, kept on its entry in _parts.MEMO --------


def test_each_row_and_table_is_computed_once_per_prefix():
    with model() as m:
        for _ in range(3):
            for n in (40, 80):
                for seq in (FIBONACCI, NATURALS, _mersenne(100)):
                    for kind in ("row", "sum", "table"):
                        m.call(kind, seq, n)


def test_a_rule_whose_values_change_gets_fresh_results():
    with model() as m:
        for terms in ("naturals", "fibonacci", "sevens", "naturals"):
            m.terms[:] = _CHANGING[terms]
            for kind in ("row", "sum", "table"):
                m.call(kind, m.changing, 40)
        m.terms[29] = 31  # (30 over 2)_F = 31 * 29 / 2
        for kind in ("row", "sum", "table"):
            m.call(kind, m.changing, 40)


def test_errors_are_raised_afresh_on_every_call(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("".join(f"{s}\n" for s in range(1, 11)))
    lumpy = tmp_path / "lumpy.txt"
    lumpy.write_text("2\n3\n4\n")
    # The lumpy table stops at the NonIntegral of row 3 before it runs out of terms.
    with model() as m:
        for _ in range(3):
            for seq, n in ((from_values("lumpy", [2, 3, 4]), 3), (from_file(str(short)), 12),
                           (from_file(str(lumpy)), 10)):
                for kind in ("row", "sum", "table"):
                    m.call(kind, seq, n)
    for _ in range(3):
        for read, bound in ((whitney_row, "n"), (bell_f, "n"), (bell_f_table, "n_max")):
            with pytest.raises(ValueError, match=rf"^need {bound} >= 0, got -1$"):
                read(NATURALS, -1)


def test_prefab_results_filling_the_memo_stay_within_its_bits():
    # Room for four of the sixteen entries, each with its row.
    seq, ns = _mersenne(250), range(100, 251, 10)
    with model(4 * (_cost(seq.rule.vals) + _cost(references.whitney_row(seq.rule.vals, 250)))) as m:
        for n in ns:
            m.call("row", _mersenne(250), n)
        assert 1 < len(m.memo.entries) < len(ns)


def test_a_result_past_the_bound_is_returned_but_not_stored():
    with model(_cost(_mersenne(100).rule.vals) + 1000) as m:
        for _ in range(2):
            for kind in ("row", "sum", "table"):
                m.call(kind, _mersenne(100), 100)


# -- the ratio recurrences against the product oracle --------------------------

MERSENNE = from_values("mersenne", [2**s - 1 for s in range(1, 61)])


def _lumpy(seed):
    rng = random.Random(seed)
    return from_values(f"lumpy{seed}", [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(16)])


ORACLE_SEQS = [*BUILTIN_SEQUENCES.values(), MERSENNE]
LUMPY_SEQS = [from_values("lumpy", [2, 3, 4]), *map(_lumpy, range(12))]


def _cli_csv(argv, seq, n_max, tmp_path):
    """The header and int rows of the CSV the CLI writes for argv over seq,
    read from a file, or the NonIntegral quotient parsed from the error line."""
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{v}\n" for v in seq.values(n_max)))
    out, err = StringIO(), StringIO()
    code = cli.run([argv[0], "--seq", f"file:{path}", *argv[1:], "--format", "csv"], out, err)
    if code:
        prefix, suffix = "error: NonIntegral: quotient ", " is not an integer\n"
        text = err.getvalue()
        assert (code, text[: len(prefix)], text[-len(suffix) :]) == (1, prefix, suffix)
        num, den = text[len(prefix) : -len(suffix)].split("/")
        return ("NonIntegral", int(num), int(den))
    header, *lines = out.getvalue().splitlines()
    return header, [tuple(map(int, line.split(","))) for line in lines]


def cli_triangle(seq, n_max, tmp_path):
    """The `fnomial --table` rows for seq, or its NonIntegral quotient."""
    got = _cli_csv(["fnomial", "--table", str(n_max)], seq, n_max, tmp_path)
    if references.failed(got):
        return got
    assert [row[:2] for row in got[1]] == [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
    values = iter(v for _, _, v in got[1])
    return [[next(values) for _ in range(n + 1)] for n in range(n_max + 1)]


def cli_bell_table(seq, n_max, tmp_path):
    """The `bell --family prefab --table` sums for seq, or its NonIntegral
    quotient."""
    got = _cli_csv(["bell", "--family", "prefab", "--n", str(n_max), "--table"], seq, n_max,
                   tmp_path)
    if references.failed(got):
        return got
    header, rows = got
    assert header == "n,value"
    assert [n for n, _ in rows] == list(range(n_max + 1))
    return tuple(v for _, v in rows)


@pytest.mark.parametrize("seq", ORACLE_SEQS + LUMPY_SEQS, ids=lambda s: s.name)
def test_recurrences_match_product_oracle(seq, tmp_path):
    n_max = min(60, seq.limit or 60)
    table, vals = FNomialTable(seq), seq.values(n_max)
    for n in range(n_max + 1):
        for k in range(-1, n + 2):
            assert outcome(table.fnomial, n, k) == references.fnomial(vals, n, k), (n, k)
        assert outcome(lambda: whitney_row(seq, n).values) == references.whitney_row(vals, n), n
        assert outcome(bell_f, seq, n) == references.bell(vals, n), n
    bell_table = references.bell_table(vals, n_max)
    assert outcome(lambda: bell_f_table(seq, n_max).values) == bell_table
    triangle = references.fnomial_triangle(vals, n_max)
    assert outcome(lambda: list(table.rows(n_max))) == triangle
    assert cli_triangle(seq, n_max, tmp_path) == triangle
    assert cli_bell_table(seq, n_max, tmp_path) == bell_table


@pytest.mark.parametrize("path", sorted(REGISTRY["FNomialTable.fnomial"].modes))
@pytest.mark.parametrize("seq", ORACLE_SEQS + LUMPY_SEQS, ids=lambda s: s.name)
def test_fnomial_switch_both_ways_matches_product_oracle(seq, path, monkeypatch):
    products = []
    kernel = fnomial._kernel
    monkeypatch.setattr(fnomial, "_kernel", lambda parts, n, k: products.append((n, k)) or kernel(
        parts, n, k))
    n_max = min(60, seq.limit or 60)
    table, vals = FNomialTable(seq), seq.values(n_max)
    with REGISTRY["FNomialTable.fnomial"].modes[path]():  # each on a fresh memo
        for n in range(n_max + 1):
            for k in range(-1, n + 2):
                expected = references.fnomial(vals, n, k)
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
    raised = []
    for s in ORACLE_SEQS + LUMPY_SEQS:
        n_max = min(60, s.limit or 60)
        if references.failed(references.bell_table(s.values(n_max), n_max)):
            raised.append(s.name)
    assert "odd" in raised and "lumpy" in raised and len(raised) >= 6, raised
