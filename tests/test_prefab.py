from fractions import Fraction

import pytest

from cobweb import (
    FIBONACCI,
    NATURALS,
    NonIntegral,
    bell_f,
    bell_f_table,
    from_values,
    prefab,
    whitney_prefab,
    whitney_row,
)


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
    vals = [2**s - 1 for s in range(1, 20)]
    before = len(prefab._tables)
    expected = bell_f(from_values("m", vals), 6)
    for _ in range(1000):
        assert bell_f(from_values("m", vals), 6) == expected
    assert len(prefab._tables) <= before + 1
