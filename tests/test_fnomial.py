from concurrent.futures import ThreadPoolExecutor
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import (
    DIV31,
    EVEN1,
    FIBONACCI,
    NATURALS,
    ODD,
    BudgetExceeded,
    FNomialTable,
    IndexOutOfDomain,
    NonIntegral,
    ballot,
    _parts,
    catalan,
    dominated_strings_brute,
    fnomial,
    from_values,
)
import references
from test_paths import REGISTRY

# frozen from the enumeration oracle below
CATALAN_ORACLE = [1, 1, 2, 5, 14, 42, 132]


def test_f_factorial_examples():
    fib = FNomialTable(FIBONACCI)
    assert fib.f_factorial(0) == 1  # empty product
    assert fib.f_factorial(5) == 1 * 1 * 2 * 3 * 5 == 30
    assert FNomialTable(NATURALS).f_factorial(4) == 24


def test_f_factorial_rejects_negative():
    with pytest.raises(IndexOutOfDomain):
        FNomialTable(NATURALS).f_factorial(-1)


def test_rows_refuse_a_negative_size():
    table = FNomialTable(NATURALS)
    assert list(table.rows(0)) == [[1]]
    with pytest.raises(ValueError, match=r"^need n_max >= 0, got -1$"):
        list(table.rows(-1))


def test_fnomial_examples():
    fib = FNomialTable(FIBONACCI)
    assert fib.fnomial(4, 2) == 6  # F_4!/(F_2! F_2!) with F = 1,1,2,3
    assert fib.fnomial(7, 0) == 1
    assert FNomialTable(NATURALS).fnomial(5, 2) == 10


def test_fnomial_zero_outside_range():
    fib = FNomialTable(FIBONACCI)
    assert fib.fnomial(4, -1) == 0
    assert fib.fnomial(4, 5) == 0


def test_fnomial_non_integral_carries_quotient():
    table = FNomialTable(from_values("lumpy", [2, 3]))
    with pytest.raises(NonIntegral) as exc:
        table.fnomial(2, 1)  # F_2!/(F_1! F_1!) = 6/4
    assert exc.value.numerator == 6
    assert exc.value.denominator == 4


def test_non_integral_message_prints_the_quotient_or_its_bit_lengths():
    assert str(NonIntegral(105, 9)) == "quotient 105/9 is not an integer"
    huge = 3**20000  # 9543 digits, past the default int-to-str limit
    exc = NonIntegral(huge, 4)
    assert (exc.numerator, exc.denominator) == (huge, 4)
    assert str(exc) == (
        f"quotient of a {huge.bit_length()}-bit numerator by a 3-bit denominator "
        "is not an integer"
    )


@pytest.mark.parametrize("seq", [NATURALS, FIBONACCI, EVEN1], ids=lambda s: s.name)
def test_fnomial_symmetry(seq):
    table = FNomialTable(seq)
    for n in range(0, 61):
        for k in range(0, n + 1):
            assert table.fnomial(n, k) == table.fnomial(n, n - k)


def test_pascal_recurrence_on_naturals():
    table = FNomialTable(NATURALS)
    for n in range(1, 41):
        for k in range(1, n):
            assert table.fnomial(n, k) == table.fnomial(n - 1, k - 1) + table.fnomial(n - 1, k)


@pytest.mark.parametrize("seq", [NATURALS, ODD, EVEN1, DIV31, FIBONACCI], ids=lambda s: s.name)
def test_size_estimate_is_within_k_plus_one_bits(seq):
    # Each F_i lies in [2**(b_i - 1), 2**b_i), so the quotient of the k top
    # terms by the k bottom ones is within 2**k of 2**estimate either way.
    vals = seq.values(120)
    for n in range(121):
        for k in range(n + 1):
            actual = (prod(vals[n - k : n]) // prod(vals[:k])).bit_length()
            assert abs(fnomial._estimated_bits(vals, n, k) - actual) <= k + 1, (n, k)


def test_catalan_matches_enumeration_oracle():
    for n, expected in enumerate(CATALAN_ORACLE):
        assert catalan(n) == expected
        assert dominated_strings_brute(n, n) == expected
    # Past the string budget: the exact recurrence C_{n+1} = C_n * 2(2n+1)/(n+2).
    expected = 1
    for n in range(3001):
        assert catalan(n) == expected, n
        expected = expected * 2 * (2 * n + 1) // (n + 2)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_ballot_examples():
    assert ballot(0, 5).count == 1  # the all-zero string
    assert ballot(1, 2).count == 2  # 001, 010; 100 starts with a 1
    assert ballot(3, 3).count == catalan(3) == 5
    assert ballot(4, 2).count == 0


def test_ballot_matches_oracle_everywhere_in_budget():
    for n in range(0, 21):
        for k in range(0, n + 1):
            if n + k <= 20:
                assert ballot(k, n).count == dominated_strings_brute(k, n), (k, n)


def test_diagonal_is_catalan():
    # The reflection principle, independent of ballot's closed form.
    for n in range(0, 301):
        assert ballot(n, n).count == comb(2 * n, n) - comb(2 * n, n + 1), n


def test_brute_examples():
    assert dominated_strings_brute(0, 0) == 1  # the empty string
    assert dominated_strings_brute(1, 2) == 2
    # all six arrangements of 0011 checked by hand: 0011 and 0101 pass,
    # 0110 fails at prefix 011, the rest start with 1
    assert dominated_strings_brute(2, 2) == 2 == ballot(2, 2).count


def test_brute_budget():
    with pytest.raises(BudgetExceeded):
        dominated_strings_brute(15, 14)


def test_brute_rejects_negative():
    with pytest.raises(ValueError):
        dominated_strings_brute(-1, 2)


def test_ballot_equals_brute_property():
    # Every k and n in 0..9, k > n (a count of 0) included, on every run.
    for k in range(10):
        for n in range(10):
            assert ballot(k, n).count == dominated_strings_brute(k, n), (k, n)


def test_table_is_deterministic_under_concurrent_queries():
    serial = FNomialTable(FIBONACCI)
    expected = [serial.f_factorial(n) for n in range(80)]
    shared = FNomialTable(FIBONACCI)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(shared.f_factorial, range(79, -1, -1)))
    assert results == expected[::-1]


# -- the factored kernel: primitive parts ---------------------------------------


def _smallest_prefix_without_parts(seq, n_max):
    return next((n for n in range(1, n_max + 1)
                 if _parts.sieve(seq.values(n))[1] is not None), None)


def test_primitive_parts_exist_for_strong_divisibility_sequences():
    parts, bad = _parts.sieve(NATURALS.values(1500))
    assert bad is None
    # For the naturals P_d is p when d is a power of the prime p, else 1.
    for d in range(2, 1501):
        p = next(p for p in range(2, d + 1) if d % p == 0)
        e = d
        while e % p == 0:
            e //= p
        assert parts[d] == (p if e == 1 else 1), d
    parts, bad = _parts.sieve(FIBONACCI.values(1000))
    assert bad is None and parts[:13] == [1, 1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6]


def test_primitive_parts_fail_early_on_non_morphic_builtins():
    assert _smallest_prefix_without_parts(ODD, 6) == 4  # P_4 = 7/3
    assert _smallest_prefix_without_parts(EVEN1, 6) == 6  # P_6 = 10/(2 * 4)
    assert _smallest_prefix_without_parts(DIV31, 6) == 6  # P_6 = 15/(3 * 6)


def test_sieve_reports_the_smallest_non_integral_index():
    # The d = 2 pass meets 41/2 at m = 40 before the d = 3 pass meets P_9 = 10/3.
    vals = NATURALS.values(40)
    vals[8], vals[39] = 10, 41
    parts, bad = _parts.sieve(vals)
    assert bad == 9
    assert parts[:9] == _parts.sieve(NATURALS.values(8))[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 2**70)), min_size=1, max_size=40),
       st.data())
def test_kernel_matches_oracle_on_lists_with_integral_parts(qs, data):
    # F_n = prod(Q_d for d | n) has primitive parts Q but, for most draws, is
    # not GCD-morphic: the parts exist, so every coefficient is an integer.
    n = len(qs)
    vals = [prod(qs[d - 1] for d in range(1, m + 1) if m % d == 0) for m in range(1, n + 1)]
    assert _parts.sieve(vals) == ([1, *qs], None)
    k = data.draw(st.integers(0, n))
    table = FNomialTable(from_values("parts", vals))
    with REGISTRY["FNomialTable.fnomial"].modes["kernel"]():
        assert table.fnomial(n, k) == references.fnomial(vals, n, k)
