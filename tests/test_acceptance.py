"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import math
import re
from fractions import Fraction
from io import StringIO

from cobweb import (
    DIV31,
    EVEN1,
    FIBONACCI,
    NATURALS,
    ODD,
    FNomialTable,
    FinitePoset,
    bell_f,
    build_cobweb,
    build_grid,
    catalan,
    cli,
    grid_chain_count,
    is_gcd_morphic,
    layer_chain_count,
    rank_function,
    size_formula,
    stirling1_grid,
    stirling2_closed,
    stirling2_grid,
    to_dot,
    whitney,
    whitney_prefab,
)


def _passed(n, title):
    print(f"[acceptance] criterion {n} ({title}): PASS")


def _fib_direct(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_criterion_1_strict_size_formula():
    cases = 0
    for n in range(2, 41):
        for k in range(1, n):
            g = build_grid(k, n, "strict")
            assert len(g.poset) == (n - k) * (k + 1) + k * (k + 1) // 2
            cases += 1
    assert cases == 780
    _passed(1, "strict grid size equals closed formula, 780 cases")


def test_criterion_2_rank_formula():
    for n in range(2, 41):
        for k in range(1, n):
            g = build_grid(k, n, "strict")
            ranks = rank_function(g.poset)
            for e in g.poset.elements:
                assert ranks.rank[e] == e.l + e.m - 1, e
            assert ranks.max_rank == k + n - 1
    _passed(2, "computed rank is l+m-1 elementwise, max rank k+n-1")


def test_criterion_3_corrected_chain_count():
    for n in range(0, 9):
        for k in range(0, n + 1):
            brute = grid_chain_count(k, n, "weak", "brute")
            closed = (n - k + 1) * math.comb(n + k, k) // (n + 1)
            assert brute == closed, (k, n)
    # the diagonal is the Catalan sequence
    assert [grid_chain_count(n, n, "weak", "brute") for n in range(6)] == [1, 1, 2, 5, 14, 42]
    # the printed variant ((n+1-k)/n) C(k+n, n) fails at (k, n) = (1, 2):
    # it gives 3 where the brute count is 2 (documented discrepancy)
    printed = Fraction(2 + 1 - 1, 2) * math.comb(1 + 2, 2)
    assert printed == 3
    assert grid_chain_count(1, 2, "weak", "brute") == 2 != printed
    _passed(3, "weak chains = ballot form, Catalan diagonal, printed variant refuted")


def test_criterion_4_second_kind_sums_and_closed_form():
    for m in range(1, 41):
        for l in range(0, m):
            assert sum(stirling2_grid(k, l, m) for k in range(l + m)) == size_formula(l, m)
    for m in range(1, 31):
        for l in range(0, m):
            for k in range(0, l + m):
                assert stirling2_closed(k, l, m) == stirling2_grid(k, l, m), (k, l, m)
    _passed(4, "second-kind sums equal size; closed form matches slant count")


def test_criterion_5_first_kind_experimental():
    for m in range(2, 13):
        for l in range(0, m):
            if size_formula(l, m) >= 2:
                assert sum(stirling1_grid(k, l, m) for k in range(l + m)) == 0, (l, m)
    for length in range(2, 8):
        els = list(range(length))
        p = FinitePoset(els, [(i, i + 1) for i in range(length - 1)])
        expected = (1, -1) + (0,) * (length - 2)
        assert whitney(p, "first").values == expected
    _passed(5, "first-kind sums vanish; chain poset gives (1, -1, 0, ...)")


def test_criterion_6_prefab_whitney_is_fnomial():
    for seq in (NATURALS, FIBONACCI):
        table = FNomialTable(seq)
        for n in range(0, 61):
            for k in range(-1, n + 2):
                assert whitney_prefab(seq, n, k) == table.fnomial(n - k, k), (seq.name, n, k)
    _passed(6, "prefab Whitney equals the F-nomial, integral for naturals/fibonacci")


def test_criterion_7_bell_specializations():
    for n in range(0, 41):
        assert bell_f(NATURALS, n) == _fib_direct(n + 1)
    # independent recomputation by direct summation in exact rationals
    def fnomial_product(seq, n, k):
        r = Fraction(1)
        for i in range(1, k + 1):
            r *= Fraction(seq.value(n - k + i), seq.value(i))
        assert r.denominator == 1
        return r.numerator

    recomputed = [
        sum(fnomial_product(FIBONACCI, n - k, k) for k in range(n // 2 + 1))
        for n in range(6)
    ]
    assert recomputed == [1, 1, 2, 2, 4, 6]
    assert [bell_f(FIBONACCI, n) for n in range(6)] == recomputed
    _passed(7, "Bell over naturals is Fibonacci(n+1); fibonacci prefix recomputed")


def test_criterion_8_gcd_morphic():
    assert is_gcd_morphic(FIBONACCI, 50).holds
    assert is_gcd_morphic(NATURALS, 50).holds
    report = is_gcd_morphic(EVEN1, 50)
    assert not report.holds
    n, m = report.witness
    lhs = math.gcd(EVEN1.value(n), EVEN1.value(m))
    rhs = EVEN1.value(math.gcd(n, m))
    assert lhs == report.gcd_of_values
    assert rhs == report.f_at_gcd
    assert lhs != rhs
    _passed(8, "fibonacci/naturals GCD-morphic to 50; even1 witness reproduces")


def test_criterion_9_cobweb_structure():
    edge_re = re.compile(r'^\s*"[^"]*" -> "[^"]*";$', re.M)
    grouped_re = re.compile(r'"[^"]*";')
    for seq in (NATURALS, FIBONACCI, ODD, EVEN1, DIV31):
        for level_max in range(1, 7):
            c = build_cobweb(seq, level_max)
            widths = c.widths
            assert len(c.poset) == sum(widths)
            assert len(c.poset.covers) == sum(
                widths[i] * widths[i + 1] for i in range(level_max - 1)
            )
        c6 = build_cobweb(seq, 6)
        for k in range(1, 6):
            for n in range(k + 1, 7):
                closed = math.prod(c6.widths[k - 1 : n])
                if closed <= 10_000:
                    assert layer_chain_count(c6, k, n, "brute") == closed, (seq.name, k, n)
        text = to_dot(c6.poset, c6.level_of(), name=seq.name)
        nodes = sum(
            len(grouped_re.findall(line))
            for line in text.splitlines()
            if line.strip().startswith("{ rank=same;")
        )
        edges = len(edge_re.findall(text))
        assert nodes == len(c6.poset)
        assert edges == len(c6.poset.covers)
    _passed(9, "cobweb vertex/edge counts, layer chain products, DOT round-trip")


CLI_MATRIX = [
    ["seq", "--seq", "fibonacci", "--count", "12"],
    ["seq", "--seq", "even1", "--gcd-morphic", "20"],
    ["seq", "--seq", "naturals", "--gcd-morphic", "20", "--format", "json"],
    ["fnomial", "--seq", "fibonacci", "--n", "4", "--k", "2"],
    ["fnomial", "--seq", "fibonacci", "--table", "8", "--format", "csv"],
    ["fnomial", "--seq", "div31", "--n", "6", "--k", "3", "--format", "json"],
    ["catalan", "--n", "10"],
    ["ballot", "--k", "3", "--n", "5", "--format", "csv"],
    ["grid", "--k", "2", "--n", "4"],
    ["grid", "--k", "2", "--n", "4", "--what", "ranks", "--format", "csv"],
    ["grid", "--k", "2", "--n", "4", "--mode", "weak", "--what", "elements"],
    ["whitney", "--family", "grid", "--l", "2", "--m", "4", "--kind", "second"],
    ["whitney", "--family", "grid", "--l", "2", "--m", "4", "--kind", "first", "--format", "json"],
    ["whitney", "--family", "prefab", "--seq", "fibonacci", "--n", "9"],
    ["bell", "--family", "grid", "--l", "3", "--m", "5"],
    ["bell", "--family", "prefab", "--seq", "naturals", "--n", "12", "--table"],
    ["bell", "--family", "prefab", "--seq", "odd", "--n", "7", "--format", "json"],
    ["chains", "--family", "grid", "--k", "2", "--n", "4", "--mode", "weak", "--method", "brute"],
    ["chains", "--family", "grid", "--k", "2", "--n", "4", "--mode", "strict", "--method", "closed"],
    ["chains", "--family", "cobweb", "--seq", "even1", "--k", "1", "--n", "4", "--method", "brute", "--format", "json"],
    ["mobius", "--k", "1", "--n", "3", "--format", "csv"],
    ["dot", "--family", "cobweb", "--seq", "fibonacci", "--levels", "5"],
    ["dot", "--family", "grid", "--k", "2", "--n", "3", "--mode", "weak"],
    ["problems", "--l", "2", "--m", "4"],
    ["problems", "--l", "1", "--m", "4", "--format", "json"],
]


def _run_cli(argv):
    out, err = StringIO(), StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_cli_determinism():
    for argv in CLI_MATRIX:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, argv
        assert first[0] == 0, (argv, first)
    _passed(10, "every matrix invocation is byte-identical across two runs")
