"""Stdlib references for the tests, one per quantity.

The rule: each quantity the tests check has one reference, here and nowhere
else under ``tests/``.  A reference takes plain values, ints and lists of
ints, never a cobweb object, and nothing here imports ``cobweb``, so a wrong
library result cannot also be the expected one.

Where a product is not an integer, a reference returns the unreduced
quotient that cobweb's ``NonIntegral`` carries, tagged: ``("NonIntegral",
F_n!, F_k! F_{n-k}!)``.  A row fails at its first failing entry, and a table
at its first failing row, reading F_n as row n starts.

``checks`` is the benchmark's ``bench/checks.py``, the references over named
sequences that test_references.py pins CLI outputs to, read from its file so
that nothing under ``bench/`` is written, bytecode included.
"""

import json
import math
import sys
import types
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

CHECKS_PATH = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def _load(path: Path) -> types.ModuleType:
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


checks = _load(CHECKS_PATH)


def fibonacci(count):
    """F_1, F_2, ..., F_count by the addition loop, one at a time."""
    a, b = 1, 1
    for _ in range(count):
        yield a
        a, b = b, a + b


def failed(result):
    """Whether a reference's result is a non-integral quotient."""
    return type(result) is tuple and result[:1] == ("NonIntegral",)


def fnomial(vals, n, k):
    """(n over k)_F = prod F_{n-k+i}/F_i over i = 1..k in exact rationals,
    for F_s = vals[s - 1]; 0 outside 0 <= k <= n.  Where the product is not
    an integer, ("NonIntegral", F_n!, F_k! F_{n-k}!)."""
    return _fnomial(tuple(vals[:n]), n, k) if 0 <= k <= n else 0


@lru_cache(maxsize=1 << 16)  # the tables of the tests ask each (n, k) many times
def _fnomial(vals, n, k):
    r = math.prod(Fraction(vals[n - k + i - 1], vals[i - 1]) for i in range(1, k + 1))
    if r.denominator == 1:
        return r.numerator
    return "NonIntegral", math.prod(vals), math.prod(vals[:k]) * math.prod(vals[: n - k])


def _first_failure(row):
    return next((v for v in row if failed(v)), row)


def _row_major(terms, n_max, row):
    """[row(F_1..F_n, n) for n = 0..n_max], with F_n read from terms as row n
    starts, or the failure of the first row that fails."""
    terms, vals, rows = iter(terms), [], []
    for n in range(n_max + 1):
        if n:
            vals.append(next(terms))
        rows.append(row(vals, n))
        if failed(rows[-1]):
            return rows[-1]
    return rows


def fnomial_triangle(terms, n_max):
    """The rows [(n over 0)_F, ..., (n over n)_F] for n = 0..n_max."""
    return _row_major(terms, n_max, lambda vals, n: _first_failure(
        [fnomial(vals, n, k) for k in range(n + 1)]))


def whitney_row(vals, n):
    """The prefab Whitney row W_k = (n - k over k)_F, k = 0..n // 2."""
    return _first_failure(tuple(fnomial(vals, n - k, k) for k in range(n // 2 + 1)))


def bell(vals, n):
    """B_n, the sum of the Whitney row n."""
    row = whitney_row(vals, n)
    return row if failed(row) else sum(row)


def bell_table(terms, n_max):
    """B_0..B_n_max."""
    sums = _row_major(terms, n_max, bell)
    return sums if failed(sums) else tuple(sums)


def gcd_morphic(vals):
    """(holds, witness, GCD[F_n, F_m], F_GCD[n, m]) of GCD[F_n, F_m] =
    F_GCD[n, m] over the full square 1 <= n, m <= len(vals): at the first
    failing pair (n, m), scanning n then m, or (True, None, None, None)."""
    count = len(vals)
    for n in range(1, count + 1):
        for m in range(1, count + 1):
            g, f = math.gcd(vals[n - 1], vals[m - 1]), vals[math.gcd(n, m) - 1]
            if g != f:
                return False, (n, m), g, f
    return True, None, None, None


def primitive_parts(vals):
    """P_1, ..., P_{m-1} and m, the first index whose P_m = F_m / prod(P_d for
    d | m, d < m) is not an integer, or all len(vals) parts and None."""
    parts = [1]
    for m, f in enumerate(vals, 1):
        below = math.prod(parts[d] for d in range(1, m) if m % d == 0)
        if f % below:
            return parts, m
        parts.append(f // below)
    return parts, None


def grid_whitney(l, m, kind):
    """The Whitney numbers of the strict grid (l, m), ranks 0..l + m - 1: of
    the second kind the number of elements of each rank, of the first kind
    the sum of mu(0, x) over the elements x of each rank, 0 = (0, 1), with mu
    from the Boolean-interval rows of ``checks``."""
    values = [0] * (l + m)
    if kind == "second":
        for e in checks.grid_elements(l, m, "strict"):
            values[checks.grid_rank(e, "strict")] += 1
    else:
        for a, b, c, d, mu in checks.grid_mobius_rows(l, m, "strict"):
            if (a, b) == (0, 1):
                values[checks.grid_rank((c, d), "strict")] += mu
    return values


def grid_bell(l, m):
    """The Bell-like number of the strict grid (l, m): its second-kind
    Whitney numbers summed."""
    return sum(grid_whitney(l, m, "second"))


def problems(l, m):
    """(columns, rows) of the problems table of the strict grid (l, m): for
    each rank k, the Whitney numbers of both kinds, then, for each neighbour
    (l, m - 1) and (l - 1, m) that is still a strict grid, the differences
    from its numbers, which are 0 past its top rank."""
    columns, near = ["k", "stirling1", "stirling2"], []
    for tag, nl, nm in (("dm", l, m - 1), ("dl", l - 1, m)):
        if 0 <= nl < nm:
            columns += [f"d1_{tag}", f"d2_{tag}"]
            near.append([grid_whitney(nl, nm, kind) + [0] for kind in ("first", "second")])
    kinds = [grid_whitney(l, m, kind) for kind in ("first", "second")]
    rows = []
    for k in range(l + m):
        row = [k, *(w[k] for w in kinds)]
        for vs in near:
            row += [w[k] - v[k] for w, v in zip(kinds, vs)]
        rows.append(row)
    return columns, rows


def weak_grid_chains(k, n):
    """The maximal chains of the weak grid (k, n), from (0, 0) to (k, n),
    counted over the covers: each element is reached by as many chains as
    the elements it covers, (l - 1, m) and (l, m - 1), together."""
    count = {}
    for l, m in checks.grid_elements(k, n, "weak"):  # each element after those it covers
        below = [count[x] for x in ((l - 1, m), (l, m - 1)) if x in count]
        count[l, m] = sum(below) if below else 1
    return count[k, n]


def cobweb_chains(widths):
    """The maximal chains of the cobweb levels of these widths: every level
    covers all of the one below, so a chain picks one vertex per level."""
    return math.prod(widths)


def lifted_str(v):
    """str(v) with the int-to-str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def record_text(value, columns, rows, fmt):
    """The text fmt gives for a record of command "t" with no params, of a
    value or of columns and rows, every int written by lifted_str: the
    reference the CLI's renderer is pinned to."""
    if rows is not None:
        cells = [[lifted_str(v) for v in row] for row in rows]
        sep = "," if fmt == "csv" else " "
        if fmt != "json":
            return "\n".join([sep.join(columns), *(sep.join(row) for row in cells)]) + "\n"
        rows = ", ".join("[" + ", ".join(f'"{c}"' for c in row) + "]" for row in cells)
        result = f'{{"columns": {json.dumps(list(columns))}, "rows": [{rows}]}}'
    else:
        digits = lifted_str(value)
        if fmt != "json":
            return ("value\n" if fmt == "csv" else "") + digits + "\n"
        result = f'"{digits}"'
    return f'{{"command": "t", "params": {{}}, "result": {result}}}\n'


def dot_text(elements, covers, levels=None, name="poset"):
    """DOT text rendered one f-string per node and per cover pair, from an
    element list and a cover-pair list, each element named by its str()."""
    def quote(label):
        return '"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'

    quoted = {el: quote(el) for el in elements}
    lines = [f"digraph {quote(name)} {{", "  rankdir=BT;"]
    if levels is not None and quoted:
        by_level = {}
        for el, q in quoted.items():
            by_level.setdefault(levels[el], []).append(q)
        for level in sorted(by_level):
            members = " ".join(f"{q};" for q in by_level[level])
            lines.append(f"  {{ rank=same; {members} }}")
    else:
        lines += [f"  {q};" for q in quoted.values()]
    lines += [f"  {quoted[x]} -> {quoted[y]};" for x, y in covers]
    return "\n".join(lines) + "\n}\n"


def exact_prefix(parts_and_bad, n):
    """The parts a sieve result vouches for: P_1..P_{bad-1}, or P_1..P_n."""
    parts, bad = parts_and_bad
    return parts[: bad or n + 1], bad
