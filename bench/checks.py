"""Reference values and output checks for the benchmark.

Nothing here imports ``cobweb``: every expected value comes from the small
independent references below (closed forms, product formulas, harness-side
loops), so a wrong library result cannot also be the expected one.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

# Python refuses int <-> decimal str conversions above this many digits; the
# CLI renders with str(), so any larger result fails to print.
INT_STR_DIGITS = 4300


# -- sequences ---------------------------------------------------------------


@lru_cache(maxsize=None)
def fib_list(count: int) -> tuple[int, ...]:
    vals = [1, 1]
    while len(vals) < count:
        vals.append(vals[-1] + vals[-2])
    return tuple(vals[:count])


def seq_values(name: str, count: int) -> tuple[int, ...]:
    """[F_1, ..., F_count] for the sequences the workloads use."""
    if name == "fibonacci":
        return fib_list(count)
    rules = {
        "naturals": lambda s: s,
        "odd": lambda s: 2 * s - 1,
        "even1": lambda s: 1 if s == 1 else 2 * (s - 1),
        "div31": lambda s: 1 if s == 1 else 3 * (s - 1),
        "mersenne": lambda s: (1 << s) - 1,
    }
    return tuple(rules[name](s) for s in range(1, count + 1))


def fnomial(seq: str, n: int, k: int) -> int:
    """(n over k)_F by the product formula, one exact division at the end."""
    if k < 0 or k > n:
        return 0
    if seq == "naturals":
        return math.comb(n, k)
    v = seq_values(seq, n)
    num = math.prod(v[n - k + i - 1] for i in range(1, k + 1))
    den = math.prod(v[i - 1] for i in range(1, k + 1))
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{seq} is not GCD-morphic at ({n}, {k})")
    return q


def fnomial_row(seq: str, n: int) -> list[int]:
    """Row n of the F-nomial triangle: C(n, k) = C(n, k-1) F_{n-k+1} / F_k."""
    v = seq_values(seq, max(n, 1))
    row = [1]
    for k in range(1, n + 1):
        q, r = divmod(row[-1] * v[n - k], v[k - 1])
        if r:
            raise ValueError(f"{seq} is not GCD-morphic in row {n}")
        row.append(q)
    return row


@lru_cache(maxsize=256)
def whitney_row(seq: str, n: int) -> tuple[int, ...]:
    return tuple(fnomial(seq, n - k, k) for k in range(n // 2 + 1))


def bell(seq: str, n: int) -> int:
    if seq == "naturals":
        return fib_list(n + 1)[n]  # B_n(naturals) = Fib(n + 1)
    return sum(whitney_row(seq, n))


def gcd_morphic(seq: str, range_max: int) -> tuple:
    """(holds, n, m, gcd_of_values, f_at_gcd) for the first failing pair,
    scanning n then m."""
    v = seq_values(seq, range_max)
    for n in range(1, range_max + 1):
        for m in range(1, range_max + 1):
            g = math.gcd(v[n - 1], v[m - 1])
            f = v[math.gcd(n, m) - 1]
            if g != f:
                return (False, n, m, g, f)
    return (True, None, None, None, None)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def ballot(k: int, n: int) -> int:
    return 0 if k > n else (n - k + 1) * math.comb(n + k, k) // (n + 1)


def strict_chains(k: int, n: int) -> int:
    return (n - k) * math.comb(n + k - 1, k) // n


# -- grids and cobwebs -------------------------------------------------------


def grid_elements(k: int, n: int, mode: str) -> list[tuple[int, int]]:
    lo = 1 if mode == "strict" else 0
    return [(l, m) for l in range(k + 1) for m in range(l + lo, n + 1)]


def grid_size(k: int, n: int, mode: str) -> int:
    if mode == "strict":
        return (n - k) * (k + 1) + k * (k + 1) // 2
    return (k + 1) * (n + 1) - k * (k + 1) // 2


def grid_rank(e: tuple[int, int], mode: str) -> int:
    return e[0] + e[1] - (1 if mode == "strict" else 0)


def grid_covers(k: int, n: int, mode: str) -> int:
    have = set(grid_elements(k, n, mode))
    return sum(((l + 1, m) in have) + ((l, m + 1) in have) for l, m in have)


def grid_mobius_rows(k: int, n: int, mode: str) -> list[tuple[int, ...]]:
    """Every comparable pair (x <= y) with mu(x, y), in element order.

    The grids are distributive sublattices of N^2, so mu is nonzero only on
    Boolean intervals: 1 at x = y, -1 on a cover, +1 at x + (1, 1) when both
    x + (1, 0) and x + (0, 1) are present, and 0 otherwise.
    """
    els = grid_elements(k, n, mode)
    have = set(els)
    rows = []
    for x in els:
        a, b = x
        for y in els:
            c, d = y
            if c < a or d < b:
                continue
            dl, dm = c - a, d - b
            if dl + dm == 0:
                mu = 1
            elif dl + dm == 1:
                mu = -1
            elif dl == dm == 1 and (a + 1, b) in have and (a, b + 1) in have:
                mu = 1
            else:
                mu = 0
            rows.append((a, b, c, d, mu))
    return rows


def cobweb_counts(seq: str, levels: int) -> tuple[list[int], int]:
    """Level widths F_1..F_levels and the cover count sum F_s F_{s+1}."""
    w = list(seq_values(seq, levels))
    return w, sum(w[s] * w[s + 1] for s in range(levels - 1))


# -- CLI output parsing ------------------------------------------------------


class Mismatch(Exception):
    pass


def parse_record(text: str, fmt: str):
    """(columns, rows) for a table or ((), value) for a scalar, as ints."""
    if fmt == "json":
        obj = json.loads(text)
        res = obj["result"]
        if isinstance(res, dict) and "agreement" in res:
            if res["agreement"] is not True:
                raise Mismatch(f"agreement is {res['agreement']!r}")
            res = res["value"]
        if isinstance(res, dict):
            return tuple(res["columns"]), [tuple(int(c) for c in r) for r in res["rows"]]
        return (), int(res)
    sep = "," if fmt == "csv" else " "
    lines = text.split("\n")
    if lines[-1] != "":
        raise Mismatch("output does not end with a newline")
    lines.pop()
    if fmt == "csv" and lines[:1] == ["value"] and len(lines) == 2:
        return (), int(lines[1])
    if fmt == "text" and len(lines) == 1 and re.fullmatch(r"-?\d+", lines[0]):
        return (), int(lines[0])
    cols = tuple(lines[0].split(sep))
    rows = [tuple(int(c) for c in line.split(sep)) for line in lines[1:]]
    if any(len(r) != len(cols) for r in rows):
        raise Mismatch("row width differs from the header")
    return cols, rows


def check_dot(text: str, name: str, groups: list[int], edges: int, step) -> None:
    """DOT structure: header, one rank group per level with the expected
    member count, and the expected number of edges, each of which must pass
    ``step(x1, x2, y1, y2)`` on its parsed label coordinates."""
    lines = text.split("\n")
    if lines[0] != f'digraph "{name}" {{' or lines[1] != "  rankdir=BT;" or lines[-2:] != ["}", ""]:
        raise Mismatch("DOT header or footer differs")
    body = lines[2:-2]
    got_groups = [ln.count(";") - 1 for ln in body if ln.startswith("  { rank=same;")]
    if got_groups != groups:
        raise Mismatch(f"rank groups {got_groups[:8]}... != {groups[:8]}...")
    edge_lines = body[len(groups):]
    if len(edge_lines) != edges:
        raise Mismatch(f"{len(edge_lines)} edges, expected {edges}")
    pat = re.compile(r'  "\((\d+),(\d+)\)" -> "\((\d+),(\d+)\)";')
    for ln in edge_lines:
        m = pat.fullmatch(ln)
        if m is None or not step(*map(int, m.groups())):
            raise Mismatch(f"bad edge line {ln!r}")
