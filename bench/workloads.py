"""Seeded request lists for the three workloads, and the reference each
request's output is checked against.

A request is a plain dict: ``template`` (the request kind, used to report
failures per kind), ``argv`` or ``call`` (what the program receives), ``fmt``
and ``ref`` (a tuple naming the reference in ``expected``).  Each template
draws its sizes from fixed strata, so every seed gives a list with the same
mix of small and large inputs and only the exact sizes and order change.
"""

from __future__ import annotations

import functools
import math
import random

import checks

MERSENNE_TERMS = 300  # length of the custom sequence file, F_s = 2^s - 1

# Nominal seconds of one pass, used to size a run from --seconds.
NOMINAL_PASS_S = {"cli-arith": 8.0, "cli-poset": 8.0, "session": 6.0}

WORKLOADS = ("cli-arith", "cli-poset", "session")


def _seq_token(seq: str, mersenne_path: str) -> str:
    return f"file:{mersenne_path}" if seq == "mersenne" else seq


# -- cli-arith -----------------------------------------------------------------


def _adder(rng: random.Random, reqs: list[dict]):
    """``add(template, argv, ref, fmt=None)``: append one CLI request; unless
    ``fmt`` is given, draw the output format (text 3 : csv 1 : json 1)."""

    def add(template, argv, ref, fmt=None):
        if fmt is None:
            fmt = rng.choices(("text", "csv", "json"), weights=(3, 1, 1))[0]
            if fmt != "text":
                argv = [*argv, "--format", fmt]
        reqs.append({"template": template, "argv": argv, "fmt": fmt, "ref": ref})

    return add


def cli_arith(seed: int, mersenne_path: str) -> list[dict]:
    rng = random.Random(seed)
    reqs: list[dict] = []
    add = _adder(rng, reqs)

    def tok(seq):
        return _seq_token(seq, mersenne_path)

    # Single coefficients: strata from a few digits to far past 4300 digits.
    strata = [
        ("naturals", 20, 60), ("naturals", 500, 900), ("naturals", 6100, 6300),
        ("fibonacci", 20, 40), ("fibonacci", 150, 200),
        ("fibonacci", 330, 420), ("fibonacci", 850, 900),
        ("mersenne", 30, 60), ("mersenne", 270, 300),
    ]
    for seq, lo, hi in strata:
        n = rng.randint(lo, hi)
        k = n // 2 + rng.randint(-(n // 20), n // 20)
        add(f"fnomial-nk:{seq}", ["fnomial", "--seq", tok(seq), "--n", str(n), "--k", str(k)],
            ("fnomial", seq, n, k))
    for seq, lo, hi in (("naturals", 190, 210), ("fibonacci", 135, 145), ("mersenne", 110, 120)):
        n = rng.randint(lo, hi)
        add(f"fnomial-table:{seq}", ["fnomial", "--seq", tok(seq), "--table", str(n)],
            ("fnomial_table", seq, n))
    for seq, lo, hi in (("naturals", 600, 900), ("fibonacci", 350, 380), ("mersenne", 240, 270)):
        n = rng.randint(lo, hi)
        add(f"whitney-prefab:{seq}",
            ["whitney", "--family", "prefab", "--seq", tok(seq), "--n", str(n)],
            ("whitney_prefab", seq, n))
    for seq, lo, hi, table in (
        ("naturals", 50, 300, False), ("naturals", 400, 440, True),
        ("fibonacci", 215, 225, True), ("fibonacci", 460, 480, False),
        ("mersenne", 230, 260, False),
    ):
        n = rng.randint(lo, hi)
        argv = ["bell", "--family", "prefab", "--seq", tok(seq), "--n", str(n)]
        name = "bell-table" if table else "bell"
        add(f"{name}:{seq}", argv + ["--table"] if table else argv, (name.replace("-", "_"), seq, n))
    for seq, lo, hi in (
        ("odd", 50, 500), ("even1", 50, 500), ("div31", 50, 500),
        ("fibonacci", 370, 400), ("naturals", 680, 720), ("mersenne", 270, 300),
    ):
        r = rng.randint(lo, hi)
        add(f"gcd-morphic:{seq}", ["seq", "--seq", tok(seq), "--gcd-morphic", str(r)],
            ("gcd", seq, r))

    # Tiny requests, where interpreter start and import dominate.
    for _ in range(3):
        n = rng.randint(1, 60)
        add("tiny:catalan", ["catalan", "--n", str(n)], ("catalan", n))
        k = rng.randint(0, 20)
        n = rng.randint(k, 30)
        add("tiny:ballot", ["ballot", "--k", str(k), "--n", str(n)], ("ballot", k, n))
        seq = rng.choice(("naturals", "odd", "even1", "div31", "fibonacci", "mersenne"))
        c = rng.randint(5, 40)
        add("tiny:seq", ["seq", "--seq", tok(seq), "--count", str(c)], ("seq_count", seq, c))
        seq = rng.choice(("naturals", "fibonacci", "mersenne"))
        n = rng.randint(2, 20)
        k = rng.randint(0, n)
        add("tiny:fnomial", ["fnomial", "--seq", tok(seq), "--n", str(n), "--k", str(k)],
            ("fnomial", seq, n, k))
    rng.shuffle(reqs)
    return reqs


# -- cli-poset -----------------------------------------------------------------


def cli_poset(seed: int) -> list[dict]:
    rng = random.Random(seed)
    reqs: list[dict] = []
    add = _adder(rng, reqs)

    for seq, levels in (("naturals", rng.randint(56, 57)), ("naturals", rng.randint(56, 57)),
                        ("fibonacci", 13), ("fibonacci", 13)):
        add(f"dot-cobweb:{seq}",
            ["dot", "--family", "cobweb", "--seq", seq, "--levels", str(levels)],
            ("dot_cobweb", seq, levels), fmt="dot")
    for md in ("strict", "weak"):
        k = rng.randint(28, 32)
        n = k + rng.randint(58, 62)
        add("dot-grid", ["dot", "--family", "grid", "--k", str(k), "--n", str(n), "--mode", md],
            ("dot_grid", k, n, md), fmt="dot")
    for seq, k, n in (("naturals", rng.randint(1, 4), rng.randint(52, 54)),
                      ("fibonacci", rng.randint(1, 3), 13)):
        add(f"chains-cobweb:{seq}",
            ["chains", "--family", "cobweb", "--seq", seq, "--k", str(k), "--n", str(n),
             "--method", "brute"],
            ("chains_cobweb", seq, k, n))
    for md in ("strict", "weak"):
        k = rng.randint(48, 52)
        n = k + rng.randint(78, 82)
        add(f"chains-grid:{md}",
            ["chains", "--family", "grid", "--k", str(k), "--n", str(n), "--mode", md,
             "--method", "brute"],
            ("chains_grid", k, n, md))
    # The three sizes are fixed and only their modes and order vary, because
    # these requests sit at the latency tail.
    for md, n in zip(("strict", "weak", "strict"), rng.sample((29, 30, 31), 3)):
        k = 10
        add("mobius", ["mobius", "--k", str(k), "--n", str(n), "--mode", md], ("mobius", k, n, md))
    for _ in range(2):
        l = rng.randint(39, 41)
        m = l + rng.randint(39, 41)
        add("whitney-grid-first",
            ["whitney", "--family", "grid", "--l", str(l), "--m", str(m), "--kind", "first"],
            ("whitney_grid_first", l, m))
    for md in ("strict", "weak"):
        k = rng.randint(59, 61)
        n = k + rng.randint(99, 101)
        add("grid-ranks",
            ["grid", "--k", str(k), "--n", str(n), "--mode", md, "--what", "ranks"],
            ("grid_ranks", k, n, md))
    rng.shuffle(reqs)
    return reqs


# -- session -------------------------------------------------------------------

SESSION_CALLS = 300
SESSION_TERMS = 500  # length of the session's custom sequences
_SEQS = ("naturals", "fibonacci", "custom:mersenne", "custom:fibvals")
SESSION_POOLS = {
    "bell_f_table": [(s, n) for s in _SEQS for n in (60, 100, 140)],
    "whitney_row": [(s, n) for s in _SEQS for n in (100, 200, 300)],
    "bell_f": [(s, n) for s in _SEQS for n in (150, 250, 350)],
    "fnomial_kept": [(s, n, k) for s in ("fibonacci", "mersenne")
                     for n, k in ((100, 50), (200, 100), (300, 150), (400, 120), (500, 250))],
    "grid_whitney": [(l, m, kind) for l, m in ((8, 20), (12, 30), (16, 40))
                     for kind in ("first", "second")],
    "grid_mobius": [(6, 16, "strict"), (7, 20, "weak"), (8, 22, "strict")],
    "cobweb": [("naturals", 20, 3), ("naturals", 28, 5), ("fibonacci", 10, 2), ("fibonacci", 11, 3)],
    "gcd": [(s, r) for s in ("naturals", "fibonacci", "odd", "custom:mersenne") for r in (80, 160)],
}
SESSION_WEIGHTS = {"bell_f_table": 15, "whitney_row": 15, "bell_f": 15, "fnomial_kept": 15,
                   "grid_whitney": 10, "grid_mobius": 10, "cobweb": 10, "gcd": 10}


def session(seed: int) -> list[dict]:
    rng = random.Random(seed)
    # Each kind gets a fixed number of calls that cycle through its shuffled
    # pool, so every seed makes nearly the same multiset of calls.
    calls = []
    for kind, weight in SESSION_WEIGHTS.items():
        pool = rng.sample(SESSION_POOLS[kind], len(SESSION_POOLS[kind]))
        for i in range(SESSION_CALLS * weight // 100):
            params = list(pool[i % len(pool)])
            calls.append({"template": kind, "call": [kind, *params], "fmt": "py",
                          "ref": session_ref(kind, params)})
    rng.shuffle(calls)
    return calls


def _ref_seq(tok: str) -> str:
    return {"custom:mersenne": "mersenne", "custom:fibvals": "fibonacci"}.get(tok, tok)


def session_ref(kind: str, p: list) -> tuple:
    if kind in ("bell_f_table", "whitney_row", "bell_f", "gcd"):
        return (kind, _ref_seq(p[0]), *p[1:])
    if kind == "fnomial_kept":
        return ("fnomial", *p)
    if kind == "cobweb":
        tok, levels, k = p
        return ("chains_cobweb", tok, k, levels)
    return (kind, *p)


def repeat_share(reqs: list[dict]) -> float:
    """Share of requests whose exact inputs repeat an earlier request.

    A custom sequence token stands for its values, so two value-equal
    ``from_values`` sequences count as the same input."""
    seen, repeats = set(), 0
    for r in reqs:
        key = repr(r.get("call", r.get("argv")))
        repeats += key in seen
        seen.add(key)
    return repeats / len(reqs)


# -- expected outputs ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def expected(ref: tuple):
    """The reference result for ``ref``: ((), value) or (columns, rows)."""
    kind, *a = ref
    if kind == "fnomial":
        return (), checks.fnomial(*a)
    if kind == "fnomial_table":
        seq, n_max = a
        rows = [(n, k, v) for n in range(n_max + 1)
                for k, v in enumerate(checks.fnomial_row(seq, n))]
        return ("n", "k", "value"), rows
    if kind in ("whitney_prefab", "whitney_row"):
        return ("k", "value"), list(enumerate(checks.whitney_row(*a)))
    if kind in ("bell", "bell_f"):
        return (), checks.bell(*a)
    if kind in ("bell_table", "bell_f_table"):
        seq, n = a
        return ("n", "value"), [(m, checks.bell(seq, m)) for m in range(n + 1)]
    if kind == "gcd":
        holds, n, m, g, f = checks.gcd_morphic(*a)
        if holds:
            return ("holds",), [(1,)]
        return ("holds", "n", "m", "gcd_of_values", "f_at_gcd"), [(0, n, m, g, f)]
    if kind == "seq_count":
        seq, c = a
        return ("s", "value"), list(enumerate(checks.seq_values(seq, c), 1))
    if kind == "catalan":
        return (), checks.catalan(*a)
    if kind == "ballot":
        return (), checks.ballot(*a)
    if kind == "chains_cobweb":
        seq, k, n = a
        return (), math.prod(checks.seq_values(seq, n)[k - 1:])
    if kind == "chains_grid":
        k, n, md = a
        return (), checks.ballot(k, n) if md == "weak" else checks.strict_chains(k, n)
    if kind in ("mobius", "grid_mobius"):
        return ("x_l", "x_m", "y_l", "y_m", "mu"), checks.grid_mobius_rows(*a)
    if kind == "whitney_grid_first":
        l, m = a
        return ("k", "value"), [(r, (1, -1)[r] if r < 2 else 0) for r in range(l + m)]
    if kind == "grid_whitney":
        l, m, wk = a
        if wk == "first":
            return ("k", "value"), [(r, (1, -1)[r] if r < 2 else 0) for r in range(l + m)]
        counts = [0] * (l + m)
        for e in checks.grid_elements(l, m, "strict"):
            counts[checks.grid_rank(e, "strict")] += 1
        return ("k", "value"), list(enumerate(counts))
    if kind == "grid_ranks":
        k, n, md = a
        rows = [(l, m, checks.grid_rank((l, m), md)) for l, m in checks.grid_elements(k, n, md)]
        assert len(rows) == checks.grid_size(k, n, md)  # the element list matches the size formula
        return ("l", "m", "rank"), rows
    raise KeyError(kind)


def too_long(result) -> bool:
    """True when some value of the result has more than 4300 digits."""
    limit = 10 ** checks.INT_STR_DIGITS
    cols, body = result
    values = [body] if not cols else [c for row in body for c in row]
    return any(abs(v) >= limit for v in values)


def check_dot(ref: tuple, text: str) -> None:
    kind, *a = ref
    if kind == "dot_cobweb":
        seq, levels = a
        widths, covers = checks.cobweb_counts(seq, levels)
        checks.check_dot(text, f"cobweb_{seq}", widths, covers,
                         lambda s, i, t, j: t == s + 1 and i <= widths[s - 1] and j <= widths[t - 1])
        return
    k, n, md = a
    by_rank: dict[int, int] = {}
    for e in checks.grid_elements(k, n, md):
        r = checks.grid_rank(e, md)
        by_rank[r] = by_rank.get(r, 0) + 1
    groups = [by_rank[r] for r in sorted(by_rank)]
    checks.check_dot(text, f"grid_{md}_{k}_{n}", groups, checks.grid_covers(k, n, md),
                     lambda l, m, l2, m2: (l2 - l, m2 - m) in ((1, 0), (0, 1)))
