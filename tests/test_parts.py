"""The prefix memo, `cobweb._parts.MEMO`, that `is_gcd_morphic`,
`FNomialTable.fnomial` and `cobweb.prefab` share.

`PrefixMemo`, run by hypothesis as `TestPrefixMemo`, is the memo's
behavioural spec: a stateful model that calls every reader and checks,
after each call, what the memo must do, not how it lays out what it keeps.
The tests named after a single case replay that case through the same
checks.  The rest check what one call cannot show: a charge that a later
fill overtakes, the cost of hashing a key, and threads.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from math import prod
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import cobweb.poset as engine
from cobweb import (
    BUILTIN_SEQUENCES,
    FIBONACCI,
    NATURALS,
    ODD,
    FinitePoset,
    FNomialTable,
    FSequence,
    IndexOutOfDomain,
    NonIntegral,
    _parts,
    bell_f,
    bell_f_table,
    build_grid,
    fnomial,
    from_values,
    is_gcd_morphic,
    mobius,
    prefab,
    sequences,
    whitney_row,
)
from cobweb._memo import Memo
from cobweb.sequences import _Terms
from test_paths import _exact_prefix, _parts_by_definition
from test_sequences import full_square_scan


@pytest.fixture
def memo(monkeypatch):
    """A fresh memo in place of the process-wide one."""
    fresh = Memo(_parts.MEMO_BITS)
    monkeypatch.setattr(_parts, "MEMO", fresh)
    return fresh


@pytest.fixture
def kernel():
    """FNomialTable.fnomial takes the kernel at every size, with the memo in
    place."""
    with mock.patch.object(fnomial, "_KERNEL_BITS", -(10**9)):
        yield


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


def _spoiled(seq, n):
    """F_1..F_n of seq with F_n times F_7, as a custom sequence: for 7 ∤ n,
    GCD[F_7, F_n] is then F_7, not F_1 = 1."""
    vals = seq.values(n)
    return from_values(f"{seq.name}, spoiled", [*vals[:-1], vals[-1] * vals[6]])


# -- the model -------------------------------------------------------------------

_MERSENNE = [2**s - 1 for s in range(1, 41)]
# Custom sequences by name, rebuilt for every call.  "spoiled" equals
# "mersenne" on the eight terms a key hash reads: only F_30 differs, and
# shares F_7 = 127.  "lumpy" has (2 over 1)_F = 3/2 and stops at F_3.
_CUSTOM = {
    "mersenne": _MERSENNE,
    "spoiled": [v * 127 if s == 30 else v for s, v in enumerate(_MERSENNE, 1)],
    "lumpy": [2, 3, 4],
}
# Terms of a plain-lambda rule, new on every call; F_30 = 210 shares 7 with
# F_7 in "sevens".
_CHANGING = {"naturals": list(range(1, 43)), "fibonacci": FIBONACCI.values(42),
             "mersenne": [2**s - 1 for s in range(1, 43)],
             "sevens": [s * 7 if s == 30 else s for s in range(1, 43)]}
_CAPPED = FSequence("capped", FIBONACCI.rule, limit=12)
_BUILTIN = {id(seq.rule): seq for seq in BUILTIN_SEQUENCES.values()}
_NS = st.sampled_from((0, 3, 7, 12, 13, 30, 40, 41))
# k as a function of n: out of range on either side, the ends, and inside.
_KS = st.sampled_from((lambda n: -1, lambda n: 0, lambda n: 1, lambda n: n // 3,
                       lambda n: n // 2, lambda n: n - 1, lambda n: n + 1))


def _cost(v):
    """The bits of holding v, counted apart from the memo's own charge: an int
    its bit length plus INT_BITS, None nothing, a tuple or list its items."""
    if v is None:
        return 0
    if isinstance(v, int):
        return v.bit_length() + _parts.INT_BITS
    return sum(map(_cost, v))


def _vals(seq, n):
    """F_1..F_n one index at a time, raising as seq.value does."""
    return [seq.value(s) for s in range(1, n + 1)]


def _quotient(vals, n, k):
    """(n over k)_F as F_n!/(F_k! F_{n-k}!), or its NonIntegral."""
    num, den = prod(vals[:n]), prod(vals[:k]) * prod(vals[: n - k])
    q, r = divmod(num, den)
    if r:
        raise NonIntegral(num, den)
    return q


def _row_oracle(seq, n):
    vals = _vals(seq, n)
    return tuple(_quotient(vals, n - k, k) for k in range(n // 2 + 1))


def _table_oracle(seq, n_max):
    """B_0..B_n_max row by row, F_n fetched as row n starts."""
    vals, sums = [], []
    for n in range(n_max + 1):
        if n:
            vals.append(seq.value(n))
        sums.append(sum(_quotient(vals, n - k, k) for k in range(n // 2 + 1)))
    return tuple(sums)


# kind -> (production, oracle, the compute sites it may run); "fnomial" runs
# "_exact" alone on the falling product.
_READS = {
    "row": (lambda seq, n, k: whitney_row(seq, n).values, lambda seq, n, k: _row_oracle(seq, n),
            {"_row"}),
    "sum": (lambda seq, n, k: bell_f(seq, n), lambda seq, n, k: sum(_row_oracle(seq, n)),
            {"_row"}),
    "table": (lambda seq, n, k: bell_f_table(seq, n).values,
              lambda seq, n, k: _table_oracle(seq, n), {"_bell_sums"}),
    "fnomial": (lambda seq, n, k: FNomialTable(seq).fnomial(n, k),
                lambda seq, n, k: _quotient(_vals(seq, n), n, k) if 0 <= k <= n else 0,
                {"sieve", "_kernel", "_exact"}),
    "gcd": (lambda seq, n, k: is_gcd_morphic(seq, n), lambda seq, n, k: full_square_scan(seq, n),
            {"sieve", "_certify", "_scan"}),
    "parts": (lambda seq, n, k: _exact_prefix(_parts.entry(seq, n).parts(), n),
              lambda seq, n, k: _parts_by_definition(seq, n), {"sieve"}),
}


def _outcome(fn, *args):
    try:
        return ("value", fn(*args)), None
    except (NonIntegral, IndexOutOfDomain) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "numerator", None),
                getattr(exc, "denominator", None)), exc


def _ident(key):
    """A memo key (rule, n) as plain data, the custom terms or the built-in's
    name and n, so the model never hashes a rule."""
    rule, n = key
    return (rule.vals if type(rule) is _Terms else _BUILTIN[id(rule)].name), n


def _held(ident):
    """The values a key holds: every term of a custom rule, F_1..F_n of a built-in."""
    terms, n = ident
    return terms if isinstance(terms, tuple) else _vals(BUILTIN_SEQUENCES[terms], n)


class PrefixMemo(RuleBasedStateMachine):
    """Readers of `_parts.MEMO` on a fresh memo of a small limit.  After every
    call:
    - its result or error equals its product oracle;
    - the memo's charge is within its limit and equals an independent count
      of what its entries hold, and a result table once read never changes;
    - a value-stable call leaves its entry kept as the most recent whenever
      its values fit, and no entry otherwise; a result is computed at most
      once while its entry stays kept, unless it does not fit beside what the
      entry holds; and a reader runs only the compute sites it needs;
    - any other call leaves the memo as it was;
    - an error is raised afresh, by a computation, on every call."""

    def __init__(self):
        super().__init__()
        self.stack = ExitStack()
        self.computed = []  # (site, what, value) of each computation that returned
        self.raised = []  # the sites that raised
        self.ledger = {}  # (ident, site, what) -> the entry that computed it
        self.errors = []  # every error raised so far
        self.tables = []  # (result table, its copy) of each kept entry
        self.terms = []
        self.changing = FSequence("changing", lambda s: self.terms[s - 1])
        sites = [(_parts, "sieve", lambda vals: None, lambda out, vals: out),
                 # b0 is the certificate's failure, else the first non-integral part.
                 (_parts, "_certify", lambda parts, hi: None,
                  lambda out, parts, hi: out or (None if hi == len(parts) - 1 else hi + 1)),
                 (sequences, "_scan", lambda vals, b0: None, lambda out, vals, b0: out),
                 (fnomial, "_kernel", lambda parts, n, k: (n, k), lambda out, *a: out),
                 (fnomial, "_exact", lambda num, den, vals, n, k: (n, min(k, n - k)),
                  lambda out, *a: out),
                 (prefab, "_row", lambda vals: None, lambda out, vals: out),
                 (prefab, "_bell_sums", lambda seq, n: None, lambda out, *a: out)]
        for module, name, what, stored in sites:
            self.stack.enter_context(mock.patch.object(
                module, name, self._counted(name, getattr(module, name), what, stored)))

    def _counted(self, site, real, what, stored):
        generator = site in ("_row", "_bell_sums")

        def counted(*args):
            try:
                out = tuple(real(*args)) if generator else real(*args)
            except Exception:
                self.raised.append(site)
                raise
            self.computed.append((site, what(*args), stored(out, *args)))
            return iter(out) if generator else out

        return counted

    @initialize(limit=st.sampled_from((0, 16_000, 60_000)))
    def start(self, limit):
        self.memo = Memo(limit)
        self.stack.enter_context(mock.patch.object(_parts, "MEMO", self.memo))

    def teardown(self):
        self.stack.close()

    @rule(kind=st.sampled_from(sorted(_READS)),
          name=st.sampled_from((*BUILTIN_SEQUENCES, *_CUSTOM, "changing")),
          n=_NS, k=_KS, kernel=st.booleans(), terms=st.sampled_from(sorted(_CHANGING)))
    def read(self, kind, name, n, k, kernel, terms):
        self.terms[:] = _CHANGING[terms]
        # Each call twice, a custom sequence rebuilt: the second reads back
        # what the first kept, as does the mirror of an F-nomial.
        for k in (k(n), k(n), n - k(n)) if kind == "fnomial" else (k(n), k(n)):
            seq = (BUILTIN_SEQUENCES[name] if name in BUILTIN_SEQUENCES else
                   self.changing if name == "changing" else from_values(name, _CUSTOM[name]))
            self.call(kind, seq, max(n, 2) if kind == "gcd" else n, k, kernel)

    @rule(kind=st.sampled_from(sorted(_READS)), n=_NS, k=_KS)
    def capped(self, kind, n, k):
        # The full sequence first, so a capped read past its limit finds the entry.
        n = max(n, 2) if kind == "gcd" else n
        for seq in (FIBONACCI, _CAPPED):
            self.call(kind, seq, n, k(n))

    def call(self, kind, seq, n, k=0, kernel=True):
        """Read kind of seq at n (and k), with the kernel at every size or at
        none, and check the memo after it."""
        production, oracle, sites = _READS[kind]
        stable = type(seq.rule) is _Terms or id(seq.rule) in _BUILTIN
        reached = (kind != "fnomial" or 0 <= k <= n) and (seq.limit is None or n <= seq.limit)
        ident = _ident((seq.rule, n)) if stable and reached else None
        memo = self.memo
        before = [(key, e, cost) for key, (e, cost) in memo.entries.items()], memo.charged
        self.computed.clear()
        self.raised.clear()
        with mock.patch.object(fnomial, "_KERNEL_BITS", -(10**9) if kernel else 10**9):
            got, exc = _outcome(production, seq, n, k)
        assert got == _outcome(oracle, seq, n, k)[0], (kind, seq.name, n, k)
        if exc is not None:
            assert all(exc is not old for old in self.errors)
            self.errors.append(exc)
            assert not isinstance(exc, NonIntegral) or self.raised, "an error replayed"
        ran = {site for site, _, _ in self.computed} | set(self.raised)
        assert ran <= (sites if kernel or kind != "fnomial" else {"_exact"}), (kind, ran)
        # What the kept entries hold, counted apart from the memo's charges.
        entries = [(key, e, cost) for key, (e, cost) in memo.entries.items()]
        for key, e, cost in entries:
            assert e.key is key  # the terms are held, and counted, once
            assert cost == _cost(_held(_ident(key))) + sum(_cost(v) for v, _ in e.results.values())
        assert memo.charged == sum(cost for _, _, cost in entries) <= memo.limit
        assert all(table == copy for table, copy in self.tables), "a table changed in place"
        self.tables = [(e.results, dict(e.results)) for _, e, _ in entries]
        if ident is None:
            assert (entries, memo.charged) == before and all(
                e is old for (_, e, _), (_, old, _) in zip(entries, before[0])), ("memo changed", kind)
            return
        found = [(i, e) for i, (key, e, _) in enumerate(entries) if _ident(key) == ident]
        if _cost(_held(ident)) > memo.limit:
            assert not found, "kept past the limit"
            return
        assert [i for i, _ in found] == [len(entries) - 1], ("not kept as the most recent", kind)
        e = found[0][1]
        held = _cost(_held(ident)) + sum(_cost(v) for v, _ in e.results.values())
        for site, what, value in self.computed:
            if self.ledger.get((ident, site, what)) is e:
                assert held + _cost(value) > memo.limit, ("computed again", kind, site, what)
            self.ledger[ident, site, what] = e


TestPrefixMemo = PrefixMemo.TestCase
TestPrefixMemo.settings = settings(max_examples=60, stateful_step_count=30, derandomize=True,
                                   database=None, deadline=None, report_multiple_bugs=False)


@contextmanager
def model(limit=_parts.MEMO_BITS):
    """The model on a fresh memo of limit bits, for one case's fixed calls."""
    state = PrefixMemo()
    state.start(limit)
    try:
        yield state
    finally:
        state.teardown()


# -- single cases through the model's checks --------------------------------------


def test_many_sequences_stay_within_the_bits_least_recent_out_first():
    seqs = [from_values(f"s{i}", [i * (2**s - 1) for s in range(1, 41)]) for i in range(1, 61)]
    with model(100_000) as m:
        for i, seq in enumerate(seqs):
            for used in (seq, seqs[i - 2]) if i == 58 else (seq,):
                m.call("gcd", used, 40)


def test_an_entry_larger_than_the_bound_is_not_kept():
    with model(10_000) as m:
        m.call("gcd", FIBONACCI, 60)


def test_value_equal_custom_sequences_share_one_entry():
    vals = [2**s - 1 for s in range(1, 81)]
    with model() as m:
        for name in ("mersenne", "file:mersenne.txt") * 2:
            m.call("gcd", from_values(name, vals), 80)
            m.call("fnomial", from_values(name, vals), 80, 40)


def test_a_coefficient_past_the_bound_is_returned_but_not_stored():
    seq = _mersenne(100)
    with model(_cost(seq.rule.vals) + _cost(_parts.sieve(seq.values(100))[0]) + 1000) as m:
        for _ in range(2):
            m.call("fnomial", _mersenne(100), 100, 50)
            m.call("fnomial", _mersenne(100), 100, 99)


def test_coefficients_filling_the_memo_stay_within_its_bits():
    # Room for several of the seven entries, each with its parts and coefficients.
    ns = range(100, 251, 25)
    with model(8 * _cost(_mersenne(250).rule.vals)) as m:
        for n in ns:
            for k in (1, n // 3, n // 2, n - n // 3):
                for _ in range(2):
                    m.call("fnomial", _mersenne(250), n, k)
        assert 1 < len(m.memo.entries) < len(ns)


def test_an_uncertified_sequence_keeps_its_integral_coefficients():
    vals = list(range(1, 61))
    vals[29] = 31  # P_30 = 31/30 is not an integer, and (30 over 2)_F = 31 * 29 / 2
    with model() as m:
        for _ in range(3):
            for n, k in ((30, 2), (60, 1), (60, 59), (40, 20)):
                m.call("fnomial", from_values("perturbed", vals), n, k)


def test_a_witness_and_a_falling_coefficient_each_raise_the_bits_by_what_they_store():
    with model() as m:
        for _ in range(2):
            m.call("parts", _spoiled(_mersenne(60), 60), 60)
            m.call("gcd", _spoiled(_mersenne(60), 60), 60)
            m.call("fnomial", _spoiled(_mersenne(60), 60), 60, 57, kernel=False)


def test_a_falling_result_or_witness_past_the_bound_is_returned_but_not_stored():
    seq = _spoiled(_mersenne(60), 60)
    with model(_cost(seq.rule.vals) + _cost(_parts.sieve(seq.values(60))[0]) + 1000) as m:
        for _ in range(2):
            m.call("fnomial", _spoiled(_mersenne(60), 60), 60, 59, kernel=False)
            m.call("gcd", _spoiled(_mersenne(60), 60), 60)
            m.call("fnomial", _spoiled(_mersenne(60), 60), 60, 10, kernel=False)


def test_custom_sequences_equal_on_the_hashed_terms_keep_apart():
    with model() as m:
        for _ in range(2):
            for name in ("mersenne", "spoiled"):
                m.call("gcd", from_values(name, _CUSTOM[name]), 40)
                m.call("fnomial", from_values(name, _CUSTOM[name]), 40, 20)


def test_a_rule_whose_values_change_gets_a_fresh_coefficient():
    with model() as m:
        for terms in ("naturals", "naturals", "fibonacci", "fibonacci"):
            m.terms[:] = _CHANGING[terms]
            m.call("fnomial", m.changing, 40, 20)


def test_each_result_raises_the_entry_bits_by_what_it_stores():
    with model() as m:
        for kind in ("parts", "gcd", "fnomial", "row", "sum", "table") * 2:
            m.call(kind, _mersenne(60), 60, 35)


def test_a_rule_whose_values_change_gets_fresh_parts():
    with model() as m:
        for terms in ("naturals", "sevens", "naturals"):
            m.terms[:] = _CHANGING[terms]
            for kind, n, k in (("gcd", 40, 0), ("fnomial", 40, 20), ("fnomial", 30, 2)):
                m.call(kind, m.changing, n, k)
        m.terms[29] = 31  # P_30 = 31/30 is not an integer, and (30 over 2)_F = 31 * 29 / 2
        for kind, n, k in (("gcd", 40, 0), ("fnomial", 40, 20), ("fnomial", 30, 2)):
            m.call(kind, m.changing, n, k)


def test_an_entry_holds_the_very_key_the_memo_keeps_it_under():
    with model() as m:
        for kind in ("parts", "parts", "gcd"):
            m.call(kind, _mersenne(60), 60)


def test_an_unhashable_rule_is_answered_without_the_memo():
    class Rule:
        __hash__ = None

        def __call__(self, s):
            return s

    with model() as m:
        m.call("gcd", NATURALS, 50)
        for kind in _READS:
            m.call(kind, FSequence("unhashable", Rule()), 50, 25)


def test_a_rule_that_is_not_value_stable_is_never_kept():
    with model() as m:
        for turn in range(3):
            for i, (kind, kernel) in enumerate([("row", True), ("sum", True), ("table", True),
                                                ("fnomial", True), ("fnomial", False),
                                                ("gcd", True)]):
                m.terms[:] = _CHANGING[("mersenne", "sevens", "fibonacci")[(turn + i) % 3]]
                m.call(kind, m.changing, 40, 25, kernel)


def test_each_rule_and_length_is_sieved_and_certified_once():
    with model() as m:
        for n in (80, 160) * 3:
            for seq in (FIBONACCI, _mersenne(160)):
                m.call("gcd", seq, n)
                m.call("fnomial", seq, n, n // 2)


def test_a_hit_refuses_an_index_past_the_sequence_limit():
    # A value-stable rule under a shorter limit finds the entries its
    # unlimited sequence filled, and still raises as values() would.
    with model() as m:
        for full in (NATURALS, _mersenne(60)):
            for kind in _READS:
                for seq in (full, FSequence("capped", full.rule, limit=40)):
                    m.call(kind, seq, 60, 30)


# -- what one call cannot show -------------------------------------------------------


def test_a_charge_overtaken_by_a_later_fill_is_not_lost(memo, kernel, monkeypatch):
    seq = _mersenne(60)
    recharge, calls = memo.recharge, []

    def late(*args):  # the parts' charge lands after a coefficient's
        if not calls:
            calls.append(args)
            FNomialTable(seq).fnomial(60, 30)
        return recharge(*args)

    monkeypatch.setattr(memo, "recharge", late)
    _parts.entry(seq, 60).parts()
    [(e, _)] = memo.entries.values()
    assert set(e.results) == {"parts", 30}
    assert memo.charged == e.bits


class _CountedInt(int):
    hashes = 0

    def __hash__(self):
        _CountedInt.hashes += 1
        return super().__hash__()


def test_a_lookup_hashes_eight_terms_of_a_custom_sequence_per_key_hash(memo, kernel):
    terms = [_CountedInt(2**s - 1) for s in range(1, 501)]
    before = _CountedInt.hashes
    hash((from_values("counted", terms).rule, 120))
    assert _CountedInt.hashes - before == 8  # the first and last four of 500
    for read in (lambda seq: is_gcd_morphic(seq, 120), lambda seq: FNomialTable(seq).fnomial(120, 60),
                 lambda seq: whitney_row(seq, 120), lambda seq: bell_f(seq, 120),
                 lambda seq: bell_f_table(seq, 120)):
        read(from_values("counted", terms))
        before = _CountedInt.hashes
        read(from_values("counted", terms))  # a hit on a rebuilt sequence
        assert _CountedInt.hashes - before <= 2 * 8  # the key, hashed twice at most


def test_what_no_memo_keeps_leaves_both_memos_unchanged(memo, monkeypatch):
    engines = Memo(engine._MEMO_BYTES)
    monkeypatch.setattr(engine, "_ENGINES", engines)
    view = build_grid(3, 7, "weak")
    mobius(view.poset)
    is_gcd_morphic(NATURALS, 60)
    before = [(list(m.entries.items()), m.charged) for m in (memo, engines)]
    p = FinitePoset(view.elements, view.covers)  # built directly, so never kept
    assert p.leq(p.elements[0], p.elements[-1])
    mobius(p)
    terms = FIBONACCI.values(60)
    seq = FSequence("unstable", lambda s: terms[s - 1])  # results never kept
    for read in (is_gcd_morphic, whitney_row, bell_f, bell_f_table):
        read(seq, 60)
    FNomialTable(seq).fnomial(60, 30)
    assert [(list(m.entries.items()), m.charged) for m in (memo, engines)] == before


def _mixed_calls():
    mersenne = [2**s - 1 for s in range(1, 121)]
    perturbed = list(range(1, 121))
    perturbed[95] *= 5
    # Custom sequences are rebuilt for every call, so only their values
    # find the entry, and a repeat is read back without fetching a value.
    seqs = (lambda: NATURALS, lambda: FIBONACCI, lambda: ODD,
            lambda: from_values("m", mersenne), lambda: from_values("p", perturbed))
    calls = []
    for r in (30, 60, 90, 120):
        for seq in seqs:
            calls.append(("gcd", seq(), r))
            # Each coefficient is kept, read back by its mirror, and then
            # either one races its first fill under threads.
            calls.append(("fnomial", seq(), r, r // 3))
            calls.append(("fnomial", seq(), r, r // 2))
            calls.append(("fnomial", seq(), r, r - r // 3))
            calls.append(("fnomial", seq(), r, r - 1))  # by the falling product
            # B_n keeps the row it sums first, and then races the row's own fill.
            calls.append(("bell_f", seq(), r))
            calls.append(("prefab", seq(), r))
            calls.append(("gcd", seq(), r))
            calls.append(("gcd", _spoiled(seq(), r), r))  # fails, and keeps its witness
    return calls


def _run(call):
    kind, seq, *args = call
    if kind == "gcd":
        return is_gcd_morphic(seq, *args)
    if kind == "prefab":  # the Whitney row, B_n and Bell table fill the same entry
        return prefab_results(seq, *args)
    try:
        return (bell_f(seq, *args) if kind == "bell_f" else FNomialTable(seq).fnomial(*args))
    except NonIntegral as exc:
        return ("NonIntegral", exc.numerator, exc.denominator)


@pytest.fixture
def mixed():
    """FNomialTable.fnomial takes the kernel from an estimate of 128 bits on:
    in _mixed_calls, (r over 1)_F of every sequence and each coefficient of
    the naturals, the odd numbers and the perturbed naturals take the falling
    product, and the middle coefficients of Fibonacci and Mersenne numbers
    take the kernel."""
    with mock.patch.object(fnomial, "_KERNEL_BITS", 128):
        yield


def test_threads_match_a_serial_run(monkeypatch, mixed):
    calls = _mixed_calls()
    monkeypatch.setattr(_parts, "MEMO", Memo(_parts.MEMO_BITS))
    serial = [_run(c) for c in calls]
    # A memo that holds only a few entries, so stores and evictions race too.
    memo = Memo(300_000)
    monkeypatch.setattr(_parts, "MEMO", memo)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_run, c) for c in calls * 3]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == serial * 3
    assert memo.charged == sum(e.bits for e, _ in memo.entries.values()) <= memo.limit


def test_clearing_the_memo_changes_no_result(memo, mixed):
    calls = _mixed_calls()
    warm = [_run(c) for c in calls] + [_run(c) for c in calls]
    cleared = []
    for c in calls * 2:
        memo.clear()
        cleared.append(_run(c))
    assert cleared == warm
