"""The memo of primitive parts, GCD-check witnesses, F-nomial coefficients
and prefab results shared by `is_gcd_morphic`, `FNomialTable.fnomial` and
`cobweb.prefab`: bounded, one entry per rule and prefix length, shared by
value-equal sequences, never stale, and safe under threads."""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

import cobweb.poset as engine
from cobweb import (
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
    sequences,
    whitney_row,
)
from cobweb._memo import Memo
from test_paths import REGISTRY, _prefab_by_product, entry_results
from test_prefab import fnomial_by_product, prefab_results
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


@pytest.fixture
def mixed():
    """FNomialTable.fnomial takes the kernel from an estimate of 128 bits on:
    in _mixed_calls, (r over 1)_F of every sequence and each coefficient of
    the naturals, the odd numbers and the perturbed naturals take the falling
    product, and the middle coefficients of Fibonacci and Mersenne numbers
    take the kernel."""
    with mock.patch.object(fnomial, "_KERNEL_BITS", 128):
        yield


def _charged_in_entries(memo):
    return sum(e.bits for e, _ in memo.entries.values())


def test_many_sequences_stay_within_the_bits_least_recent_out_first(monkeypatch):
    memo = Memo(100_000)
    monkeypatch.setattr(_parts, "MEMO", memo)
    seqs = [from_values(f"s{i}", [i * (2**s - 1) for s in range(1, 41)]) for i in range(1, 61)]
    recency = []
    for i, seq in enumerate(seqs):
        for used in (seq, seqs[i - 2]) if i == 58 else (seq,):
            assert is_gcd_morphic(used, 40) == full_square_scan(used, 40)
            assert 0 < memo.charged <= memo.limit
            assert memo.charged == _charged_in_entries(memo)
            recency = [r for r in recency if r != (used.rule, 40)] + [(used.rule, 40)]
    assert 2 < len(memo.entries) < len(seqs)
    assert list(memo.entries) == recency[-len(memo.entries):]
    assert (seqs[56].rule, 40) in memo.entries and (seqs[55].rule, 40) not in memo.entries


def test_an_entry_larger_than_the_bound_is_not_kept(monkeypatch):
    memo = Memo(10_000)
    monkeypatch.setattr(_parts, "MEMO", memo)
    assert is_gcd_morphic(FIBONACCI, 60).holds
    assert len(memo.entries) == 0 and memo.charged == 0


def test_value_equal_custom_sequences_share_one_entry(memo, kernel, monkeypatch):
    vals = [2**s - 1 for s in range(1, 81)]
    a, b = from_values("mersenne", vals), from_values("file:mersenne.txt", vals)
    assert is_gcd_morphic(a, 80).holds
    assert len(memo.entries) == 1
    charged = memo.charged
    assert is_gcd_morphic(b, 80).holds
    assert len(memo.entries) == 1 and memo.charged == charged
    products = _counted_kernel(monkeypatch)
    expected = fnomial_by_product(a, 80, 40)
    assert FNomialTable(b).fnomial(80, 40) == FNomialTable(a).fnomial(80, 40) == expected
    assert products == [(80, 40)]  # b's coefficient is a's
    [(e, cost)] = memo.entries.values()
    assert entry_results(e) == {"parts": _parts.sieve(vals), "b0": None, 40: expected}
    assert cost == e.bits == charged + _parts._bits([expected])


def _counted_kernel(monkeypatch):
    """The (n, k) of every kernel product computed from now on."""
    products = []
    kernel = fnomial._kernel
    monkeypatch.setattr(fnomial, "_kernel", lambda parts, n, k: products.append((n, k)) or kernel(
        parts, n, k))
    return products


def test_a_rule_whose_values_change_gets_fresh_parts(memo, kernel):
    terms = list(range(1, 41))
    seq = FSequence("mutable", lambda s: terms[s - 1])
    table = FNomialTable(seq)
    assert is_gcd_morphic(seq, 40).holds
    assert table.fnomial(40, 20) == fnomial_by_product(seq, 40, 20)
    terms[29] *= 7  # F_30 = 210 shares 7 with F_7
    report = is_gcd_morphic(seq, 40)
    assert report == full_square_scan(seq, 40) and report.witness == (7, 30)
    assert table.fnomial(40, 20) == fnomial_by_product(seq, 40, 20)
    terms[29] = 31  # P_30 = 31/30 is not an integer
    assert is_gcd_morphic(seq, 40) == full_square_scan(seq, 40)
    assert table.fnomial(40, 20) == fnomial_by_product(seq, 40, 20)
    with pytest.raises(NonIntegral):
        table.fnomial(30, 2)  # 31 * 29 / 2
    terms[29] = 30
    assert is_gcd_morphic(seq, 40).holds
    assert table.fnomial(40, 20) == fnomial_by_product(seq, 40, 20)


# -- coefficients and witnesses kept on their prefix's entry ------------------


def _mersenne(count):  # rebuilt for each call, so only its values find the entry
    return from_values("mersenne", [2**s - 1 for s in range(1, count + 1)])


def test_a_coefficient_past_the_bound_is_returned_but_not_stored(kernel, monkeypatch):
    seq = _mersenne(100)
    entry_bits = _parts._bits(seq.rule.vals) + _parts._bits(_parts.sieve(seq.values(100))[0])
    memo = Memo(entry_bits + 1000)
    monkeypatch.setattr(_parts, "MEMO", memo)
    products = _counted_kernel(monkeypatch)
    middle, first = fnomial_by_product(seq, 100, 50), fnomial_by_product(seq, 100, 1)
    assert middle.bit_length() > 1000 > first.bit_length() + _parts.INT_BITS
    for _ in range(2):
        assert FNomialTable(_mersenne(100)).fnomial(100, 50) == middle
        assert FNomialTable(_mersenne(100)).fnomial(100, 99) == first
    assert products == [(100, 50), (100, 1), (100, 50)]
    [(e, charged)] = memo.entries.values()
    assert entry_results(e) == {"parts": _parts.sieve(seq.values(100)), 1: first}
    assert charged == e.bits == entry_bits + _parts._bits([first]) == memo.charged


def test_coefficients_filling_the_memo_stay_within_its_bits(memo, kernel):
    for n in range(100, 251, 3):
        seq = _mersenne(250)
        for k in range(n + 1):
            if k in (n // 2, n // 3):
                assert FNomialTable(seq).fnomial(n, k) == fnomial_by_product(seq, n, k)
            else:
                FNomialTable(seq).fnomial(n, k)
        assert memo.charged == _charged_in_entries(memo) <= _parts.MEMO_BITS
    assert 3 < len(memo.entries) < 51
    for (_, n), (e, _) in memo.entries.items():
        assert set(entry_results(e)) == {"parts", *range(n // 2 + 1)}


def _counted_divisions(monkeypatch):
    """The (n, k) of every checked division made for a coefficient from now on."""
    divisions = []
    exact = fnomial._exact
    monkeypatch.setattr(fnomial, "_exact", lambda num, den, vals, n, k: divisions.append(
        (n, k)) or exact(num, den, vals, n, k))
    return divisions


def test_an_uncertified_sequence_keeps_its_integral_coefficients(memo, kernel, monkeypatch):
    vals = list(range(1, 61))
    vals[29] = 31  # P_30 = 31/30 is not an integer, and (30 over 2)_F = 31 * 29 / 2
    seq = from_values("perturbed", vals)
    table = FNomialTable(seq)
    products = _counted_kernel(monkeypatch)
    divisions = _counted_divisions(monkeypatch)
    raised = []
    for _ in range(3):
        with pytest.raises(NonIntegral) as info:
            table.fnomial(30, 2)
        raised.append((str(info.value), info.value.numerator, info.value.denominator))
        assert table.fnomial(60, 1) == table.fnomial(60, 59) == 60
        assert table.fnomial(40, 20) == fnomial_by_product(seq, 40, 20)
    num, den = math.prod(vals[:30]), math.prod(vals[:2]) * math.prod(vals[:28])
    assert raised == [(f"quotient {num}/{den} is not an integer", num, den)] * 3
    assert products == []
    # The falling product runs once per kept coefficient, and the failing
    # division on every call.
    assert divisions == [(30, 2), (60, 1), (40, 20), (30, 2), (30, 2)]
    kept = {n: entry_results(e) for (_, n), (e, _) in memo.entries.items()}
    assert kept == {
        30: {"parts": _parts.sieve(vals[:30])},
        40: {"parts": _parts.sieve(vals[:40]), 20: fnomial_by_product(seq, 40, 20)},
        60: {"parts": _parts.sieve(vals), 1: 60},
    }
    assert all(_parts.sieve(e.vals)[1] == 30 for e, _ in memo.entries.values())


def _spoiled(seq, n):
    """F_1..F_n of seq with F_n times F_7, as a custom sequence: for 7 ∤ n,
    GCD[F_7, F_n] is then F_7, not F_1 = 1."""
    vals = seq.values(n)
    return from_values(f"{seq.name}, spoiled", [*vals[:-1], vals[-1] * vals[6]])


def _witness(report):
    """A failing report as the flat tuple its entry keeps."""
    return (*report.witness, report.gcd_of_values, report.f_at_gcd)


def test_a_witness_and_a_falling_coefficient_each_raise_the_bits_by_what_they_store(memo):
    seq = _spoiled(_mersenne(60), 60)
    report, c = full_square_scan(seq, 60), fnomial_by_product(seq, 60, 3)
    assert not report.holds
    assert _parts.entry(seq, 60).first_failure() == 60
    [(e, _)] = memo.entries.values()
    bits = _parts._bits(seq.rule.vals) + _parts._bits(_parts.sieve(seq.values(60))[0])
    bits += _parts._charge(60)  # b0
    assert e.bits == bits == memo.charged
    fills = [  # by its public caller: name, call, value stored, bits it adds
        ("witness", lambda: is_gcd_morphic(seq, 60), _witness(report), _parts._bits(_witness(report))),
        (3, lambda: FNomialTable(seq).fnomial(60, 57), c, _parts._bits([c])),
    ]
    held = entry_results(e)
    for name, call, value, adds in fills:
        for _ in range(2):
            assert call() == (report if name == "witness" else c)
        held[name] = value
        bits += adds
        [(e, charged)] = memo.entries.values()
        assert entry_results(e) == held and e.bits == bits == charged == memo.charged, name


def test_a_falling_result_or_witness_past_the_bound_is_returned_but_not_stored(monkeypatch):
    seq = _spoiled(_mersenne(60), 60)
    vals = seq.values(60)
    entry_bits = _parts._bits(vals) + _parts._bits(_parts.sieve(vals)[0])
    memo = Memo(entry_bits + 1000)
    monkeypatch.setattr(_parts, "MEMO", memo)
    divisions = _counted_divisions(monkeypatch)
    scans = []
    scan = sequences._scan
    monkeypatch.setattr(sequences, "_scan", lambda vals, b0: scans.append(b0) or scan(vals, b0))
    report = full_square_scan(seq, 60)
    first, tenth = fnomial_by_product(seq, 60, 1), fnomial_by_product(seq, 60, 10)
    assert _parts._bits(_witness(report)) > 1000 > _parts._bits([first])
    assert _parts._bits([tenth]) > 1000 - _parts._bits([first])
    for _ in range(2):
        assert FNomialTable(_spoiled(_mersenne(60), 60)).fnomial(60, 59) == first
        assert is_gcd_morphic(_spoiled(_mersenne(60), 60), 60) == report
        assert FNomialTable(_spoiled(_mersenne(60), 60)).fnomial(60, 10) == tenth
    assert divisions == [(60, 59), (60, 10), (60, 10)] and scans == [60, 60]
    [(e, charged)] = memo.entries.values()
    assert entry_results(e) == {"parts": _parts.sieve(vals), "b0": 60, 1: first}
    stored = entry_bits + _parts._charge(60) + _parts._bits([first])
    assert charged == e.bits == stored == memo.charged


def test_custom_sequences_equal_on_the_hashed_terms_keep_apart(memo, kernel):
    mersenne = _mersenne(40)
    vals = mersenne.values(40)
    vals[29] *= 127  # F_30 shares F_7 = 127, between the hashed terms
    spoiled = from_values("mersenne", vals)
    assert hash(spoiled.rule) == hash(mersenne.rule) and spoiled.rule != mersenne.rule
    for seq in (mersenne, spoiled):
        assert [is_gcd_morphic(seq, 40) for _ in range(2)] == [full_square_scan(seq, 40)] * 2
        c = fnomial_by_product(seq, 40, 20)
        assert FNomialTable(seq).fnomial(40, 20) == FNomialTable(seq).fnomial(40, 20) == c
    assert is_gcd_morphic(mersenne, 40).holds and not is_gcd_morphic(spoiled, 40).holds
    kept = [entry_results(e) for e, _ in memo.entries.values()]
    assert kept == [
        {"parts": _parts.sieve(seq.values(40)), "b0": b0, **witness,
         20: fnomial_by_product(seq, 40, 20)}
        for seq, b0, witness in (
            (mersenne, None, {}),
            (spoiled, 30, {"witness": _witness(full_square_scan(spoiled, 40))}),
        )
    ]


def test_a_rule_whose_values_change_gets_a_fresh_coefficient(memo, kernel):
    terms = list(range(1, 41))
    seq = FSequence("mutable", lambda s: terms[s - 1])
    table = FNomialTable(seq)
    assert table.fnomial(40, 20) == table.fnomial(40, 20) == math.comb(40, 20)
    terms[:] = FIBONACCI.values(40)
    fibonomial = fnomial_by_product(FIBONACCI, 40, 20)
    assert table.fnomial(40, 20) == table.fnomial(40, 20) == fibonomial
    assert memo.entries == {} and memo.charged == 0


def test_each_result_raises_the_entry_bits_by_what_it_stores(memo, kernel):
    seq = _mersenne(60)
    parts = _parts.sieve(seq.values(60))
    c = fnomial_by_product(seq, 60, 25)
    row, _, bell = _prefab_by_product(seq, 60)
    fills = [  # each result by its public caller: name, call, value stored, bits it adds
        ("parts", lambda: _parts.entry(seq, 60).parts(), parts, _parts._bits(parts[0])),
        ("b0", lambda: is_gcd_morphic(seq, 60), None, 0),
        (25, lambda: FNomialTable(seq).fnomial(60, 35), c, _parts._bits([c])),
        ("row", lambda: whitney_row(seq, 60), row, _parts._bits(row)),
        ("sum", lambda: bell_f(seq, 60), bell[-1], _parts._bits([bell[-1]])),
        ("bell", lambda: bell_f_table(seq, 60), bell, _parts._bits(bell)),
    ]
    held, bits, tables = {}, _parts._bits(seq.rule.vals), []
    for name, call, value, adds in fills:
        call()
        [(e, charged)] = memo.entries.values()
        held[name] = value
        bits += adds
        assert entry_results(e) == held and e.bits == bits == charged == memo.charged, name
        tables.append((e.results, list(e.results.items())))
    # Each fill replaced the table, so a thread that sums an older one sees it unchanged.
    assert all(list(table.items()) == items for table, items in tables)


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
    assert set(entry_results(e)) == {"parts", 30}
    assert memo.charged == e.bits


def test_a_hit_refuses_an_index_past_the_sequence_limit(memo, kernel):
    # A value-stable rule under a shorter limit finds the entries its
    # unlimited sequence filled, and still raises as values() would.
    mersenne = _mersenne(60)
    reads = [lambda seq: whitney_row(seq, 60), lambda seq: bell_f(seq, 60),
             lambda seq: bell_f_table(seq, 60), lambda seq: FNomialTable(seq).fnomial(60, 30),
             lambda seq: is_gcd_morphic(seq, 60)]
    for full in (NATURALS, mersenne):
        capped = FSequence("capped", full.rule, limit=40)
        for read in reads:
            read(full)
            with pytest.raises(IndexOutOfDomain, match="up to index 40, got 41"):
                read(capped)
        assert _parts.entry(full, 60).parts()[1] is None
        with pytest.raises(IndexOutOfDomain, match="up to index 40, got 41"):
            _parts.entry(capped, 60)


class _CountedInt(int):
    hashes = 0

    def __hash__(self):
        _CountedInt.hashes += 1
        return super().__hash__()


def test_a_lookup_hashes_eight_terms_of_a_custom_sequence_per_key_hash(memo, kernel):
    terms = [_CountedInt(2**s - 1) for s in range(1, 501)]
    calls = [lambda seq: is_gcd_morphic(seq, 120), lambda seq: FNomialTable(seq).fnomial(120, 60),
             lambda seq: whitney_row(seq, 120), lambda seq: bell_f(seq, 120),
             lambda seq: bell_f_table(seq, 120)]
    hashes = []
    for _ in range(2):  # each a miss, then each a hit
        for call in calls:
            before = _CountedInt.hashes
            call(from_values("counted", terms))
            hashes.append(_CountedInt.hashes - before)
    # Each hash of the key (rule, 120) reads the first and last four of the
    # 500 terms.  The first miss stores the key in an empty memo (one hash).
    # Each fill's recharge looks the key up, pops and re-inserts it (three),
    # and the first call fills two results, the parts and b0 (8 + 48).  A
    # later call that fills a result also pops and re-inserts the key on the
    # read (two, so 16 + 24); a hit hashes only on the read (two).
    assert hashes == [56] + [40] * 4 + [16] * 5
    assert len(memo.entries) == 1


def test_an_entry_holds_the_very_key_the_memo_keeps_it_under(memo):
    mersenne = [2**s - 1 for s in range(1, 61)]
    first, second = from_values("m", mersenne), from_values("m", mersenne)
    assert first.rule == second.rule and first.rule.vals is not second.rule.vals
    e = _parts.entry(first, 60)
    assert _parts.entry(second, 60) is e
    # `Memo.get` re-inserted the entry under the second key, and the entry
    # holds that same key, so only the second tuple of values is held.
    [key] = memo.entries
    assert e.key is key and key[0] is second.rule
    e.parts()  # a fill recharges the entry under that key
    assert memo.charged == e.bits > _parts._bits(mersenne)


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


def test_an_unhashable_rule_is_answered_without_the_memo(memo):
    class Rule:
        __hash__ = None

        def __call__(self, s):
            return s

    seq = FSequence("unhashable", Rule())
    assert is_gcd_morphic(seq, 50) == is_gcd_morphic(NATURALS, 50)
    assert list(memo.entries) == [(NATURALS.rule, 50)]


def test_a_rule_that_is_not_value_stable_is_never_kept(memo):
    mersenne = [2**s - 1 for s in range(1, 61)]
    # Holding, failing (F_60 shares F_7 = 127) and holding again.
    prefixes = (mersenne, [*mersenne[:-1], mersenne[-1] * 127], FIBONACCI.values(60))
    terms = []
    seq = FSequence("changing", lambda s: terms[s - 1])

    def fnomial_at(bits):  # the kernel below every estimate, the falling product above
        def read():
            with mock.patch.object(fnomial, "_KERNEL_BITS", bits):
                return FNomialTable(seq).fnomial(60, 25)
        return read

    reads = [  # each call and its oracle over the values it sees
        (lambda: whitney_row(seq, 60).values, lambda: _prefab_by_product(seq, 60)[0]),
        (lambda: bell_f(seq, 60), lambda: _prefab_by_product(seq, 60)[1]),
        (lambda: bell_f_table(seq, 60).values, lambda: _prefab_by_product(seq, 60)[2]),
        (fnomial_at(-(10**9)), lambda: fnomial_by_product(seq, 60, 25)),
        (fnomial_at(10**9), lambda: fnomial_by_product(seq, 60, 25)),
        (lambda: is_gcd_morphic(seq, 60), lambda: full_square_scan(seq, 60)),
    ]
    holds = []
    for turn in range(3):
        for i, (read, oracle) in enumerate(reads):
            terms[:] = prefixes[(turn + i) % 3]  # new values on every call
            assert read() == oracle(), (turn, i)
        holds.append(is_gcd_morphic(seq, 60).holds)
    assert holds == [True, True, False]
    assert memo.entries == {} and memo.charged == 0


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


def test_each_rule_and_length_is_sieved_and_certified_once(memo, kernel, monkeypatch):
    def mersenne():  # rebuilt for each call, so only its value finds the entry
        return from_values("mersenne", [2**s - 1 for s in range(1, 161)])

    calls = []
    for n in (80, 160) * 3:
        calls += [("gcd", FIBONACCI, n), ("fnomial", FIBONACCI, n, n // 2),
                  ("gcd", mersenne(), n), ("fnomial", mersenne(), n, n // 2)]
    with REGISTRY["primitive parts"].modes["no memo"]():
        unmemoized = [_run(c) for c in calls]
    expected = Counter()
    for seq in (FIBONACCI, mersenne()):
        for n in (80, 160):
            vals = seq.values(n)
            expected.update([("sieve", *vals), ("certify", *_parts.sieve(vals)[0])])
    counts = Counter()
    sieve, certify = _parts.sieve, _parts._certify
    monkeypatch.setattr(_parts, "sieve", lambda vals: counts.update([("sieve", *vals)]) or sieve(vals))
    monkeypatch.setattr(_parts, "_certify", lambda parts, hi: counts.update(
        [("certify", *parts[:hi + 1])]) or certify(parts, hi))
    assert [_run(c) for c in calls] == unmemoized
    assert counts == expected and set(expected.values()) == {1}
    rules = (FIBONACCI.rule, mersenne().rule)
    assert set(memo.entries) == {(rule, n) for rule in rules for n in (80, 160)}


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
    assert memo.charged == _charged_in_entries(memo) <= memo.limit


def test_clearing_the_memo_changes_no_result(memo, mixed):
    calls = _mixed_calls()
    warm = [_run(c) for c in calls] + [_run(c) for c in calls]
    cleared = []
    for c in calls * 2:
        memo.clear()
        assert memo.charged == 0 and len(memo.entries) == 0
        cleared.append(_run(c))
    assert cleared == warm
