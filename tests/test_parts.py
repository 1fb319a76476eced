"""The memo of primitive parts shared by `is_gcd_morphic` and the F-nomial
kernel: bounded, one entry per rule and prefix length, shared by
value-equal sequences, never stale, and safe under threads."""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from cobweb import (
    FIBONACCI,
    NATURALS,
    ODD,
    FNomialTable,
    FSequence,
    NonIntegral,
    _parts,
    from_values,
    is_gcd_morphic,
)
from cobweb._memo import Memo
from test_paths import REGISTRY
from test_prefab import fnomial_by_product
from test_sequences import full_square_scan


@pytest.fixture
def memo(monkeypatch):
    """A fresh memo in place of the process-wide one."""
    fresh = Memo(_parts.MEMO_BITS)
    monkeypatch.setattr(_parts, "MEMO", fresh)
    return fresh


@pytest.fixture
def kernel():
    """FNomialTable.fnomial takes the kernel at every size."""
    with REGISTRY["FNomialTable.fnomial"].modes["kernel"]():
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


def test_value_equal_custom_sequences_share_one_entry(memo, kernel):
    vals = [2**s - 1 for s in range(1, 81)]
    a, b = from_values("mersenne", vals), from_values("file:mersenne.txt", vals)
    assert is_gcd_morphic(a, 80).holds
    assert len(memo.entries) == 1
    charged = memo.charged
    assert is_gcd_morphic(b, 80).holds
    assert FNomialTable(b).fnomial(80, 40) == fnomial_by_product(a, 80, 40)
    assert len(memo.entries) == 1 and memo.charged == charged
    assert memo.entries[b.rule, 80][0].b0 is None


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


def test_an_unhashable_rule_is_answered_without_the_memo(memo):
    class Rule:
        __hash__ = None

        def __call__(self, s):
            return s

    seq = FSequence("unhashable", Rule())
    assert is_gcd_morphic(seq, 50) == is_gcd_morphic(NATURALS, 50)
    assert list(memo.entries) == [(NATURALS.rule, 50)]


def _mixed_calls():
    mersenne = [2**s - 1 for s in range(1, 121)]
    perturbed = list(range(1, 121))
    perturbed[95] *= 5
    calls = []
    for r in (30, 60, 90, 120):
        for seq in (NATURALS, FIBONACCI, ODD, from_values("m", mersenne),
                    from_values("p", perturbed)):
            calls.append(("gcd", seq, r))
            calls.append(("fnomial", seq, r, r // 3))
    return calls


def _run(call):
    if call[0] == "gcd":
        return is_gcd_morphic(*call[1:])
    try:
        return FNomialTable(call[1]).fnomial(*call[2:])
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


def test_threads_match_a_serial_run(monkeypatch, kernel):
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


def test_clearing_the_memo_changes_no_result(memo, kernel):
    calls = _mixed_calls()
    warm = [_run(c) for c in calls] + [_run(c) for c in calls]
    cleared = []
    for c in calls * 2:
        memo.clear()
        assert memo.charged == 0 and len(memo.entries) == 0
        cleared.append(_run(c))
    assert cleared == warm
