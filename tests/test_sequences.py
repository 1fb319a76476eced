import copy
import math
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cobweb
from cobweb import (
    BUILTIN_SEQUENCES,
    DIV31,
    EVEN1,
    FIBONACCI,
    NATURALS,
    ODD,
    FSequence,
    IndexOutOfDomain,
    InvalidBounds,
    from_file,
    from_values,
    is_gcd_morphic,
)
import references


def test_builtin_prefixes():
    assert NATURALS.values(6) == [1, 2, 3, 4, 5, 6]
    assert ODD.values(6) == [1, 3, 5, 7, 9, 11]
    assert EVEN1.values(6) == [1, 2, 4, 6, 8, 10]
    assert DIV31.values(6) == [1, 3, 6, 9, 12, 15]
    assert FIBONACCI.values(8) == [1, 1, 2, 3, 5, 8, 13, 21]


def test_spec_examples():
    assert FIBONACCI.value(6) == 8  # recurrence unrolled from F_1 = F_2 = 1
    assert NATURALS.value(1) == 1
    assert EVEN1.value(4) == 6


@pytest.mark.parametrize("seq", BUILTIN_SEQUENCES.values(), ids=lambda s: s.name)
def test_positive_and_deterministic_to_ten_thousand(seq):
    first = [seq.value(s) for s in range(1, 10_001)]
    assert min(first) >= 1
    assert first == [seq.value(s) for s in range(1, 10_001)]


@pytest.mark.parametrize("seq", BUILTIN_SEQUENCES.values(), ids=lambda s: s.name)
def test_index_below_one_rejected(seq):
    with pytest.raises(IndexOutOfDomain):
        seq.value(0)
    with pytest.raises(IndexOutOfDomain):
        seq.value(-3)


def test_values_refuses_a_negative_count():
    for seq in (NATURALS, from_values("custom", [4, 7, 9])):
        assert seq.values(0) == []
        with pytest.raises(ValueError, match=r"^need count >= 0, got -1$"):
            seq.values(-1)


def test_custom_sequence_bound():
    seq = from_values("custom", [4, 7, 9])
    assert seq.values(3) == [4, 7, 9]
    with pytest.raises(IndexOutOfDomain):
        seq.value(4)


def test_custom_values_slice_the_terms_as_the_per_index_map_reads_them():
    seq = from_values("custom", [3, 1, 4, 1, 5, 9, 2, 6])
    for count in range(9):
        assert seq.values(count) == seq.rule.prefix(count) == list(map(seq.rule, range(1, count + 1)))
    with pytest.raises(IndexOutOfDomain) as sliced:
        seq.values(9)
    with pytest.raises(IndexOutOfDomain) as per_index:
        seq.value(9)
    assert str(sliced.value) == str(per_index.value) == (
        "sequence 'custom' is defined up to index 8, got 9"
    )


def test_custom_sequences_compare_by_value():
    a = from_values("m", [1, 3, 7])
    b = from_values("m", (1, 3, 7))
    assert a == b and hash(a) == hash(b)
    assert a != from_values("m", [1, 3, 8])
    assert a != from_values("other", [1, 3, 7])
    assert a.values(3) == [1, 3, 7]


def test_rule_sequences_keep_identity():
    assert FSequence("naturals", lambda s: 2 * s) != NATURALS
    assert FSequence("naturals", NATURALS.rule) == NATURALS


def test_fibonacci_value_matches_the_addition_loop():
    checked = {2000, 4095, 4096, 4097, 10**4, 10**5}
    for s, f in enumerate(references.fibonacci(10**5), 1):
        if s <= 2000 or s in checked:
            assert FIBONACCI.value(s) == f, s


def test_fibonacci_values_prefix():
    assert [FIBONACCI.values(c) for c in range(4)] == [[], [1], [1, 1], [1, 1, 2]]
    assert FIBONACCI.values(500) == [FIBONACCI.value(s) for s in range(1, 501)]


def test_fibonacci_copies_and_pickles_as_itself():
    for twin in (copy.copy(FIBONACCI), copy.deepcopy(FIBONACCI),
                 pickle.loads(pickle.dumps(FIBONACCI))):
        assert twin == FIBONACCI and twin.rule is FIBONACCI.rule


# In a fresh interpreter, so no earlier call can have left values to reuse.
_RETAINED = """
import gc, tracemalloc
from cobweb import FIBONACCI
tracemalloc.start()
FIBONACCI.values(25_000)
gc.collect()
held = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, "*/cobweb/*")])
print(sum(stat.size for stat in held.statistics("filename")))
"""


def test_fibonacci_values_keep_nothing():
    src = os.path.dirname(os.path.dirname(cobweb.__file__))
    done = subprocess.run([sys.executable, "-c", _RETAINED], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert int(done.stdout) < 0.1 * 2**20


@pytest.mark.parametrize("bad", [
    ([], "custom sequence needs at least one value"),
    ([0], "value at index 1 must be a positive integer, got 0"),
    ([1, -2], "value at index 2 must be a positive integer, got -2"),
    ([1, "x"], "value at index 2 must be a positive integer, got 'x'"),
    ([1, 2.5], "value at index 2 must be a positive integer, got 2.5"),
    ([1, True], "value at index 2 must be a positive integer, got True"),
    ([1, 0, "x"], "value at index 2 must be a positive integer, got 0"),  # the first bad index
    ([3, 2**70, 1, 0], "value at index 4 must be a positive integer, got 0"),
])
def test_custom_sequence_rejects_bad_values(bad):
    values, message = bad
    with pytest.raises(ValueError) as caught:
        from_values("bad", values)
    assert str(caught.value) == message


def test_custom_sequence_accepts_int_subclasses():
    class Count(int):
        pass

    seq = from_values("counts", [Count(1), 2, Count(7)])
    assert seq.values(3) == [1, 2, 7] and seq == from_values("counts", [1, 2, 7])
    assert [type(v) for v in seq.values(3)] == [Count, int, Count]


def test_from_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\n2\n\n4\n")
    seq = from_file(str(path))
    assert seq.values(3) == [1, 2, 4]
    assert seq.limit == 3


def test_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\nzebra\n")
    with pytest.raises(ValueError) as caught:
        from_file(str(path))
    assert str(caught.value) == f"{path}:2: expected an integer, got 'zebra'"
    path.write_text("x" * 40 + "\n")
    with pytest.raises(ValueError) as caught:
        from_file(str(path))
    assert str(caught.value) == f"{path}:1: expected an integer, got {'x' * 32!r}… (40 characters)"
    # int() alone would take the underscore; the file holds decimal integers.
    path.write_text("1\n1_000\n")
    with pytest.raises(ValueError) as caught:
        from_file(str(path))
    assert str(caught.value) == f"{path}:2: expected an integer, got '1_000'"
    path.write_bytes(b"1\n\xd9\xa3\n")
    with pytest.raises(ValueError) as caught:
        from_file(str(path))
    assert str(caught.value).startswith(f"{path}:2: expected an integer, got ")
    path.write_text("1\n0\n")
    with pytest.raises(ValueError, match="positive"):
        from_file(str(path))
    path.write_text("\n  \n")
    with pytest.raises(ValueError) as caught:
        from_file(str(path))
    assert str(caught.value) == f"{path}: custom sequence needs at least one value"


@pytest.mark.parametrize("seq", [NATURALS, FIBONACCI], ids=lambda s: s.name)
def test_gcd_morphic_holds_to_two_hundred(seq):
    assert is_gcd_morphic(seq, 200).holds


def test_gcd_morphic_fibonacci_spot_check():
    # GCD[F_6, F_9] = GCD[8, 34] = 2 = F_3
    assert math.gcd(FIBONACCI.value(6), FIBONACCI.value(9)) == FIBONACCI.value(3) == 2


def test_even1_fails_with_smallest_witness():
    report = is_gcd_morphic(EVEN1, 10)
    assert not report.holds
    # lexicographically smallest violating pair: GCD[F_2, F_3] = GCD[2, 4] = 2
    # while F_GCD[2,3] = F_1 = 1
    assert report.witness == (2, 3)
    n, m = report.witness
    assert math.gcd(EVEN1.value(n), EVEN1.value(m)) == report.gcd_of_values == 2
    assert EVEN1.value(math.gcd(n, m)) == report.f_at_gcd == 1
    assert report.gcd_of_values != report.f_at_gcd


def test_witness_reproduces_violation_for_div31():
    report = is_gcd_morphic(DIV31, 12)
    assert not report.holds
    n, m = report.witness
    assert math.gcd(DIV31.value(n), DIV31.value(m)) == report.gcd_of_values
    assert DIV31.value(math.gcd(n, m)) == report.f_at_gcd
    assert report.gcd_of_values != report.f_at_gcd


def test_gcd_morphic_range_precondition():
    with pytest.raises(InvalidBounds):
        is_gcd_morphic(NATURALS, 1)


@given(st.integers(1, 300), st.integers(1, 300))
def test_fibonacci_gcd_identity(n, m):
    assert math.gcd(FIBONACCI.value(n), FIBONACCI.value(m)) == FIBONACCI.value(math.gcd(n, m))


def test_half_scan_matches_full_square_scan():
    rng = random.Random(1989)
    seqs = list(BUILTIN_SEQUENCES.values())
    for i in range(60):
        pool = rng.choice(((1, 2, 3, 4, 6, 12), (1, 1, 2, 3, 5, 8), tuple(range(1, 41))))
        seqs.append(from_values(f"random{i}", [rng.choice(pool) for _ in range(40)]))
        # a GCD-morphic prefix that breaks late, so witnesses sit deep in the square
        vals = (NATURALS if i % 2 else FIBONACCI).values(40)
        vals[rng.randrange(2, 40)] *= rng.choice((2, 3, 5))
        seqs.append(from_values(f"perturbed{i}", vals))
    for seq in seqs:
        for range_max in range(2, 41):
            assert is_gcd_morphic(seq, range_max) == references.gcd_morphic(
                seq.values(range_max)), (seq.name, range_max)
