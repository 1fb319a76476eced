"""The one bounded memo class behind the engine memo and the primitive-parts
memo, checked step by step against a plain list-based LRU model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb._memo import Memo


class _Model:
    """[key, value, cost] triples, least recently used first."""

    def __init__(self, limit):
        self.limit = limit
        self.kept = []

    def get(self, key):
        for i, (k, v, _) in enumerate(self.kept):
            if k == key:
                self.kept.append(self.kept.pop(i))
                return v
        return None

    def put(self, key, value, cost):
        self.kept = [e for e in self.kept if e[0] != key]
        if cost <= self.limit:
            self.kept.append((key, value, cost))
        while sum(c for _, _, c in self.kept) > self.limit:
            self.kept.pop(0)

    def recharge(self, key, value, cost):
        if any(k == key and v is value for k, v, _ in self.kept):
            self.put(key, value, cost)

    def clear(self):
        self.kept = []


_KEYS = st.integers(0, 5)
# The limit is drawn from 0..60: most costs keep a few values within it, and
# some are over it.
_COSTS = st.integers(0, 20) | st.integers(0, 120)
_GET = st.tuples(st.just("get"), _KEYS)
_PUT = st.tuples(st.just("put"), _KEYS, _COSTS)
_OPS = st.lists(
    _GET | _PUT | _GET | _PUT
    # The index picks a value put before, kept or not, or a fresh one; the
    # key is drawn, None, or the one the value was put under.
    | st.tuples(st.just("recharge"), _KEYS | st.sampled_from([None, "own"]),
                st.integers(0, 15), _COSTS)
    | st.tuples(st.just("clear")),
    min_size=20,
    max_size=80,
)


@settings(max_examples=100, deadline=None)
@given(limit=st.integers(0, 60), ops=_OPS)
def test_memo_matches_a_list_model(limit, ops):
    memo, model = Memo(limit), _Model(limit)
    made = []  # every value put so far; equal lists, told apart by identity
    for op in ops:
        if op[0] == "get":
            assert memo.get(op[1]) is model.get(op[1]), op
        elif op[0] == "put":
            made.append(value := [op[1]])
            memo.put(op[1], value, op[2])
            model.put(op[1], value, op[2])
        elif op[0] == "recharge":
            value = made[op[2]] if op[2] < len(made) else [op[2]]
            key = value[0] if op[1] == "own" else op[1]
            memo.recharge(key, value, lambda: op[3])
            model.recharge(key, value, op[3])
        else:
            memo.clear()
            model.clear()
        kept = [(k, v, c) for k, (v, c) in memo.entries.items()]
        assert [(k, c) for k, _, c in kept] == [(k, c) for k, _, c in model.kept], op
        assert all(v is w for (_, v, _), (_, w, _) in zip(kept, model.kept)), op
        assert memo.charged == sum(c for _, _, c in kept) <= limit
        assert all(c <= limit for _, _, c in kept)


def test_recharge_measures_a_kept_value_under_the_lock():
    memo = Memo(100)
    kept, dropped = [0], [1]
    memo.put(0, kept, 10)
    measured = []

    def measure():
        measured.append(memo._lock.locked())
        return 20

    memo.recharge(0, kept, measure)
    memo.recharge(1, dropped, measure)
    assert measured == [True]
    assert memo.entries == {0: (kept, 20)} and memo.charged == 20


class _Unscannable(dict):
    def items(self):
        raise AssertionError("a recharge scanned the entries")


def test_recharge_reads_only_the_entry_under_its_key():
    memo = Memo(10_000)
    values = [[k] for k in range(400)]
    for k, value in enumerate(values):
        memo.put(k, value, 10)
    memo.entries = _Unscannable(memo.entries)
    memo.recharge(0, values[0], lambda: 20)  # the oldest
    memo.recharge(None, [0], lambda: 30)  # a value never kept
    assert list(memo.entries) == [*range(1, 400), 0]
    assert memo.entries[0][0] is values[0] and memo.entries[0][1] == 20
    assert memo.charged == 399 * 10 + 20


def test_a_recharge_under_a_key_that_holds_another_value_changes_nothing():
    memo = Memo(100)
    old, new = [0], [0]
    memo.put(0, old, 10)
    memo.put(1, [1], 10)
    memo.put(0, new, 30)
    memo.recharge(0, old, lambda: 50)
    assert [(k, v, c) for k, (v, c) in memo.entries.items()] == [(1, [1], 10), (0, new, 30)]
    assert memo.entries[0][0] is new and memo.charged == 40
