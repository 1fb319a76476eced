"""The engine memo behind `GridPoset.poset`, `CobwebPoset.poset` and
`layer_subposet`: equal views share one engine, the memo stays within its
byte bound, a memo hit is the engine a fresh build gives, and threads may
share it."""

import gc
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import cobweb.poset as engine
from cobweb import (
    BUILTIN_SEQUENCES,
    CobwebPoset,
    FIBONACCI,
    NATURALS,
    FinitePoset,
    build_cobweb,
    build_grid,
    from_values,
    layer_subposet,
    maximal_chains,
    mobius,
    rank_function,
    to_dot,
    whitney,
)
from cobweb._memo import Memo
from test_poset import _engine_fingerprint


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty memo in place of the shared one."""
    fresh = Memo(engine._MEMO_BYTES)
    monkeypatch.setattr(engine, "_ENGINES", fresh)
    return fresh


def _kept(memo):
    return [p for p, _ in memo.entries.values()]


def _fresh(view):
    return FinitePoset(view.elements, view.covers)


def test_equal_views_share_one_engine(memo):
    assert build_cobweb(FIBONACCI, 6).poset is build_cobweb(FIBONACCI, 6).poset
    assert build_grid(3, 7, "weak").poset is build_grid(3, 7, "weak").poset
    vals = (1, 2, 2, 3, 5)
    a = build_cobweb(from_values("v", vals), 5)
    b = build_cobweb(from_values("v", list(vals)), 5)
    assert a.seq is not b.seq and a.poset is b.poset
    assert layer_subposet(a, 2, 5) is layer_subposet(b, 2, 5)
    # A cobweb's engine is its slice of levels 1..level_max, whatever the
    # sequence that gave its widths.
    assert layer_subposet(a, 1, 5) is a.poset
    assert build_cobweb(from_values("w", [1, 1, 2, 3, 5, 8]), 6).poset is build_cobweb(
        FIBONACCI, 6
    ).poset
    # Views that differ in a parameter get engines of their own.
    assert build_grid(3, 7, "weak").poset is not build_grid(3, 7, "strict").poset
    assert build_cobweb(NATURALS, 5).poset is not a.poset
    assert len(memo.entries) == 6


def test_a_grid_engine_keeps_the_labels_tuple_of_its_view(memo):
    g = build_grid(40, 150, "weak")
    assert g.poset.elements is g.elements


def test_an_engine_holds_the_very_key_the_memo_keeps_it_under(memo):
    first, second = build_grid(3, 7, "weak"), build_grid(3, 7, "weak")
    p = first.poset
    assert second.poset is p
    # `Memo.get` re-inserted the engine under the second view, and the
    # engine's key is that view, so the first view and its elements are free.
    [key] = memo.entries
    assert key is second and p._key is second
    p.leq(p.elements[0], p.elements[-1])  # the closure recharges under that key
    assert memo.charged == engine._charge(p)


def test_slices_with_equal_widths_but_different_k_do_not_collide(memo):
    c = build_cobweb(from_values("flat", [2] * 6), 6)
    low, high = layer_subposet(c, 1, 3), layer_subposet(c, 3, 5)
    assert c.widths[0:3] == c.widths[2:5]
    assert low is not high
    assert {v.s for v in low.elements} == {1, 2, 3}
    assert {v.s for v in high.elements} == {3, 4, 5}
    assert layer_subposet(c, 3, 5) is high


@pytest.mark.parametrize("seq", BUILTIN_SEQUENCES.values(), ids=lambda s: s.name)
def test_cobweb_engine_is_its_slice_from_level_one(seq, monkeypatch):
    for level_max in range(1, 7):
        for poset_first in (True, False):
            memo = Memo(engine._MEMO_BYTES)
            monkeypatch.setattr(engine, "_ENGINES", memo)
            c = build_cobweb(seq, level_max)
            # One level is no slice, but it still has an engine.
            if poset_first or level_max == 1:
                first = c.poset
            else:
                first = layer_subposet(c, 1, level_max)
            assert list(memo.entries) == [(c.widths, 1)]
            assert _engine_fingerprint(first) == _engine_fingerprint(_fresh(c))
            assert c.poset is first
            if level_max > 1:
                assert layer_subposet(c, 1, level_max) is first


def test_memo_hits_match_fresh_builds_before_and_after_eviction(memo, monkeypatch):
    v = build_grid(3, 8)
    fresh = _engine_fingerprint(_fresh(v))
    assert _engine_fingerprint(v.poset) == fresh
    assert _engine_fingerprint(v.poset) == fresh  # a hit, now with its Möbius matrix
    # A bound that holds this engine alone evicts it for the next one.
    first = v.poset
    monkeypatch.setattr(memo, "limit", engine._charge(first) + 1)
    build_grid(4, 9).poset
    assert _kept(memo) == [build_grid(4, 9).poset]
    rebuilt = v.poset
    assert rebuilt is not first and rebuilt is v.poset
    assert _engine_fingerprint(rebuilt) == _engine_fingerprint(v.poset) == fresh


def test_mobius_returns_a_dict_of_its_own_on_every_call(memo):
    p = build_cobweb(NATURALS, 4).poset
    first = mobius(p)
    expected = dict(first.entries)
    first.entries.clear()
    second = mobius(p)
    assert second.entries == expected
    second.entries[next(iter(expected))] = 99
    assert mobius(p).entries == expected
    assert mobius(build_cobweb(NATURALS, 4).poset).entries == expected


def _traced_growth(call):
    """Bytes still allocated after call() and a collection, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_cobweb(NATURALS, 24).poset,
        # The memo keeps the engine, not the long sequence behind its widths.
        lambda: build_cobweb(from_values("long", range(1, 20_001)), 24).poset,
        lambda: layer_subposet(build_cobweb(FIBONACCI, 11), 3, 11),
        # The slice of `chains --k 4 --n 54 --method brute`: its levels share
        # one cover list each, so up-sets and elements make up its size.
        lambda: layer_subposet(build_cobweb(NATURALS, 54), 4, 54),
        lambda: build_grid(20, 60, "weak").poset,
        lambda: mobius(build_grid(8, 22).poset),
    ],
    ids=["cobweb", "cobweb-over-custom", "slice", "slice-naturals-54", "grid",
         "grid-with-mobius"],
)
def test_charge_is_within_twice_the_traced_size(memo, build):
    build()  # loads whatever the first call loads
    memo.entries.clear()
    memo.charged = 0
    kept = _traced_growth(build)
    (p,) = _kept(memo)
    assert kept / 2 <= engine._charge(p) <= 2 * kept
    assert memo.charged == engine._charge(p)


def test_one_engine_at_the_count_budget_fits_the_bound():
    n = engine.CHAIN_COUNT_BUDGET
    chain = FinitePoset(range(n), [(i, i + 1) for i in range(n - 1)])
    assert engine._charge(chain) <= engine._MEMO_BYTES
    assert chain.leq(0, n - 1)  # its closure, 12.5 MB, fits too
    assert engine._charge(chain) <= engine._MEMO_BYTES


def _serve_without_closure(p):
    maximal_chains(p)
    maximal_chains(p, "enumerate")
    rank_function(p)
    whitney(p, "second")
    p.covers
    list(p.cover_blocks())
    p.tops
    p.bottoms
    to_dot(p)


@pytest.mark.parametrize(
    "first",
    [lambda p: p.leq(p.elements[0], p.elements[-1]), mobius, lambda p: whitney(p, "first")],
    ids=["leq", "mobius", "whitney-first"],
)
@pytest.mark.parametrize(
    "view", [build_grid(3, 7, "weak"), build_cobweb(NATURALS, 5)], ids=["grid", "cobweb"]
)
def test_closure_is_built_once_by_the_first_query_that_reads_it(memo, view, first):
    p = view.poset
    _serve_without_closure(p)
    assert p._up is None
    charged = memo.charged
    assert charged == engine._charge(p)
    first(p)
    up = p._up
    assert up is not None
    # The memo that keeps the engine charges its closure at once.
    assert memo.charged == engine._charge(p) > charged
    x, y = p.elements[0], p.elements[-1]
    assert p.leq(x, y) and p.lt(x, y) and not p.leq(y, x)
    mobius(p)
    whitney(p, "first")
    _serve_without_closure(p)
    assert p._up is up
    assert memo.charged == engine._charge(p)
    assert _engine_fingerprint(p) == _engine_fingerprint(_fresh(view))


def _closed(p):
    """p, its closure built by one `leq`."""
    x = p.elements[0]
    assert p.leq(x, x)
    return p


def test_a_charge_overtaken_by_a_later_fill_is_not_lost(memo, monkeypatch):
    p = build_grid(6, 14, "weak").poset
    recharge, calls = memo.recharge, []

    def late(*args):  # the closure's charge lands after the Möbius matrix's
        if not calls:
            calls.append(args)
            mobius(p)
        return recharge(*args)

    monkeypatch.setattr(memo, "recharge", late)
    assert p.leq(p.elements[0], p.elements[-1])
    assert len(calls) == 1 and p._mobius is not None
    assert memo.charged == engine._charge(p)


def test_charged_total_stays_within_the_bound(memo):
    # With their closures the engines outgrow the bound; each `leq` recharges.
    views = [build_grid(40, 110 + i, "weak") for i in range(12)]
    assert sum(engine._charge(_closed(_fresh(v))) for v in views) > engine._MEMO_BYTES
    for v in views:
        _closed(v.poset)
        assert memo.charged <= engine._MEMO_BYTES
        assert memo.charged == sum(engine._charge(p) for p in _kept(memo))
    assert views[0] not in memo.entries and views[-1] in memo.entries


def test_engine_larger_than_the_bound_is_returned_but_not_kept(memo, monkeypatch):
    small, big = build_grid(2, 5), build_grid(12, 30)
    small.poset
    monkeypatch.setattr(memo, "limit", 4 * engine._charge(small.poset))
    assert engine._charge(_fresh(big)) > memo.limit
    assert big.poset.elements == big.elements
    assert big.poset is not big.poset
    assert memo.entries.keys() == {small}
    # A Möbius matrix that pushes a kept engine past the bound drops it.
    monkeypatch.setattr(memo, "limit", engine._charge(small.poset) + 1)
    mobius(small.poset)
    assert not memo.entries and memo.charged == 0


def _views():
    out = []
    for mode in ("strict", "weak"):
        for n in range(2, 9):
            out += [build_grid(k, n, mode) for k in range(0, n, 2)]
    for seq in BUILTIN_SEQUENCES.values():
        for levels in range(3, 7):
            out.append(build_cobweb(seq, levels))
    return out


def test_threads_share_the_memo_under_eviction(memo, monkeypatch):
    views = _views()
    slices = [(c, k) for c in views if isinstance(c, CobwebPoset) for k in (1, 2)]
    expected = {v: _engine_fingerprint(_fresh(v)) for v in views}
    expected.update(
        ((c, k), _engine_fingerprint(layer_subposet(c, k, c.level_max))) for c, k in slices
    )
    sizes = [engine._charge(_fresh(v)) for v in views]
    # A bound near a tenth of the total keeps evicting while the threads run.
    monkeypatch.setattr(memo, "limit", sum(sizes) // 10)
    memo.entries.clear()
    memo.charged = 0
    tasks = [*views, *slices] * 4
    random.Random(14).shuffle(tasks)

    def work(task):
        if isinstance(task, tuple):
            c, k = task
            return task, _engine_fingerprint(layer_subposet(c, k, c.level_max))
        return task, _engine_fingerprint(task.poset)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, tasks, timeout=300))
    finally:
        sys.setswitchinterval(switch)
    for task, fingerprint in results:
        assert fingerprint == expected[task], task
    assert memo.charged <= memo.limit
    assert memo.charged == sum(engine._charge(p) for p in _kept(memo))
