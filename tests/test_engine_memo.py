"""The engine memo, `cobweb.poset._ENGINES`, behind `GridPoset.poset`,
`CobwebPoset.poset` and `layer_subposet`.

`EngineMemo`, run at a small byte limit and with no memo, is its behavioural
spec: after each step it checks what the memo must do, not how it lays out what
it keeps.  Single cases replay through the same checks.
"""

import gc
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from functools import partial
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

import cobweb.poset as engine
from cobweb import BUILTIN_SEQUENCES, FinitePoset, build_cobweb, build_grid, from_values
from cobweb import layer_subposet, to_dot
from cobweb._memo import Memo
from test_poset import _engine_fingerprint, _outcome

# -- the model -------------------------------------------------------------------

# Custom sequences, rebuilt for every view: "fib-like" has Fibonacci's widths.
_CUSTOM = {"fib-like": [1, 1, 2, 3, 5, 8], "flat": [2] * 6, "lumpy": [1, 2, 2, 3, 5],
           "long": range(1, 20_001)}


class Opened(NamedTuple):
    view: object
    fetch: Callable  # fetches the view's engine
    ident: tuple  # what determines that engine
    oracle: Callable  # builds a fresh engine equal to it


def _open(req):
    """The view of req, ("grid", k, n, mode), ("cobweb", seq, levels) or
    ("slice", seq, levels, k, n), opened."""
    return _open_grid(*req[1:]) if req[0] == "grid" else _open_cobweb(*req[1:])


def _open_grid(k, n, mode):
    view = build_grid(k, n, mode)
    oracle = partial(FinitePoset, view.elements, view.covers)
    return Opened(view, lambda: view.poset, ("grid", k, n, mode), oracle)


def _open_cobweb(name, levels, *sliced):
    """A cobweb's engine is determined by the widths of its levels and the first."""
    view = build_cobweb(BUILTIN_SEQUENCES.get(name) or from_values(name, _CUSTOM[name]), levels)
    k, n = sliced or (1, levels)

    def fetch():
        return layer_subposet(view, k, n) if sliced else view.poset

    def oracle():
        return FinitePoset(
            [v for v in view.elements if k <= v.s <= n],
            [(x, y) for x, y in view.covers if k <= x.s and y.s <= n],
        )

    return Opened(view, fetch, (view.widths[k - 1 : n], k), oracle)


_REQUESTS = [
    ("grid", 0, 1, "strict"), ("grid", 1, 3, "strict"), ("grid", 2, 2, "weak"),
    ("grid", 2, 5, "weak"), ("grid", 3, 7, "weak"), ("grid", 8, 24, "weak"),
    *(("cobweb", s, levels) for s in (*BUILTIN_SEQUENCES, "fib-like", "flat")
      for levels in (1, 4, 6)),
    *(("slice", s, 6, k, n) for s in ("fibonacci", "fib-like", "flat", "div31")
      for k, n in ((1, 6), (1, 3), (3, 5), (4, 6))),
    ("slice", "lumpy", 5, 2, 5),
]


def _leq(p):
    return p.leq(p.elements[0], p.elements[-1]), p.lt(p.elements[-1], p.elements[0])


def _mobius(p):
    """The Möbius values, after which the dict they came in is cleared."""
    return [*(e := engine.mobius(p).entries).items(), e.clear()]


def _closure_free(p):
    count = engine.maximal_chains(p)
    # Chains are listed only where they are few: listing is slow past that.
    chains = count <= 1_000 and _outcome(engine.maximal_chains, p, "enumerate")
    return (count, chains, engine.rank_function(p), engine.whitney(p, "second"), p.tops,
            [*p.cover_blocks()])


# query -> (whether it reads the closure, what it answers)
_QUERIES = {
    "leq": (True, _leq),
    "mobius": (True, _mobius),
    "whitney": (True, lambda p: engine.whitney(p, "first")),
    "chains": (False, _closure_free),
    "dot": (False, to_dot),
}
_ORACLES = {}  # ident -> a fresh engine, kept across examples


def _asked(p, *queries):
    """p, once asked queries."""
    for query in queries:
        _QUERIES[query][1](p)
    return p


class EngineMemo(RuleBasedStateMachine):
    """Views fetch engines from a fresh memo of LIMIT bytes, and the caller
    queries them and drops views.  Counting each build where it is computed
    (`_engine`'s build, the closure in `_upsets`, the matrix in `mobius`):
    - the engine returned, and each answer, equals a fresh engine's;
    - an engine is built only while no equal key is kept, its closure only by
      a query that reads it, and nothing twice on one engine;
    - each kept engine is charged its `_charge`, the total within the limit,
      and the engine returned is kept, as the most recent, exactly when it fits;
    - a view the caller dropped is freed, unless it is the very key the memo
      keeps."""

    LIMIT = 40_000

    def __init__(self):
        super().__init__()
        self.memo = Memo(self.LIMIT)
        self.held = []  # (request, Opened) of each view the caller holds
        self.dropped = []  # weakrefs to the views the caller let go
        self.idents = {}  # id(engine) -> ident, for the kept and this step's
        self.made = {}  # ident -> what was built on its latest engine
        self.serving = None  # this step's ident
        self.reads = False  # whether this step's query reads the closure
        real = engine._engine
        self.patch = mock.patch.multiple(
            engine,
            _ENGINES=self.memo,
            _upsets=self._filled("closure", "_up", engine._upsets),
            _engine=lambda key, size, build: real(
                key, size, lambda: self._built("engine", build())
            ),
            mobius=self._filled("mobius", "_mobius", engine.mobius),
        )
        self.patch.start()

    def teardown(self):
        self.patch.stop()

    close = teardown  # for contextlib.closing

    def _filled(self, what, slot, real):
        def counted(p):
            if getattr(p, slot) is None and all(p is not o for o in _ORACLES.values()):
                self._built(what, p)
            return real(p)

        return counted

    def _built(self, what, p):
        if what == "engine":
            kept = [self.idents[id(q)] for q, _ in self.memo.entries.values()]
            assert self.serving not in kept, "built while an equal key is kept"
            self.idents[id(p)], self.made[self.serving] = self.serving, set()
        assert what not in self.made[self.serving], f"{what} built twice"
        assert self.reads or what != "closure", "closure built by a query that does not read it"
        self.made[self.serving].add(what)
        return p

    @rule(req=st.sampled_from(_REQUESTS), query=st.sampled_from((None, *_QUERIES)))
    def take(self, req, query=None):
        """Hold the view of req, fetch its engine, and ask it query, if any."""
        self.held.append((req, _open(req)))
        self.ask(-1)
        if query:
            self.ask(-1, query)

    @rule(i=st.integers(0, 9), query=st.sampled_from(sorted(_QUERIES)))
    def ask(self, i, query=None):
        """Fetch the engine of held view i again, and ask it query, if any."""
        if self.held:
            self._step(*self.held[i % len(self.held)], query)
            self._check_dropped()

    @rule(i=st.integers(0, 9))
    def let_go(self, i):
        if self.held:
            self.dropped.append(weakref.ref(self.held.pop(i % len(self.held))[1].view))
            self._check_dropped()

    def _step(self, req, opened, query):
        ident = self.serving = opened.ident
        self.reads, ask = _QUERIES.get(query, (False, None))
        _ORACLES[ident] = _ORACLES.get(ident) or opened.oracle()
        p = opened.fetch()
        if ask:
            assert _outcome(ask, p) == _outcome(ask, _ORACLES[ident]), (req, query)

        # What the engine answers without building anything, with the closure
        # and Möbius matrix it has built.
        def state(q):
            closure = p._up is not None and engine._upsets(q)
            matrix = p._mobius is not None and [*engine.mobius(q).entries.items()]
            return q.elements, q.covers, q._topo, q.bottoms, closure, matrix

        assert state(p) == state(_ORACLES[ident]), req
        kept = list(self.memo.entries.values())
        assert all(cost == engine._charge(q) for q, cost in kept), "a charge is stale"
        assert self.memo.charged == sum(cost for _, cost in kept) <= self.memo.limit
        idents = [self.idents[id(q)] for q, _ in kept]
        assert len(set(idents)) == len(idents), "equal keys keep two engines"
        at = [i for i, (q, _) in enumerate(kept) if q is p]
        assert at == ([len(kept) - 1] if engine._charge(p) <= self.memo.limit else []), req
        # p is alive, so its id stays its own.
        self.idents = {**{id(q): i for (q, _), i in zip(kept, idents)}, id(p): ident}

    def _check_dropped(self):
        def held():
            kept = self.memo.entries
            return [r for r in self.dropped
                    if (view := r()) is not None and all(view is not key for key in kept)]

        if held():
            gc.collect()  # in case only a cycle holds it
        assert not held(), "a dropped view is still held"
        self.dropped = [r for r in self.dropped if r() is not None]


def _machine(limit):
    """The model on a memo of limit bytes."""
    return type("EngineMemoAt", (EngineMemo,), {"LIMIT": limit})


TestEngineMemo = EngineMemo.TestCase
TestNoEngineMemo = _machine(0).TestCase  # every fetch builds
TestEngineMemo.settings = TestNoEngineMemo.settings = settings(
    max_examples=50, stateful_step_count=30, derandomize=True, database=None, deadline=None,
    report_multiple_bugs=False,
)


# -- single cases through the model's checks --------------------------------------


def _replay(*steps, limit=EngineMemo.LIMIT):
    """A test that runs steps, (rule name, *args), on a memo of limit bytes."""

    def test():
        with closing(_machine(limit)()) as m:
            for name, *args in steps:
                getattr(m, name)(*args)

    return test


def _fresh_charge(req, *queries):
    """What a fresh engine for req is charged once asked queries."""
    return engine._charge(_asked(_open(req).oracle(), *queries))


# A cobweb's engine is its slice of levels 1..level_max, whatever the sequence
# behind its widths; views that differ in a parameter do not share one.
test_equal_views_share_one_engine = _replay(
    *[("take", req) for req in [
        ("cobweb", "fibonacci", 6), ("grid", 3, 7, "weak"), ("cobweb", "lumpy", 5),
        ("slice", "lumpy", 5, 2, 5), ("slice", "lumpy", 5, 1, 5), ("cobweb", "fib-like", 6),
        ("grid", 3, 7, "strict"), ("cobweb", "naturals", 5),
    ] * 2],
    limit=engine._MEMO_BYTES,
)
# The memo keeps the engine under the view that fetched it last, so the first
# view is freed once its caller drops it.
test_an_engine_holds_the_very_key_the_memo_keeps_it_under = _replay(
    *[("take", ("grid", 3, 7, "weak"))] * 2, ("let_go", 0), ("ask", 0, "leq")
)
test_slices_with_equal_widths_but_different_k_do_not_collide = _replay(
    *[("take", ("slice", "flat", 6, k, k + 2)) for k in (1, 3, 1, 3)]
)
# A bound that holds one engine with its Möbius matrix evicts it for the next.
test_memo_hits_match_fresh_builds_before_and_after_eviction = _replay(
    *[("take", ("grid", k, k + 5, "strict"), "mobius") for k in (3, 3, 4, 4, 3, 3)],
    limit=_fresh_charge(("grid", 3, 8, "strict"), "mobius") + 1,
)
# The model clears each dict that mobius returns, and checks the next.
test_mobius_returns_a_dict_of_its_own_on_every_call = _replay(
    *[("take", ("cobweb", "naturals", 4), "mobius")] * 3
)
# The bound holds the small engine alone, not with its Möbius matrix, which
# then drops it.
test_engine_larger_than_the_bound_is_returned_but_not_kept = _replay(
    ("take", ("grid", 2, 5, "strict")),
    *[("take", ("grid", 12, 30, "strict"))] * 2,
    ("ask", 0, "mobius"),
    limit=_fresh_charge(("grid", 2, 5, "strict")) + 1,
)


@pytest.mark.parametrize("seq", sorted(BUILTIN_SEQUENCES))
def test_cobweb_engine_is_its_slice_from_level_one(seq):
    for levels in range(1, 7):
        cobweb, whole = ("cobweb", seq, levels), ("slice", seq, levels, 1, levels)
        # One level is no slice, but it still has an engine.
        for reqs in [(cobweb,)] if levels == 1 else [(cobweb, whole), (whole, cobweb)]:
            _replay(*[("take", req) for req in reqs])()


@pytest.mark.parametrize(
    "first", ["leq", "mobius", "whitney"], ids=["leq", "mobius", "whitney-first"]
)
@pytest.mark.parametrize(
    "view", [("grid", 3, 7, "weak"), ("cobweb", "naturals", 5)], ids=["grid", "cobweb"]
)
def test_closure_is_built_once_by_the_first_query_that_reads_it(view, first):
    _replay(("take", view), *[("ask", 0, q) for q in ("chains", "dot", first, *_QUERIES)])()


def test_charged_total_stays_within_the_bound():
    # With their closures the engines outgrow the bound; each `leq` recharges.
    views = [("grid", 3, 7 + i, "weak") for i in range(8)]
    with closing(EngineMemo()) as m:
        for v in views:
            m.take(v, "leq")
        assert 1 < len(m.memo.entries) < len(views)


def test_a_charge_overtaken_by_a_later_fill_is_not_lost():
    with closing(_machine(engine._MEMO_BYTES)()) as m:
        m.take(("grid", 6, 14, "weak"))
        recharge, calls = m.memo.recharge, []

        def late(p, measure):  # the closure's charge lands after the Möbius matrix's
            if not calls:
                calls.append(p)
                engine.mobius(p)
            return recharge(p, measure)

        with mock.patch.object(m.memo, "recharge", late):
            m.ask(0, "leq")
        assert len(calls) == 1


def test_a_grid_engine_keeps_the_labels_tuple_of_its_view(monkeypatch):
    monkeypatch.setattr(engine, "_ENGINES", Memo(engine._MEMO_BYTES))
    assert (g := build_grid(40, 150, "weak")).poset.elements is g.elements


# The memo keeps a cobweb's engine, not the long sequence behind its widths; the
# slice of `chains --k 4 --n 54 --method brute` shares one cover list per level.
@pytest.mark.parametrize("req, queries", [
    (("cobweb", "naturals", 24), ()), (("cobweb", "long", 24), ()),
    (("slice", "fibonacci", 11, 3, 11), ()), (("slice", "naturals", 54, 4, 54), ()),
    (("grid", 20, 60, "weak"), ()), (("grid", 8, 22, "strict"), ("mobius",)),
], ids=["cobweb", "cobweb-over-custom", "slice", "slice-naturals-54", "grid", "grid-with-mobius"])
def test_charge_is_within_twice_the_traced_size(monkeypatch, req, queries):
    monkeypatch.setattr(engine, "_ENGINES", memo := Memo(engine._MEMO_BYTES))
    _asked(_open(req).fetch(), *queries)  # loads whatever the first call loads
    memo.clear()
    gc.collect()
    tracemalloc.start()
    try:
        _asked(_open(req).fetch(), *queries)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    [(p, charge)] = memo.entries.values()
    assert kept / 2 <= charge == engine._charge(p) <= 2 * kept


def test_one_engine_at_the_count_budget_fits_the_bound():
    n = engine.CHAIN_COUNT_BUDGET
    chain = FinitePoset(range(n), [(i, i + 1) for i in range(n - 1)])
    assert engine._charge(chain) <= engine._MEMO_BYTES
    assert chain.leq(0, n - 1)  # its closure, 12.5 MB, fits too
    assert engine._charge(chain) <= engine._MEMO_BYTES


def test_threads_share_the_memo_under_eviction(monkeypatch):
    tasks = [(req, _open(req).fetch) for req in _REQUESTS] * 10
    random.Random(14).shuffle(tasks)
    oracles = {req: _open(req).oracle() for req in _REQUESTS}
    # A bound near a tenth of the total keeps evicting while the threads run.
    memo = Memo(sum(map(engine._charge, oracles.values())) // 10)
    monkeypatch.setattr(engine, "_ENGINES", memo)
    expected = {req: _engine_fingerprint(p) for req, p in oracles.items()}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda task: (task[0], _engine_fingerprint(task[1]())), tasks, timeout=300)
            )
    finally:
        sys.setswitchinterval(switch)
    for req, fingerprint in results:
        assert fingerprint == expected[req], req
    kept = list(memo.entries.values())
    assert memo.charged == sum(engine._charge(p) for p, _ in kept) <= memo.limit
