import functools
import hashlib
import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import (
    BudgetExceeded,
    FinitePoset,
    NoUniqueMinimum,
    NotAPartialOrder,
    NotGraded,
    grid_chain_count,
    maximal_chains,
    mobius,
    rank_function,
    whitney,
)


def chain(n):
    els = list(range(n))
    return FinitePoset(els, [(i, i + 1) for i in range(n - 1)])


def chain_product(a, b):
    """Product of an a-cover chain and a b-cover chain (grid of (a+1)(b+1) points)."""
    els = list(product(range(a + 1), range(b + 1)))
    pairs = []
    for x, y in els:
        if x < a:
            pairs.append(((x, y), (x + 1, y)))
        if y < b:
            pairs.append(((x, y), (x, y + 1)))
    return FinitePoset(els, pairs)


# -- construction -------------------------------------------------------------


def test_three_chain_covers():
    p = FinitePoset("abc", [("a", "b"), ("b", "c")])
    assert p.covers == (("a", "b"), ("b", "c"))
    assert p.leq("a", "c") and not p.leq("c", "a")
    assert p.bottoms == ("a",) and p.tops == ("c",)


def test_closed_input_gives_same_covers():
    p = FinitePoset("abc", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "a")])
    assert p.covers == (("a", "b"), ("b", "c"))


def test_pairs_build_in_linear_time():
    """A 20,001-element star, each pair given twice, and every reflexive pair:
    the pairs of one source enter as one block, so the build takes one set
    step per pair; a union of the source's set per pair takes about 2e8."""
    n = 20_000
    pairs = [(0, i) for i in range(1, n + 1)] * 2 + [(i, i) for i in range(n + 1)]
    start = time.perf_counter()
    p = FinitePoset(range(n + 1), pairs)
    elapsed = time.perf_counter() - start
    assert p.covers == tuple((0, i) for i in range(1, n + 1))
    assert p.bottoms == (0,) and p.tops == tuple(range(1, n + 1))
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_antichain():
    p = FinitePoset([1, 2], [])
    assert p.covers == ()
    assert p.bottoms == (1, 2) and p.tops == (1, 2)
    assert not p.leq(1, 2)


def test_antisymmetry_violation():
    with pytest.raises(NotAPartialOrder) as exc:
        FinitePoset("ab", [("a", "b"), ("b", "a")])
    assert set(exc.value.witness) == {"a", "b"}


def test_longer_cycle_detected():
    with pytest.raises(NotAPartialOrder):
        FinitePoset("abcd", [("a", "b"), ("b", "c"), ("c", "a")])


def test_duplicate_and_unknown_elements():
    with pytest.raises(ValueError):
        FinitePoset([1, 1], [])
    # The first label seen again is named, though "a" repeats too.
    with pytest.raises(ValueError, match="duplicate element 'b'"):
        FinitePoset("abba", [])
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 3)])


def test_empty_poset():
    p = FinitePoset([], [])
    assert len(p) == 0
    assert maximal_chains(p) == 0
    assert maximal_chains(p, "enumerate") == []


# -- rank ---------------------------------------------------------------------


def test_chain_ranks():
    ranks = rank_function(chain(3))
    assert ranks.rank == {0: 0, 1: 1, 2: 2}
    assert ranks.max_rank == 2


def test_lopsided_diamond_not_graded():
    # a < b < c < e and a < d < e: covers (d, e) and (c, e) disagree on rank
    pairs = [("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e")]
    with pytest.raises(NotGraded) as exc:
        rank_function(FinitePoset("abcde", pairs))
    x, y = exc.value.witness
    assert (x, y) in FinitePoset("abcde", pairs).covers


def test_rank_needs_elements():
    with pytest.raises(ValueError):
        rank_function(FinitePoset([], []))


# -- maximal chains -----------------------------------------------------------


def test_single_chain():
    assert maximal_chains(chain(5)) == 1
    assert maximal_chains(chain(5), "enumerate") == [(0, 1, 2, 3, 4)]


def test_two_by_two_grid_has_two_chains():
    p = chain_product(1, 1)
    assert maximal_chains(p) == 2


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 3), (3, 4), (1, 5)])
def test_chain_product_count_formula(a, b):
    # monotone paths in an a-by-b grid: C(a + b, a)
    assert maximal_chains(chain_product(a, b)) == math.comb(a + b, a)


def test_enumerate_matches_count_and_is_sorted():
    p = chain_product(2, 2)
    chains = maximal_chains(p, "enumerate")
    assert len(chains) == maximal_chains(p) == 6
    indexed = [tuple(p.index(x) for x in c) for c in chains]
    assert indexed == sorted(indexed)


def test_singleton_has_one_chain():
    p = FinitePoset(["x"], [])
    assert maximal_chains(p) == 1
    assert maximal_chains(p, "enumerate") == [("x",)]


def test_enumerate_budget():
    p = FinitePoset(range(65), [])
    with pytest.raises(BudgetExceeded):
        maximal_chains(p, "enumerate")


def test_count_budget(monkeypatch):
    # A count over an engine that exists is one pass over its covers: nothing
    # is left to save by refusing it.
    assert maximal_chains(FinitePoset(range(10_001), [])) == 10_001

    # The budget stays where it saves work: a brute count over a view is
    # refused on the view's closed-form size, before anything is built.
    def refuse(self, *args, **kwargs):
        raise AssertionError("the generic poset engine was built")

    monkeypatch.setattr(FinitePoset, "__init__", refuse)
    with pytest.raises(BudgetExceeded, match="^15251 elements exceed the count budget 10000$"):
        grid_chain_count(100, 200, "weak", "brute")


def test_bad_mode():
    with pytest.raises(ValueError):
        maximal_chains(chain(2), "all")


# -- Möbius --------------------------------------------------------------------


def test_two_chain_mobius():
    m = mobius(chain(2))
    assert m.value(0, 1) == -1
    assert m.value(0, 0) == m.value(1, 1) == 1


def test_diamond_mobius():
    # boolean lattice of rank 2: mu(bottom, top) = 1 - 1 - 1 + 1 = 1
    p = FinitePoset("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    m = mobius(p)
    assert m.value("0", "1") == 1
    assert m.value("0", "a") == m.value("0", "b") == -1


def test_antichain_mobius_is_diagonal():
    m = mobius(FinitePoset([1, 2, 3], []))
    assert m.entries == {(1, 1): 1, (2, 2): 1, (3, 3): 1}


def test_incomparable_value_is_zero():
    assert mobius(FinitePoset([1, 2], [])).value(1, 2) == 0


@pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (1, 4)])
def test_interval_sums_vanish(a, b):
    p = chain_product(a, b)
    m = mobius(p)
    for x in p:
        for y in p:
            if p.lt(x, y):
                total = sum(m.value(x, z) for z in p if p.leq(x, z) and p.leq(z, y))
                assert total == 0, (x, y)


# -- Whitney -------------------------------------------------------------------


def test_chain_whitney():
    p = chain(4)
    assert whitney(p, "second").values == (1, 1, 1, 1)
    assert whitney(p, "first").values == (1, -1, 0, 0)


def test_antichain_whitney_second():
    p = FinitePoset([1, 2, 3], [])
    assert whitney(p, "second").values == (3,)


def test_first_kind_needs_unique_minimum():
    with pytest.raises(NoUniqueMinimum):
        whitney(FinitePoset([1, 2], []), "first")


def test_bad_kind():
    with pytest.raises(ValueError):
        whitney(chain(2), "third")


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 2)])
def test_whitney_sums_on_chain_products(a, b):
    p = chain_product(a, b)
    second = whitney(p, "second").values
    assert sum(second) == len(p)
    assert all(v >= 0 for v in second)
    # unique minimum and maximum: the signed sums telescope to zero
    assert sum(whitney(p, "first").values) == 0


# -- randomized relations -------------------------------------------------------


def _reaches(pairs, src, dst, nodes):
    seen = {src}
    frontier = [src]
    while frontier:
        x = frontier.pop()
        for a, b in pairs:
            if a == x and b not in seen:
                seen.add(b)
                frontier.append(b)
    return dst in seen


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
            ),
        )
    )
)
def test_random_relations_build_or_witness(data):
    n, pairs = data
    try:
        p = FinitePoset(range(n), pairs)
    except NotAPartialOrder as exc:
        x, y = exc.witness
        assert x != y
        assert _reaches(pairs, x, y, n) and _reaches(pairs, y, x, n)
        return
    # closure is a partial order: antisymmetry and transitivity
    for x in p:
        for y in p:
            if x != y and p.leq(x, y):
                assert not p.leq(y, x)
            for z in p:
                if p.leq(x, y) and p.leq(y, z):
                    assert p.leq(x, z)
    assert maximal_chains(p) == len(maximal_chains(p, "enumerate"))
    # Möbius interval sums vanish on every nontrivial interval
    m = mobius(p)
    for x in p:
        for y in p:
            if p.lt(x, y):
                assert sum(m.value(x, z) for z in p if p.leq(x, z) and p.leq(z, y)) == 0


def _mobius_by_definition(elements, pairs):
    """mu(x, y) for every x <= y, from the order alone: reachability by search
    over the input pairs, then mu(y, y) = 1 and mu(x, y) = -sum of mu(z, y)
    over x < z <= y (the dual of the recursion the engine runs)."""
    leq = {(x, y) for x in elements for y in elements if _reaches(pairs, x, y, None)}

    @functools.cache
    def mu(x, y):
        if x == y:
            return 1
        return -sum(mu(z, y) for z in elements if z != x and (x, z) in leq and (z, y) in leq)

    return {(x, y): mu(x, y) for x, y in leq}


@given(st.data())
def test_mobius_matches_the_definition_on_random_posets(data):
    n = data.draw(st.integers(1, 7))
    order = data.draw(st.permutations(range(n)))
    # Pairs drawn as (min, max) can never close a cycle.
    raw = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=14))
    pairs = [(min(a, b), max(a, b)) for a, b in raw]
    p = FinitePoset(order, pairs)
    assert mobius(p).entries == _mobius_by_definition(order, pairs)


@given(st.data())
def test_first_kind_whitney_matches_the_definition_on_random_graded_posets(data):
    """A unique bottom, then levels 1..L; each element covers a nonempty set
    of elements on the level below, so its rank is its level."""
    widths = data.draw(st.lists(st.integers(1, 3), min_size=0, max_size=4))
    levels = [[(0, 0)]] + [[(t, j) for j in range(w)] for t, w in enumerate(widths, 1)]
    pairs = []
    for below, level in zip(levels, levels[1:]):
        for y in level:
            lower = data.draw(st.sets(st.sampled_from(below), min_size=1))
            pairs += [(x, y) for x in sorted(lower)]
    elements = [x for level in levels for x in level]
    mu = _mobius_by_definition(elements, pairs)
    expected = [0] * len(levels)
    for y in elements:
        expected[y[0]] += mu[(0, 0), y]
    p = FinitePoset(elements, pairs)
    assert whitney(p, "first").values == tuple(expected)
    assert mobius(p).entries == mu


# -- engine output pinned across commits ------------------------------------------


def _hand_made_relations():
    """(name, elements, pairs): small hand-written orders and cycles, then
    seeded random relations inserted in an order that is not a linear
    extension, with duplicate, reflexive and shortcut pairs."""
    cases = [
        ("empty", [], []),
        ("singleton", ["x"], [("x", "x")]),
        ("three_chain", "abc", [("a", "b"), ("b", "c")]),
        ("closed_chain", "abc", [("a", "c"), ("b", "c"), ("a", "b"), ("a", "a"), ("a", "c")]),
        ("reversed_chain", range(6), [(i + 1, i) for i in range(5)]),
        ("antichain", [3, 1, 2], []),
        ("diamond", "10ba", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"), ("0", "1")]),
        ("lopsided", "edcba", [("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e")]),
        ("n_shape", "abcd", [("a", "c"), ("b", "c"), ("b", "d")]),
        ("crown", range(6), [(i, 3 + j) for i in range(3) for j in range(3) if i != j]),
        ("two_bottoms_one_top", "xyz", [("x", "z"), ("y", "z")]),
        ("two_cycle", "ab", [("a", "b"), ("b", "a")]),
        ("three_cycle", "abcd", [("a", "b"), ("b", "c"), ("c", "a")]),
        ("cycle_with_tail", range(5), [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)]),
        ("cycle_above_order", range(5), [(4, 3), (0, 1), (1, 0), (2, 0)]),
        ("chain_product_shuffled", [(1, 2), (0, 0), (1, 0), (0, 2), (1, 1), (0, 1)],
         [((0, 0), (0, 1)), ((1, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 0), (1, 0)),
          ((0, 2), (1, 2)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((0, 0), (1, 2))]),
    ]
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        rank = list(range(n))
        rng.shuffle(rank)
        pairs = []
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            pairs.append((a, b) if rank[a] <= rank[b] or seed % 5 == 0 else (b, a))
        pairs += [(a, c) for a, b in pairs for b2, c in pairs if b == b2][:n]
        pairs += pairs[: rng.randint(0, 3)] + [(a, a) for a in range(0, n, 3)]
        rng.shuffle(pairs)
        order = list(range(n))
        rng.shuffle(order)
        cases.append((f"random_{seed}", order, pairs))
    return cases


def _engine_posets():
    from cobweb import BUILTIN_SEQUENCES, build_cobweb, build_grid, layer_subposet

    for mode in ("strict", "weak"):
        for n in range(9):
            for k in range(n + (mode == "weak")):
                yield f"grid {mode} {k} {n}", lambda k=k, n=n, mode=mode: build_grid(
                    k, n, mode
                ).poset
    for name, seq in BUILTIN_SEQUENCES.items():
        for levels in range(1, 7):
            c = build_cobweb(seq, levels)
            yield f"cobweb {name} {levels}", lambda c=c: c.poset
            for k in range(1, levels):
                yield f"slice {name} {k}..{levels}", lambda c=c, k=k: layer_subposet(
                    c, k, c.level_max
                )
    for name, elements, pairs in _hand_made_relations():
        yield name, lambda elements=elements, pairs=pairs: FinitePoset(elements, pairs)


def _outcome(f, *args):
    """f(*args), or the type, text and witness of the cobweb error it raises."""
    try:
        return f(*args)
    except (NotAPartialOrder, NotGraded, NoUniqueMinimum, BudgetExceeded) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None))


def _engine_fingerprint(p):
    return (
        p.elements,
        p.covers,
        p._topo,
        p.bottoms,
        p.tops,
        _outcome(lambda: rank_function(p).rank) if len(p) else None,
        tuple(mobius(p).entries.items()),
        _outcome(whitney, p, "second") if len(p) else None,
        _outcome(whitney, p, "first") if len(p) else None,
        _outcome(maximal_chains, p, "enumerate"),
        maximal_chains(p),
    )


def engine_digest():
    h = hashlib.sha256()
    for name, build in _engine_posets():
        outcome = _outcome(build)
        if isinstance(outcome, FinitePoset):
            outcome = _engine_fingerprint(outcome)
        h.update(repr((name, outcome)).encode())
    return h.hexdigest()


# Computed before the one-sweep closure; `python tests/test_poset.py` prints it.
ENGINE_DIGEST = "e793e957775fe5b950480e4db3c1574bcb399622b27acfed85f9ce79d4fece32"


def test_engine_output_matches_pinned_digest():
    assert engine_digest() == ENGINE_DIGEST


def _covers_by_definition(elements, pairs):
    """x < y from reachability by search over the input pairs, then the pairs
    x < y with nothing strictly between, in element-index order."""
    lt = {(x, y) for x in elements for y in elements if x != y and _reaches(pairs, x, y, None)}
    return [
        (x, y)
        for x in elements
        for y in elements
        if (x, y) in lt and not any((x, z) in lt and (z, y) in lt for z in elements)
    ], lt


@given(st.data())
def test_covers_match_the_transitive_reduction_on_random_relations(data):
    n = data.draw(st.integers(1, 8))
    order = data.draw(st.permutations(range(n)))  # insertion order of the elements
    rank = data.draw(st.permutations(range(n)))  # a hidden linear extension
    raw = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=16))
    pairs = [(a, b) if rank[a] <= rank[b] else (b, a) for a, b in raw]
    pairs += [(a, c) for a, b in pairs for b2, c in pairs if b == b2 and a != c]  # shortcuts
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pairs += [(a, a) for a in data.draw(st.sets(st.integers(0, n - 1)))]
    pairs = data.draw(st.permutations(pairs))
    p = FinitePoset(order, pairs)
    covers, lt = _covers_by_definition(order, pairs)
    assert list(p.covers) == covers
    for x in order:
        assert p.cover_successors(x) == tuple(y for a, y in covers if a == x)
        assert p.cover_predecessors(x) == tuple(a for a in order if (a, x) in covers)
        for y in order:
            assert p.leq(x, y) == (x == y or (x, y) in lt)
    assert p.bottoms == tuple(y for y in order if not any((x, y) in lt for x in order))
    assert p.tops == tuple(x for x in order if not any((x, y) in lt for y in order))


def _built(elements, **relation):
    """The fingerprint of the engine over the relation, or the type, text and
    witness of the error its construction raises."""
    try:
        return _engine_fingerprint(FinitePoset(elements, **relation))
    except (ValueError, NotAPartialOrder) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def test_a_shared_set_read_by_two_runs_keeps_its_up_sets_for_both():
    # a and b share one successor tuple, but z comes between them in the
    # topological order, so the sweep reads the up-sets of j and k in two runs.
    t = ("j", "k")
    p = FinitePoset("azbjk", _blocks=[("a", t), ("b", t), ("j", ("k",))])
    assert p._topo == [0, 1, 2, 3, 4]
    assert p.covers == (("a", "j"), ("b", "j"), ("j", "k"))
    assert p.leq("a", "k") and not p.leq("z", "k")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_blocks_build_the_engine_their_pairs_build(data):
    """Blocks (x, ys) shaped like the views' in place of the pairs (x, y) for
    y in ys: distinct sources, none in its own tuple.  Blocks draw their
    tuples from a small pool, so one tuple object may serve several sources,
    next to each other or not, and tuples may be empty or repeat a target;
    such blocks share sets, which the grouped pairs never do.  Half the draws
    may name the label n, which is no element, and half orient every pair
    along a hidden linear extension (with n in it), so they build."""
    n = data.draw(st.integers(1, 7))
    order = data.draw(st.permutations(range(n)))
    rank = data.draw(st.permutations(range(n + 1)))
    labels = range(n + data.draw(st.booleans()))
    acyclic = data.draw(st.booleans())
    pool = data.draw(
        st.lists(st.lists(st.sampled_from(labels), max_size=4).map(tuple), min_size=1,
                 max_size=4)
    )
    blocks = []
    for _ in range(data.draw(st.integers(0, 10))):
        ys = data.draw(st.sampled_from(pool))
        used = {x for x, _ in blocks}
        sources = [
            x for x in labels
            if x not in used and x not in ys and (not acyclic or all(rank[x] < rank[y] for y in ys))
        ]
        if sources:
            blocks.append((data.draw(st.sampled_from(sources)), ys))
    pairs = [(x, y) for x, ys in blocks for y in ys]
    assert _built(order, _blocks=iter(blocks)) == _built(order, leq_pairs=pairs)


if __name__ == "__main__":
    print(f'ENGINE_DIGEST = "{engine_digest()}"')
