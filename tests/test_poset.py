import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobweb import (
    BudgetExceeded,
    FinitePoset,
    NoUniqueMinimum,
    NotAPartialOrder,
    NotGraded,
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


def test_count_budget():
    p = FinitePoset(range(10_001), [])
    with pytest.raises(BudgetExceeded):
        maximal_chains(p)


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
