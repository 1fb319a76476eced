import re
from math import prod

import pytest

from cobweb import (
    DIV31,
    EVEN1,
    FIBONACCI,
    NATURALS,
    ODD,
    BudgetExceeded,
    CobwebVertex,
    FinitePoset,
    InvalidBounds,
    build_cobweb,
    layer_chain_count,
    layer_subposet,
    maximal_chains,
    rank_function,
    to_dot,
)

BUILTINS = [NATURALS, FIBONACCI, ODD, EVEN1, DIV31]

_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)";$', re.M)
_EDGE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)";$', re.M)
_GROUPED = re.compile(r'"((?:[^"\\]|\\.)*)";')


def parse_dot(text):
    """Node names and edge pairs back out of the emitted DOT text."""
    nodes = []
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{ rank=same;"):
            nodes.extend(_GROUPED.findall(line))
        elif _EDGE.match(line):
            a, b = _EDGE.match(line).groups()
            edges.append((a, b))
        elif _NODE.match(line):
            nodes.append(_NODE.match(line).group(1))
    return nodes, edges


def test_build_examples():
    c = build_cobweb(FIBONACCI, 4)
    assert c.widths == (1, 1, 2, 3)
    assert len(c.poset) == 7
    c = build_cobweb(NATURALS, 3)
    assert len(c.poset) == 6
    assert len(c.poset.covers) == 1 * 2 + 2 * 3
    c = build_cobweb(ODD, 1)
    assert len(c.poset) == 1
    assert c.poset.covers == ()


def test_level_bounds_and_budget():
    with pytest.raises(InvalidBounds):
        build_cobweb(NATURALS, 0)
    with pytest.raises(BudgetExceeded):
        build_cobweb(NATURALS, 141)  # 141*142/2 = 10011 vertices


def test_complete_bipartite_covers():
    c = build_cobweb(DIV31, 3)  # widths 1, 3, 6
    for s, w in enumerate(c.widths[:-1], 1):
        below = [v for v in c.poset.elements if v.s == s]
        above = [v for v in c.poset.elements if v.s == s + 1]
        for u in below:
            assert c.poset.cover_successors(u) == tuple(above)
    assert len(c.poset.covers) == 1 * 3 + 3 * 6


def test_cross_level_comparability():
    c = build_cobweb(EVEN1, 3)
    assert c.poset.leq(CobwebVertex(1, 1), CobwebVertex(3, 4))
    assert not c.poset.leq(CobwebVertex(2, 1), CobwebVertex(2, 2))


def test_layer_subposet():
    c = build_cobweb(FIBONACCI, 5)
    sub = layer_subposet(c, 2, 4)
    assert len(sub) == 1 + 2 + 3
    assert {v.s for v in sub.elements} == {2, 3, 4}
    # (k, k+1) slice is the complete bipartite poset
    sub = layer_subposet(c, 4, 5)
    assert len(sub.covers) == 3 * 5
    with pytest.raises(InvalidBounds):
        layer_subposet(c, 3, 3)
    with pytest.raises(InvalidBounds):
        layer_subposet(c, 2, 6)


def test_layer_slices_are_graded_with_full_chains():
    c = build_cobweb(EVEN1, 5)
    for k in range(1, 5):
        for n in range(k + 1, 6):
            sub = layer_subposet(c, k, n)
            ranks = rank_function(sub)
            assert ranks.max_rank == n - k
            chains = maximal_chains(sub, "enumerate")
            assert all(len(chain) == n - k + 1 for chain in chains)


def test_layer_chain_counts():
    c = build_cobweb(FIBONACCI, 5)
    assert layer_chain_count(c, 2, 4, "closed") == 1 * 2 * 3 == 6
    assert layer_chain_count(c, 2, 4, "brute") == 6
    n = build_cobweb(NATURALS, 3)
    assert layer_chain_count(n, 1, 3, "brute") == 6
    assert layer_chain_count(n, 1, 3, "closed") == 6


@pytest.mark.parametrize("seq", [NATURALS, FIBONACCI, ODD, EVEN1, DIV31], ids=lambda s: s.name)
def test_brute_equals_width_product(seq):
    c = build_cobweb(seq, 6)
    for k in range(1, 6):
        for n in range(k + 1, 7):
            closed = prod(c.widths[k - 1 : n])
            if closed <= 10_000:
                assert layer_chain_count(c, k, n, "brute") == closed


def test_chain_count_validation():
    c = build_cobweb(NATURALS, 4)
    with pytest.raises(InvalidBounds):
        layer_chain_count(c, 2, 2, "closed")
    with pytest.raises(ValueError):
        layer_chain_count(c, 1, 2, "other")


def test_dot_two_chain():
    p = FinitePoset(["x", "y"], [("x", "y")])
    text = to_dot(p, name="two")
    nodes, edges = parse_dot(text)
    assert nodes == ["x", "y"]
    assert edges == [("x", "y")]


def test_dot_empty_poset_is_header_only():
    text = to_dot(FinitePoset([], []), name="empty")
    assert text == 'digraph "empty" {\n  rankdir=BT;\n}\n'


def test_dot_cobweb_round_trip():
    c = build_cobweb(FIBONACCI, 4)
    text = to_dot(c.poset, c.level_of(), name="fib4")
    nodes, edges = parse_dot(text)
    assert len(nodes) == 7
    assert len(edges) == 1 + 2 + 6 == len(c.poset.covers)
    labels = {str(v) for v in c.poset.elements}
    assert set(nodes) == labels
    assert {(a, b) for a, b in edges} == {(str(x), str(y)) for x, y in c.poset.covers}


def test_dot_is_deterministic():
    c = build_cobweb(DIV31, 4)
    first = to_dot(c.poset, c.level_of(), name="d")
    assert first == to_dot(c.poset, c.level_of(), name="d")


def test_dot_quotes_awkward_labels():
    p = FinitePoset(['say "hi"', "back\\slash"], [('say "hi"', "back\\slash")])
    nodes, edges = parse_dot(to_dot(p))
    assert len(nodes) == 2 and len(edges) == 1


@pytest.mark.parametrize("seq", BUILTINS, ids=lambda s: s.name)
def test_view_matches_engine(seq):
    for levels in range(1, 7):
        c = build_cobweb(seq, levels)
        engine = c.poset
        assert c.elements == engine.elements, levels
        assert list(c.covers) == list(engine.covers), levels
        assert len(c) == len(engine), levels
        assert c.level_of() == {v: v.s for v in engine.elements}, levels
        assert c.level_of() == {
            v: r + 1 for v, r in rank_function(engine).rank.items()
        }, levels


@pytest.mark.parametrize("seq", BUILTINS, ids=lambda s: s.name)
def test_engine_order_is_level_order(seq):
    # The engine is built from the view's covers, so a cover the view dropped
    # would leave both sides of test_view_matches_engine; pin the definition.
    for levels in range(1, 6):
        p = build_cobweb(seq, levels).poset
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == (x == y or x.s < y.s), (levels, x, y)


@pytest.mark.parametrize("seq", BUILTINS, ids=lambda s: s.name)
def test_layer_subposet_is_the_induced_slice(seq):
    c = build_cobweb(seq, 5)
    for n in range(2, 6):
        for k in range(1, n):
            sub = layer_subposet(c, k, n)
            assert sub.elements == tuple(v for v in c.elements if k <= v.s <= n), (k, n)
            for x in sub.elements:
                for y in sub.elements:
                    assert sub.leq(x, y) == c.poset.leq(x, y), (k, n, x, y)


@pytest.mark.parametrize("seq", BUILTINS, ids=lambda s: s.name)
def test_view_dot_matches_engine_dot(seq):
    for levels in range(1, 7):
        c = build_cobweb(seq, levels)
        engine_levels = {v: v.s for v in c.poset.elements}
        name = f"cobweb_{seq.name}"
        assert to_dot(c, c.level_of(), name) == to_dot(c.poset, engine_levels, name)


def test_build_cobweb_leaves_the_engine_unbuilt():
    c = build_cobweb(FIBONACCI, 6)
    assert "poset" not in vars(c)
    assert layer_chain_count(c, 2, 6, "closed") == 1 * 2 * 3 * 5 * 8
    assert "poset" not in vars(c)
    assert c.poset is c.poset
