import re
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import (
    DIV31,
    EVEN1,
    FIBONACCI,
    NATURALS,
    ODD,
    BudgetExceeded,
    CobwebVertex,
    FinitePoset,
    GridElement,
    InvalidBounds,
    build_cobweb,
    build_grid,
    from_values,
    layer_chain_count,
    layer_subposet,
    maximal_chains,
    rank_function,
    to_dot,
)
from cobweb import hasse
from references import dot_text
from test_grid import _valid_grids

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


# -- rendering against the per-edge oracle ---------------------------------------


def cobweb_covers(widths, lo, hi):
    """Every (s, i) below every (s + 1, j), from the widths alone."""
    return [
        (CobwebVertex(s, i), CobwebVertex(s + 1, j))
        for s in range(lo, hi)
        for i in range(1, widths[s - 1] + 1)
        for j in range(1, widths[s] + 1)
    ]


def grid_covers(elements):
    """Per element, the unit step in m, then the one in l, when present."""
    present = set(elements)
    return [
        (e, f)
        for e in elements
        for f in (GridElement(e.l, e.m + 1), GridElement(e.l + 1, e.m))
        if f in present
    ]


def order_covers(p):
    """Cover pairs of an engine from its order alone, x-major in element order."""
    els = p.elements
    return [
        (x, y)
        for x in els
        for y in els
        if p.lt(x, y) and not any(p.lt(x, z) and p.lt(z, y) for z in els)
    ]


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.integers(1, 6), min_size=1, max_size=7),
    data=st.data(),
)
def test_cobweb_dot_equals_the_oracle(values, data):
    levels = data.draw(st.integers(1, len(values)))
    c = build_cobweb(from_values("v", values), levels)
    covers = cobweb_covers(c.widths, 1, levels)
    for lv in (None, c.level_of()):
        expected = dot_text(c.elements, covers, lv, "cw")
        assert to_dot(c, lv, "cw") == expected
        assert to_dot(c.poset, lv, "cw") == expected
    if levels >= 2:
        k = data.draw(st.integers(1, levels - 1))
        n = data.draw(st.integers(k + 1, levels))
        sub = layer_subposet(c, k, n)
        lv = {v: v.s for v in sub.elements}
        assert to_dot(sub, lv, "slice") == dot_text(
            sub.elements, cobweb_covers(c.widths, k, n), lv, "slice"
        )


def test_width_one_and_one_level_cobwebs_equal_the_oracle():
    for values in ([1], [4], [1, 1, 1], [1, 5, 1, 3], [3, 1, 3]):
        for levels in range(1, len(values) + 1):
            c = build_cobweb(from_values("v", values), levels)
            covers = cobweb_covers(c.widths, 1, levels)
            assert to_dot(c, c.level_of()) == dot_text(c.elements, covers, c.level_of())
            assert to_dot(c) == to_dot(c.poset) == dot_text(c.elements, covers)


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_grid_dot_equals_the_oracle(mode):
    for n in range(9):
        for k in range(n + (mode == "weak")):
            g = build_grid(k, n, mode)
            covers = grid_covers(g.elements)
            for lv in (None, g.level_of()):
                expected = dot_text(g.elements, covers, lv, "g")
                assert to_dot(g, lv, "g") == expected, (k, n)
                assert to_dot(g.poset, lv, "g") == expected, (k, n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_engine_dot_equals_the_oracle(data):
    labels = data.draw(
        st.lists(st.text(alphabet='ab"\\ 1', max_size=3), unique=True, max_size=8)
    )
    n = len(labels)
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14)
        if n
        else st.just([])
    )
    # Edges run from a lower to a higher index, so the relation is acyclic.
    p = FinitePoset(labels, [(labels[min(i, j)], labels[max(i, j)]) for i, j in pairs])
    lv = {x: data.draw(st.integers(0, 3)) for x in labels}
    covers = order_covers(p)
    assert list(p.covers) == covers
    for levels in (None, lv):
        assert to_dot(p, levels, "r") == dot_text(labels, covers, levels, "r")


def test_dot_reads_cover_blocks_not_cover_pairs(monkeypatch):
    def refuse(self):
        raise AssertionError("to_dot read .covers")

    c = build_cobweb(FIBONACCI, 6)
    g = build_grid(3, 7, "weak")
    views = [c, g]
    engines = [c.poset, g.poset, layer_subposet(c, 2, 5)]
    expected = [to_dot(p) for p in views + engines]
    for cls in {type(p) for p in views + engines}:
        monkeypatch.setattr(cls, "covers", property(refuse))
    assert [to_dot(p) for p in views + engines] == expected


def test_cover_blocks_share_one_tuple_per_level():
    c = build_cobweb(DIV31, 4)  # widths 1, 3, 6, 10
    for blocks in (list(c.cover_blocks()), list(c.poset.cover_blocks())):
        assert [x for x, _ in blocks] == list(c.elements)
        by_level = {}
        for x, ys in blocks:
            assert by_level.setdefault(x.s, ys) is ys
            assert ys == tuple(v for v in c.elements if v.s == x.s + 1)
        assert by_level[4] == ()
    assert list(c.cover_blocks()) == list(c.poset.cover_blocks())


def test_view_blocks_keep_the_engine_contract():
    """Every view and engine sends each element once, in element order, with
    only elements of the poset as its covers and never itself among them.
    `_blocks(names)` is `cover_blocks()` with every element given as its
    name, and shares one covers sequence exactly where `cover_blocks()` does."""

    def check(p):
        blocks = list(p.cover_blocks())
        assert [x for x, _ in blocks] == list(p.elements)
        present = set(p.elements)
        assert all(x not in ys and present.issuperset(ys) for x, ys in blocks)
        names = [f"v{i}" for i in range(len(p.elements))]
        name = dict(zip(p.elements, names)).__getitem__
        named = list(p._blocks(names))
        assert [(q, list(qs)) for q, qs in named] == [
            (name(x), list(map(name, ys))) for x, ys in blocks
        ]
        shared = [[a is b for (_, a), (_, b) in zip(bs, bs[1:])] for bs in (blocks, named)]
        assert shared[0] == shared[1]

    for k, n, mode in _valid_grids(8):
        g = build_grid(k, n, mode)
        check(g)
        check(g.poset)
    for seq in BUILTINS:
        for level_max in range(1, 7):
            c = build_cobweb(seq, level_max)
            check(c)
            check(c.poset)
            for lo in range(1, level_max):
                for hi in range(lo + 1, level_max + 1):
                    check(layer_subposet(c, lo, hi))


def test_a_slice_makes_only_its_own_vertices():
    c = build_cobweb(NATURALS, 140)
    sub = layer_subposet(c, 139, 140)
    assert "elements" not in vars(c)
    assert sub.elements == tuple(
        CobwebVertex(s, j) for s in (139, 140) for j in range(1, s + 1)
    )
    assert len(sub) == 279


@pytest.mark.parametrize("poset", [build_cobweb(FIBONACCI, 13), build_grid(20, 60, "weak")],
                         ids=["fibonacci13", "grid_weak_20_60"])
def test_dot_pieces_are_one_level_node_or_source_each(poset):
    levels = poset.level_of()
    sources = sum(1 for _, ys in poset.cover_blocks() if ys)
    for lv, nodes in ((levels, len(set(levels.values()))), (None, len(poset))):
        pieces = list(hasse._dot_chunks(poset, lv, "p"))
        assert "".join(pieces) == to_dot(poset.poset, lv, "p")
        assert (pieces[0], pieces[-1]) == ('digraph "p" {\n  rankdir=BT;\n', "}\n")
        assert len(pieces) == 1 + nodes + sources + 1
        assert all(piece.count("\n") == 1 and "->" not in piece for piece in pieces[1 : 1 + nodes])
        for piece in pieces[1 + nodes : -1]:
            assert len({line.split(" -> ")[0] for line in piece.splitlines()}) == 1


@pytest.mark.parametrize("view", [build_cobweb(NATURALS, 12), build_grid(6, 15, "strict")],
                         ids=["cobweb", "grid"])
def test_view_dot_equals_engine_dot_with_and_without_levels(view):
    assert to_dot(view) == to_dot(view.poset)
    assert to_dot(view, view.level_of(), "v") == to_dot(view.poset, view.level_of(), "v")
