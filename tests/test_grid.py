import argparse
import random
from fractions import Fraction
from itertools import groupby
from math import comb

import pytest

import cobweb.poset
from cobweb import cli
from cobweb import (
    BudgetExceeded,
    FinitePoset,
    GridElement,
    InvalidBounds,
    UndefinedRank,
    ballot,
    bell_grid,
    build_grid,
    catalan,
    grid_chain_count,
    grid_mobius,
    grid_rank,
    grid_whitney,
    maximal_chains,
    mobius,
    rank_function,
    size_formula,
    stirling1_grid,
    stirling2_closed,
    stirling2_grid,
    to_dot,
    whitney,
)
from cobweb._memo import Memo
from cobweb.grid import _mobius_blocks, _mobius_chunks


def _valid_grids(n_max):
    """Every (k, n, mode) build_grid accepts with n <= n_max, by mode, n, k."""
    for mode in ("strict", "weak"):
        for n in range(n_max + 1):
            for k in range(n + (mode == "weak")):
                yield k, n, mode


def test_strict_elements():
    g = build_grid(1, 2, "strict")
    assert g.poset.elements == (GridElement(0, 1), GridElement(0, 2), GridElement(1, 2))


def test_weak_elements_include_diagonal_and_origin():
    g = build_grid(1, 2, "weak")
    assert len(g.poset) == 5
    assert GridElement(0, 0) in g.poset
    assert GridElement(1, 1) in g.poset
    assert g.poset.bottoms == (GridElement(0, 0),)


def test_invalid_bounds():
    for mode in ("strict", "weak"):
        with pytest.raises(InvalidBounds):
            build_grid(3, 2, mode)
        with pytest.raises(InvalidBounds):
            build_grid(-1, 2, mode)
    with pytest.raises(InvalidBounds):
        build_grid(2, 2, "strict")
    build_grid(2, 2, "weak")  # fine: diagonal square
    with pytest.raises(ValueError):
        build_grid(1, 2, "loose")


def test_componentwise_order():
    g = build_grid(2, 3, "strict")
    assert g.poset.leq(GridElement(0, 2), GridElement(1, 3))
    assert not g.poset.leq(GridElement(1, 2), GridElement(0, 3))


def test_size_formula_examples():
    assert size_formula(1, 2) == 3
    assert size_formula(2, 3) == 6
    for n in (1, 5, 9):
        assert size_formula(0, n) == n
    with pytest.raises(InvalidBounds):
        size_formula(3, 2)


def test_size_formula_matches_enumeration():
    for n in range(1, 16):
        for k in range(0, n):
            assert size_formula(k, n) == len(build_grid(k, n, "strict").poset)


def test_grid_rank_examples():
    assert grid_rank(GridElement(0, 1)) == 0
    assert grid_rank(GridElement(1, 2)) == 2
    assert grid_rank(GridElement(2, 3)) == 4
    with pytest.raises(UndefinedRank):
        grid_rank(GridElement(1, 1))
    with pytest.raises(UndefinedRank):
        grid_rank(GridElement(0, 0))
    with pytest.raises(InvalidBounds):
        grid_rank(GridElement(-1, 2))


def test_grid_rank_agrees_with_engine():
    for k, n in [(1, 2), (2, 3), (3, 7)]:
        g = build_grid(k, n, "strict")
        ranks = rank_function(g.poset)
        for e in g.poset.elements:
            assert ranks.rank[e] == grid_rank(e)
        assert ranks.max_rank == k + n - 1


def test_stirling2_vectors():
    assert [stirling2_grid(k, 2, 3) for k in range(5)] == [1, 1, 2, 1, 1]
    assert [stirling2_grid(k, 1, 2) for k in range(3)] == [1, 1, 1]
    assert stirling2_grid(7, 2, 3) == 0  # past the top rank: empty slant


def test_stirling2_closed_examples():
    assert stirling2_closed(2, 2, 3) == 2
    for l, m in [(0, 1), (3, 5), (0, 9)]:
        assert stirling2_closed(0, l, m) == 1
    assert stirling2_closed(4, 2, 3) == 1
    assert stirling2_closed(-1, 2, 3) == 0


def test_stirling2_closed_equals_count():
    for m in range(1, 31):
        for l in range(0, m):
            for k in range(0, l + m):
                assert stirling2_closed(k, l, m) == stirling2_grid(k, l, m), (k, l, m)
    for l, m in [(-1, 3), (3, 2)]:  # l < 0, then m < l: both refuse alike
        for count in (stirling2_grid, stirling2_closed):
            with pytest.raises(InvalidBounds, match="need 0 <= l <= m"):
                count(0, l, m)


def test_stirling2_matches_poset_whitney():
    for l, m in [(1, 2), (2, 3), (3, 6), (5, 9)]:
        vec = grid_whitney(l, m, "second").values
        assert list(vec) == [stirling2_grid(k, l, m) for k in range(l + m)]
        assert vec == whitney(build_grid(l, m).poset, "second").values


def test_stirling1_vector_p12():
    # hand Möbius on the 3-chain (0,1) < (0,2) < (1,2)
    assert [stirling1_grid(k, 1, 2) for k in range(3)] == [1, -1, 0]


def test_stirling1_rank_zero_is_one():
    for l, m in [(1, 2), (2, 3), (4, 9)]:
        assert stirling1_grid(0, l, m) == 1


def test_stirling1_sums_vanish():
    for m in range(2, 13):
        for l in range(0, m):
            if size_formula(l, m) >= 2:
                assert sum(stirling1_grid(k, l, m) for k in range(l + m)) == 0, (l, m)


def test_stirling1_out_of_range_rank_is_zero():
    assert stirling1_grid(99, 1, 2) == 0
    assert stirling1_grid(-1, 1, 2) == 0


def test_bell_grid():
    assert bell_grid(1, 2) == 3
    assert bell_grid(2, 3) == 6
    for m in (1, 4, 7):
        assert bell_grid(0, m) == m
    for m in range(1, 21):
        for l in range(0, m):
            assert bell_grid(l, m) == size_formula(l, m)
    with pytest.raises(InvalidBounds):
        bell_grid(2, 2)


def test_grid_mobius_matches_engine():
    for n in range(0, 11):
        for k in range(0, n + 1):
            for mode in ("strict", "weak"):
                if mode == "strict" and k == n:
                    continue
                g = build_grid(k, n, mode)
                engine = mobius(g.poset).entries
                entries = grid_mobius(k, n, mode).entries
                assert entries == engine, (k, n, mode)
                # Dict equality ignores order: the keys are x-major in element order.
                els = g.elements
                pairs = [(x, y) for x in els for y in els if x.l <= y.l and x.m <= y.m]
                assert list(entries) == pairs, (k, n, mode)
                # Each head is nonzero and cut to its ys; the rest of ys has mu 0.
                assert all(len(head) <= len(ys) and all(head)
                           for _, ys, head in _mobius_blocks(g, els)), (k, n, mode)


def test_grid_mobius_bounds():
    with pytest.raises(InvalidBounds):
        grid_mobius(2, 2, "strict")
    with pytest.raises(ValueError):
        grid_mobius(1, 2, "loose")


def _mobius_record(k, n, mode, rows):
    return cli.OutputRecord("mobius", {"k": k, "n": n, "mode": mode},
                            columns=("x_l", "x_m", "y_l", "y_m", "mu"), rows=rows)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_mobius_chunks_equal_render_over_the_plain_rows(fmt):
    # k = 0, weak k = n and strict n = k + 1, then seeded small grids.
    grids = [(0, 0, "weak"), (0, 1, "strict"), (0, 5, "weak"), (6, 6, "weak"), (5, 6, "strict")]
    by_n = sorted(_valid_grids(14), key=lambda g: (g[1], g[0]))  # strict first at each (n, k)
    grids += random.Random(31).sample(by_n, 16)
    for k, n, mode in grids:
        g = build_grid(k, n, mode)
        rows = [(*x, *y, mu) for (x, y), mu in grid_mobius(k, n, mode).entries.items()]
        expected = "".join(cli._render(_mobius_record(k, n, mode, rows), fmt))
        head, _, frame, tail = cli._LAYOUTS[fmt](_mobius_record(k, n, mode, ()))
        pieces = list(_mobius_chunks(g, frame))
        assert head + "".join(pieces) + tail == expected, (k, n, mode)
        assert len(pieces) == sum(1 for _ in _mobius_blocks(g, g.elements)), (k, n, mode)


@pytest.mark.parametrize("k, n, mode", [(10, 31, "weak"), (20, 60, "strict")])
def test_mobius_chunks_are_cut_at_blocks_within_the_bound(k, n, mode):
    # The chunks the mobius command writes: its pieces are the header, one
    # text per block and the (empty) tail, and _render cuts a chunk between
    # two of them once it reaches _BATCH_CHARS characters or _BATCH_ROWS pieces.
    bound = cli._BATCH_CHARS
    rec = cli._cmd_mobius(argparse.Namespace(k=k, n=n, mode=mode, format="text"))
    pieces = list(rec.raw)
    taken = 0

    def source():
        nonlocal taken
        for piece in pieces:
            taken += 1
            yield piece

    cuts, chunks = [0], []
    for chunk in cli._render(rec._replace(raw=source())):
        chunks.append(chunk)
        cuts.append(taken)
    assert len(chunks) > 2

    def block(line):  # x and the row of y
        return line.split()[:3]

    lines = "".join(chunks).splitlines(keepends=True)
    longest = max(sum(map(len, run)) for _, run in groupby(lines, block))
    for i, chunk in enumerate(chunks):
        assert chunk.endswith("\n"), i
        if i < len(chunks) - 1:
            run = cuts[i + 1] - cuts[i]
            assert len(chunk) >= bound or run == cli._BATCH_ROWS, i
            assert len(chunk) < bound + longest, i
            assert block(chunk.splitlines()[-1]) != block(chunks[i + 1]), i
    assert len(lines) == 1 + len(grid_mobius(k, n, mode).entries)


def test_grid_whitney_matches_engine():
    for m in range(1, 13):
        for l in range(0, m):
            poset = build_grid(l, m).poset
            for kind in ("second", "first"):
                assert grid_whitney(l, m, kind) == whitney(poset, kind), (l, m, kind)
    with pytest.raises(ValueError):
        grid_whitney(1, 2, "third")


def test_bell_grid_is_sum_of_slant_counts():
    for m in range(1, 13):
        for l in range(0, m):
            assert bell_grid(l, m) == sum(stirling2_grid(k, l, m) for k in range(l + m))


def test_chain_count_examples():
    assert grid_chain_count(1, 2, "strict", "brute") == 1
    assert grid_chain_count(1, 2, "weak", "brute") == 2
    assert grid_chain_count(2, 2, "weak", "brute") == catalan(2) == 2


def test_chain_count_brute_equals_closed():
    for n in range(0, 7):
        for k in range(0, n + 1):
            assert grid_chain_count(k, n, "weak", "brute") == grid_chain_count(
                k, n, "weak", "closed"
            ), (k, n)
            if k < n:
                assert grid_chain_count(k, n, "strict", "brute") == grid_chain_count(
                    k, n, "strict", "closed"
                ), (k, n)


def test_weak_closed_is_ballot():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert grid_chain_count(k, n, "weak", "closed") == ballot(k, n).count


def test_printed_chain_variant_is_refuted():
    # the variant ((n+1-k)/n) C(k+n, n) gives 3 at (k, n) = (1, 2); the
    # engine (and the string oracle) count 2
    k, n = 1, 2
    variant = Fraction(n + 1 - k, n) * comb(k + n, n)
    brute = grid_chain_count(k, n, "weak", "brute")
    assert brute == 2
    assert variant != brute


def test_chain_count_bad_method():
    with pytest.raises(ValueError):
        grid_chain_count(1, 2, "weak", "magic")


def test_whitney_vector_engine_routes_agree():
    g = build_grid(2, 3, "strict")
    chains = maximal_chains(g.poset, "enumerate")
    # every maximal chain is saturated from (0,1) to (2,3): length = max rank + 1
    assert all(len(c) == 5 for c in chains)
    assert len(chains) == grid_chain_count(2, 3, "strict", "closed")


def test_view_matches_engine():
    for k, n, mode in _valid_grids(8):
        g = build_grid(k, n, mode)
        engine = g.poset
        assert g.elements == engine.elements, (k, n, mode)
        assert list(g.covers) == list(engine.covers), (k, n, mode)
        assert len(g) == len(engine), (k, n, mode)
        assert g.level_of() == rank_function(engine).rank, (k, n, mode)


def test_cover_blocks_are_the_present_unit_steps():
    for k, n, mode in _valid_grids(8):
        g = build_grid(k, n, mode)
        blocks = list(g.cover_blocks())
        assert [e for e, _ in blocks] == list(g.elements), (k, n, mode)
        present = set(g.elements)
        for e, ys in blocks:
            steps = (GridElement(e.l, e.m + 1), GridElement(e.l + 1, e.m))
            assert ys == tuple(f for f in steps if f in present), (k, n, mode, e)
        assert blocks == list(g.poset.cover_blocks()), (k, n, mode)


def test_engine_order_is_componentwise():
    # The engine is built from the view's covers, so a cover the view dropped
    # would leave both sides of test_view_matches_engine; pin the definition.
    for k, n, mode in _valid_grids(8):
        p = build_grid(k, n, mode).poset
        for x in p.elements:
            for y in p.elements:
                assert p.leq(x, y) == (x.l <= y.l and x.m <= y.m), (k, n, mode, x, y)


def test_view_dot_matches_engine_dot():
    for k, n, mode in _valid_grids(8):
        g = build_grid(k, n, mode)
        name = f"grid_{mode}_{k}_{n}"
        assert to_dot(g, g.level_of(), name) == to_dot(
            g.poset, rank_function(g.poset).rank, name
        ), (k, n, mode)


def test_engine_view_is_built_once_on_demand():
    g = build_grid(2, 4, "weak")
    assert "poset" not in vars(g)
    assert g.poset is g.poset
    assert g == build_grid(2, 4, "weak")


def test_engine_is_refused_past_the_count_budget(monkeypatch):
    # The closed-form size is checked before anything is built.
    def refuse(self, *args, **kwargs):
        raise AssertionError("the generic poset engine was built")

    monkeypatch.setattr(FinitePoset, "__init__", refuse)
    monkeypatch.setattr(cobweb.poset, "_ENGINES", Memo(cobweb.poset._MEMO_BYTES))
    refused = "^{} elements exceed the count budget 10000$"
    with pytest.raises(BudgetExceeded, match=refused.format(15150)):
        build_grid(100, 200).poset
    with pytest.raises(BudgetExceeded, match=refused.format(15251)):
        build_grid(100, 200, "weak").poset
    with pytest.raises(BudgetExceeded, match=refused.format(33975)):
        mobius(build_grid(150, 300).poset)
    with pytest.raises(BudgetExceeded, match=refused.format(135450)):
        build_grid(300, 600).poset


def test_engine_at_the_benchmark_brute_size_builds(monkeypatch):
    monkeypatch.setattr(cobweb.poset, "_ENGINES", Memo(cobweb.poset._MEMO_BYTES))
    g = build_grid(52, 134, "weak")
    assert len(g.poset) == len(g) == 5777
    assert maximal_chains(g.poset, "count") == ballot(52, 134).count
