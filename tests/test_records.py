"""The value records and the two views: repr text, equality, hashing and
immutability, pinned so that a change of representation shows."""

import pytest

from cobweb import (
    NATURALS,
    FinitePoset,
    GcdMorphicReport,
    ballot,
    bell_f_table,
    build_cobweb,
    build_grid,
    from_values,
    mobius,
    rank_function,
    whitney,
    whitney_row,
)
from cobweb.cli import OutputRecord
from cobweb.sequences import _Terms


def _chain(*labels):
    return FinitePoset(labels, zip(labels, labels[1:]))


# name: (build, repr of build(), build with one field changed, a field name,
# hashable).  Records that hold a dict are unhashable, as tuples of a dict are.
CASES = {
    "FSequence": (
        lambda: from_values("v", [1, 2]), "FSequence(name='v', limit=2)",
        lambda: from_values("v", [1, 3]), "name", True,
    ),
    "FSequence-builtin": (
        lambda: NATURALS, "FSequence(name='naturals', limit=None)",
        lambda: from_values("naturals", [1, 2]), "limit", True,
    ),
    "_Terms": (
        lambda: _Terms((1, 2)), "_Terms(vals=(1, 2))", lambda: _Terms((1, 3)), "vals", True,
    ),
    "GcdMorphicReport": (
        lambda: GcdMorphicReport(False, (2, 3), 1, 2),
        "GcdMorphicReport(holds=False, witness=(2, 3), gcd_of_values=1, f_at_gcd=2)",
        lambda: GcdMorphicReport(False, (2, 4), 1, 2), "witness", True,
    ),
    "GcdMorphicReport-defaults": (
        lambda: GcdMorphicReport(True),
        "GcdMorphicReport(holds=True, witness=None, gcd_of_values=None, f_at_gcd=None)",
        lambda: GcdMorphicReport(False), "holds", True,
    ),
    "BallotCount": (
        lambda: ballot(2, 4), "BallotCount(k=2, n=4, count=9)", lambda: ballot(2, 5), "count",
        True,
    ),
    "PrefabWhitneyRow": (
        lambda: whitney_row(NATURALS, 4),
        "PrefabWhitneyRow(seq=FSequence(name='naturals', limit=None), n=4, values=(1, 3, 1))",
        lambda: whitney_row(NATURALS, 5), "values", True,
    ),
    "BellSequence": (
        lambda: bell_f_table(NATURALS, 4),
        "BellSequence(seq=FSequence(name='naturals', limit=None), values=(1, 1, 2, 3, 5))",
        lambda: bell_f_table(NATURALS, 3), "values", True,
    ),
    "RankLabels": (
        lambda: rank_function(_chain("a", "b")), "RankLabels(rank={'a': 0, 'b': 1})",
        lambda: rank_function(_chain("a", "c")), "rank", False,
    ),
    "MobiusMatrix": (
        lambda: mobius(_chain("a", "b")),
        "MobiusMatrix(entries={('a', 'a'): 1, ('a', 'b'): -1, ('b', 'b'): 1})",
        lambda: mobius(_chain("a", "b", "c")), "entries", False,
    ),
    "WhitneyVector": (
        lambda: whitney(_chain("a", "b")), "WhitneyVector(kind='second', values=(1, 1))",
        lambda: whitney(_chain("a", "b"), "first"), "kind", True,
    ),
    "OutputRecord": (
        lambda: OutputRecord("catalan", {"n": 5}, value=42),
        "OutputRecord(command='catalan', params={'n': 5}, columns=None, rows=None, value=42,"
        " agreement=None, raw=None)",
        lambda: OutputRecord("catalan", {"n": 5}, value=43), "value", False,
    ),
    "GridPoset": (
        lambda: build_grid(2, 4), "GridPoset(k=2, n=4, mode='strict')",
        lambda: build_grid(2, 4, "weak"), "mode", True,
    ),
    "CobwebPoset": (
        lambda: build_cobweb(NATURALS, 3),
        "CobwebPoset(seq=FSequence(name='naturals', limit=None), level_max=3, widths=(1, 2, 3))",
        lambda: build_cobweb(NATURALS, 2), "level_max", True,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    build, text, _, _, _ = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_and_hash_alike(name):
    build, _, changed, _, hashable = CASES[name]
    a, b = build(), build()
    assert a == b and not a != b
    assert a != changed() and not a == changed()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", CASES)
def test_fields_refuse_assignment(name):
    build, _, _, field, _ = CASES[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_views_cache_on_demand_and_compare_by_parameters():
    g, c = build_grid(2, 4), build_cobweb(NATURALS, 3)
    assert g.elements is g.elements and c.poset is c.poset
    assert g == build_grid(2, 4) and hash(g) == hash(build_grid(2, 4))
    assert c == build_cobweb(NATURALS, 3) and hash(c) == hash(build_cobweb(NATURALS, 3))
    assert repr(g) == "GridPoset(k=2, n=4, mode='strict')"
    assert g != (2, 4, "strict") and c != g


def test_finite_poset_repr_counts_covers():
    assert repr(_chain("a", "b")) == "FinitePoset(2 elements, 1 covers)"
    assert repr(FinitePoset(range(4), [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])) == (
        "FinitePoset(4 elements, 4 covers)"
    )


def test_records_are_tuples():
    k, n, count = ballot(2, 4)
    assert (k, n, count) == (2, 4, 9) == ballot(2, 4)
    assert GcdMorphicReport(True) == (True, None, None, None)
    assert whitney(_chain("a", "b")) == ("second", (1, 1))
