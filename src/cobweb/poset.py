"""Generic finite poset engine: transitive closure, covers, rank, maximal
chains, Möbius function, and Whitney numbers of both kinds.

Elements are opaque hashable labels; enumeration order everywhere is
insertion order, so all derived artifacts are reproducible across runs.
The engine stores three things: a topological order, the cover successors
of each element and the minimal elements.  One reverse-topological sweep
over the input edges finds the covers with per-element up-set bitsets
(Python ints; Aho, Garey and Ullman, "The transitive reduction of a directed
graph", 1972), and drops each up-set after the last element that reads it,
so it holds only its frontier; the minimal elements are the sources of the
topological sort.  Chain counts, covers, ranks, second-kind Whitney numbers
and DOT read nothing more.  The closure, one up-set per element, is built
from the cover lists on first use by the queries that read it (`leq`, `lt`,
`mobius`, first-kind `whitney`) and kept on the engine: z <= j is the bit j
of up[z], and a Möbius row computes values only over its element's up-set.
No down-sets or predecessor sets are stored.  `mobius` computes an
engine's matrix once and keeps it on the engine.

The relation comes as pairs (x, y) or, from the views, as their cover blocks
(x, ys), one block per element at most.  Both enter through one path: the
pairs are grouped by source, one fresh block each.  Consecutive blocks that
share one tuple (a cobweb level, all covered by the next level) share one
successor set: the topological sort takes its edges away once, and the
sweep finds its closure and its sorted cover list once, for the run of
elements that share it, which then share that one list.  `maximal_chains`
counts a shared list once, and `cover_blocks()` yields one tuple for it.

The views' `.poset` and `layer_subposet` find or build every engine through
`_engine`, which checks the count budget first and keeps engines in
`_ENGINES`, a `cobweb._memo.Memo` of 32 MiB of estimated bytes, keyed by
what determines the engine (a grid view, or the level widths and first
level of a cobweb or a slice), so equal views get the same engine.  A
`FinitePoset` built directly has no key, so it is never memoized.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Callable, Hashable, Iterable, Iterator, Literal, NamedTuple, Sequence

from ._memo import Memo
from .base import MobiusMatrix, WhitneyVector, _cover_pairs
from .errors import (
    BudgetExceeded,
    NoUniqueMinimum,
    NotAPartialOrder,
    NotGraded,
)

__all__ = [
    "FinitePoset",
    "RankLabels",
    "MobiusMatrix",
    "WhitneyVector",
    "rank_function",
    "maximal_chains",
    "mobius",
    "whitney",
    "check_count_budget",
    "CHAIN_COUNT_BUDGET",
    "CHAIN_ENUMERATE_BUDGET",
]

Label = Hashable

CHAIN_COUNT_BUDGET = 10_000
CHAIN_ENUMERATE_BUDGET = 64


class FinitePoset:
    """A finite partial order over opaque labels.

    Built from any relation whose transitive closure is a partial order, given
    as pairs.  It keeps a topological order, the cover successors and the
    minimal elements; the covers come from one reverse-topological sweep at
    construction time, which keeps none of its up-sets, and no down-sets or
    predecessor sets are kept.  The views pass the relation as blocks
    (x, ys), one per element at most, through the private `_blocks` instead,
    and elements whose consecutive blocks share one tuple share one cover
    list; pairs are grouped into one block per source.

    The instance is immutable afterwards, so concurrent reads are safe; the
    exceptions are the up-sets, which the first closure query builds, the
    Möbius matrix, which `mobius` stores on first use (threads that race there
    compute equal values, and either may be kept), and the memo key, which
    `_engine` sets on each lookup.
    """

    __slots__ = ("_labels", "_index", "_up", "_topo", "_cover_succ", "_bottoms", "_mobius", "_key")

    def __init__(
        self,
        elements: Iterable[Label],
        leq_pairs: Iterable[tuple[Label, Label]] = (),
        *,
        _blocks: Iterable[tuple[Label, Sequence[Label]]] | None = None,
    ) -> None:
        labels = tuple(elements)  # a tuple given is kept, not copied
        n = len(labels)
        index = dict(zip(labels, range(n)))
        if len(index) < n:
            seen: set[Label] = set()
            for el in labels:
                if el in seen:
                    raise ValueError(f"duplicate element {el!r}")
                seen.add(el)

        # The successor sets, each stored once, and the set of each element:
        # element i's successors are sets[which[i]].  Pairs enter as one
        # fresh list per source, so they never share a set.
        if _blocks is None:
            groups: defaultdict[Label, list[Label]] = defaultdict(list)
            for a, b in leq_pairs:
                groups[a].append(b)
            _blocks = groups.items()
        sets, which = _block_sets(_blocks, index, n)

        topo, bottoms, readers = _toposort(sets, which, labels)
        pos = [0] * n
        for t, i in enumerate(topo):
            pos[i] = t

        # One sweep finds the covers.  up[i] holds every j with i <= j (self
        # included).  Every cover of i is an input edge, so only the successors
        # of i are tested, in topological order: acc is the OR of up[k] over
        # the successors k seen so far, any successor k < j comes before j, so
        # j is a cover exactly when acc misses j.  A successor that is no cover
        # adds nothing: its up-set is inside acc.  acc and the covers depend on
        # the successor set alone, so a run of elements that share one set
        # computes them once and shares the list.  A repeated successor finds
        # itself in acc the second time.  readers[j] counts the runs still to
        # come that read up[j], once per entry of their set; up[j] is dropped
        # after the last of them, and never kept for an element that has none,
        # so the sweep holds only its frontier.
        up = [0] * n
        cover_succ: list[list[int]] = [[]] * n
        last = -1
        by_pos = pos.__getitem__
        for i in reversed(topo):
            w = which[i]
            if w != last:
                last = w
                acc = 0
                covers = []
                for j in sorted(sets[w], key=by_pos):
                    if not acc >> j & 1:
                        covers.append(j)
                        acc |= up[j]
                    readers[j] -= 1
                    if not readers[j]:
                        up[j] = 0
                covers.sort()
            cover_succ[i] = covers
            if readers[i]:
                up[i] = acc | 1 << i

        self._labels = labels
        self._index = index
        self._up: list[int] | None = None
        self._topo = topo
        self._cover_succ = cover_succ
        self._bottoms = bottoms
        self._mobius: dict[tuple[Label, Label], int] | None = None
        self._key: Hashable = None  # its `_ENGINES` key

    # -- basic queries ----------------------------------------------------

    @property
    def elements(self) -> tuple[Label, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        covers = sum(map(len, self._cover_succ))
        return f"FinitePoset({len(self._labels)} elements, {covers} covers)"

    def index(self, label: Label) -> int:
        return self._index[label]

    def leq(self, a: Label, b: Label) -> bool:
        """True iff a <= b."""
        return bool(_upsets(self)[self._index[a]] >> self._index[b] & 1)

    def lt(self, a: Label, b: Label) -> bool:
        return a != b and self.leq(a, b)

    # -- derived relations --------------------------------------------------

    def cover_blocks(self) -> Iterator[tuple[Label, tuple[Label, ...]]]:
        """(x, the elements covering x) for every element x, in index order;
        consecutive elements that share one cover list share one tuple."""
        labels = self._labels
        last, ys = None, ()
        for x, js in zip(labels, self._cover_succ):
            if js is not last:
                last, ys = js, tuple(map(labels.__getitem__, js))
            yield x, ys

    @property
    def covers(self) -> tuple[tuple[Label, Label], ...]:
        """All cover pairs (x, y) with y covering x, in element-index order."""
        return tuple(_cover_pairs(self.cover_blocks()))

    def cover_successors(self, label: Label) -> tuple[Label, ...]:
        return tuple(self._labels[j] for j in self._cover_succ[self._index[label]])

    def cover_predecessors(self, label: Label) -> tuple[Label, ...]:
        j = self._index[label]
        return tuple(self._labels[i] for i, js in enumerate(self._cover_succ) if j in js)

    @property
    def bottoms(self) -> tuple[Label, ...]:
        """Minimal elements, in index order."""
        return tuple(self._labels[i] for i in self._bottoms)

    @property
    def tops(self) -> tuple[Label, ...]:
        """Maximal elements, in index order."""
        return tuple(x for x, js in zip(self._labels, self._cover_succ) if not js)


def _block_sets(
    blocks: Iterable[tuple[Label, Sequence[Label]]], index: dict[Label, int], n: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """(sets, which) for the relation of the blocks (x, ys), that is the pairs
    (x, y) for y in ys: element i's successors are sets[which[i]], a tuple
    without i that may repeat an entry.

    Each source has at most one block.  A block whose tuple is the previous
    block's tuple object shares its set, kept at the index of the first
    element that takes it, and every element with no block keeps one shared
    empty set; so `which` holds the int objects of `index` and makes no new
    ones.  Labels are looked up in block order, x before its ys; a block
    with no ys is skipped before its x is looked up.
    """
    empty: tuple[int, ...] = ()
    sets = [empty] * n
    which = list(index.values())
    last: Sequence[Label] | None = None
    get = index.__getitem__
    try:
        for x, ys in blocks:
            if not ys:
                continue
            i = get(x)
            if ys is last:
                which[i] = w
            else:
                last, w = ys, i
                s = tuple(map(get, ys))
                if i in s:  # reflexive pairs are implied
                    s = tuple(j for j in s if j != i)
                sets[i] = s
    except KeyError as exc:
        raise ValueError(f"pair references unknown element {exc.args[0]!r}") from None
    return sets, which


def _toposort(
    sets: list[tuple[int, ...]], which: list[int], labels: Sequence[Label]
) -> tuple[list[int], list[int], list[int]]:
    """Topological order of the edge digraph, its sources, the minimal
    elements, in index order, and the readers of each element: the runs of
    consecutive elements in the order that share a set holding it, once per
    entry; NotAPartialOrder on any cycle.

    The order is Kahn's, with a stack, taking a popped element's successors
    in descending index order.  A set's edges are taken away at once, when
    the last of the elements that share it is popped, so in-degrees count
    sets' entries, not edges: no successor of a set can reach in-degree 0
    before its last element is popped, so the order is the one the edges give
    one at a time.  A repeated entry is counted and taken away twice.  Every
    run of a set has started by the time its edges are taken away, so its
    readers are added there."""
    n = len(which)
    left = [0] * len(sets)  # the elements of each set not yet popped
    for w in which:
        left[w] += 1
    indeg = [0] * n
    for js, m in zip(sets, left):
        if m:
            for j in js:
                indeg[j] += 1
    sources = [i for i in range(n) if indeg[i] == 0]
    stack = sources[::-1]
    order: list[int] = []
    runs = [0] * n  # the runs so far of each set
    readers = [0] * n
    prev = -1
    while stack:
        i = stack.pop()
        order.append(i)
        w = which[i]
        if w != prev:
            prev = w
            runs[w] += 1
        if left[w] > 1:
            left[w] -= 1
            continue
        r = runs[w]
        for j in sorted(sets[w], reverse=True):
            readers[j] += r
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    if len(order) < n:
        remaining = {i for i in range(n) if indeg[i] > 0}
        pred: list[set[int]] = [set() for _ in range(n)]
        for i, w in enumerate(which):
            for j in sets[w]:
                pred[j].add(i)
        raise NotAPartialOrder(_cycle_witness(pred, remaining, labels))
    return order, sources, readers


def _cycle_witness(
    pred: list[set[int]], remaining: set[int], labels: Sequence[Label]
) -> tuple[Label, Label]:
    """A pair (x, y), x != y, reachable from each other inside `remaining`.

    Every node left out of the topological order has a predecessor left out
    too, so a walk through predecessors inside `remaining` comes back to a
    node it has seen; that node and the current one lie on one cycle.
    """
    seen: set[int] = set()
    i = min(remaining)
    while i not in seen:
        seen.add(i)
        j, i = i, min(pred[i] & remaining)
    return (labels[i], labels[j])


# -- the shared engine memo ----------------------------------------------------

# The memo's bound in bytes, against the estimates of `_charge`.  It holds one
# engine at CHAIN_COUNT_BUDGET elements, the largest engine a view builds,
# closure included: an engine has up-sets only once a closure query (`leq`,
# `mobius`, first-kind `whitney`) has built them, and then, in level-major
# order, most of its 10,000 up-sets reach the last element, 10,000 x 10,000
# bits or 12.5 MB.  Its per-element and per-list shares are at most 3 MB
# more.  32 MiB leaves room beside it for its covers or for the many small
# engines a long session reuses.
_MEMO_BYTES = 32 << 20
# Bytes per element (label, index entry, topological and cover-list slots),
# per cover list (header and spare slots; elements may share one), per
# cover and per Möbius entry (key pair and dict slot), as tracemalloc
# measures them on CPython 3.11.  Built up-sets are charged by their size.
_ELEMENT_BYTES = 160
_LIST_BYTES = 100
_COVER_BYTES = 8
_MOBIUS_ENTRY_BYTES = 100


def _charge(p: FinitePoset) -> int:
    """Estimated bytes an engine keeps, from counts it already has; its
    up-sets count only once a closure query has built them."""
    size = len(p._labels) * _ELEMENT_BYTES
    if p._up is not None:
        size += sum(map(sys.getsizeof, p._up))
    # The sweep makes one cover list per run of elements in topological order,
    # so a list that elements share is charged once, at the start of its run.
    last = None
    for js in map(p._cover_succ.__getitem__, p._topo):
        if js is not last:
            last = js
            size += _LIST_BYTES + _COVER_BYTES * len(js)
    if p._mobius is not None:
        size += _MOBIUS_ENTRY_BYTES * len(p._mobius)
    return size


_ENGINES = Memo(_MEMO_BYTES)


def _engine(key: Hashable, size: int, build: Callable[[], FinitePoset]) -> FinitePoset:
    """The engine of `size` elements kept under `key`, else build(), kept if
    it fits; refused past CHAIN_COUNT_BUDGET before anything is built.  Its
    `_key` is then the very key object the memo holds, so it pins no older
    equal view.  Two threads that miss one key may both build; the last one
    kept stays."""
    check_count_budget(size)
    p = _ENGINES.get(key)
    if p is None:
        p = build()
        _ENGINES.put(key, p, _charge(p))
    p._key = key
    return p


class RankLabels(NamedTuple):
    """Rank per element: minimal elements at 0, every cover step exactly +1."""

    rank: dict[Label, int]

    @property
    def max_rank(self) -> int:
        return max(self.rank.values())


def rank_function(p: FinitePoset) -> RankLabels:
    """Rank labels for a graded poset; NotGraded if any cover breaks unit steps."""
    n = len(p)
    if n == 0:
        raise ValueError("rank is undefined for the empty poset")
    rank: list[int | None] = [None] * n
    for i in p._topo:
        if rank[i] is None:  # no cover predecessor: minimal element
            rank[i] = 0
        for j in p._cover_succ[i]:
            step = rank[i] + 1
            if rank[j] is None:
                rank[j] = step
            elif rank[j] != step:
                raise NotGraded((p._labels[i], p._labels[j]))
    return RankLabels({p._labels[i]: rank[i] for i in range(n)})


def check_count_budget(n: int) -> None:
    """Refuse a view engine over more than CHAIN_COUNT_BUDGET elements.
    `_engine` checks a view's closed-form size before it builds the engine,
    whose closure, once a query builds it, costs memory quadratic in the
    element count; so a brute chain count over a view is refused before
    anything is built.  A count over an engine that exists is linear in its
    covers and is not refused."""
    if n > CHAIN_COUNT_BUDGET:
        raise BudgetExceeded(f"{n} elements exceed the count budget {CHAIN_COUNT_BUDGET}")


def maximal_chains(
    p: FinitePoset, mode: Literal["count", "enumerate"] = "count"
) -> int | list[tuple[Label, ...]]:
    """Saturated chains from a minimal to a maximal element.

    `count` returns the exact number; `enumerate` lists the chains in
    lexicographic element-index order.
    """
    n = len(p)
    if mode == "count":
        # Elements that share a cover list share its count too.
        counts = [0] * n
        last = None
        for i in reversed(p._topo):
            succ = p._cover_succ[i]
            if succ is not last:
                last = succ
                count = sum(map(counts.__getitem__, succ)) if succ else 1
            counts[i] = count
        return sum(counts[i] for i in p._bottoms)
    if mode == "enumerate":
        if n > CHAIN_ENUMERATE_BUDGET:
            raise BudgetExceeded(
                f"{n} elements exceed the enumerate budget {CHAIN_ENUMERATE_BUDGET}"
            )
        chains: list[tuple[Label, ...]] = []
        path: list[int] = []

        def walk(i: int) -> None:
            path.append(i)
            if p._cover_succ[i]:
                for j in p._cover_succ[i]:
                    walk(j)
            else:
                chains.append(tuple(p._labels[t] for t in path))
            path.pop()

        for i in p._bottoms:
            walk(i)
        return chains
    raise ValueError(f"mode must be 'count' or 'enumerate', got {mode!r}")


def _upsets(p: FinitePoset) -> list[int]:
    """The up-sets of p, bit j of the i-th set exactly when i <= j, for the
    queries that read the closure: `leq`, `lt` and the Möbius rows.

    They are built on first use by one reverse-topological pass over the
    cover lists, in which the elements of a run that share one list share
    one OR, and kept on the engine, which `_ENGINES` charges again under
    `p._key`.  Threads that race here build equal lists, and either may be
    kept."""
    up = p._up
    if up is None:
        up = [0] * len(p._labels)
        last = None
        for i in reversed(p._topo):
            js = p._cover_succ[i]
            if js is not last:
                last = js
                acc = 0
                for j in js:
                    acc |= up[j]
            up[i] = acc | 1 << i
        p._up = up
        _ENGINES.recharge(p._key, p, lambda: _charge(p))
    return up


def _mobius_row(p: FinitePoset, t: int) -> dict[int, int]:
    """mu(i, j) for every j >= i, where i = p._topo[t], by the textbook
    recursion over the up-set of i in topological order.

    Every z with i <= z < j comes before j, so mu(i, j) sums the nonzero
    entries found so far that lie below j; zero terms add nothing.  The first
    of them, mu(i, i) = 1, lies below every j."""
    up = _upsets(p)
    i = p._topo[t]
    up_i = up[i]
    row: dict[int, int] = {i: 1}
    nonzero: list[tuple[int, int]] = []  # (up[z], mu(i, z)) for z > i
    for j in p._topo[t + 1 :]:
        if up_i >> j & 1:
            v = -1
            for up_z, w in nonzero:
                if up_z >> j & 1:
                    v -= w
            row[j] = v
            if v:
                nonzero.append((up[j], v))
    return row


def mobius(p: FinitePoset) -> MobiusMatrix:
    """The full Möbius matrix: mu(x, x) = 1, mu(x, y) = -sum over x <= z < y.

    Entries are x-major in element order, each row in topological order.  The
    matrix is computed once per engine and kept on it, charged again under
    `p._key`; each call returns a record with a dict of its own, which the
    caller may change."""
    entries = p._mobius
    if entries is None:
        pos = [0] * len(p)
        for t, i in enumerate(p._topo):
            pos[i] = t
        labels = p._labels
        entries = {}
        for i, xi in enumerate(labels):
            for j, v in _mobius_row(p, pos[i]).items():
                entries[(xi, labels[j])] = v
        p._mobius = entries
        _ENGINES.recharge(p._key, p, lambda: _charge(p))
    return MobiusMatrix(dict(entries))


def whitney(p: FinitePoset, kind: Literal["second", "first"] = "second") -> WhitneyVector:
    """Whitney numbers of a graded poset.

    Second kind counts the elements of each rank; first kind sums
    mu(bottom, pi) over each rank and needs a unique minimum.
    """
    ranks = rank_function(p)
    values = [0] * (ranks.max_rank + 1)
    if kind == "second":
        for r in ranks.rank.values():
            values[r] += 1
    elif kind == "first":
        if len(p._bottoms) != 1:
            raise NoUniqueMinimum(f"poset has {len(p._bottoms)} minimal elements")
        # The unique minimum is the one element no input edge enters: topo[0].
        row = _mobius_row(p, 0)
        for j, v in row.items():
            values[ranks.rank[p._labels[j]]] += v
    else:
        raise ValueError(f"kind must be 'second' or 'first', got {kind!r}")
    return WhitneyVector(kind, tuple(values))
