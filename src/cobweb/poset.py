"""Generic finite poset engine: transitive closure, covers, rank, maximal
chains, Möbius function, and Whitney numbers of both kinds.

Elements are opaque hashable labels; enumeration order everywhere is
insertion order, so all derived artifacts are reproducible across runs.
Reachability is stored as per-element bitsets (Python ints), which keeps the
closure, cover, and interval tests exact and fast at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Literal

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

    Built from any relation whose transitive closure is a partial order; the
    closure and the cover relation are computed at construction time and the
    instance is immutable afterwards, so concurrent reads are safe.
    """

    __slots__ = ("_labels", "_index", "_up", "_down", "_topo", "_cover_succ", "_cover_pred")

    def __init__(
        self,
        elements: Iterable[Label],
        leq_pairs: Iterable[tuple[Label, Label]] = (),
    ) -> None:
        labels: list[Label] = []
        index: dict[Label, int] = {}
        for el in elements:
            if el in index:
                raise ValueError(f"duplicate element {el!r}")
            index[el] = len(labels)
            labels.append(el)
        n = len(labels)

        succ: list[set[int]] = [set() for _ in range(n)]
        pred: list[set[int]] = [set() for _ in range(n)]
        for a, b in leq_pairs:
            try:
                i, j = index[a], index[b]
            except KeyError as exc:
                raise ValueError(f"pair references unknown element {exc.args[0]!r}") from None
            if i != j:  # reflexive pairs are implied
                succ[i].add(j)
                pred[j].add(i)

        topo = _toposort(succ, pred, labels)

        # Reachability closure: up[i] holds every j with i <= j (self included),
        # down[j] every i with i <= j.
        up = [0] * n
        for i in reversed(topo):
            m = 1 << i
            for j in succ[i]:
                m |= up[j]
            up[i] = m
        down = [0] * n
        for j in topo:
            m = 1 << j
            for i in pred[j]:
                m |= down[i]
            down[j] = m

        # Every cover must already be an input edge (a cover reached through a
        # longer edge path would have an element strictly between), so only the
        # input edges need the betweenness test.
        cover_succ: list[list[int]] = [[] for _ in range(n)]
        cover_pred: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in sorted(succ[i]):
                between = up[i] & down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    cover_succ[i].append(j)
                    cover_pred[j].append(i)
        for lst in cover_pred:
            lst.sort()

        self._labels = tuple(labels)
        self._index = index
        self._up = up
        self._down = down
        self._topo = topo
        self._cover_succ = cover_succ
        self._cover_pred = cover_pred

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
        return f"FinitePoset({len(self._labels)} elements, {len(self.covers)} covers)"

    def index(self, label: Label) -> int:
        return self._index[label]

    def leq(self, a: Label, b: Label) -> bool:
        """True iff a <= b."""
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def lt(self, a: Label, b: Label) -> bool:
        return a != b and self.leq(a, b)

    # -- derived relations --------------------------------------------------

    @property
    def covers(self) -> tuple[tuple[Label, Label], ...]:
        """All cover pairs (x, y) with y covering x, in element-index order."""
        out = []
        for i, js in enumerate(self._cover_succ):
            for j in js:
                out.append((self._labels[i], self._labels[j]))
        return tuple(out)

    def cover_successors(self, label: Label) -> tuple[Label, ...]:
        return tuple(self._labels[j] for j in self._cover_succ[self._index[label]])

    def cover_predecessors(self, label: Label) -> tuple[Label, ...]:
        return tuple(self._labels[i] for i in self._cover_pred[self._index[label]])

    @property
    def bottoms(self) -> tuple[Label, ...]:
        """Minimal elements, in index order."""
        return tuple(
            self._labels[i] for i in range(len(self._labels)) if self._down[i] == 1 << i
        )

    @property
    def tops(self) -> tuple[Label, ...]:
        """Maximal elements, in index order."""
        return tuple(
            self._labels[i] for i in range(len(self._labels)) if self._up[i] == 1 << i
        )


def _toposort(succ: list[set[int]], pred: list[set[int]], labels: list[Label]) -> list[int]:
    """Topological order of the edge digraph; NotAPartialOrder on any cycle."""
    n = len(succ)
    indeg = [len(p) for p in pred]
    stack = sorted((i for i in range(n) if indeg[i] == 0), reverse=True)
    order: list[int] = []
    while stack:
        i = stack.pop()
        order.append(i)
        for j in sorted(succ[i], reverse=True):
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    if len(order) < n:
        remaining = {i for i in range(n) if indeg[i] > 0}
        raise NotAPartialOrder(_cycle_witness(pred, remaining, labels))
    return order


def _cycle_witness(
    pred: list[set[int]], remaining: set[int], labels: list[Label]
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


@dataclass(frozen=True)
class RankLabels:
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
    """Refuse a chain count over more than CHAIN_COUNT_BUDGET elements.  A
    caller that knows the size in closed form checks it before it builds the
    engine, whose closure costs memory quadratic in the element count."""
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
        check_count_budget(n)
        counts = [0] * n
        for i in reversed(p._topo):
            succ = p._cover_succ[i]
            counts[i] = sum(counts[j] for j in succ) if succ else 1
        return sum(counts[i] for i in range(n) if not p._cover_pred[i])
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

        for i in range(n):
            if not p._cover_pred[i]:
                walk(i)
        return chains
    raise ValueError(f"mode must be 'count' or 'enumerate', got {mode!r}")


@dataclass(frozen=True)
class MobiusMatrix:
    """Möbius values mu(x, y) for every comparable pair x <= y."""

    entries: dict[tuple[Label, Label], int]

    def value(self, x: Label, y: Label) -> int:
        """mu(x, y); zero for incomparable pairs."""
        return self.entries.get((x, y), 0)


def _mobius_row(p: FinitePoset, i: int) -> dict[int, int]:
    """mu(i, j) for every j >= i, by the textbook recursion over the up-set.

    Each mu(i, j) sums only the nonzero entries found so far that lie in
    down[j]; zero terms add nothing."""
    row: dict[int, int] = {i: 1}
    nonzero = [(i, 1)]
    up_i = p._up[i]
    for j in p._topo:
        if j == i or not (up_i >> j & 1):
            continue
        down_j = p._down[j]
        row[j] = v = -sum(w for z, w in nonzero if down_j >> z & 1)
        if v:
            nonzero.append((j, v))
    return row


def mobius(p: FinitePoset) -> MobiusMatrix:
    """The full Möbius matrix: mu(x, x) = 1, mu(x, y) = -sum over x <= z < y."""
    entries: dict[tuple[Label, Label], int] = {}
    for i in range(len(p)):
        row = _mobius_row(p, i)
        xi = p._labels[i]
        for j in p._topo:
            if j in row:
                entries[(xi, p._labels[j])] = row[j]
    return MobiusMatrix(entries)


@dataclass(frozen=True)
class WhitneyVector:
    """Rank-indexed Whitney numbers; plain counts (second kind) or signed
    Möbius sums from the bottom element (first kind)."""

    kind: Literal["second", "first"]
    values: tuple[int, ...]


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
        bottoms = p.bottoms
        if len(bottoms) != 1:
            raise NoUniqueMinimum(f"poset has {len(bottoms)} minimal elements")
        row = _mobius_row(p, p.index(bottoms[0]))
        for j, v in row.items():
            values[ranks.rank[p._labels[j]]] += v
    else:
        raise ValueError(f"kind must be 'second' or 'first', got {kind!r}")
    return WhitneyVector(kind, tuple(values))
