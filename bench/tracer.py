"""Spans around the calls into each ``cobweb`` module, for the traced run.

The recorder wraps the public functions of each module from outside and
installs every wrapper in each ``cobweb`` namespace that holds the original
name (``cli`` binds ``build_grid`` and friends at import).  Spans stay in
memory and are written once, at the end.  A call into a layer made from
inside the same layer gets no span of its own (``fnomial`` calls
``f_factorial`` three times per coefficient); its time stays in the outer
span.  ``FSequence.value`` gets no span: it runs millions of times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

perf = time.perf_counter


def _bits(counts, args, kwargs, res):
    value = getattr(res, "count", res)
    if isinstance(value, int):
        counts["fnomial.result_bits"] += value.bit_length()


def _gcd_pairs(counts, args, kwargs, res):
    range_max = args[1] if len(args) > 1 else kwargs["range_max"]
    if res.holds:
        counts["sequences.gcd_pairs"] += range_max * range_max
    else:
        n, m = res.witness
        counts["sequences.gcd_pairs"] += (n - 1) * range_max + m


def _poset_size(counts, args, kwargs, res):
    p = args[0]
    counts["poset.elements"] += len(p)
    counts["poset.covers"] += sum(map(len, p._cover_succ))


def _mobius_entries(counts, args, kwargs, res):
    counts["poset.mobius_entries"] += len(res.entries)
    counts["poset.mobius_nonzero"] += sum(1 for v in res.entries.values() if v)


def _cobweb_pairs(counts, args, kwargs, res):
    w = res.widths
    counts["hasse.cover_pairs"] += sum(w[s] * w[s + 1] for s in range(len(w) - 1))


def _slice_pairs(counts, args, kwargs, res):
    c, k, n = args[:3]
    w = c.widths
    counts["hasse.cover_pairs"] += sum(w[s - 1] * w[s] for s in range(k, n))


def _whitney_layer(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs.get("kind", "second")
    return "poset.mobius" if kind == "first" else "poset.algo"


# (module, attribute or Class.method, layer or layer-of-arguments, counter)
TARGETS = [
    ("sequences", "FSequence.values", "sequences", None),
    ("sequences", "from_values", "sequences", None),
    ("sequences", "from_file", "sequences", None),
    ("sequences", "is_gcd_morphic", "sequences", _gcd_pairs),
    ("fnomial", "FNomialTable.fnomial", "fnomial", _bits),
    ("fnomial", "FNomialTable.f_factorial", "fnomial", _bits),
    ("fnomial", "catalan", "fnomial", _bits),
    ("fnomial", "ballot", "fnomial", _bits),
    ("fnomial", "dominated_strings_brute", "fnomial", None),
    ("prefab", "whitney_prefab", "prefab", None),
    ("prefab", "whitney_row", "prefab", None),
    ("prefab", "bell_f", "prefab", None),
    ("prefab", "bell_f_table", "prefab", None),
    ("poset", "FinitePoset.__init__", "poset.build", _poset_size),
    ("poset", "rank_function", "poset.algo", None),
    ("poset", "maximal_chains", "poset.algo", None),
    ("poset", "mobius", "poset.mobius", _mobius_entries),
    ("poset", "whitney", _whitney_layer, None),
    *[("grid", name, "grid", None) for name in (
        "build_grid", "size_formula", "grid_rank", "stirling2_grid", "stirling2_closed",
        "stirling1_grid", "bell_grid", "grid_chain_count", "grid_whitney")],
    ("hasse", "build_cobweb", "hasse", _cobweb_pairs),
    ("hasse", "layer_subposet", "hasse", _slice_pairs),
    ("hasse", "layer_chain_count", "hasse", None),
    ("hasse", "CobwebPoset.level_of", "hasse", None),
    ("hasse", "to_dot", "hasse.dot", None),
    ("cli", "run", "cli", None),
]


class Recorder:
    """In-memory spans ``(name, layer, start, end, parent, request)`` and
    counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self.top = None  # layer of the innermost open span
        self.top_idx = -1  # its index in spans
        self._counted_errors: set[int] = set()
        self._error_type: type = ()

    @contextmanager
    def span(self, name: str, layer: str):
        parent, prev = self.top_idx, self.top
        idx = len(self.spans)
        self.spans.append(None)
        self.top, self.top_idx = layer, idx
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self.top, self.top_idx = prev, parent
            self.spans[idx] = (name, layer, start, end, parent, self.request)

    def wrap(self, fn, name, layer, counter):
        rec, spans = self, self.spans
        layer_of = layer if callable(layer) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lay = layer if layer_of is None else layer_of(args, kwargs)
            if rec.top == lay:
                return fn(*args, **kwargs)
            parent, prev = rec.top_idx, rec.top
            idx = len(spans)
            spans.append(None)
            rec.top, rec.top_idx = lay, idx
            start = perf()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, rec._error_type) and id(exc) not in rec._counted_errors:
                    rec._counted_errors.add(id(exc))
                    rec.counts[lay.split(".")[0] + ".errors"] += 1
                raise
            finally:
                end = perf()
                rec.top, rec.top_idx = prev, parent
                spans[idx] = (name, lay, start, end, parent, rec.request)
            if counter is not None:
                counter(rec.counts, args, kwargs, res)
            return res

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``cobweb`` namespace."""
        mods = {n: m for n, m in sys.modules.items() if n == "cobweb" or n.startswith("cobweb.")}
        self._error_type = mods["cobweb.errors"].CobwebError
        for mod, attr, layer, counter in TARGETS:
            owner = mods.get(f"cobweb.{mod}")
            if owner is None:  # the session never imports cobweb.cli
                continue
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, layer, counter))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name, layer, counter)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
