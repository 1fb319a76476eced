"""Exact combinatorics of layered (cobweb) posets.

Builds the componentwise-ordered layer grids and the level-layered cobweb
Hasse diagrams over a positive integer sequence F, computes their Whitney
(Stirling-like) and Bell-like numbers, F-nomial coefficients, and
ballot/Catalan maximal-chain counts, and validates every closed form against
independent brute-force oracles.  All arithmetic is exact.

The package namespace is lazy (PEP 562): each public name below is imported
from its home submodule on first use, so a caller pays only for the modules
it reaches.  Only ``cobweb.errors`` loads with the package: every submodule
imports it, and tools that wrap cobweb right after ``import cobweb`` (such
as ``bench/tracer.py``) look up the error base there.
"""

from importlib import import_module

from . import errors  # noqa: F401

__version__ = "0.1.0"

_EXPORTS = {  # home submodule: the public names it gives the package
    "base": ("MobiusMatrix", "WhitneyVector"),
    "errors": (
        "BudgetExceeded", "CobwebError", "IndexOutOfDomain", "InvalidBounds", "NonIntegral",
        "NotAPartialOrder", "NotGraded", "NoUniqueMinimum", "UndefinedRank",
    ),
    "fnomial": ("BallotCount", "FNomialTable", "ballot", "catalan", "dominated_strings_brute"),
    "grid": (
        "GridElement", "GridPoset", "bell_grid", "build_grid", "grid_chain_count",
        "grid_mobius", "grid_rank", "grid_whitney", "size_formula", "stirling1_grid",
        "stirling2_closed", "stirling2_grid",
    ),
    "hasse": (
        "CobwebPoset", "CobwebVertex", "build_cobweb", "layer_chain_count", "layer_subposet",
        "to_dot",
    ),
    "poset": ("FinitePoset", "RankLabels", "maximal_chains", "mobius", "rank_function", "whitney"),
    "prefab": (
        "BellSequence", "PrefabWhitneyRow", "bell_f", "bell_f_table", "whitney_prefab",
        "whitney_row",
    ),
    "sequences": (
        "BUILTIN_SEQUENCES", "DIV31", "EVEN1", "FIBONACCI", "NATURALS", "ODD", "FSequence",
        "GcdMorphicReport", "from_file", "from_values", "is_gcd_morphic",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
