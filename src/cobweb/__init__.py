"""Exact combinatorics of layered (cobweb) posets.

Builds the componentwise-ordered layer grids and the level-layered cobweb
Hasse diagrams over a positive integer sequence F, computes their Whitney
(Stirling-like) and Bell-like numbers, F-nomial coefficients, and
ballot/Catalan maximal-chain counts, and validates every closed form against
independent brute-force oracles.  All arithmetic is exact.
"""

from .errors import (
    BudgetExceeded,
    CobwebError,
    IndexOutOfDomain,
    InvalidBounds,
    NonIntegral,
    NotAPartialOrder,
    NotGraded,
    NoUniqueMinimum,
    UndefinedRank,
)
from .fnomial import (
    BallotCount,
    FNomialTable,
    ballot,
    catalan,
    dominated_strings_brute,
)
from .grid import (
    GridElement,
    GridPoset,
    bell_grid,
    build_grid,
    grid_chain_count,
    grid_mobius,
    grid_rank,
    grid_whitney,
    size_formula,
    stirling1_grid,
    stirling2_closed,
    stirling2_grid,
)
from .hasse import (
    CobwebPoset,
    CobwebVertex,
    build_cobweb,
    layer_chain_count,
    layer_subposet,
    to_dot,
)
from .poset import (
    FinitePoset,
    MobiusMatrix,
    RankLabels,
    WhitneyVector,
    maximal_chains,
    mobius,
    rank_function,
    whitney,
)
from .prefab import (
    BellSequence,
    PrefabWhitneyRow,
    bell_f,
    bell_f_table,
    whitney_prefab,
    whitney_row,
)
from .sequences import (
    BUILTIN_SEQUENCES,
    DIV31,
    EVEN1,
    FIBONACCI,
    NATURALS,
    ODD,
    FSequence,
    GcdMorphicReport,
    from_file,
    from_values,
    is_gcd_morphic,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SEQUENCES",
    "BallotCount",
    "BellSequence",
    "BudgetExceeded",
    "CobwebError",
    "CobwebPoset",
    "CobwebVertex",
    "DIV31",
    "EVEN1",
    "FIBONACCI",
    "FNomialTable",
    "FSequence",
    "FinitePoset",
    "GcdMorphicReport",
    "GridElement",
    "GridPoset",
    "IndexOutOfDomain",
    "InvalidBounds",
    "MobiusMatrix",
    "NATURALS",
    "NoUniqueMinimum",
    "NonIntegral",
    "NotAPartialOrder",
    "NotGraded",
    "ODD",
    "PrefabWhitneyRow",
    "RankLabels",
    "UndefinedRank",
    "WhitneyVector",
    "ballot",
    "bell_f",
    "bell_f_table",
    "bell_grid",
    "build_cobweb",
    "build_grid",
    "catalan",
    "dominated_strings_brute",
    "from_file",
    "from_values",
    "grid_chain_count",
    "grid_mobius",
    "grid_rank",
    "grid_whitney",
    "is_gcd_morphic",
    "layer_chain_count",
    "layer_subposet",
    "maximal_chains",
    "mobius",
    "rank_function",
    "size_formula",
    "stirling1_grid",
    "stirling2_closed",
    "stirling2_grid",
    "to_dot",
    "whitney",
    "whitney_prefab",
    "whitney_row",
]
