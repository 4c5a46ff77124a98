"""Shifted and lexicographic combinatorial optimization over matroids.

Matroids are given by independence oracles; five concrete families ship with
the package.  The solvers compute n-column selections (independent sets or
bases) maximizing a row-sorted profit matrix, and in particular n
lexicographically minimal bases such as spanning trees minimizing the number
of edges shared by many trees.  Brute-force oracles for desk-scale
cross-checking are part of the public API.
"""

from .bruteforce import (
    ExplicitSetSystem,
    brute_lexmin,
    brute_shifted,
    brute_shuffle_membership,
    common_members,
    enumerate_members,
)
from .constructions import (
    LiftMatroid,
    Matrix01,
    ShuffleMatroid,
    UnionMatroid,
    union_is_independent,
    union_rank_check,
)
from .errors import (
    DisallowedKindError,
    GuardError,
    InfeasibleError,
    InputError,
    InternalError,
    OverflowGuardError,
)
from .intersection import (
    BipartiteGraph,
    IntersectionInstance,
    degree_matroids,
    fiber_bipartite_matching,
    shifted_value_intersection,
    solve_shifted_bipartite_matching,
    weighted_matroid_intersection_max,
)
from .matroids import (
    GraphicMatroid,
    LinearGf2Matroid,
    Matroid,
    OracleMatroid,
    PartitionMatroid,
    Subset01,
    TransversalMatroid,
    UniformMatroid,
    full_rank,
    greedy_max,
    matroid_from_json,
    matroid_to_json,
    rank,
)
from .solver import (
    ProfitMatrix,
    ShiftedSolution,
    equivalent,
    lex_less,
    lexmin_shuffle_basis,
    shift,
    solve_fiber,
    solve_lexmin,
    solve_shifted,
    solve_shifted_small,
    solve_shuffling,
    validate,
    vulnerability_vector,
)

__version__ = "0.1.0"
