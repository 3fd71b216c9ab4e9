"""Heffter arrays, crazy knight's tours, and biembeddings of K_{m x t}."""

from typing import TYPE_CHECKING

from .embedding import (
    BiembeddingReport,
    CombinatorialEmbedding,
    biembedding_report,
    build_embedding,
    build_embeddings,
    genus_formula,
)
from .iso import (
    EmbeddingMap,
    StabilizerGroup,
    classify,
    find_isomorphism,
    stabilizer,
    verify_map,
)
from .knight import (
    BudgetExceededError,
    FamilySpec,
    OrientationPair,
    SolutionFamily,
    TourResult,
    build_family,
    cyclic_criterion,
    cyclic_criterion_perms,
    enumerate_solutions,
    is_solution,
    pairs_family,
    power_two_family,
    prime_family,
    seven_diagonal_family,
    strip_criterion,
    three_diagonal_family,
    tour,
)
from .pfarray import (
    ArrayFormatError,
    DiagonalProfile,
    NotDiagonalError,
    PartiallyFilledArray,
    Skeleton,
    classify_diagonality,
    cyclic_diagonal_skeleton,
    diagonal_skeleton,
    parse_array,
    parse_skeleton_json,
)
from .validation import (
    ValidationReport,
    is_globally_simple,
    is_simple_ordering,
    search_heffter,
    validate_heffter,
)

__version__ = "0.1.0"

if TYPE_CHECKING:  # imported on first use by __getattr__ below
    from .bounds import BoundQuery, BoundResult, binary_entropy, binom, derangements, evaluate_bound
_FROM_BOUNDS = ("BoundQuery", "BoundResult", "binary_entropy", "binom", "derangements",
                "evaluate_bound")


def __getattr__(name: str):
    """The names of :mod:`heffter.bounds` exported here, imported on first use
    (PEP 562): only the ``bounds`` command needs that module.  Any other name,
    such as a submodule that ``from heffter import cli`` looks up before
    importing it, fails without importing it."""
    if name not in _FROM_BOUNDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bounds

    return getattr(bounds, name)
