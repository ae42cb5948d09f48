"""Exact counting of nonattacking rider placements on square boards.

The package has an exhaustive-enumeration oracle
(:mod:`qqueens.enumerator`) with the fold plans that count its constraint
patterns (:mod:`qqueens.fold`), a cache of its counts on disk
(:mod:`qqueens.cache`), exact quasipolynomial arithmetic and fitting
(:mod:`qqueens.quasipoly`), and a bank of closed-form counting formulas
(:mod:`qqueens.formulas`) together with the subspace catalog that certifies
them against the oracle (:mod:`qqueens.audit`).
"""

from .core import (
    ALL_PIECE_SPECS,
    Move,
    MoveSet,
    PartialQueenSpec,
    partial_queen,
)
from .enumerator import (
    AttackTable,
    BudgetExceededError,
    Collinear,
    ConstraintPattern,
    Equal,
    count_pattern,
    count_unlabelled,
    sequence,
)
from .quasipoly import (
    CoeffDecomposition,
    InconsistentSamplesError,
    InsufficientSamplesError,
    Polynomial,
    QuasiPolynomial,
    coefficient,
    detect_period,
    evaluate,
    fit,
)
from .cache import CountCache
