"""The subspace catalog and the inclusion-exclusion assembly it certifies.

Each catalog entry describes one intersection-subspace type of the move
arrangement: a family of constraint patterns whose brute-force lattice-point
count must equal a transcribed closed form, the type's Moebius value, and
the number of ways to assign pieces to the pattern.  Summing
``multiplicity * mu * count * n^(2q - 2*kappa)`` over the catalog (plus the
free term n^(2q)) rebuilds the labelled nonattacking count for q <= 3, which
is the master identity everything here certifies.

Pattern families encode the summing conventions of the underlying per-type
derivations explicitly: where two isomorphic subspaces are counted together
(for instance both slope assignments of a diagonal pair), the family holds
both patterns, and the closed form is their combined count.  Closed forms
are transcribed character for character; a transcription slip would surface
as an audit mismatch, which is the point.

Every type but the products of smaller ones is described the same way: the
size of the slope sets it is built on (0 to 3 distinct slopes of the piece),
and, per set, its orientation classes, each a label, the shapes of its
patterns (a path, a star or a triangle over those slopes, or coincident
pieces) and the printed closed form of their combined count.  Which classes
a set has depends only on how many of its slopes are diagonal.  One builder
(``_per_slopes``) walks the sets, so a piece with too few slopes of a kind
simply has no set that needs them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import DIAGONAL, ORTHOGONAL, Move
from .enumerator import (
    Collinear,
    ConstraintPattern,
    Equal,
    count_pattern,
    pattern,
)
from .formulas import alpha_closed, beta_closed
from .quasipoly import Polynomial, QuasiPolynomial, evaluate

F = Fraction


class InapplicableCaseError(ValueError):
    """The case has no subspaces for this (h, k)."""


def _qp(coeffs: Sequence) -> QuasiPolynomial:
    return QuasiPolynomial.constant_poly(Polynomial.make(coeffs))


def _qp_parity(const: Sequence, alt: Sequence) -> QuasiPolynomial:
    return QuasiPolynomial.from_parity_split(Polynomial.make(const), Polynomial.make(alt))


def _alpha_qp(m: Move) -> QuasiPolynomial:
    return QuasiPolynomial.constant_poly(alpha_closed(m))


@dataclass(frozen=True)
class Subcase:
    """One orientation class inside a catalog type: its patterns and their combined count."""

    label: str
    patterns: tuple[ConstraintPattern, ...]
    closed_form: QuasiPolynomial


class Subcases(tuple):
    """The subcases of one type for one piece, with the family of their
    patterns and the sum of their closed forms, each worked out once."""

    @functools.cached_property
    def patterns(self) -> tuple[ConstraintPattern, ...]:
        return tuple(p for sc in self for p in sc.patterns)

    @functools.cached_property
    def closed_form(self) -> QuasiPolynomial:
        return sum((sc.closed_form for sc in self), _qp([]))


SubcaseBuilder = Callable[[int, int], tuple[Subcase, ...]]


@dataclass(frozen=True)
class SubspaceCase:
    """One intersection-subspace type of the catalog."""

    name: str
    kappa: int
    codim: int
    doc: str
    moebius: Callable[[int, int], int]
    automorphisms: int
    subcase_builder: SubcaseBuilder

    def multiplicity(self, q: int) -> int:
        """The ways to put the type's kappa pieces on q labelled pieces:
        (q)_kappa ordered choices, each type counted once per its
        ``automorphisms`` relabellings that leave it unchanged."""
        return math.perm(q, self.kappa) // self.automorphisms

    def subcases(self, h: int, k: int) -> Subcases:
        return _built_subcases(self.subcase_builder, h, k)

    def applicable(self, h: int, k: int) -> bool:
        return bool(self.subcases(h, k))

    def pattern_family(self, h: int, k: int) -> tuple[ConstraintPattern, ...]:
        return self.subcases(h, k).patterns

    def closed_form(self, h: int, k: int) -> QuasiPolynomial:
        return self.subcases(h, k).closed_form


@functools.cache
def _built_subcases(builder: SubcaseBuilder, h: int, k: int) -> Subcases:
    """Each (builder, h, k) is built once per process; the audit and the
    assembly ask for the same subcases thousands of times."""
    return Subcases(builder(h, k))


# One object per distinct pattern of the catalog: the pieces' builders make
# equal patterns apart, and ``count_pattern``'s memo finds a pattern fastest
# by identity.
_PATTERNS: dict[ConstraintPattern, ConstraintPattern] = {}


def _subcase(label: str, patterns: Sequence[ConstraintPattern], closed_form: QuasiPolynomial) -> Subcase:
    """A ``Subcase`` holding the catalog's own object for each of ``patterns``."""
    return Subcase(label, tuple(_PATTERNS.setdefault(p, p) for p in patterns), closed_form)


def _slope_label(*ms: Move) -> str:
    return ",".join(f"{m.d}/{m.c}" for m in ms)


def _path(*slopes: Move) -> ConstraintPattern:
    """Pieces 1, 2, ... in a row, each neighbour pair collinear along the next slope."""
    return pattern(len(slopes) + 1, *(Collinear(i, i + 1, m) for i, m in enumerate(slopes, 1)))


def _star(*slopes: Move) -> ConstraintPattern:
    """Piece 1 collinear with each further piece along that piece's slope."""
    return pattern(len(slopes) + 1, *(Collinear(1, i, m) for i, m in enumerate(slopes, 2)))


def _triangle(hypotenuse: Move, a: Move, b: Move) -> ConstraintPattern:
    """Three pieces pairwise collinear: 1-2 on the hypotenuse, the right angle at 3."""
    return pattern(3, Collinear(1, 2, hypotenuse), Collinear(1, 3, a), Collinear(2, 3, b))


OrientationClass = tuple[str, tuple[ConstraintPattern, ...], QuasiPolynomial]


def _per_slopes(size: int, classes: Callable[..., Sequence[OrientationClass]]) -> SubcaseBuilder:
    """One subcase per orientation class of each set of ``size`` distinct
    slopes of the piece: ``classes(*slopes)``, orthogonal slopes first, gives
    the set's classes as (label, patterns, printed closed form).  A piece
    with too few slopes of a kind has no set that needs them."""

    def build(h: int, k: int) -> tuple[Subcase, ...]:
        return tuple(
            _subcase(*cls)
            for slopes in itertools.combinations(ORTHOGONAL[:h] + DIAGONAL[:k], size)
            for cls in classes(*slopes)
        )

    return build


def _by_diagonals(*per_count: Callable | None) -> Callable:
    """``per_count[j]`` applied to slopes of which j are diagonal; None where
    no slope set of the type's size has j diagonals."""
    return lambda *slopes: per_count[sum(m in DIAGONAL for m in slopes)](*slopes)


def _per_slope(
    shape: Callable[[Move], ConstraintPattern], closed: Callable[[Move], QuasiPolynomial]
) -> Callable[[Move], Sequence[OrientationClass]]:
    """The one class of a single slope m: the pattern ``shape(m)``, counted by ``closed(m)``."""
    return lambda m: [(f"slope {_slope_label(m)}", (shape(m),), closed(m))]


_u4a_closed = _by_diagonals(
    lambda o: _qp([0, 0, 0, 0, 0, 1]),
    lambda d: _qp([0, F(-1, 15), 0, F(2, 3), 0, F(2, 5)]),
)

# Size 0: coincident pieces, whatever the slopes.
_build_u2_2 = _per_slopes(0, lambda: [("coincident pair", (pattern(2, Equal(1, 2)),), _qp([0, 0, 1]))])
_build_u3_4 = _per_slopes(
    0, lambda: [("coincident triple", (pattern(3, Equal(1, 2), Equal(2, 3)),), _qp([0, 0, 1]))]
)

# Size 1: one class per slope.
_build_u2_1 = _per_slopes(1, _per_slope(_path, _alpha_qp))
# a lambda, so beta_closed is looked up per call and a rebinding (perfbench's tracer) reaches it
_build_u3a_2 = _per_slopes(1, _per_slope(lambda m: _path(m, m), lambda m: beta_closed(m)))
_build_u3b_3 = _per_slopes(1, _per_slope(lambda m: pattern(3, Equal(1, 2), Collinear(2, 3, m)), _alpha_qp))
_build_u4a_3 = _per_slopes(1, _per_slope(lambda m: _path(m, m, m), _u4a_closed))

# Size 2: (o1, o2), (o, d) or (d1, d2).
_build_u3b_2 = _per_slopes(2, _by_diagonals(
    lambda o1, o2: [("VH", (_path(o2, o1),), _qp([0, 0, 0, 0, 1]))],
    lambda o, d: [(f"DV {_slope_label(d, o)}", (_path(d, o),), _qp([0, 0, F(1, 3), 0, F(2, 3)]))],
    # middle piece on both diagonals
    lambda d1, d2: [("DD", (_path(d1, d2),), _qp_parity([F(1, 8), 0, F(1, 3), 0, F(5, 12)], [F(-1, 8)]))],
))
# Three pieces on a line of one slope, the fourth off the end along the other;
# each class holds both slope assignments.
_build_u4b_3 = _per_slopes(2, _by_diagonals(
    lambda o1, o2: [("VH", (_path(o2, o2, o1), _path(o1, o1, o2)), _qp([0, 0, 0, 0, 0, 2]))],
    lambda o, d: [
        (f"DV {_slope_label(d, o)}", (_path(d, d, o), _path(o, o, d)), _qp([0, 0, 0, F(5, 6), 0, F(7, 6)]))
    ],
    lambda d1, d2: [
        (
            "DD",
            (_path(d1, d1, d2), _path(d2, d2, d1)),
            _qp_parity([0, F(7, 30), 0, F(2, 3), 0, F(3, 5)], [0, F(-1, 2)]),
        )
    ],
))
# A path whose outer edges share a slope; DHD and HDH are not isomorphic, so
# they stay two classes.
_build_u4c_3 = _per_slopes(2, _by_diagonals(
    lambda o1, o2: [("VHV", (_path(o2, o1, o2), _path(o1, o2, o1)), _qp([0, 0, 0, 0, 0, 2]))],
    lambda o, d: [
        (f"DHD {_slope_label(d, o)}", (_path(d, o, d),), _qp([0, F(2, 15), 0, F(5, 12), 0, F(9, 20)])),
        (f"HDH {_slope_label(o, d)}", (_path(o, d, o),), _qp([0, 0, 0, F(1, 3), 0, F(2, 3)])),
    ],
    lambda d1, d2: [("DDD", (_path(d1, d2, d1), _path(d2, d1, d2)), _qp([0, F(4, 5), 0, F(2, 3), 0, F(8, 15)]))],
))

# Size 3: (o1, o2, d) or (o, d1, d2); the odd slope (d or o) is the triangle's
# hypotenuse, the path's middle or a path end, or the star's third ray.
_build_u3a_3 = _per_slopes(3, _by_diagonals(
    None,
    lambda o1, o2, d: [
        (f"tri1 {_slope_label(d)}", (_triangle(d, o2, o1), _triangle(d, o1, o2)), _qp([0, F(2, 3), 0, F(4, 3)]))
    ],
    lambda o, d1, d2: [
        (
            f"tri2 {_slope_label(o)}",
            (_triangle(o, d1, d2), _triangle(o, d2, d1)),
            _qp_parity([0, F(11, 12), 0, F(5, 6)], [0, F(-1, 4)]),
        )
    ],
))
_build_u4d_3 = _per_slopes(3, _by_diagonals(
    None,
    lambda o1, o2, d: [
        (f"HDV {_slope_label(d)}", (_path(o1, d, o2),), _qp([0, 0, 0, F(1, 3), 0, F(2, 3)])),
        (f"VHD {_slope_label(d)}", (_path(o2, o1, d), _path(o1, o2, d)), _qp([0, 0, 0, F(2, 3), 0, F(4, 3)])),
    ],
    lambda o, d1, d2: [
        (f"DHD {_slope_label(o)}", (_path(d1, o, d2),), _qp([0, F(2, 15), 0, F(5, 12), 0, F(9, 20)])),
        (
            f"DDV {_slope_label(o)}",
            (_path(d1, d2, o), _path(d2, d1, o)),
            _qp_parity([0, F(1, 4), 0, F(2, 3), 0, F(5, 6)], [0, F(-1, 4)]),
        ),
    ],
))
_build_u4e_3 = _per_slopes(3, _by_diagonals(
    None,
    lambda o1, o2, d: [
        (f"orthogonal pair + {_slope_label(d)}", (_star(o2, o1, d),), _qp([0, 0, 0, F(1, 3), 0, F(2, 3)]))
    ],
    lambda o, d1, d2: [
        (
            f"diagonal pair + {_slope_label(o)}",
            (_star(d1, d2, o),),
            _qp_parity([0, F(1, 8), 0, F(1, 3), 0, F(5, 12)], [0, F(-1, 8)]),
        )
    ],
))


def _side_by_side(first: ConstraintPattern, second: ConstraintPattern) -> ConstraintPattern:
    """Both patterns on disjoint pieces, the second's renumbered after the first's."""
    off = first.piece_count
    shifted = tuple(
        Collinear(c.i + off, c.j + off, c.slope) if type(c) is Collinear else Equal(c.i + off, c.j + off)
        for c in second.constraints
    )
    return ConstraintPattern(off + second.piece_count, first.constraints + shifted)


def _product(first: SubcaseBuilder, second: SubcaseBuilder) -> SubcaseBuilder:
    """Subspaces on disjoint pieces, one factor subspace on each block: one
    subcase per pair of subcases of the factors, with their patterns side
    by side and the product of their closed forms.  The factors' subcases
    are read from ``_built_subcases``, so a factor that is a type of the
    catalog too is built once; a product of three is a product of a
    product."""

    def build(h: int, k: int) -> tuple[Subcase, ...]:
        return tuple(
            _subcase(
                f"{a.label} x {b.label}",
                tuple(_side_by_side(p, r) for p in a.patterns for r in b.patterns),
                a.closed_form * b.closed_form,
            )
            for a in _built_subcases(first, h, k)
            for b in _built_subcases(second, h, k)
        )

    return build


_build_u4_2 = _product(_build_u2_1, _build_u2_1)


def _catalog() -> tuple[SubspaceCase, ...]:
    return (
        SubspaceCase(
            "U2^1", 2, 1,
            "one attack hyperplane: an ordered pair collinear along one slope",
            lambda h, k: -1, 2, _build_u2_1,
        ),
        SubspaceCase(
            "U2^2", 2, 2,
            "two hyperplanes on the same two pieces force them coincident; n^2 placements",
            lambda h, k: h + k - 1, 2, _build_u2_2,
        ),
        SubspaceCase(
            "U3a^2", 3, 2,
            "three pieces on one line of a single slope",
            lambda h, k: 2, 6, _build_u3a_2,
        ),
        SubspaceCase(
            "U3b^2", 3, 2,
            "a middle piece attacked along two distinct slopes; one pattern per unordered slope pair",
            lambda h, k: 1, 1, _build_u3b_2,
        ),
        SubspaceCase(
            "U4*^2", 4, 2,
            "two independent attacking pairs; family ranges over ordered slope pairs, "
            "multiplicity (q)_4/8 halves the double-counted unordered pair of pairs",
            lambda h, k: 1, 8, _build_u4_2,
        ),
        SubspaceCase(
            "U3a^3", 3, 3,
            "a right triangle of three pairwise-attacking pieces on three distinct slopes; "
            "each orientation family holds both right-angle corners",
            lambda h, k: -1, 2, _build_u3a_3,
        ),
        SubspaceCase(
            "U3b^3", 3, 3,
            "a coincident pair plus a third piece collinear with it",
            lambda h, k: -2 * (h + k - 1), 2, _build_u3b_3,
        ),
        SubspaceCase(
            "U4a^3", 4, 3,
            "four pieces on one line of a single slope; count is the sum of fourth "
            "powers of line lengths",
            lambda h, k: -6, 24, _build_u4a_3,
        ),
        SubspaceCase(
            "U4b^3", 4, 3,
            "three pieces on one line plus an attacker of the third along another slope; "
            "mu = -2 (four hyperplanes and four codimension-2 subspaces above it); "
            "the DD family combines the two isomorphic slope assignments",
            lambda h, k: -2, 2, _build_u4b_3,
        ),
        SubspaceCase(
            "U4c^3", 4, 3,
            "a four-piece path whose outer edges share one slope",
            lambda h, k: -1, 2, _build_u4c_3,
        ),
        SubspaceCase(
            "U4d^3", 4, 3,
            "a four-piece path with three distinct slopes; end-slope pairs are "
            "taken up to path reversal",
            lambda h, k: -1, 1, _build_u4d_3,
        ),
        SubspaceCase(
            "U4e^3", 4, 3,
            "a central piece attacked by three others along three distinct slopes",
            lambda h, k: -1, 1, _build_u4e_3,
        ),
        SubspaceCase(
            "U4*^3", 4, 3,
            "an attacking pair plus a coincident pair; mu is the product "
            "(-1)(h+k-1) = 1-|M|",
            lambda h, k: 1 - (h + k), 4, _product(_build_u2_1, _build_u2_2),
        ),
        SubspaceCase(
            "U5*a^3", 5, 3,
            "an attacking pair plus a collinear triple on disjoint pieces",
            lambda h, k: -2, 12, _product(_build_u2_1, _build_u3a_2),
        ),
        SubspaceCase(
            "U5*b^3", 5, 3,
            "an attacking pair plus a two-slope middle-piece triple on disjoint pieces",
            lambda h, k: -1, 2, _product(_build_u2_1, _build_u3b_2),
        ),
        SubspaceCase(
            "U6*^3", 6, 3,
            "three independent attacking pairs; family ranges over ordered slope "
            "triples, multiplicity (q)_6/48 undoes the 3! orderings of the pairs",
            lambda h, k: -1, 48, _product(_build_u4_2, _build_u2_1),
        ),
        SubspaceCase(
            "U3^4", 3, 4,
            "three pieces coincident on one square; mu = (h+k-1)^2 (h+k+2), "
            "zero for single-move pieces",
            lambda h, k: (h + k - 1) ** 2 * (h + k + 2), 6, _build_u3_4,
        ),
    )


_CATALOG = _catalog()


def case_catalog() -> tuple[SubspaceCase, ...]:
    """The complete 17-type catalog."""
    return _CATALOG


@dataclass(frozen=True)
class AuditResult:
    case: str
    h: int
    k: int
    n: int
    brute: int
    closed: Fraction
    match: bool


def audit_case(case: SubspaceCase, h: int, k: int, n: int) -> AuditResult:
    """Brute-force the case's pattern family and compare with its closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not case.applicable(h, k):
        raise InapplicableCaseError(f"{case.name} has no subspaces for (h, k) = {(h, k)}")
    brute = sum(count_pattern(p, n) for p in case.pattern_family(h, k))
    closed = evaluate(case.closed_form(h, k), n)
    return AuditResult(case.name, h, k, n, brute, closed, closed == brute)


def assemble_labelled_count(h: int, k: int, q: int, n: int) -> int:
    """Rebuild the labelled nonattacking count from the catalog:
    n^(2q) plus sum over types of multiplicity * mu * brute-count * n^(2q-2 kappa).

    The catalog is complete for q <= 3 (every subspace then involves at
    most three pieces, and types on more pieces get multiplicity zero).
    A case's multiplicity is read first, mu only where it is nonzero, and
    applicability only where both are.
    """
    if q not in (1, 2, 3):
        raise ValueError("catalog assembly is only complete for q in {1, 2, 3}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    total = n ** (2 * q)
    for case in _CATALOG:
        mult = case.multiplicity(q)
        mu = mult and case.moebius(h, k)
        if mu and case.applicable(h, k):
            brute = sum(count_pattern(p, n) for p in case.pattern_family(h, k))
            total += mult * mu * brute * n ** (2 * q - 2 * case.kappa)
    return total

