"""The formula bank: closed forms for placement counts and their coefficients.

Pieces are parameterized by (h, k): h orthogonal moves and k diagonal moves;
a builder checks its (h, k) by constructing ``core.PartialQueenSpec``.
Counting functions are written in the board size n; u(q; n) denotes the
number of nonattacking unlabelled placements of q pieces.  The coefficient
of n^(2q-i) in u is written gamma_i; high-order gammas are polynomials in q
over a factorial denominator, kept here in the normal form
(polynomial in q) / (constant * (q-2)!).

Where two printed routes exist for the same quantity, both are implemented
and their agreement is a test, not an assumption.  For gamma3 the expanded
coefficient display and the coefficient table genuinely disagree (two delta
terms differ); the table route is the one consistent with brute-force
counts, so ``gamma_expr`` reads it, and the expanded display is kept
verbatim as :func:`gamma3_expr_expanded` for the documented reconciliation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import DIAGONAL, ORTHOGONAL, Move, PartialQueenSpec, Record, set_field
from .quasipoly import Polynomial, QuasiPolynomial

F = Fraction


def delta(a: int, b: int) -> int:
    """Kronecker delta as a plain 0/1 integer."""
    return 1 if a == b else 0


def falling_poly(j: int, shift: int = 0) -> Polynomial:
    """The falling factorial (q - shift)_j as a polynomial in q."""
    out = Polynomial.make([1])
    for i in range(j):
        out = out * Polynomial.make([-(shift + i), 1])
    return out


class GammaExpr(Record):
    """A coefficient gamma_i in normal form numerator(q) / (denom * (q - 2)!)."""

    _fields = ("index", "numerator", "denominator_constant")
    index: int
    numerator: Polynomial
    denominator_constant: int

    def __init__(self, index: int, numerator: Polynomial, denominator_constant: int) -> None:
        set_field(self, "index", index)
        set_field(self, "numerator", numerator)
        set_field(self, "denominator_constant", denominator_constant)

    def value(self, q: int) -> Fraction:
        if q < 2:
            raise ValueError(f"gamma{self.index} needs q >= 2, got {q}")
        return self.numerator(q) / (self.denominator_constant * math.factorial(q - 2))

    def leading_q_coefficient(self) -> Fraction:
        """The leading coefficient of q! * gamma, numerator(q) q (q - 1) / denom
        (the factorial quotient is a monic falling factorial); 0 for gamma = 0."""
        return self.numerator.coefficient(self.numerator.degree) / self.denominator_constant

    def same_value(self, other: "GammaExpr") -> bool:
        """Equality as rational functions of q (normal forms may differ)."""
        return self.numerator.scale(other.denominator_constant) == other.numerator.scale(
            self.denominator_constant
        )


# Coefficient table, gamma2 block: numerator coefficients over 72 (q-2)!.
TABLE1_GAMMA2: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {
    (0, 1): ((0, -8, 4), 72),
    (0, 2): ((24, -26, 16), 72),
    (1, 0): ((6, -21, 9), 72),
    (1, 1): ((18, -41, 25), 72),
    (1, 2): ((18, -71, 49), 72),
    (2, 0): ((12, -60, 36), 72),
    (2, 1): ((0, -92, 64), 72),
    (2, 2): ((-24, -134, 100), 72),
}

# Coefficient table, gamma3 block: numerator includes the leading minus sign.
TABLE1_GAMMA3: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {
    (0, 1): ((-141, 5, -31, 25, -5), 810),
    (0, 2): ((6, 220, -329, 155, -40), 810),
    (1, 0): ((0, 6, -11, 6, -1), 48),
    (1, 1): ((-156, 2380, -3821, 2450, -625), 6480),
    (1, 2): ((-384, 3470, -6799, 5740, -1715), 6480),
    (2, 0): ((0, 2, -5, 4, -1), 6),
    (2, 1): ((-876, 505, -1781, 2120, -640), 1620),
    (2, 2): ((-2364, -190, -1999, 3775, -1250), 1620),
}


def gamma_expr(h: int, k: int, i: int) -> GammaExpr:
    """gamma_i for i = 1, 2, 3 in the printed normal form: gamma1 is
    -(3h+2k)/6, gamma2 and gamma3 are the coefficient table's entries."""
    PartialQueenSpec(h, k)
    if i == 1:
        return GammaExpr(1, Polynomial.make([-(3 * h + 2 * k)]), 6)
    if i not in (2, 3):
        raise ValueError(f"gamma{i} is not printed; the index i must be 1, 2 or 3")
    coeffs, den = (TABLE1_GAMMA2, TABLE1_GAMMA3)[i - 2][(h, k)]
    return GammaExpr(i, Polynomial.make(coeffs), den)


def gamma2_expr_expanded(h: int, k: int) -> GammaExpr:
    """gamma2 assembled from the expanded coefficient display (second route)."""
    PartialQueenSpec(h, k)
    s = F(3 * h + 2 * k, 6)
    p = F(4 * h + 2 * k + 8 * h * k + 12 * delta(h, 2) + 5 * delta(k, 2), 6)
    brace = (
        falling_poly(2, shift=2).scale(s * s)
        + falling_poly(1, shift=2).scale(p)
        + Polynomial.make([h + k - 1])
    )
    return GammaExpr(2, brace, 2)


def gamma3_expr_expanded(h: int, k: int) -> GammaExpr:
    """gamma3 assembled from the expanded coefficient display, exactly as printed.

    Known not to equal ``gamma_expr(h, k, 3)`` for every (h, k): the printed
    display carries doubled delta terms in its linear bracket and shifted
    delta constants in its quadratic bracket.  Tests pin the exact
    difference and the brute-force arbitration.
    """
    PartialQueenSpec(h, k)
    s = F(3 * h + 2 * k, 6)
    p = 4 * h + 8 * h * k + 2 * k + 12 * delta(h, 2) + 5 * delta(k, 2)
    w = (
        30 * h * h
        + 20 * k * k
        - 8 * k
        + 257 * h * k
        + 160 * (2 * k + 3) * delta(h, 2)
        + 68 * (3 * h + 2) * delta(k, 2)
    )
    r = (
        6 * h * (h - 1)
        + 10 * k * h
        + 4 * k * (k - 1)
        + 8 * k * delta(h, 2)
        + 5 * h * delta(k, 2)
    )
    brace = (
        falling_poly(4, shift=2).scale(s**3)
        + falling_poly(3, shift=2).scale(F((3 * h + 2 * k) * p, 12))
        + falling_poly(2, shift=2).scale(F(w, 20))
        + falling_poly(1, shift=2).scale(r)
        + Polynomial.make([k])
    )
    return GammaExpr(3, brace.scale(-1), 6)


def gamma_leading_term(h: int, k: int, i: int) -> Fraction:
    """Coefficient of q^(2i) in q! * gamma_i: (-(3h+2k)/6)^i / i!."""
    PartialQueenSpec(h, k)
    if i < 0:
        raise ValueError("i must be >= 0")
    return (-F(3 * h + 2 * k, 6)) ** i / math.factorial(i)


def gamma5_periodic(h: int, k: int, q: int) -> Fraction:
    """Alternating part of gamma5 as printed in the standalone periodic-part formula.

    The sign printed there disagrees with the three-piece table; the sign
    report ``reports.suite_gamma5_sign`` (``verify --scope gamma5-sign``)
    names the oracle-confirmed sign.  This reports the formula verbatim.
    """
    PartialQueenSpec(h, k)
    if q < 3:
        raise ValueError("gamma5 needs q >= 3")
    return F(-h * delta(k, 2), 8 * math.factorial(q - 3))


def gamma6_periodic(h: int, k: int, q: int) -> Fraction:
    """Alternating part of gamma6: -delta_{k2} / (8 (q-3)!)."""
    PartialQueenSpec(h, k)
    if q < 4:
        raise ValueError("gamma6 needs q >= 4")
    return F(-delta(k, 2), 8 * math.factorial(q - 3))


def u2_closed(h: int, k: int) -> Polynomial:
    """Two-piece counting polynomial: n^4/2 - ((3h+2k)/6) n^3 + ((h+k-1)/2) n^2 - (k/6) n."""
    PartialQueenSpec(h, k)
    return Polynomial.make([0, -F(k, 6), F(h + k - 1, 2), -F(3 * h + 2 * k, 6), F(1, 2)])


def u3_closed(h: int, k: int) -> QuasiPolynomial:
    """Three-piece counting quasipolynomial; period 2 exactly when k = 2."""
    PartialQueenSpec(h, k)
    dh2, dk2 = delta(h, 2), delta(k, 2)
    constant = Polynomial.make(
        [
            F(dk2, 8),
            -(F((h + k - 1) * k, 3) + F(k * dh2, 3) + F(11 * h * dk2, 24)),
            F((h + k - 1) ** 2 * (h + k + 2), 6) + F(h * k, 3) + F(k, 6) + F(dk2, 3),
            -(F((h + k - 1) * (3 * h + 2 * k), 3) + F(k, 6) + F(2 * k * dh2, 3) + F(5 * h * dk2, 12)),
            F(3 * h + 2 * k, 6) + F(h * (k + 1) + (h + 1) * k, 3) - F(1, 2) + dh2 + F(5 * dk2, 12),
            -F(3 * h + 2 * k, 6),
            F(1, 6),
        ]
    )
    alternating = Polynomial.make([-F(dk2, 8), F(h * dk2, 8)])
    return QuasiPolynomial.from_parity_split(constant, alternating)


# Three-piece quasipolynomials as printed, row by row: (constant, alternating).
TABLE2_ROWS: dict[tuple[int, int], tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = {
    (0, 0): ((F(0), F(0), F(1, 3), F(0), F(-1, 2), F(0), F(1, 6)), ()),
    (1, 0): ((F(0), F(0), F(0), F(0), F(1, 3), F(-1, 2), F(1, 6)), ()),
    (2, 0): ((F(0), F(0), F(2, 3), F(-2), F(13, 6), F(-1), F(1, 6)), ()),
    (0, 1): ((F(0), F(0), F(1, 6), F(-1, 6), F(1, 6), F(-1, 3), F(1, 6)), ()),
    (1, 1): ((F(0), F(-1, 3), F(7, 6), F(-11, 6), F(5, 3), F(-5, 6), F(1, 6)), ()),
    (2, 1): ((F(0), F(-1), F(25, 6), F(-37, 6), F(25, 6), F(-4, 3), F(1, 6)), ()),
    (0, 2): (
        (F(1, 8), F(-2, 3), F(4, 3), F(-5, 3), F(5, 4), F(-2, 3), F(1, 6)),
        (F(-1, 8),),
    ),
    (1, 2): (
        (F(1, 8), F(-43, 24), F(14, 3), F(-65, 12), F(41, 12), F(-7, 6), F(1, 6)),
        (F(-1, 8), F(1, 8)),
    ),
    (2, 2): (
        (F(1, 8), F(-43, 12), F(11), F(-25, 2), F(79, 12), F(-5, 3), F(1, 6)),
        (F(-1, 8), F(1, 4)),
    ),
}


def table2_row(h: int, k: int) -> QuasiPolynomial:
    """A printed three-piece quasipolynomial row, as frozen data.

    Unlike :func:`u3_closed` this accepts the (0, 0) baseline row, which is
    not a legal piece but is printed alongside the others.
    """
    constant, alternating = TABLE2_ROWS[(h, k)]
    return QuasiPolynomial.from_parity_split(
        Polynomial.make(constant), Polynomial.make(alternating)
    )


# Combinatorial-type counts for three pieces (value depends only on h + k).
TABLE3_TYPES: dict[tuple[int, int], int] = {
    (0, 1): 1,
    (1, 0): 1,
    (0, 2): 6,
    (1, 1): 6,
    (2, 0): 6,
    (1, 2): 17,
    (2, 1): 17,
    (2, 2): 36,
}


def expected_types(h: int, k: int, q: int) -> int | None:
    """Printed type count (value at -1): h + k at q = 2, the table at q = 3."""
    if q == 2:
        return h + k
    if q == 3:
        return TABLE3_TYPES[(h, k)]
    return None


SUPPORTED_SLOPES = ORTHOGONAL + DIAGONAL


class UnsupportedSlopeError(ValueError):
    """Closed attack-line forms are only printed for orthogonal and diagonal slopes."""


def _require_supported(slope: Move) -> None:
    if slope not in SUPPORTED_SLOPES:
        raise UnsupportedSlopeError(
            f"no closed form for slope {(slope.c, slope.d)}; "
            "only orthogonal and diagonal slopes are supported"
        )


def alpha_closed(slope: Move) -> Polynomial:
    """Ordered attacking pairs along one slope: n^3 orthogonally, (2n^3+n)/3 diagonally."""
    _require_supported(slope)
    if slope in ORTHOGONAL:
        return Polynomial.make([0, 0, 0, 1])
    return Polynomial.make([0, F(1, 3), 0, F(2, 3)])


def beta_closed(slope: Move) -> QuasiPolynomial:
    """Ordered collinear triples along one slope: n^4 orthogonally, (n^4+n^2)/2 diagonally."""
    _require_supported(slope)
    if slope in ORTHOGONAL:
        poly = Polynomial.make([0, 0, 0, 0, 1])
    else:
        poly = Polynomial.make([0, 0, F(1, 2), 0, F(1, 2)])
    return QuasiPolynomial.constant_poly(poly)


def types3_conjecture(m: int) -> int:
    """Conjectured three-piece type count m(m^2 + 3m - 1)/3 for an m-move rider."""
    if m < 1:
        raise ValueError("need at least one move")
    return m * (m * m + 3 * m - 1) // 3  # exact: m^3 + 3m^2 - m = m^3 - m (mod 3)


def _terms_to_quasipoly(const_terms: dict[int, Fraction], alt_terms: dict[int, Fraction]) -> QuasiPolynomial:
    def build(terms: dict[int, Fraction]) -> Polynomial:
        live = {p: c for p, c in terms.items() if c != 0}
        for p in live:
            if p < 0:
                raise ArithmeticError(f"negative power n^{p} with nonzero coefficient")
        return Polynomial.make(live.get(p, 0) for p in range(max(live, default=-1) + 1))

    return QuasiPolynomial.from_parity_split(build(const_terms), build(alt_terms))


def codim_contribution(h: int, k: int, q: int, nu: int) -> QuasiPolynomial:
    """Total contribution to u(q; n) from intersection subspaces of codimension ``nu``.

    Transcribed from the printed codimension lemmas, divided by q! as
    printed.  ``nu`` = 3 includes the printed alternating bracket.
    """
    PartialQueenSpec(h, k)
    if q < 2:
        raise ValueError("q must be >= 2")
    if nu not in (0, 1, 2, 3):
        raise ValueError("nu must be 0..3")
    dh2, dk2 = delta(h, 2), delta(k, 2)
    qf = math.factorial(q)
    s = F(3 * h + 2 * k, 6)
    const: dict[int, Fraction] = {}
    alt: dict[int, Fraction] = {}

    if nu == 0:
        const[2 * q] = F(1, qf)
    elif nu == 1:
        const[2 * q - 1] = -F(math.perm(q, 2), qf) * s
        const[2 * q - 3] = -F(math.perm(q, 2), qf) * F(k, 6)
    elif nu == 2:
        const[2 * q - 2] = (
            F(math.perm(q, 4), qf) * s * s / 2
            + F(math.perm(q, 3), qf) * F(4 * h + 2 * k + 8 * h * k + 12 * dh2 + 5 * dk2, 12)
            + F(math.perm(q, 2), qf) * F(h + k - 1, 2)
        )
        const[2 * q - 4] = (
            F(math.perm(q, 4), qf) * F(k * (3 * h + 2 * k), 36)
            + F(math.perm(q, 3), qf) * F(k * (2 * h + 1) + 2 * dk2, 6)
        )
        # the [1 - (-1)^n] bracket splits into a constant and an alternating part
        const[2 * q - 6] = F(math.perm(q, 4), qf) * F(k * k, 72) + F(math.perm(q, 3), qf) * F(dk2, 8)
        alt[2 * q - 6] = -F(math.perm(q, 3), qf) * F(dk2, 8)
    else:
        f3 = F(math.perm(q, 3), qf)
        f4 = F(math.perm(q, 4), qf)
        f5 = F(math.perm(q, 5), qf)
        f6 = F(math.perm(q, 6), qf)
        w = (
            30 * h * h + 20 * k * k - 8 * k + 257 * h * k
            + 160 * (2 * k + 3) * dh2 + 68 * (3 * h + 2) * dk2
        )
        const[2 * q - 3] = -(
            f3 * F(12 * h * (h - 1) + 20 * k * h + 8 * k * (k - 1) + 8 * k * dh2 + 5 * h * dk2, 12)
            + f4 * F(w, 120)
            + f5 * F((3 * h + 2 * k) * (4 * h + 8 * h * k + 2 * k + 12 * dh2 + 5 * dk2), 72)
            + f6 * F((3 * h + 2 * k) ** 3, 1296)
        )
        const[2 * q - 5] = -(
            f3 * F(8 * k * (h + k - 1) + 8 * k * dh2 + 11 * h * dk2, 24)
            + f4 * F(k * (31 * h + k + 1) + 32 * k * dh2 + (34 * h + 24) * dk2, 24)
            + f5 * F(2 * k * (6 * h * h + 8 * h * k + 5 * h + 3 * k) + 12 * k * dh2 + (12 * h + 13 * k) * dk2, 72)
            + f6 * F(k * (3 * h + 2 * k) ** 2, 432)
        )
        const[2 * q - 7] = -(
            f4 * F(2 * k * (4 * h - 1) + (61 * h + 76) * dk2, 120)
            + f5 * F(4 * (2 * h + 1) * k * k + (14 * k + 9 * h) * dk2, 144)
            + f6 * F(k * k * (3 * h + 2 * k), 432)
        )
        const[2 * q - 9] = -(f5 * F(k * dk2, 48) + f6 * F(k**3, 1296))
        alt[2 * q - 5] = f3 * F(h * dk2, 8)
        alt[2 * q - 7] = f4 * F((h + 2) * dk2, 4) + f5 * F((3 * h + 2 * k) * dk2, 48)
        alt[2 * q - 9] = f5 * F(k * dk2, 48)

    return _terms_to_quasipoly(const, alt)


def coincident_triple_contribution(h: int, k: int, q: int) -> QuasiPolynomial:
    """Contribution to u(q; n) of the all-three-coincident subspace type:
    C(q,3) (h+k-1)^2 (h+k+2) n^(2q-4) / q!."""
    PartialQueenSpec(h, k)
    if q < 2:
        raise ValueError("q must be >= 2")
    mu = (h + k - 1) ** 2 * (h + k + 2)
    coeff = F(math.comb(q, 3) * mu, math.factorial(q))
    return QuasiPolynomial.constant_poly(Polynomial.monomial(coeff, 2 * q - 4))
