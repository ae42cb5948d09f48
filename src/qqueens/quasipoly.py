"""Exact rational polynomials and quasipolynomials.

A quasipolynomial of period ``p`` is a cyclic list of ``p`` polynomial
constituents; constituent ``r`` applies to arguments congruent to ``r``
mod ``p`` (with nonnegative residues, so -1 selects constituent ``p - 1``).
The list is always held at its minimal period.
Coefficients are ``fractions.Fraction``s.  The exact kernels run on plain
ints and make only their results ``Fraction``s: a polynomial is evaluated
and multiplied over one common denominator of its coefficients, and ``fit``
eliminates on dense integer rows.  Nothing ever rounds.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class FitError(Exception):
    """Base class for interpolation failures."""


class InsufficientSamplesError(FitError):
    pass


class InconsistentSamplesError(FitError):
    """A check sample disagrees with the value the earlier samples force."""

    def __init__(self, n: int, expected: Fraction, actual: Fraction):
        self.n = n
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"sample at n={n} is {actual}, interpolation predicts {expected}"
        )


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integer numerators, den) with coeffs[k] == numerators[k] / den, den the
    least common denominator (1 for no coefficients)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Coefficients indexed by power; no trailing zeros (zero poly is empty)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use Polynomial.make")

    @classmethod
    def make(cls, coeffs: Iterable) -> "Polynomial":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def monomial(cls, coeff, power: int) -> "Polynomial":
        c = _as_fraction(coeff)
        if c == 0:
            return cls.zero()
        return cls(tuple([Fraction(0)] * power + [c]))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __call__(self, x) -> Fraction:
        """The value at x by Horner's rule in integers: with the coefficients
        a_k over one common denominator den and x = p/q, the sum of
        a_k p^k q^(d-k) over den * q^d, made a ``Fraction`` once at the end."""
        x = _as_fraction(x)
        p, q = x.numerator, x.denominator
        ints, den = _over_common_denominator(self.coeffs)
        acc, q_power = 0, 1
        for a in reversed(ints):
            acc = acc * p + a * q_power
            q_power *= q
        return Fraction(acc * q, den * q_power)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.make(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product in integers, the way ``__call__`` evaluates: each
        factor's coefficients over its common denominator, the integer
        convolution over the product of the two, made ``Fraction``s once."""
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        a, a_den = _over_common_denominator(self.coeffs)
        b, b_den = _over_common_denominator(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        den = a_den * b_den
        return Polynomial(tuple(Fraction(v, den) for v in out))

    def scale(self, factor) -> "Polynomial":
        f = _as_fraction(factor)
        if f == 0:
            return Polynomial.zero()
        return Polynomial(tuple(c * f for c in self.coeffs))


def _minimal_period(cycle: Sequence) -> int:
    """Least d dividing len(cycle) with cycle[r] == cycle[r % d] for every r,
    that is, with cycle[d:] == cycle[:-d]; 0 for an empty cycle."""
    size = len(cycle)
    return next((d for d in range(1, size + 1) if size % d == 0 and cycle[d:] == cycle[:-d]), size)


@dataclass(frozen=True, slots=True)
class QuasiPolynomial:
    """A cycle of constituents at its minimal period; constituent r applies
    when n = r mod period.  One function has one representation, so equality
    and hashing are structural."""

    constituents: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if not self.constituents or _minimal_period(self.constituents) != self.period:
            raise ValueError("need a nonempty cycle at its minimal period; use QuasiPolynomial.make")

    @classmethod
    def make(cls, constituents: Iterable[Polynomial]) -> "QuasiPolynomial":
        """The quasipolynomial of the cycle, cut to one repetition."""
        cycle = tuple(constituents)
        return cls(cycle[:_minimal_period(cycle)])

    @classmethod
    def constant_poly(cls, poly: Polynomial) -> "QuasiPolynomial":
        return cls((poly,))

    @classmethod
    def from_parity_split(cls, constant: Polynomial, alternating: Polynomial) -> "QuasiPolynomial":
        """Build from a ``constant + (-1)^n * alternating`` description."""
        return cls.make((constant + alternating, constant - alternating))

    @property
    def period(self) -> int:
        return len(self.constituents)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.constituents)

    def constituent_for(self, n: int) -> Polynomial:
        return self.constituents[n % self.period]

    def _pointwise(self, other: "QuasiPolynomial", op) -> "QuasiPolynomial":
        p = math.lcm(self.period, other.period)
        return QuasiPolynomial.make(
            op(self.constituent_for(r), other.constituent_for(r)) for r in range(p)
        )

    def __add__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        return self._pointwise(other, operator.add)

    def __mul__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        return self._pointwise(other, operator.mul)

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "constituents": [
                [format_fraction(c) for c in poly.coeffs] for poly in self.constituents
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "QuasiPolynomial":
        constituents = tuple(
            Polynomial.make(Fraction(c) for c in coeffs) for coeffs in obj["constituents"]
        )
        if int(obj["period"]) != len(constituents):
            raise ValueError(f"period {obj['period']} does not match {len(constituents)} constituents")
        return cls.make(constituents)


def format_fraction(x: Fraction) -> str:
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def evaluate(qp: QuasiPolynomial, n: int) -> Fraction:
    """Exact value at any integer; the residue class of ``n`` picks the constituent."""
    return qp.constituent_for(n)(n)


def eval_at_minus_one(qp: QuasiPolynomial) -> Fraction:
    """Value at n = -1 (constituent p-1); for period <= 2 this equals
    substituting (-1)^n = -1 in the parity-split form."""
    return evaluate(qp, -1)


@dataclass(frozen=True, slots=True)
class CoeffDecomposition:
    """One coefficient split as ``constant + alternating * (-1)^n``."""

    power: int
    constant: Fraction
    alternating: Fraction


def coefficient(qp: QuasiPolynomial, power: int) -> CoeffDecomposition:
    """Parity split of the coefficient of n**power.

    The split reads that coefficient's own minimal period across the
    constituents, so a power of period 1 or 2 splits in a fit of any period.
    Any other period has no ``constant + alternating * (-1)^n`` form and
    raises :class:`ValueError`; read each constituent's coefficient instead.
    """
    cs = [c.coefficient(power) for c in qp.constituents]
    m = _minimal_period(cs)
    if 2 % m:
        raise ValueError(f"the n^{power} coefficient has period {m}, which does not divide 2")
    even, odd = cs[0], cs[1 % m]
    return CoeffDecomposition(
        power=power,
        constant=(even + odd) / 2,
        alternating=(even - odd) / 2,
    )


def lagrange(points: Sequence[tuple[int, Fraction]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through the points, exactly."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    result = Polynomial.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = Polynomial.make([1])
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = basis * Polynomial.make([-xj, 1])
            denom *= xi - xj
        result = result + basis.scale(Fraction(yi, 1) / denom)
    return result


def _primitive(row: list[int], col: int) -> list[int]:
    """``row`` divided by the gcd of its entries, with a positive entry at ``col``."""
    g = math.gcd(*row)
    if row[col] < 0:
        g = -g
    return [v // g for v in row]


def fit(
    samples: Sequence[tuple[int, int]],
    degree: int,
    period: int | Sequence[int],
) -> QuasiPolynomial:
    """Exact quasipolynomial of degree <= ``degree`` through the samples.

    ``period`` is one period for every power of n, or one per power
    (``period[k]`` for n**k, whose coefficient is then an unknown
    c[k, n mod period[k]]).  Each sample is a linear equation in those
    unknowns, eliminated exactly in increasing n: a sample independent of
    the earlier ones interpolates, any other is a check.  The elimination
    is fraction-free over integers (each sample scaled by its value's
    denominator), so it is exact.  A row is a dense list of ints, one column
    per unknown in order of (k, r) and the value in the last; only the
    coefficients and the values the checks are held to are made
    ``Fraction``s.  The fit needs every unknown
    fixed and a check in every residue class mod L = lcm(periods), which is
    ``degree + 2`` samples per class for one period.  Otherwise
    :class:`InsufficientSamplesError` names the first class short, even if
    a check failed, so a period search stops where the samples run out.
    If no class is short, a check that differs from the value the earlier
    samples force raises :class:`InconsistentSamplesError` at the first
    such n.  The result has its minimal period, a divisor of L.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    periods = (period,) * (degree + 1) if isinstance(period, int) else tuple(period)
    if len(periods) != degree + 1:
        raise ValueError(f"need one period per power 0..{degree}, got {len(periods)}")
    if min(periods) < 1:
        raise ValueError("period must be >= 1")
    big = math.lcm(*periods)

    # Column offset[k] + r is the n**k coefficient on residue class r mod
    # periods[k]; the sample's value rides along in the last column, `value_col`.
    # `pivots` maps a column to its row, in reduced row echelon form over the
    # integers: each row has a positive entry (its lead) at its own column, 0 at
    # every other pivot's column, and no common factor.
    offset = list(itertools.accumulate(periods[:-1], initial=0))
    value_col = sum(periods)
    pivots: dict[int, list[int]] = {}
    checked = [False] * big
    failed = previous = None
    for n, value in sorted(samples):
        if n == previous:
            raise ValueError(f"duplicate sample at n={n}")
        previous = n
        if not isinstance(value, int):
            value = _as_fraction(value)
        # the sample's equation times its value's denominator; `scale` is the
        # factor the row has been multiplied by since
        scale = value.denominator
        cols = [offset[k] + n % p for k, p in enumerate(periods)]
        row = [0] * (value_col + 1)
        for k, col in enumerate(cols):
            row[col] = scale * n**k
        row[value_col] = value.numerator
        for col in cols:
            if row[col] and col in pivots:
                pivot = pivots[col]
                lead, factor = pivot[col], row[col]
                row = [lead * v - factor * w for v, w in zip(row, pivot)]
                scale *= lead
        col = next((c for c, v in enumerate(row) if v), value_col)
        if col == value_col:  # a check: the earlier rows force this value
            checked[n % big] = True
            if row[value_col] and failed is None:
                failed = (n, value - Fraction(row[value_col], scale), _as_fraction(value))
            continue
        row = _primitive(row, col)
        lead = row[col]
        for c, other in pivots.items():
            if other[col]:
                factor = other[col]
                pivots[c] = _primitive([lead * v - factor * w for v, w in zip(other, row)], c)
        pivots[col] = row

    for r in range(big):
        if not checked[r] or any(offset[k] + r % p not in pivots for k, p in enumerate(periods)):
            raise InsufficientSamplesError(
                f"residue class {r} mod {big} has {sum(n % big == r for n, _ in samples)} "
                f"samples, too few to fix and check its degree-{degree} constituent"
            )
    if failed:
        raise InconsistentSamplesError(*failed)
    coeffs = {col: Fraction(row[value_col], row[col]) for col, row in pivots.items()}
    return QuasiPolynomial.make(
        Polynomial.make(coeffs[offset[k] + r % p] for k, p in enumerate(periods)) for r in range(big)
    )


def detect_period(samples: Sequence[tuple[int, int]], degree: int) -> int:
    """Smallest period whose fit validates on every sample.  Periods 1, 2, ...
    are tried until a residue class is too short to check, which raises
    :class:`InsufficientSamplesError`.  The caller supplies the degree."""
    for p in itertools.count(1):
        try:
            fit(samples, degree, p)
        except InconsistentSamplesError:
            continue
        return p
