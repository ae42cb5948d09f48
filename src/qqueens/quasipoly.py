"""Exact rational polynomials and quasipolynomials.

A quasipolynomial of period ``p`` is a cyclic list of ``p`` polynomial
constituents; constituent ``r`` applies to arguments congruent to ``r``
mod ``p`` (with nonnegative residues, so -1 selects constituent ``p - 1``).
The list is always held at its minimal period.
A polynomial holds its coefficients as integer numerators over one common
denominator, so its arithmetic, evaluation, equality and hashing run on
plain ints; coefficients and values are handed out as
``fractions.Fraction``s.  ``fit`` eliminates on dense integer rows and reads
each constituent off them.  Nothing ever rounds.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, slots=True)
class Polynomial:
    """The coefficient of x^k is nums[k] / den.  The representation is
    canonical: den >= 1, the pair is in lowest terms and there is no
    trailing zero (the zero polynomial is ((), 1)), so equality and hashing
    are structural.  ``make`` builds one from int or ``Fraction``
    coefficients, and ``coefficient`` hands each out as a ``Fraction``."""

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if self.den < 1 or (self.nums and not self.nums[-1]) or math.gcd(self.den, *self.nums) != 1:
            raise ValueError(f"{self.nums} over {self.den} is not canonical; use Polynomial.make")

    @classmethod
    def _reduced(cls, nums: list[int], den: int) -> "Polynomial":
        """``nums`` over ``den`` >= 1, trimmed and in lowest terms."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        return cls(tuple(v // g for v in nums), den // g) if g > 1 else cls(tuple(nums), den)

    @classmethod
    def make(cls, coeffs: Iterable) -> "Polynomial":
        """The polynomial of int or ``Fraction`` coefficients indexed by power."""
        cs = list(coeffs)
        den = math.lcm(*(c.denominator for c in cs))
        return cls._reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def monomial(cls, coeff, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        return cls.make([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, power: int) -> Fraction:
        return Fraction(self.nums[power], self.den) if 0 <= power < len(self.nums) else Fraction(0)

    def __call__(self, x) -> Fraction:
        """The value at an int or ``Fraction`` x = p/q by Horner's rule in
        integers: the sum of nums[k] p^k q^(d-k) over den * q^d, made a
        ``Fraction`` once at the end."""
        p, q = x.numerator, x.denominator
        acc, q_power = 0, 1
        for a in reversed(self.nums):
            acc = acc * p + a * q_power
            q_power *= q
        return Fraction(acc * q, self.den * q_power)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """The sum over the lcm of the two denominators."""
        den = math.lcm(self.den, other.den)
        a = [v * (den // self.den) for v in self.nums]
        b = [v * (den // other.den) for v in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return Polynomial._reduced(a, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The convolution of the numerators over the product of the denominators."""
        b = other.nums
        out = [0] * (len(self.nums) + len(b) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Polynomial._reduced(out, self.den * other.den)

    def scale(self, factor) -> "Polynomial":
        """This polynomial times an int or ``Fraction``."""
        return Polynomial._reduced([v * factor.numerator for v in self.nums], self.den * factor.denominator)


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
        """The quasipolynomial of the cycle, cut to one repetition.  A cycle
        cut at its minimal period is minimal, so it is stored without the
        scan of ``__post_init__``."""
        cycle = tuple(constituents)
        if not cycle:
            raise ValueError("need a nonempty cycle")
        qp = object.__new__(cls)
        object.__setattr__(qp, "constituents", cycle[:_minimal_period(cycle)])
        return qp

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
                [format_fraction(v, poly.den) for v in poly.nums] for poly in self.constituents
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


def format_fraction(x: Fraction, den: int = 1) -> str:
    """x / den as "p/q" in lowest terms, or "p" when q is 1; x an int or ``Fraction``."""
    num, den = x.numerator, x.denominator * den
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def evaluate(qp: QuasiPolynomial, n: int) -> Fraction:
    """Exact value at any integer; the residue class of ``n`` picks the constituent."""
    return qp.constituent_for(n)(n)


@dataclass(frozen=True, slots=True)
class CoeffDecomposition:
    """One coefficient split as ``constant + alternating * (-1)^n``."""

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
    return CoeffDecomposition(constant=(even + odd) / 2, alternating=(even - odd) / 2)


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
    per unknown in order of (k, r) and the value in the last.  Each
    constituent is read off the rows as integer numerators over one
    denominator, and only the values the checks are held to are made
    ``Fraction``s.  The fit needs every unknown
    fixed and a check in every residue class mod L = lcm(periods), which is
    ``degree + 2`` samples per class for one period.  Otherwise
    :class:`InsufficientSamplesError` names the first class short, even if
    a check failed, so a period search stops where the samples run out.
    If no class is short, a check that differs from the value the earlier
    samples force raises :class:`InconsistentSamplesError` at the first
    such n.  The result has its minimal period, a divisor of L.

    The last fit made is held in one slot, keyed on the samples and periods
    as tuples: a call equal to it in value, such as a refit at the period
    ``detect_period`` has just accepted, returns the held result without
    eliminating again.  A fit that raised is never held.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    periods = (period,) * (degree + 1) if isinstance(period, int) else tuple(period)
    if len(periods) != degree + 1:
        raise ValueError(f"need one period per power 0..{degree}, got {len(periods)}")
    if min(periods) < 1:
        raise ValueError("period must be >= 1")
    return _eliminate(tuple(map(tuple, samples)), degree, periods)


@functools.lru_cache(maxsize=1)
def _eliminate(
    samples: tuple[tuple[int, int], ...], degree: int, periods: tuple[int, ...]
) -> QuasiPolynomial:
    """The elimination of ``fit``, on samples and periods as tuples."""
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
                failed = (n, value - Fraction(row[value_col], scale), Fraction(value))
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
    # every unknown is fixed, so a pivot row holds only its lead and its value:
    # the coefficient is row[value_col] / row[col], in lowest terms
    constituents = []
    for r in range(big):
        cols = [offset[k] + r % p for k, p in enumerate(periods)]
        den = math.lcm(*(pivots[c][c] for c in cols))
        constituents.append(Polynomial._reduced([pivots[c][value_col] * (den // pivots[c][c]) for c in cols], den))
    return QuasiPolynomial.make(constituents)


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
