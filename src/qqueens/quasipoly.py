"""Exact rational polynomials and quasipolynomials.

A quasipolynomial of period ``p`` is a cyclic list of ``p`` polynomial
constituents; constituent ``r`` applies to arguments congruent to ``r``
mod ``p`` (with nonnegative residues, so -1 selects constituent ``p - 1``).
All arithmetic is over ``fractions.Fraction``; nothing ever rounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class FitError(Exception):
    """Base class for interpolation failures."""


class InsufficientSamplesError(FitError):
    pass


class InconsistentSamplesError(FitError):
    """A surplus sample disagrees with the interpolated constituent."""

    def __init__(self, n: int, expected: Fraction, actual: Fraction):
        self.n = n
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"sample at n={n} is {actual}, interpolation predicts {expected}"
        )


class PeriodTooLargeError(ValueError):
    """Raised when a (-1)^n split is requested for period > 2."""


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
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
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.make(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.make(out)

    def scale(self, factor) -> "Polynomial":
        f = _as_fraction(factor)
        if f == 0:
            return Polynomial.zero()
        return Polynomial(tuple(c * f for c in self.coeffs))

    def shift(self, power: int) -> "Polynomial":
        """Multiply by x**power."""
        if self.is_zero() or power == 0:
            return self
        return Polynomial(tuple([Fraction(0)] * power) + self.coeffs)


@dataclass(frozen=True)
class QuasiPolynomial:
    """Period ``p`` plus ``p`` constituents; constituent r applies when n = r mod p."""

    period: int
    constituents: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if len(self.constituents) != self.period:
            raise ValueError("need exactly one constituent per residue class")

    @classmethod
    def constant_poly(cls, poly: Polynomial) -> "QuasiPolynomial":
        return cls(1, (poly,))

    @classmethod
    def from_parity_split(cls, constant: Polynomial, alternating: Polynomial) -> "QuasiPolynomial":
        """Build from a ``constant + (-1)^n * alternating`` description."""
        if alternating.is_zero():
            return cls(1, (constant,))
        return cls(2, (constant + alternating, constant - alternating))

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.constituents)

    def constituent_for(self, n: int) -> Polynomial:
        return self.constituents[n % self.period]

    def with_period(self, p: int) -> "QuasiPolynomial":
        """Re-express with period ``p`` (any positive multiple of the current one)."""
        if p % self.period != 0:
            raise ValueError(f"{p} is not a multiple of period {self.period}")
        return QuasiPolynomial(p, tuple(self.constituents[r % self.period] for r in range(p)))

    def minimized(self) -> "QuasiPolynomial":
        """Equivalent quasipolynomial with minimal period."""
        for p in range(1, self.period):
            if self.period % p == 0:
                if all(
                    self.constituents[r] == self.constituents[r % p]
                    for r in range(self.period)
                ):
                    return QuasiPolynomial(p, self.constituents[:p])
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        p = math.lcm(self.period, other.period)
        return self.with_period(p).constituents == other.with_period(p).constituents

    def __hash__(self):
        m = self.minimized()
        return hash((m.period, m.constituents))

    def __add__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        p = math.lcm(self.period, other.period)
        a, b = self.with_period(p), other.with_period(p)
        return QuasiPolynomial(p, tuple(x + y for x, y in zip(a.constituents, b.constituents)))

    def __sub__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        p = math.lcm(self.period, other.period)
        a, b = self.with_period(p), other.with_period(p)
        return QuasiPolynomial(p, tuple(x * y for x, y in zip(a.constituents, b.constituents)))

    def scale(self, factor) -> "QuasiPolynomial":
        return QuasiPolynomial(self.period, tuple(c.scale(factor) for c in self.constituents))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.constituents)

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
        return cls(int(obj["period"]), constituents)


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


@dataclass(frozen=True)
class CoeffDecomposition:
    """One coefficient split as ``constant + alternating * (-1)^n``."""

    power: int
    constant: Fraction
    alternating: Fraction


def coefficient(qp: QuasiPolynomial, power: int) -> CoeffDecomposition:
    """Parity split of the coefficient of n**power; requires period 1 or 2.

    For larger periods the split is not canonical; read the coefficient of
    each constituent instead.
    """
    if qp.period > 2:
        raise PeriodTooLargeError(
            f"period {qp.period} > 2; read each constituent's coefficient instead"
        )
    even = qp.constituents[0].coefficient(power)
    odd = qp.constituents[-1].coefficient(power)
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


def fit(
    samples: Sequence[tuple[int, int]],
    degree: int,
    period: int,
    surplus: int = 1,
) -> QuasiPolynomial:
    """Interpolate an exact quasipolynomial of degree <= ``degree`` from samples.

    Each residue class mod ``period`` needs ``degree + 1 + surplus`` samples:
    ``degree + 1`` to interpolate and the rest to validate.  Any surplus sample
    that disagrees raises :class:`InconsistentSamplesError` (degree or period
    too small).  ``surplus=0`` skips the built-in validation; callers doing
    that must validate the result independently.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if period < 1:
        raise ValueError("period must be >= 1")
    by_class: dict[int, list[tuple[int, Fraction]]] = {r: [] for r in range(period)}
    seen: set[int] = set()
    for n, value in samples:
        if n in seen:
            raise ValueError(f"duplicate sample at n={n}")
        seen.add(n)
        by_class[n % period].append((n, _as_fraction(value)))

    need = degree + 1 + surplus
    constituents = []
    for r in range(period):
        pts = sorted(by_class[r])
        if len(pts) < need:
            raise InsufficientSamplesError(
                f"residue class {r} mod {period} has {len(pts)} samples, needs {need} "
                f"for degree {degree} with surplus {surplus}"
            )
        poly = lagrange(pts[: degree + 1])
        for n, value in pts[degree + 1 :]:
            predicted = poly(n)
            if predicted != value:
                raise InconsistentSamplesError(n, predicted, value)
        constituents.append(poly)
    return QuasiPolynomial(period, tuple(constituents))


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
