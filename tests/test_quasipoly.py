import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cyclic_garbage,
    naive_fit,
    naive_poly,
    naive_poly_add,
    naive_poly_mul,
    naive_poly_scale,
    naive_poly_value,
)
from qqueens.quasipoly import (
    CoeffDecomposition,
    InconsistentSamplesError,
    InsufficientSamplesError,
    Polynomial,
    QuasiPolynomial,
    coefficient,
    detect_period,
    evaluate,
    fit,
    format_fraction,
    lagrange,
)


def P(*coeffs):
    return Polynomial.make(coeffs)


def coefficients_of(poly):
    """The coefficients of ``poly`` indexed by power, each read through ``coefficient``."""
    return tuple(poly.coefficient(k) for k in range(poly.degree + 1))


def test_polynomial_trims_trailing_zeros():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0).is_zero()
    assert P().degree == -1


def test_polynomial_arithmetic():
    assert P(0, 0, 1) + P(0, 1) == P(0, 1, 1)
    assert P(0, 1) * P(0, 1) == P(0, 0, 1)
    assert P(1, 1) - P(1, 1) == P()
    assert P(1, 2, 3)(2) == 17
    assert P(2).scale(F(1, 2)) == P(1)


def test_quasipoly_is_held_at_its_minimal_period():
    square = QuasiPolynomial.constant_poly(P(0, 0, 1))
    doubled = QuasiPolynomial.make((P(0, 0, 1), P(0, 0, 1)))
    assert doubled.period == 1
    assert doubled == square
    mixed = QuasiPolynomial((P(0, 1), P(0, 0, 1)))
    assert mixed.period == 2 and mixed != square
    with pytest.raises(ValueError):
        QuasiPolynomial((P(0, 0, 1), P(0, 0, 1)))
    with pytest.raises(ValueError):
        QuasiPolynomial.make(())


def test_make_scans_its_cycle_once(monkeypatch):
    import qqueens.quasipoly as quasipoly

    scans = []
    real = quasipoly._minimal_period
    monkeypatch.setattr(quasipoly, "_minimal_period", lambda cycle: scans.append(cycle) or real(cycle))
    p, r = P(0, 1), P(1, 1)
    assert QuasiPolynomial.make((p, r, p, r)).constituents == (p, r)
    assert scans == [(p, r, p, r)]
    assert QuasiPolynomial.make((p, p, p)).constituents == (p,)
    assert scans == [(p, r, p, r), (p, p, p)]
    with pytest.raises(ValueError):
        QuasiPolynomial((p, p))


def test_parity_split_round_trip():
    qp = QuasiPolynomial.from_parity_split(P(1, 2), P(F(1, 2)))
    assert qp.period == 2
    assert evaluate(qp, 2) == 1 + 4 + F(1, 2)
    assert evaluate(qp, 3) == 1 + 6 - F(1, 2)
    dec = coefficient(qp, 0)
    assert (dec.constant, dec.alternating) == (F(1), F(1, 2))


def test_evaluate_examples():
    square = QuasiPolynomial.constant_poly(P(0, 0, 1))
    assert evaluate(square, 7) == 49
    from qqueens.formulas import table2_row

    # odd constituent selected at n=5; cross-checked against the oracle
    from qqueens.core import PartialQueenSpec, partial_queen
    from qqueens.enumerator import count_unlabelled

    queen_row = table2_row(2, 2)
    assert evaluate(queen_row, 5) == count_unlabelled(partial_queen(PartialQueenSpec(2, 2)), 3, 5)
    assert evaluate(table2_row(0, 2), 0) == 0


def test_arithmetic_period_lcm():
    p1 = QuasiPolynomial.constant_poly(P(0, 1))
    p2 = QuasiPolynomial.from_parity_split(P(0, 0, 1), P(1))
    total = p1 + p2
    assert total.period == 2
    assert evaluate(total, 4) == 4 + 16 + 1
    prod = p1 * p1
    assert prod == QuasiPolynomial.constant_poly(P(0, 0, 1))


def test_eval_at_minus_one_picks_last_constituent():
    qp = QuasiPolynomial.from_parity_split(P(0, 1), P(3))
    # at n = -1 the odd constituent applies and (-1)^n = -1
    assert evaluate(qp, -1) == -1 - 3


def test_coefficient_period_one_has_zero_alternating():
    qp = QuasiPolynomial.constant_poly(P(5, 0, 2))
    dec = coefficient(qp, 2)
    assert dec == CoeffDecomposition(F(2), F(0))


def test_coefficient_rejects_large_period():
    qp = QuasiPolynomial((P(1), P(2), P(3)))
    with pytest.raises(ValueError, match="n\\^0 coefficient has period 3"):
        coefficient(qp, 0)


def test_coefficient_reads_each_power_at_its_own_period():
    # n^2: period 1; n^1: period 2; n^0: period 6, in a period-6 fit
    n0 = [F(r * r, 7) for r in range(6)]
    qp = QuasiPolynomial(tuple(P(n0[r], 3 if r % 2 else -1, F(1, 2)) for r in range(6)))
    samples = [(n, evaluate(qp, n)) for n in range(1, 17)]
    fitted = fit(samples, 2, (6, 2, 1))
    assert fitted.period == 6 and fitted == qp
    assert coefficient(fitted, 2) == CoeffDecomposition(F(1, 2), F(0))
    assert coefficient(fitted, 1) == CoeffDecomposition(F(1), F(-2))
    with pytest.raises(ValueError, match="n\\^0 coefficient has period 6"):
        coefficient(fitted, 0)


def test_lagrange_exactness():
    pts = [(1, F(1)), (2, F(4)), (3, F(9)), (5, F(25))]
    assert lagrange(pts) == P(0, 0, 1)


def test_fit_square_polynomial():
    samples = [(n, n * n) for n in range(1, 5)]
    qp = fit(samples, 2, 1)
    assert qp == QuasiPolynomial.constant_poly(P(0, 0, 1))


def test_fit_requires_surplus():
    samples = [(n, n * n) for n in range(1, 4)]
    with pytest.raises(InsufficientSamplesError):
        fit(samples, 2, 1)


def test_fit_reports_first_inconsistent_sample():
    samples = [(1, 1), (2, 4), (3, 9), (4, 16), (5, 99)]
    with pytest.raises(InconsistentSamplesError) as exc:
        fit(samples, 2, 1)
    assert exc.value.n == 5


def test_fit_names_the_class_without_a_check():
    # periods (2, 1): n^0 by parity, one n^1 coefficient.  Odd n fix c[1]
    # and the odd c[0], so n = 2 alone fixes the even c[0], checked by none.
    def f(n):
        return 3 * n + (5 if n % 2 else -4)

    samples = [(n, f(n)) for n in (1, 2, 3, 5, 7)]
    with pytest.raises(InsufficientSamplesError, match="residue class 0 mod 2 has 1 samples"):
        fit(samples, 1, (2, 1))
    qp = fit(samples + [(4, f(4))], 1, (2, 1))
    assert qp == QuasiPolynomial((P(-4, 3), P(5, 3)))


def test_fit_names_the_class_the_lowest_column_pivots_leave_short():
    # too few samples to fix every unknown; which unknowns stay without a
    # pivot, and so which class is named first, follows from taking each new
    # row's lowest column as its pivot (the highest column would name class 1)
    samples = [(0, 1), (2, 2), (3, 0), (5, 3), (6, 1), (8, 0), (13, 2)]
    with pytest.raises(InsufficientSamplesError, match="residue class 0 mod 4 has 2 samples"):
        fit(samples, 2, (4, 2, 2))


def test_fit_needs_one_period_per_power():
    with pytest.raises(ValueError):
        fit([(n, n) for n in range(1, 9)], 1, (1, 1, 1))


def test_fit_rejects_duplicate_samples():
    with pytest.raises(ValueError):
        fit([(1, 1), (1, 1), (2, 4), (3, 9)], 1, 1)


def test_detect_period_queen_pieces():
    from qqueens.core import PartialQueenSpec, partial_queen
    from qqueens.enumerator import sequence

    queen = partial_queen(PartialQueenSpec(2, 2))
    semiqueen = partial_queen(PartialQueenSpec(1, 1))
    q3 = sequence(queen, 3, 1, 17)
    s3 = sequence(semiqueen, 3, 1, 17)
    q2 = sequence(queen, 2, 1, 7)
    assert detect_period(q3, 6) == 2
    assert detect_period(s3, 6) == 1
    assert detect_period(q2, 4) == 1


def test_detect_period_failure():
    # periods 1..3 are inconsistent; at period 4 class 0 has 3 samples, needs 4
    samples = [(n, 2**n) for n in range(1, 15)]
    with pytest.raises(InsufficientSamplesError, match="residue class 0 mod 4 has 3 samples"):
        detect_period(samples, 2)


def test_fit_queen_two_pieces_closed_form():
    from qqueens.core import PartialQueenSpec, partial_queen
    from qqueens.enumerator import sequence
    from qqueens.formulas import u2_closed

    queen = partial_queen(PartialQueenSpec(2, 2))
    samples = sequence(queen, 2, 1, 7)
    qp = fit(samples, 4, 1)
    assert qp == QuasiPolynomial.constant_poly(u2_closed(2, 2))


def test_fit_bishop_three_pieces_table_row():
    from qqueens.core import PartialQueenSpec, partial_queen
    from qqueens.enumerator import sequence
    from qqueens.formulas import table2_row

    bishop = partial_queen(PartialQueenSpec(0, 2))
    samples = sequence(bishop, 3, 1, 17)
    qp = fit(samples, 6, 2)
    assert qp == table2_row(0, 2)


fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@given(st.lists(fractions, max_size=9), st.one_of(st.integers(-40, 40), fractions))
def test_polynomial_value_matches_fraction_horner(coeffs, x):
    value = P(*coeffs)(x)
    assert type(value) is F and value == naive_poly_value(naive_poly(coeffs), x)


# numerators and denominators up to 2^70 as well as small ones, so that a
# product over one common denominator meets large, coprime and zero entries
wide_fractions = st.one_of(
    fractions,
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@given(st.lists(wide_fractions, max_size=7), st.lists(wide_fractions, max_size=7))
def test_polynomial_product_matches_schoolbook_fraction_product(a, b):
    product = P(*a) * P(*b)
    assert coefficients_of(product) == naive_poly_mul(naive_poly(a), naive_poly(b)) and product == P(*b) * P(*a)
    assert all(type(c) is F for c in coefficients_of(product))


# ints and fractions with 0, negative values and numerators and denominators up to 2^70
coefficients = st.one_of(st.just(0), st.integers(-(2**70), 2**70), wide_fractions)


@given(
    st.lists(coefficients, max_size=7),
    st.lists(coefficients, max_size=7),
    coefficients,
    st.integers(-(2**20), 2**20),
    wide_fractions,
)
def test_polynomial_matches_the_fraction_tuple_oracle(a, b, factor, n, x):
    pa, pb = P(*a), P(*b)
    na, nb = naive_poly(a), naive_poly(b)
    cases = [
        (pa, na),
        (pb, nb),
        (pa + pb, naive_poly_add(na, nb)),
        (pa - pb, naive_poly_add(na, naive_poly_scale(nb, -1))),
        (pa * pb, naive_poly_mul(na, nb)),
        (pa.scale(factor), naive_poly_scale(na, factor)),
    ]
    for poly, naive in cases:
        assert poly.den >= 1 and math.gcd(poly.den, *poly.nums) == 1
        assert not poly.nums or poly.nums[-1] != 0
        assert coefficients_of(poly) == naive and all(type(c) is F for c in coefficients_of(poly))
        assert poly.degree == len(naive) - 1
        for power in range(-1, len(naive) + 1):
            c = poly.coefficient(power)
            assert type(c) is F and c == (naive[power] if 0 <= power < len(naive) else 0)
        for at in (n, x):
            value = poly(at)
            assert type(value) is F and value == naive_poly_value(naive, at)
        # equality and hashing are value equality, however the polynomial was built
        rebuilt = P(*naive)
        assert rebuilt == poly and hash(rebuilt) == hash(poly)
    assert (pa == pb) == (na == nb)
    assert (pa + pb) - pb == pa and hash((pa + pb) - pb) == hash(pa)


def test_polynomial_constructor_takes_only_the_canonical_pair():
    assert Polynomial((1, 2), 3) == P(F(1, 3), F(2, 3))
    assert Polynomial(()) == P() == P(0, F(0, 5))
    for nums, den in (((2, 4), 2), ((), 2), ((1, 0), 1), ((1,), 0), ((1,), -1), ((-1,), -1)):
        with pytest.raises(ValueError, match="not canonical"):
            Polynomial(nums, den)


def test_monomial_rejects_a_negative_power():
    assert coefficients_of(Polynomial.monomial(F(1, 2), 3)) == (0, 0, 0, F(1, 2))
    assert Polynomial.monomial(0, 2) == P()
    for coeff in (1, 0):
        with pytest.raises(ValueError, match="power"):
            Polynomial.monomial(coeff, -1)


def test_polynomial_product_examples():
    assert P() * P(1, 2) == P(1, 2) * P() == P()
    assert P(0, 0, F(-3, 7)) * P(F(7, 3)) == P(0, 0, -1)
    # inner zeros and a cancelling sum: (1 - x)(1 + x) = 1 - x^2
    assert P(1, -1) * P(1, 1) == P(1, 0, -1)
    big = F(1, 2**80 + 1)
    assert P(big, -big) * P(F(2**80 + 1, 3), 1) == P(F(1, 3), big - F(1, 3), -big)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=9), st.booleans(), st.data())
def test_fit_round_trip_recovers_random_quasipolynomial(periods, shared, data):
    # random rational coefficients, degree up to 8, one period up to 4 per
    # power (or one shared period, passed as an int)
    degree = len(periods) - 1
    if shared:
        periods = [periods[0]] * (degree + 1)
    coeffs = [[data.draw(fractions) for _ in range(p)] for p in periods]
    big = math.lcm(*periods)
    qp = QuasiPolynomial.make(
        Polynomial.make(coeffs[k][r % p] for k, p in enumerate(periods)) for r in range(big)
    )
    # integer-valued samples are not required by fit; feed exact fractions;
    # degree + 2 samples per class mod big fix and check every coefficient
    samples = [(n, evaluate(qp, n)) for n in range(1, big * (degree + 2) + 1)]
    recovered = fit(samples, degree, periods[0] if shared else periods)
    assert recovered == qp
    for n, value in samples:
        assert evaluate(recovered, n) == value


periods_st = st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(periods_st, st.data())
def test_fit_matches_dense_gauss_jordan(true_periods, data):
    # samples of a random quasipolynomial at its own per-power periods, fitted
    # at those or other periods over a random window of n with gaps and
    # sometimes one sample perturbed: the integer elimination and the dense
    # Fraction one give the same fit, or the same error at the same sample
    fit_periods = data.draw(st.just(true_periods) | periods_st)
    coeffs = [[data.draw(st.integers(-9, 9) | fractions) for _ in range(p)] for p in true_periods]
    qp = QuasiPolynomial.make(
        Polynomial.make(coeffs[k][r % p] for k, p in enumerate(true_periods))
        for r in range(math.lcm(*true_periods))
    )
    degree = len(fit_periods) - 1
    big = math.lcm(*fit_periods)
    lo = data.draw(st.integers(0, 3))
    hi = lo + big * (degree + 2) + data.draw(st.integers(-2 * big, 2 * big))
    gaps = data.draw(st.booleans())
    ns = [n for n in range(lo, hi) if not gaps or data.draw(st.integers(0, 9))]  # about one n in ten dropped
    values = [evaluate(qp, n) for n in ns]
    if ns and not data.draw(st.integers(0, 2)):
        values[data.draw(st.integers(0, len(ns) - 1))] += data.draw(fractions)
    samples = [(n, int(v) if v.denominator == 1 else v) for n, v in zip(ns, values)]
    period = fit_periods[0] if len(set(fit_periods)) == 1 and data.draw(st.booleans()) else fit_periods
    expected = naive_fit(samples, degree, period)
    if not isinstance(expected, Exception):
        got = fit(samples, degree, period)
        assert got == expected
        assert fit(samples, degree, period) is got  # the repeat is looked up
        return
    for _ in range(2):  # a fit that raised is not held: the repeat raises too
        with pytest.raises(type(expected)) as exc:
            fit(samples, degree, period)
    if isinstance(expected, InconsistentSamplesError):
        got = exc.value
        assert (got.n, got.expected, got.actual) == (expected.n, expected.expected, expected.actual)
        assert type(got.expected) is F and type(got.actual) is F


def counted_eliminations(monkeypatch) -> list:
    """The arguments of every elimination ``fit`` runs from here on, through
    a slot of its own that starts empty."""
    import qqueens.quasipoly as quasipoly

    calls = []
    eliminate = quasipoly._eliminate.__wrapped__

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(quasipoly, "_eliminate", functools.lru_cache(maxsize=1)(counted))
    return calls


def test_fitted_counts_eliminates_once_per_accepted_fit(monkeypatch):
    # detect_period's accepted fit and fitted_counts' refit at that period
    # are one elimination; every fit is still a call of fit
    import qqueens.quasipoly as quasipoly
    import qqueens.reports as reports
    from qqueens.core import PartialQueenSpec, partial_queen
    from qqueens.formulas import u3_closed

    eliminations = counted_eliminations(monkeypatch)
    fits = []

    def counted_fit(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(quasipoly, "fit", counted_fit)
    monkeypatch.setattr(reports, "fit", counted_fit)
    samples, qp = reports.fitted_counts(partial_queen(PartialQueenSpec(2, 2)), 3, 1, 17)
    assert qp == u3_closed(2, 2)
    # period 1 is rejected and period 2 accepted, then refitted
    assert [args[2] for args in fits] == [1, 2, 2]
    assert [args[2] for args in eliminations] == [(1,) * 7, (2,) * 7]


def test_fit_after_the_samples_change_is_fitted_anew(monkeypatch):
    eliminations = counted_eliminations(monkeypatch)
    samples = [(n, n * n) for n in range(1, 6)]
    assert fit(samples, 2, 1) == QuasiPolynomial.constant_poly(P(0, 0, 1))
    samples[-1] = (5, 26)
    with pytest.raises(InconsistentSamplesError):
        fit(samples, 2, 1)
    samples[:] = [(n, n * n + 1) for n in range(1, 6)]
    assert fit(samples, 2, 1) == QuasiPolynomial.constant_poly(P(1, 0, 1))
    periods = [1, 1, 1]
    assert fit(samples, 2, periods) == QuasiPolynomial.constant_poly(P(1, 0, 1))
    periods[0] = 2  # a per-power period list changed in place is a new fit
    assert fit(samples + [(6, 37)], 2, periods) == QuasiPolynomial.constant_poly(P(1, 0, 1))
    assert len(eliminations) == 4


@pytest.mark.parametrize(
    "samples, degree, period, error",
    [
        ([(1, 1), (2, 4), (3, 9), (4, 16), (5, 99)], 2, 1, InconsistentSamplesError),
        ([(1, 1), (2, 4), (3, 9)], 2, 1, InsufficientSamplesError),
        ([(1, 1), (1, 1), (2, 4), (3, 9)], 1, 1, ValueError),
        ([(n, n) for n in range(1, 9)], 1, (1, 1, 1), ValueError),
        ([(n, n) for n in range(1, 9)], 1, 0, ValueError),
        ([(n, n) for n in range(1, 9)], -1, 1, ValueError),
    ],
)
def test_fit_that_raised_raises_again(monkeypatch, samples, degree, period, error):
    # a raised fit is never held, and leaves the fit held before it in place
    eliminations = counted_eliminations(monkeypatch)
    good = [(n, n * n) for n in range(1, 6)]
    held = fit(good, 2, 1)
    for _ in range(2):
        with pytest.raises(error):
            fit(samples, degree, period)
    assert fit(good, 2, 1) is held
    assert eliminations.count((tuple(good), 2, (1, 1, 1))) == 1


def test_rejected_fit_leaves_no_cyclic_garbage():
    # period 1 is rejected, period 2 accepted; the rejection's exception
    # must not hold the frame that raised it in a reference cycle
    samples = [(n, n % 2) for n in range(1, 12)]
    assert detect_period(samples, 0) == 2
    assert cyclic_garbage(lambda: detect_period(samples, 0)) == []


def test_detect_period_returns_minimal_consistent_period():
    # distinct constituents: period 3 is minimal and detected
    qp = QuasiPolynomial((P(0, 1), P(5, 1), P(-7, 1)))
    samples = [(n, evaluate(qp, n)) for n in range(1, 16)]
    assert detect_period(samples, 1) == 3
    # duplicated constituents: the minimal divisor wins
    fat = QuasiPolynomial.make((P(2, 2), P(3, 2), P(2, 2), P(3, 2)))
    samples = [(n, evaluate(fat, n)) for n in range(1, 17)]
    assert detect_period(samples, 1) == 2
    assert fat.period == 2


def test_eval_at_minus_one_matches_parity_substitution():
    qp = QuasiPolynomial.from_parity_split(P(2, 3, 5), P(7, 11))
    constant, alternating = P(2, 3, 5), P(7, 11)
    assert evaluate(qp, -1) == constant(-1) - alternating(-1)


def test_json_round_trip():
    qp = QuasiPolynomial.from_parity_split(P(F(1, 8), 0, 1), P(F(-1, 8)))
    obj = qp.to_json_dict()
    assert obj["period"] == 2
    assert obj["constituents"][1][0] == "1/4"  # odd constant term: 1/8 - (-1/8)
    assert QuasiPolynomial.from_json_dict(obj) == qp
    with pytest.raises(ValueError, match="period 3 does not match 2 constituents"):
        QuasiPolynomial.from_json_dict({**obj, "period": 3})


def test_format_fraction():
    assert format_fraction(F(3)) == "3"
    assert format_fraction(F(-5, 3)) == "-5/3"


polys = st.lists(fractions, max_size=4).map(lambda cs: P(*cs))
cycles = st.lists(polys, min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(cycles, st.integers(1, 4))
def test_repeated_cycle_builds_the_minimal_object(cycle, k):
    qp = QuasiPolynomial.make(cycle)
    repeated = QuasiPolynomial.make(cycle * k)
    assert repeated.period == qp.period and len(cycle) % qp.period == 0
    assert repeated == qp and hash(repeated) == hash(qp)
    obj = {"period": len(cycle) * k, "constituents": [
        [format_fraction(c) for c in coefficients_of(poly)] for poly in cycle * k
    ]}
    assert QuasiPolynomial.from_json_dict(obj) == qp


@settings(max_examples=60, deadline=None)
@given(cycles, cycles)
def test_sum_and_product_agree_with_evaluate(a, b):
    qa, qb = QuasiPolynomial.make(a), QuasiPolynomial.make(b)
    total, product = qa + qb, qa * qb
    for n in range(-12, 13):
        assert evaluate(total, n) == evaluate(qa, n) + evaluate(qb, n)
        assert evaluate(product, n) == evaluate(qa, n) * evaluate(qb, n)
