"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in
failure output).  Criterion 9 fits the four-queen counts at their true
periods, one per power of n: 1 for n^8..n^4, 2 for n^3 and n^2, 6 for n^1
and n^0.  The README ("Acceptance suite") explains the period structure.
"""

import math
import time
from fractions import Fraction as F

import pytest

from qqueens.audit import (
    assemble_labelled_count,
    audit_case,
    case_catalog,
)
from qqueens.core import ALL_PIECE_SPECS, PartialQueenSpec, partial_queen
from qqueens.enumerator import count_unlabelled, sequence
from qqueens.formulas import (
    TABLE1_GAMMA2,
    TABLE1_GAMMA3,
    TABLE3_TYPES,
    codim_contribution,
    coincident_triple_contribution,
    delta,
    gamma2_expr_expanded,
    gamma_expr,
    gamma5_periodic,
    gamma_leading_term,
    table2_row,
    types3_conjecture,
    u2_closed,
    u3_closed,
)
from qqueens.quasipoly import (
    CoeffDecomposition,
    InconsistentSamplesError,
    Polynomial,
    QuasiPolynomial,
    coefficient,
    detect_period,
    evaluate,
    fit,
)
from qqueens.reports import suite_gamma5_sign

ALL_HK = [(s.h, s.k) for s in ALL_PIECE_SPECS]


def _line(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{status}] {desc}{tail}")


def test_criterion_1_two_piece_counts_match_closed_form():
    t0 = time.time()
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        poly = u2_closed(h, k)
        for n in range(1, 13):
            ok = ok and F(count_unlabelled(moves, 2, n)) == poly(n)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _line(1, ok, "two-piece oracle equals closed form, nine pieces, n=1..12",
          f"{elapsed:.2f}s of 5s budget")
    assert ok


def test_criterion_2_three_piece_counts_match_closed_form():
    t0 = time.time()
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        qp = u3_closed(h, k)
        for n in range(1, 13):
            ok = ok and F(count_unlabelled(moves, 3, n)) == evaluate(qp, n)
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _line(2, ok, "three-piece oracle equals closed form, nine pieces, n=1..12",
          f"{elapsed:.2f}s of 120s budget")
    assert ok


def test_criterion_3_fit_recovery_and_period_dichotomy():
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        samples = sequence(moves, 3, 1, 17)
        period = detect_period(samples, 6)
        ok = ok and period == (2 if k == 2 else 1)
        fitted = fit(samples, 6, period)
        ok = ok and fitted == table2_row(h, k)
    _line(3, ok, "fits from n=1..17 recover every printed three-piece row; period is 2 iff k=2")
    assert ok


def test_criterion_4_subspace_audit_all_cases():
    t0 = time.time()
    ok = True
    audits = 0
    for case in case_catalog():
        for h, k in ALL_HK:
            if not case.applicable(h, k):
                continue
            for n in range(1, 11):
                res = audit_case(case, h, k, n)
                audits += 1
                ok = ok and res.match
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _line(4, ok, "all 17 catalog cases match brute force, applicable pieces, n=1..10",
          f"{audits} audits in {elapsed:.1f}s of 300s budget")
    assert ok


def test_criterion_5_assembly_equals_labelled_oracle():
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        for q in (1, 2, 3):
            for n in range(1, 9):
                ok = ok and assemble_labelled_count(h, k, q, n) == math.factorial(
                    q
                ) * count_unlabelled(moves, q, n)
    _line(5, ok, "catalog assembly equals q! * oracle, q=1..3, nine pieces, n=1..8")
    assert ok


def test_criterion_6_coefficient_consistency_symbolic():
    ok = True
    for h, k in ALL_HK:
        # the coefficient-table normal forms, held verbatim
        coeffs2, den2 = TABLE1_GAMMA2[(h, k)]
        coeffs3, den3 = TABLE1_GAMMA3[(h, k)]
        ok = ok and gamma_expr(h, k, 2).numerator == Polynomial.make(coeffs2)
        ok = ok and gamma_expr(h, k, 2).denominator_constant == den2
        ok = ok and gamma_expr(h, k, 3).numerator == Polynomial.make(coeffs3)
        ok = ok and gamma_expr(h, k, 3).denominator_constant == den3
        # the expanded display reproduces the gamma2 table entries exactly
        ok = ok and gamma_expr(h, k, 2).same_value(gamma2_expr_expanded(h, k))
        # leading q-coefficients in the stated closed normal form
        for i in (1, 2, 3):
            ok = ok and gamma_expr(h, k, i).leading_q_coefficient() == gamma_leading_term(h, k, i)
        # the gammas are the actual coefficients of the closed counting forms
        u2qp = QuasiPolynomial.constant_poly(u2_closed(h, k))
        u3qp = u3_closed(h, k)
        for q, qp in ((2, u2qp), (3, u3qp)):
            for i in (1, 2, 3):
                dec = coefficient(qp, 2 * q - i)
                ok = ok and dec.constant == gamma_expr(h, k, i).value(q) and dec.alternating == 0
        # codimension contributions reassemble the three-piece form at q=3
        total = codim_contribution(h, k, 3, 0)
        for nu in (1, 2, 3):
            total = total + codim_contribution(h, k, 3, nu)
        total = total + coincident_triple_contribution(h, k, 3)
        ok = ok and total == u3_closed(h, k)
    _line(6, ok, "coefficient table verbatim, two-route agreement, leading terms, codim reassembly")
    assert ok


def test_criterion_7_type_counts_at_minus_one():
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        s2 = sequence(moves, 2, 1, 7)
        qp2 = fit(s2, 4, detect_period(s2, 4))
        ok = ok and evaluate(qp2, -1) == h + k
        s3 = sequence(moves, 3, 1, 17)
        qp3 = fit(s3, 6, detect_period(s3, 6))
        ok = ok and evaluate(qp3, -1) == TABLE3_TYPES[(h, k)]
    ok = ok and [types3_conjecture(m) for m in (1, 2, 3, 4)] == [1, 6, 17, 36]
    _line(7, ok, "fitted values at -1: h+k for two pieces, type table for three, conjecture for |M|<=4")
    assert ok


def test_criterion_8_periodicity_reconciliation_at_q3():
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        samples = sequence(moves, 3, 1, 17)
        fitted = fit(samples, 6, detect_period(samples, 6))
        # degrees 6..2: even and odd constituents agree (gamma1..gamma4 constant)
        for power in (2, 3, 4, 5, 6):
            ok = ok and coefficient(fitted, power).alternating == 0
        # degree 0: both printed routes agree on the alternating part
        ok = ok and coefficient(fitted, 0).alternating == -F(delta(k, 2), 8)
        # degree 1: the two printed routes disagree in sign for h>0, k=2;
        # the fitted value must match exactly one of them
        fitted_alt = coefficient(fitted, 1).alternating
        theorem_value = gamma5_periodic(h, k, 3)
        table_value = coefficient(table2_row(h, k), 1).alternating
        if theorem_value == table_value:
            ok = ok and fitted_alt == table_value
        else:
            ok = ok and (fitted_alt == table_value) != (fitted_alt == theorem_value)
    (claim,) = suite_gamma5_sign(16)
    ok = ok and claim.passed
    named = claim.detail
    ok = ok and named == "three-piece table carries the correct sign"
    _line(8, ok, "fitted parity structure at q=3; periodic-sign arbitration", named)
    assert ok


# Recorded outputs of this package's enumeration oracle for four queens
# (every entry is recomputed live by test_pinned_four_queen_counts_are_live_counts).
QUEEN_Q4_COUNTS = {
    1: 0, 2: 0, 3: 0, 4: 2, 5: 82, 6: 982,
    7: 7002, 8: 34568, 9: 131248, 10: 412596, 11: 1123832, 12: 2739386,
    13: 6106214, 14: 12654614, 15: 24675650, 16: 45704724, 17: 80999104,
    18: 138170148, 19: 227938788, 20: 365106738, 21: 569681574,
    22: 868289594, 23: 1295775946, 24: 1897176508, 25: 2729909796,
    26: 3866439956, 27: 5397191260, 28: 7434046062, 29: 10114126790,
    30: 13604287706, 31: 18105920006, 32: 23860611236, 33: 31156143476,
    34: 40333505448, 35: 51794268148, 36: 66009149958, 37: 83526964218,
}


def test_pinned_four_queen_counts_are_live_counts():
    """Every pinned u(4; n), n = 1..37, equals the oracle's count today, so
    the tests below that read the table rest on no trusted constant."""
    queen = partial_queen(PartialQueenSpec(2, 2))
    live = {n: count_unlabelled(queen, 4, n) for n in QUEEN_Q4_COUNTS}
    assert live == QUEEN_Q4_COUNTS


# Period of the n^k coefficient of u(4; n) for the queen, indexed by k.
QUEEN_Q4_PERIODS = (6, 6, 2, 2, 1, 1, 1, 1, 1)


def test_criterion_9_four_piece_spot_check_as_stated():
    """Criterion 9: a fit of live four-queen counts yields 1/24, gamma1, gamma2.

    The paper proves the five highest coefficients of u(q; n) constant and
    bounds the period of gamma5 and gamma6 only.  For four queens the n^3
    and n^2 coefficients have period 2 and the n^1 and n^0 coefficients
    period 6 (README, "Acceptance suite"), so the fit gives each power its
    own period: 21 unknowns.  Counts for n = 1..27 fix them with six
    samples to spare, and the fit holds a check in every residue class
    mod 6.  A periodic part in any of the three top coefficients would
    break those checks.
    """
    t0 = time.time()
    queen = partial_queen(PartialQueenSpec(2, 2))
    counts = dict(sequence(queen, 4, 1, 27))
    qp = fit(sorted(counts.items()), 8, QUEEN_Q4_PERIODS)
    elapsed = time.time() - t0
    top = {k: coefficient(qp, k) for k in (8, 7, 6)}
    expected = {8: F(1, 24), 7: gamma_expr(2, 2, 1).value(4), 6: gamma_expr(2, 2, 2).value(4)}
    surplus = len(counts) - sum(QUEEN_Q4_PERIODS)
    pinned = all(counts[n] == QUEEN_Q4_COUNTS[n] for n in counts)
    ok = (pinned and surplus >= 2 and elapsed < 1800.0
          and all(top[k].constant == expected[k] and top[k].alternating == 0 for k in top))
    _line(9, ok, "validated fit of u(4;n), n=1..27, one period per power, "
          "yields the predicted top coefficients",
          f"n^8, n^7, n^6 coefficients {top[8].constant}, {top[7].constant}, "
          f"{top[6].constant}; surplus {surplus}; {elapsed:.1f}s of 1800s budget")
    assert ok, (
        f"four-queen counts for n=1..27 (pinned table agrees: {pinned}; surplus "
        f"{surplus}) give top coefficients {top}, expected {expected}, in "
        f"{elapsed:.1f}s; see the README"
    )


def test_queen_four_piece_period_exceeds_two():
    """No degree-8 polynomial passes through the odd-class values n=1..19,
    so the counting function's period does not divide 2: the nine values
    n = 1..17 fix the fit, and its one check, n = 19, fails."""
    queen = partial_queen(PartialQueenSpec(2, 2))
    for n in list(range(1, 15)):
        assert count_unlabelled(queen, 4, n) == QUEEN_Q4_COUNTS[n]
    odd = [(n, QUEEN_Q4_COUNTS[n]) for n in range(1, 20, 2)]
    assert len(odd) == 10
    with pytest.raises(InconsistentSamplesError) as failed:
        fit(odd, 8, 1)
    assert failed.value.n == 19
    assert failed.value.actual == QUEEN_Q4_COUNTS[19]


def test_four_queen_lower_coefficients_from_pinned_counts():
    """The coefficients below criterion 9's, from one fit of the pinned table.

    With a period per power, the pinned counts n = 1..37 leave 16 checks
    over the 21 unknowns.  The n^5 coefficient is gamma3 at q = 4 by the
    coefficient-table route, the n^4 coefficient (gamma4) is constant, the
    n^3 alternating part is +1/4 (the corrected periodic sign at q = 4,
    matching the arbitration report), and the value at -1 is 574.
    """
    qp = fit(sorted(QUEEN_Q4_COUNTS.items()), 8, QUEEN_Q4_PERIODS)
    assert (gamma_expr(2, 2, 1).value(4), gamma_expr(2, 2, 2).value(4)) == (F(-5, 6), F(65, 9))
    assert coefficient(qp, 5) == CoeffDecomposition(gamma_expr(2, 2, 3).value(4), F(0))
    assert coefficient(qp, 4) == CoeffDecomposition(F(817, 8), F(0))
    assert coefficient(qp, 3).alternating == F(1, 4)  # +h/8 at q=4: the table-route sign
    assert evaluate(qp, -1) == 574
