"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s`` or in
failure output).  Criterion 9 fits the four-queen counts at their true
period: the counting function has period 6, so the fit is taken after a
difference operator that removes the periodic lower-order parts.  The
README ("Acceptance suite") explains the period structure, and
``scripts/queen_four_piece_analysis.py`` reproduces it from scratch.
"""

import math
import time
from fractions import Fraction as F

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
    gamma1,
    gamma1_expr,
    gamma2,
    gamma2_expr,
    gamma2_expr_expanded,
    gamma3,
    gamma3_expr,
    gamma5_periodic,
    gamma_leading_term,
    table2_row,
    types3_conjecture,
    u2_closed,
    u3_closed,
)
from qqueens.quasipoly import (
    Polynomial,
    QuasiPolynomial,
    coefficient,
    detect_period,
    eval_at_minus_one,
    evaluate,
    fit,
    lagrange,
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
        samples = [(r.n, r.count) for r in sequence(moves, 3, 1, 17)]
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
        ok = ok and gamma2_expr(h, k).numerator == Polynomial.make(coeffs2)
        ok = ok and gamma2_expr(h, k).denominator_constant == den2
        ok = ok and gamma3_expr(h, k).numerator == Polynomial.make(coeffs3)
        ok = ok and gamma3_expr(h, k).denominator_constant == den3
        # the expanded display reproduces the gamma2 table entries exactly
        ok = ok and gamma2_expr(h, k).same_value(gamma2_expr_expanded(h, k))
        # leading q-coefficients in the stated closed normal form
        for i, expr in ((1, gamma1_expr(h, k)), (2, gamma2_expr(h, k)), (3, gamma3_expr(h, k))):
            ok = ok and expr.leading_q_coefficient() == gamma_leading_term(h, k, i)
        # the gammas are the actual coefficients of the closed counting forms
        u2qp = QuasiPolynomial.constant_poly(u2_closed(h, k))
        u3qp = u3_closed(h, k)
        for q, qp in ((2, u2qp), (3, u3qp)):
            for i, fn in ((1, gamma1), (2, gamma2), (3, gamma3)):
                dec = coefficient(qp, 2 * q - i)
                ok = ok and dec.constant == fn(h, k, q) and dec.alternating == 0
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
        s2 = [(r.n, r.count) for r in sequence(moves, 2, 1, 7)]
        qp2 = fit(s2, 4, detect_period(s2, 4))
        ok = ok and eval_at_minus_one(qp2) == h + k
        s3 = [(r.n, r.count) for r in sequence(moves, 3, 1, 17)]
        qp3 = fit(s3, 6, detect_period(s3, 6))
        ok = ok and eval_at_minus_one(qp3) == TABLE3_TYPES[(h, k)]
    ok = ok and [types3_conjecture(m) for m in (1, 2, 3, 4)] == [1, 6, 17, 36]
    _line(7, ok, "fitted values at -1: h+k for two pieces, type table for three, conjecture for |M|<=4")
    assert ok


def test_criterion_8_periodicity_reconciliation_at_q3():
    ok = True
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        samples = [(r.n, r.count) for r in sequence(moves, 3, 1, 17)]
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
# (reproducible via scripts/queen_four_piece_analysis.py; every entry is
# recomputed live by test_pinned_four_queen_counts_are_live_counts).
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


def _four_queen_operator(values: dict) -> dict:
    """D = Delta_2^2 Delta_6^2, which maps u(4; n) to a polynomial of degree 4.

    Delta_h f(n) = f(n + h) - f(n), kept wherever both values are known.
    """
    for h in (6, 6, 2, 2):
        values = {n: values[n + h] - v for n, v in values.items() if n + h in values}
    return values


def _top_coefficients_by_differences(counts: dict) -> dict:
    """The n^8, n^7 and n^6 coefficients of u(4; n), from a validated fit of D u.

    The n^4, n^3 and n^2 coefficients of D u depend only on the n^8, n^7 and
    n^6 coefficients of u, through a triangular map read off the images of
    the monomials under D.  Raises InconsistentSamplesError when D u is not
    a polynomial of degree <= 4 on the given counts.
    """
    diffs = _four_queen_operator(counts)
    fitted = fit(sorted(diffs.items()), 4, 1, surplus=2)
    image = {
        k: lagrange(sorted(_four_queen_operator({n: F(n**k) for n in counts}).items()))
        for k in (8, 7, 6)
    }
    top = {}
    for k, j in ((8, 4), (7, 3), (6, 2)):
        known = sum(top[m] * image[m].coefficient(j) for m in top)
        top[k] = (coefficient(fitted, j).constant - known) / image[k].coefficient(j)
    return top


def test_criterion_9_four_piece_spot_check_as_stated():
    """Criterion 9: a fit of live four-queen counts yields 1/24, gamma1, gamma2.

    The paper proves the five highest coefficients of u(q; n) constant and
    bounds the period of gamma5 and gamma6 only.  For four queens the n^3
    and n^2 coefficients have period 2 and the n^1 and n^0 coefficients
    period 6 (README, "Acceptance suite"), so the fit is taken at that
    true period.  A plain period-6, degree-8 fit would need n up to about
    60; instead apply D = Delta_2^2 Delta_6^2, with Delta_h f(n) =
    f(n + h) - f(n).  Delta_6^2 removes every period-6 part of degree <= 1
    and lowers the period-2 n^3 and n^2 parts to degree <= 1, which
    Delta_2^2 then removes, so D u is a polynomial of degree 4.  Counts for
    n = 1..23 give seven values of D u: a degree-4 fit with two surplus
    samples.  The surplus samples check that D u is a polynomial, which it
    is only if none of the three top coefficients has a periodic part.
    """
    t0 = time.time()
    queen = partial_queen(PartialQueenSpec(2, 2))
    counts = {r.n: r.count for r in sequence(queen, 4, 1, 23)}
    top = _top_coefficients_by_differences(counts)
    elapsed = time.time() - t0
    expected = {8: F(1, 24), 7: gamma1(2, 2, 4), 6: gamma2(2, 2, 4)}
    pinned = all(counts[n] == QUEEN_Q4_COUNTS[n] for n in counts)
    ok = pinned and top == expected and elapsed < 1800.0
    _line(9, ok, "validated fit of Delta_2^2 Delta_6^2 u(4;n), n=1..23, "
          "yields the predicted top coefficients",
          f"n^8, n^7, n^6 coefficients {top[8]}, {top[7]}, {top[6]}; "
          f"{elapsed:.1f}s of 1800s budget")
    assert ok, (
        f"four-queen counts for n=1..23 (pinned table agrees: {pinned}) give top "
        f"coefficients {top}, expected {expected}, in {elapsed:.1f}s; see "
        "scripts/queen_four_piece_analysis.py and the README"
    )


def test_queen_four_piece_period_exceeds_two():
    """No degree-8 polynomial passes through the odd-class values n=1..19,
    so the counting function's period does not divide 2."""
    queen = partial_queen(PartialQueenSpec(2, 2))
    for n in list(range(1, 15)):
        assert count_unlabelled(queen, 4, n) == QUEEN_Q4_COUNTS[n]
    odd = [(n, F(QUEEN_Q4_COUNTS[n])) for n in range(1, 20, 2)]
    assert len(odd) == 10
    poly = lagrange(odd[:9])
    assert poly.degree <= 8
    assert poly(19) != QUEEN_Q4_COUNTS[19]


def test_criterion_9_intent_holds_despite_defective_procedure():
    """The three coefficients criterion 9 targets, by a second exact route.

    Subtract the predicted top terms n^8/24 + gamma1 n^7 + gamma2 n^6 from
    the pinned oracle counts; on each residue class mod 6 the remainder must
    then lie on a polynomial of degree <= 5.  Six points per class determine
    it and the leftover point validates; the n^5 and n^4 coefficients must
    moreover be the same constants in every class.  Any error in the
    predicted coefficients would leave degree-6-or-higher residue and break
    the validation.  This exhibits the period structure criterion 9 relies
    on, and pins gamma3 at q=4 to the coefficient-table route and the n^3
    alternating part to +1/4 (the corrected periodic sign at q=4, matching
    the arbitration report).
    """
    g1, g2 = gamma1(2, 2, 4), gamma2(2, 2, 4)
    assert (g1, g2) == (F(-5, 6), F(65, 9))

    def residual(n: int) -> F:
        return F(QUEEN_Q4_COUNTS[n]) - F(n**8, 24) - g1 * n**7 - g2 * n**6

    class_polys = {}
    for r in range(6):
        ns = [n for n in range(1, 38) if n % 6 == r]
        pts = [(n, residual(n)) for n in ns]
        poly = lagrange(pts[:6])
        assert poly.degree <= 5, f"class {r}: residual degree exceeds 5"
        for n, value in pts[6:]:
            assert poly(n) == value, f"class {r}: surplus point n={n} fails"
        class_polys[r] = poly
    n5 = {poly.coefficient(5) for poly in class_polys.values()}
    n4 = {poly.coefficient(4) for poly in class_polys.values()}
    assert n5 == {gamma3(2, 2, 4)}  # constant across classes, table route
    assert len(n4) == 1  # gamma4 constant, extending the constancy statement to q=4
    n3_even = {class_polys[r].coefficient(3) for r in (0, 2, 4)}
    n3_odd = {class_polys[r].coefficient(3) for r in (1, 3, 5)}
    assert len(n3_even) == 1 and len(n3_odd) == 1
    alternating = (next(iter(n3_even)) - next(iter(n3_odd))) / 2
    assert alternating == F(1, 4)  # +h/8 at q=4: the table-route sign again
