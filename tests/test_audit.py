import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_count_pattern
from qqueens.audit import (
    InapplicableCaseError,
    assemble_labelled_count,
    audit_case,
    case_catalog,
)
from qqueens.core import ALL_PIECE_SPECS, PartialQueenSpec, partial_queen
from qqueens.enumerator import Equal, count_pattern, count_unlabelled
from qqueens.formulas import (
    codim_contribution,
    gamma_expr,
    table2_row,
    u2_closed,
    u3_closed,
)
from qqueens.quasipoly import Polynomial, QuasiPolynomial, coefficient, evaluate
from qqueens.reports import suite_gamma5_sign

ALL_HK = [(s.h, s.k) for s in ALL_PIECE_SPECS]


def case_by_name(name: str):
    (case,) = (c for c in case_catalog() if c.name == name)
    return case


def audit_subcases(case, h: int, k: int, n: int) -> list[tuple[str, int, F, bool]]:
    """Per-orientation-class audit rows: label, brute count, closed form, match."""
    rows = []
    for sc in case.subcases(h, k):
        brute = sum(count_pattern(p, n) for p in sc.patterns)
        closed = evaluate(sc.closed_form, n)
        rows.append((sc.label, brute, closed, F(brute) == closed))
    return rows

# Moebius values per type, exactly as the catalog must carry them.
EXPECTED_MOEBIUS = {
    "U2^1": lambda h, k: -1,
    "U2^2": lambda h, k: h + k - 1,
    "U3a^2": lambda h, k: 2,
    "U3b^2": lambda h, k: 1,
    "U4*^2": lambda h, k: 1,
    "U3a^3": lambda h, k: -1,
    "U3b^3": lambda h, k: -2 * (h + k - 1),
    "U4a^3": lambda h, k: -6,
    "U4b^3": lambda h, k: -2,
    "U4c^3": lambda h, k: -1,
    "U4d^3": lambda h, k: -1,
    "U4e^3": lambda h, k: -1,
    "U4*^3": lambda h, k: 1 - (h + k),
    "U5*a^3": lambda h, k: -2,
    "U5*b^3": lambda h, k: -1,
    "U6*^3": lambda h, k: -1,
    "U3^4": lambda h, k: (h + k - 1) ** 2 * (h + k + 2),
}


def test_catalog_has_seventeen_named_types():
    names = [case.name for case in case_catalog()]
    assert len(names) == 17
    assert sorted(names) == sorted(EXPECTED_MOEBIUS)


# (patterns, subcases) of each type, summed over the eight pieces.  Every
# pattern is counted in verify --scope all, so a builder change that adds or
# drops one shows here before it moves a benchmark pin.
CATALOG_SHAPE = {
    "U2^1": (18, 18),
    "U2^2": (8, 8),
    "U3a^2": (18, 18),
    "U3b^2": (15, 15),
    "U4*^2": (48, 48),
    "U3a^3": (12, 6),
    "U3b^3": (18, 18),
    "U4a^3": (18, 18),
    "U4b^3": (30, 15),
    "U4c^3": (30, 24),
    "U4d^3": (18, 12),
    "U4e^3": (6, 6),
    "U4*^3": (18, 18),
    "U5*a^3": (48, 48),
    "U5*b^3": (48, 48),
    "U6*^3": (144, 144),
    "U3^4": (8, 8),
}


def test_catalog_shape_summed_over_pieces():
    shape = {
        case.name: (
            sum(len(case.pattern_family(h, k)) for h, k in ALL_HK),
            sum(len(case.subcases(h, k)) for h, k in ALL_HK),
        )
        for case in case_catalog()
    }
    assert shape == CATALOG_SHAPE
    assert sum(p for p, _ in shape.values()) == 505
    assert sum(s for _, s in shape.values()) == 472


def test_moebius_table_exact():
    for case in case_catalog():
        for h, k in ALL_HK:
            assert case.moebius(h, k) == EXPECTED_MOEBIUS[case.name](h, k), (case.name, h, k)


def test_moebius_of_coincident_triple_vanishes_for_single_move_pieces():
    case = case_by_name("U3^4")
    assert case.moebius(1, 0) == 0
    assert case.moebius(0, 1) == 0
    assert case.moebius(2, 2) == 54


def test_multiplicities_at_small_q():
    by_name = {c.name: c for c in case_catalog()}
    assert by_name["U2^1"].multiplicity(2) == 1
    assert by_name["U2^2"].multiplicity(3) == 3
    assert by_name["U3b^2"].multiplicity(3) == 6
    assert by_name["U3a^3"].multiplicity(3) == 3
    assert by_name["U4*^2"].multiplicity(5) == 15  # (5)_4 / 8
    assert by_name["U6*^3"].multiplicity(6) == 15  # 6! / 48
    for case in case_catalog():
        if case.kappa > 3:
            assert case.multiplicity(3) == 0


def test_automorphisms_divide_kappa_factorial():
    # (q)_kappa is a multiple of kappa!, so multiplicity's floor division is exact for every q
    assert [c.automorphisms for c in case_catalog()] == [2, 2, 6, 1, 8, 2, 2, 24, 2, 2, 1, 1, 4, 12, 2, 48, 6]
    for case in case_catalog():
        assert math.factorial(case.kappa) % case.automorphisms == 0, case.name


def test_u2_2_case_shape():
    case = case_by_name("U2^2")
    family = case.pattern_family(2, 1)
    assert len(family) == 1
    assert family[0].constraints == (Equal(1, 2),)
    res = audit_case(case, 2, 1, 5)
    assert res.brute == 25 and res.closed == 25 and res.match


def test_u4a_orthogonal_closed_form_is_n5():
    case = case_by_name("U4a^3")
    sub = case.subcases(1, 0)
    assert len(sub) == 1
    assert sub[0].closed_form == QuasiPolynomial.constant_poly(Polynomial.monomial(1, 5))


def test_u3b2_dd_example_n3():
    case = case_by_name("U3b^2")
    rows = audit_subcases(case, 0, 2, 3)
    (label, brute, closed, match) = rows[-1]
    assert label == "DD"
    assert brute == 37 and closed == 37 and match


def test_u4c_ddd_example_n2():
    case = case_by_name("U4c^3")
    rows = [r for r in audit_subcases(case, 0, 2, 2) if r[0] == "DDD"]
    assert rows == [("DDD", 24, F(24), True)]


def test_audit_case_rejects_inapplicable():
    case = case_by_name("U3b^2")  # needs two distinct slopes
    with pytest.raises(InapplicableCaseError):
        audit_case(case, 1, 0, 3)
    dd_missing = case_by_name("U4c^3")
    assert all(sc.label != "DDD" for sc in dd_missing.subcases(1, 1))


def test_subcases_are_built_once_per_case_and_piece():
    for case in case_catalog():
        for h, k in ALL_HK:
            built = case.subcases(h, k)
            assert case.subcases(h, k) is built
            assert built == case.subcase_builder(h, k), (case.name, h, k)


def test_closed_form_is_the_sum_of_freshly_built_subcase_forms():
    for case in case_catalog():
        for h, k in ALL_HK:
            total = QuasiPolynomial.constant_poly(Polynomial.zero())
            for sc in case.subcase_builder(h, k):
                total = total + sc.closed_form
            assert case.closed_form(h, k) == total, (case.name, h, k)
            assert case.closed_form(h, k) == total  # the second call reads the memo


def test_every_case_against_brute_force_small_boards():
    for case in case_catalog():
        for h, k in ALL_HK:
            if not case.applicable(h, k):
                continue
            for n in (1, 2, 3, 4):
                res = audit_case(case, h, k, n)
                assert res.match, (case.name, h, k, n, res.brute, res.closed)


def test_subcase_level_audits_small_boards():
    for case in case_catalog():
        for h, k in ((2, 2), (1, 2), (2, 1)):
            if not case.applicable(h, k):
                continue
            for n in (1, 2, 3):
                for label, brute, closed, match in audit_subcases(case, h, k, n):
                    assert match, (case.name, label, h, k, n, brute, closed)


def test_pattern_families_agree_with_naive_pattern_counts():
    # spot-check whole families against the transparent product enumeration
    for name in ("U3a^3", "U4e^3", "U3b^3"):
        case = case_by_name(name)
        for h, k in ((2, 2), (1, 2)):
            if not case.applicable(h, k):
                continue
            for pat in case.pattern_family(h, k):
                for n in (1, 2, 3):
                    assert count_pattern(pat, n) == naive_count_pattern(pat, n)


def test_assemble_examples():
    assert assemble_labelled_count(2, 2, 2, 3) == 16
    for h, k in ALL_HK:
        for n in (1, 2, 5):
            assert assemble_labelled_count(h, k, 1, n) == n * n
    bishop = partial_queen(PartialQueenSpec(0, 2))
    assert assemble_labelled_count(0, 2, 3, 4) == 6 * count_unlabelled(bishop, 3, 4)
    assert assemble_labelled_count(0, 2, 3, 4) == 6 * evaluate(table2_row(0, 2), 4)


def test_assemble_matches_oracle_all_pieces():
    for h, k in ALL_HK:
        moves = partial_queen(PartialQueenSpec(h, k))
        for q in (1, 2, 3):
            for n in range(1, 7):
                assert assemble_labelled_count(h, k, q, n) == math.factorial(
                    q
                ) * count_unlabelled(moves, q, n), (h, k, q, n)


def test_assemble_rejects_large_q():
    with pytest.raises(ValueError):
        assemble_labelled_count(2, 2, 4, 3)


def _type_route(h: int, k: int, q: int, codims) -> QuasiPolynomial:
    """Sum multiplicity * mu * closed form * n^(2q - 2 kappa) / q! over the
    catalog types of the chosen codimensions; codimension 0 is the free
    term n^(2q) / q!."""

    def term(weight: int, power: int) -> QuasiPolynomial:
        return QuasiPolynomial.constant_poly(Polynomial.monomial(F(weight, math.factorial(q)), power))

    total = term(1, 2 * q) if 0 in codims else term(0, 0)
    for case in case_catalog():
        if case.codim in codims and case.applicable(h, k):
            weight = case.multiplicity(q) * case.moebius(h, k)
            if weight:  # a type of more than q pieces has weight 0 and a negative power
                total = total + term(weight, 2 * q - 2 * case.kappa) * case.closed_form(h, k)
    return total


def test_symbolic_assembly_reproduces_two_piece_form():
    for h, k in ALL_HK:
        assert _type_route(h, k, 2, range(5)) == QuasiPolynomial.constant_poly(u2_closed(h, k))


def test_symbolic_assembly_reproduces_three_piece_form():
    for h, k in ALL_HK:
        assert _type_route(h, k, 3, range(5)) == u3_closed(h, k), (h, k)


def gamma_from_audit(h: int, k: int, q: int, i: int):
    """Coefficient of n^(2q-i) in the sum of the codimension 0..3 contributions."""
    total = sum((codim_contribution(h, k, q, nu) for nu in (1, 2, 3)), codim_contribution(h, k, q, 0))
    return coefficient(total, 2 * q - i)


def test_gamma_from_audit_examples():
    dec = gamma_from_audit(1, 1, 3, 2)
    assert dec.constant == F(5, 3) and dec.alternating == 0
    dec0 = gamma_from_audit(2, 1, 3, 0)
    assert dec0.constant == F(1, 6)
    dec1 = gamma_from_audit(2, 2, 2, 1)
    assert dec1.constant == gamma_expr(2, 2, 1).value(2) == F(-5, 3)


def test_gamma_from_audit_matches_gammas_at_small_q():
    for h, k in ALL_HK:
        for q in (2, 3):
            for i in (1, 2, 3):
                dec = gamma_from_audit(h, k, q, i)
                assert dec.constant == gamma_expr(h, k, i).value(q), (h, k, q, i)
                assert dec.alternating == 0


def test_gamma5_sign_report_names_the_table():
    (claim,) = suite_gamma5_sign(16)
    assert claim.passed
    assert claim.detail == "three-piece table carries the correct sign"
    # fitted h/8, the periodic-part formula's -h/8 and the table's h/8
    assert claim.notes == (
        "piece (1,2): fitted alternating n-coefficient 1/8 | periodic-part-formula -1/8"
        " | three-piece-table 1/8",
        "piece (2,2): fitted alternating n-coefficient 1/4 | periodic-part-formula -1/4"
        " | three-piece-table 1/4",
        "conclusion: three-piece table carries the correct sign",
    )


def test_codim3_type_route_reconciles_with_printed_total():
    """The per-type route (multiplicities x Moebius x closed forms) differs
    from the printed codimension-3 total by exactly three terms, all at the
    (q)_4 level; pinning the difference validates every kappa >= 4
    multiplicity and every (q)_5/(q)_6 bracket, which the q <= 3 assembly
    cannot exercise."""
    from qqueens.formulas import delta

    q = 6  # all falling factorials through (q)_6 are active
    for h, k in ALL_HK:
        printed = codim_contribution(h, k, q, 3)
        types = _type_route(h, k, q, (3,))
        dh2, dk2 = delta(h, 2), delta(k, 2)
        f4 = F(math.perm(q, 4), math.factorial(q))
        const = {2 * q - 3: -f4 * F(120 * dh2 + 32 * dk2, 120), 2 * q - 5: f4 * F(k * (k + 1), 24)}
        alt = {2 * q - 7: -f4 * F(h * dk2, 8)}
        expected = QuasiPolynomial.from_parity_split(
            Polynomial.make([const.get(p, F(0)) for p in range(2 * q + 1)]),
            Polynomial.make([alt.get(p, F(0)) for p in range(2 * q + 1)]),
        )
        assert printed == types + expected, (h, k)


@given(st.sampled_from(ALL_HK), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_closed_forms_are_integer_valued(hk, n):
    h, k = hk
    for case in case_catalog():
        if not case.applicable(h, k):
            continue
        value = evaluate(case.closed_form(h, k), n)
        assert value.denominator == 1
