"""Claim suites and report rendering for the command-line front end.

Each suite returns ``ClaimResult`` rows; a command exits nonzero when any
row fails.  All numeric output is exact (fraction strings), never floating
point, and rendering is deterministic so warm-cache reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import ALL_PIECE_SPECS, MoveSet, PartialQueenSpec, partial_queen
from .enumerator import DEFAULT_BUDGET, line_lengths, sequence
from .quasipoly import (
    Polynomial,
    QuasiPolynomial,
    coefficient,
    detect_period,
    evaluate,
    fit,
    format_fraction,
)
from . import audit as audit_mod
from . import formulas as fm


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str = ""
    notes: tuple[str, ...] = ()  # lines the text report prints after the table


def poly_str(poly: Polynomial, var: str = "n") -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for power in range(poly.degree, -1, -1):
        c = poly.coefficient(power)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = format_fraction(mag)
        else:
            head = "" if mag == 1 else f"{format_fraction(mag)}*"
            body = f"{head}{var}" + (f"^{power}" if power > 1 else "")
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def qp_str(qp: QuasiPolynomial) -> str:
    if qp.period == 1:
        return poly_str(qp.constituents[0])
    rows = [
        f"[n = {r} mod {qp.period}] {poly_str(c)}"
        for r, c in enumerate(qp.constituents)
    ]
    return "; ".join(rows)


# The characters that LaTeX reads as markup, each as text mode prints it.
_LATEX_ESCAPES = str.maketrans({
    "\\": r"\textbackslash{}", "&": r"\&", "%": r"\%", "$": r"\$", "#": r"\#",
    "_": r"\_", "{": r"\{", "}": r"\}", "~": r"\textasciitilde{}", "^": r"\textasciicircum{}",
})


def render(headers: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """The table in one format; ``latex`` escapes every header and cell."""
    rows = [[str(x) for x in row] for row in rows]
    if fmt == "json":
        return json.dumps(
            [dict(zip(headers, row)) for row in rows], indent=2, sort_keys=True
        )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "latex":
        lines = [
            "\\begin{tabular}{" + "l" * len(headers) + "}",
            " & ".join(h.translate(_LATEX_ESCAPES) for h in headers) + " \\\\",
            "\\hline",
        ]
        for row in rows:
            lines.append(" & ".join(cell.translate(_LATEX_ESCAPES) for cell in row) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)
    if fmt == "text":
        widths = [
            max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(headers))
        ]
        out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(out)
    raise ValueError(f"unknown format {fmt!r}")


def fitted_counts(
    moves: MoveSet,
    q: int,
    n_lo: int,
    n_hi: int,
    budget: int = DEFAULT_BUDGET,
    cache=None,
) -> tuple[list[tuple[int, int]], QuasiPolynomial]:
    """Oracle samples (n, u(q; n)) for n_lo..n_hi and the fit of degree 2q at
    the smallest period that validates on all of them."""
    samples = sequence(moves, q, n_lo, n_hi, budget=budget, cache=cache)
    return samples, fit(samples, 2 * q, detect_period(samples, 2 * q))


def suite_attacklines(n_max: int) -> list[ClaimResult]:
    """Closed forms for attacking pairs and collinear triples along each slope:
    the sums of squared and of cubed line lengths."""
    out = []
    for slope in fm.SUPPORTED_SLOPES:
        a_poly = fm.alpha_closed(slope)
        b_qp = fm.beta_closed(slope)
        ok_a = ok_b = True
        for n in range(n_max + 1):
            lengths = line_lengths(slope, n)
            ok_a = ok_a and sum(length**2 for length in lengths) == a_poly(n)
            ok_b = ok_b and sum(length**3 for length in lengths) == evaluate(b_qp, n)
        label = f"{slope.d}/{slope.c}"
        out.append(ClaimResult(f"attack-pair closed form, slope {label}, n<=%d" % n_max, ok_a))
        out.append(ClaimResult(f"collinear-triple closed form, slope {label}, n<=%d" % n_max, ok_b))
    return out


def suite_tables(n_max: int, cache=None) -> list[ClaimResult]:
    """Two- and three-piece closed forms vs the oracle, coefficient-table
    coherence, and type counts."""
    out = []
    for spec in ALL_PIECE_SPECS:
        h, k = spec.h, spec.k
        moves = partial_queen(spec)
        u2 = fm.u2_closed(h, k)
        ok2 = all(count == u2(n) for n, count in sequence(moves, 2, 1, n_max, cache=cache))
        out.append(ClaimResult(f"two-piece closed form vs oracle ({h},{k})", ok2))
        u3 = fm.u3_closed(h, k)
        ok3 = all(
            count == evaluate(u3, n) for n, count in sequence(moves, 3, 1, n_max, cache=cache)
        )
        out.append(ClaimResult(f"three-piece closed form vs oracle ({h},{k})", ok3))
        out.append(
            ClaimResult(
                f"three-piece closed form equals printed row ({h},{k})",
                u3 == fm.table2_row(h, k),
            )
        )
        out.append(
            ClaimResult(
                f"gamma2 two-route agreement ({h},{k})",
                fm.gamma2_expr(h, k).same_value(fm.gamma2_expr_expanded(h, k)),
            )
        )
        for i in (1, 2, 3):
            expr = (fm.gamma1_expr, fm.gamma2_expr, fm.gamma3_expr)[i - 1](h, k)
            out.append(
                ClaimResult(
                    f"gamma{i} leading q-coefficient ({h},{k})",
                    expr.leading_q_coefficient() == fm.gamma_leading_term(h, k, i),
                )
            )
        out.append(
            ClaimResult(
                f"two-piece types value at -1 is h+k ({h},{k})",
                fm.u2_closed(h, k)(-1) == fm.expected_types(h, k, 2),
            )
        )
        out.append(
            ClaimResult(
                f"three-piece type table matches conjecture ({h},{k})",
                fm.types3_conjecture(h + k) == fm.TABLE3_TYPES[(h, k)],
            )
        )
    return out


def suite_coeffs() -> list[ClaimResult]:
    """Symbolic coefficient checks: gammas vs the closed counting forms and
    the codimension-sum reassembly at q = 3."""
    out = []
    for spec in ALL_PIECE_SPECS:
        h, k = spec.h, spec.k
        u2 = fm.u2_closed(h, k)
        u3 = fm.u3_closed(h, k)
        for q, qp in ((2, QuasiPolynomial.constant_poly(u2)), (3, u3)):
            gammas = (fm.gamma1(h, k, q), fm.gamma2(h, k, q), fm.gamma3(h, k, q))
            ok = all(
                coefficient(qp, 2 * q - i).constant == gammas[i - 1]
                and coefficient(qp, 2 * q - i).alternating == 0
                for i in (1, 2, 3)
            )
            out.append(ClaimResult(f"gamma1..3 equal q={q} closed-form coefficients ({h},{k})", ok))
        total = sum(
            (fm.codim_contribution(h, k, 3, nu) for nu in range(4)),
            fm.coincident_triple_contribution(h, k, 3),
        )
        out.append(
            ClaimResult(
                f"codimension contributions reassemble the three-piece form ({h},{k})",
                total == u3,
            )
        )
        # the coincident triple sits at n^2, below every gamma_i read here
        for i in (0, 1, 2, 3):
            if i == 0:
                expected = Fraction(1, 6)
            else:
                expected = (fm.gamma1, fm.gamma2, fm.gamma3)[i - 1](h, k, 3)
            out.append(
                ClaimResult(
                    f"assembled gamma{i} at q=3 ({h},{k})",
                    coefficient(total, 6 - i).constant == expected,
                )
            )
    return out


def suite_audit(
    n_lo: int, n_hi: int, pieces=ALL_PIECE_SPECS
) -> tuple[list[ClaimResult], list[audit_mod.AuditResult]]:
    """Every catalog case against brute force for every applicable piece,
    on each board size n_lo..n_hi (n_lo >= 1)."""
    claims = []
    records = []
    for case in audit_mod.case_catalog():
        for spec in pieces:
            h, k = spec.h, spec.k
            if not case.applicable(h, k):
                continue
            ok = True
            for n in range(n_lo, n_hi + 1):
                res = audit_mod.audit_case(case, h, k, n)
                records.append(res)
                ok = ok and res.match
            claims.append(ClaimResult(f"case {case.name} ({h},{k}) n<=%d" % n_hi, ok))
    return claims, records


def suite_assembly(n_max: int, cache=None) -> list[ClaimResult]:
    """Catalog assembly equals q! times the oracle for q <= 3."""
    out = []
    for spec in ALL_PIECE_SPECS:
        h, k = spec.h, spec.k
        moves = partial_queen(spec)
        for q in (1, 2, 3):
            ok = all(
                audit_mod.assemble_labelled_count(h, k, q, n) == math.factorial(q) * count
                for n, count in sequence(moves, q, 1, n_max, cache=cache)
            )
            out.append(ClaimResult(f"assembly equals q!*oracle q={q} ({h},{k})", ok))
    return out


def suite_types(n_max: int, cache=None) -> list[ClaimResult]:
    """Type counts via the value at -1 of fitted quasipolynomials."""
    out = []
    for spec in ALL_PIECE_SPECS:
        h, k = spec.h, spec.k
        for q, n_hi, claim in ((2, 7, "two-piece value at -1 is h+k"),
                               (3, n_max, "three-piece value at -1 matches type table")):
            _, qp = fitted_counts(partial_queen(spec), q, 1, n_hi, cache=cache)
            out.append(ClaimResult(f"fitted {claim} ({h},{k})",
                                   evaluate(qp, -1) == fm.expected_types(h, k, q)))
    for m, expected in ((1, 1), (2, 6), (3, 17), (4, 36)):
        out.append(ClaimResult(f"three-piece type conjecture value |M|={m}",
                               fm.types3_conjecture(m) == expected))
    return out


def suite_gamma5_sign(n_max: int, cache=None) -> list[ClaimResult]:
    """Which printed sign of the periodic n-coefficient the oracle confirms.

    For the two pieces with a periodic linear coefficient, (1,2) and (2,2),
    the periodic-part formula and the three-piece table print opposite signs
    for the alternating part of the n-coefficient; both cannot hold, and the
    fitted three-piece count decides.  Each piece's three values and the
    conclusion ride along as notes.
    """
    notes = []
    formula_ok = table_ok = True
    for h, k in ((1, 2), (2, 2)):
        _, qp = fitted_counts(partial_queen(PartialQueenSpec(h, k)), 3, 1, n_max, cache=cache)
        fitted = coefficient(qp, 1).alternating
        formula = fm.gamma5_periodic(h, k, 3)
        table = coefficient(fm.table2_row(h, k), 1).alternating
        formula_ok = formula_ok and fitted == formula
        table_ok = table_ok and fitted == table
        notes.append(
            f"piece ({h},{k}): fitted alternating n-coefficient {format_fraction(fitted)}"
            f" | periodic-part-formula {format_fraction(formula)}"
            f" | three-piece-table {format_fraction(table)}"
        )
    conclusion = {
        (True, False): "three-piece table carries the correct sign",
        (False, True): "periodic-part formula carries the correct sign",
        (True, True): "both match (unexpected: the printed signs differ)",
        (False, False): "neither printed sign matches the oracle",
    }[table_ok, formula_ok]
    return [
        ClaimResult(
            "exactly one printed sign for the periodic n-coefficient matches the oracle",
            table_ok != formula_ok,
            conclusion,
            (*notes, f"conclusion: {conclusion}"),
        )
    ]


# Every verify scope's suite, in the order ``--scope all`` runs them, called
# as (n_max, cache); a missing n_max means the suite's own default ceiling.
# Each entry looks its suite up when called, so a patched suite is the one run.
SUITES: dict[str, Callable[[Optional[int], object], list[ClaimResult]]] = {
    "attacklines": lambda n_max, cache: suite_attacklines(n_max or 50),
    "tables": lambda n_max, cache: suite_tables(n_max or 8, cache=cache),
    "coeffs": lambda n_max, cache: suite_coeffs(),
    "audit": lambda n_max, cache: suite_audit(1, n_max or 10)[0],
    "assembly": lambda n_max, cache: suite_assembly(n_max or 8, cache=cache),
    "types": lambda n_max, cache: suite_types(n_max or 17, cache=cache),
    "gamma5-sign": lambda n_max, cache: suite_gamma5_sign(n_max or 17, cache=cache),
}

VERIFY_SCOPES = (*SUITES, "all")


def run_verify(scope: str, n_max: Optional[int] = None, cache=None) -> list[ClaimResult]:
    """The claims of one scope's suite, or of every suite in turn for ``all``."""
    if scope not in VERIFY_SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {VERIFY_SCOPES}")
    names = SUITES if scope == "all" else (scope,)
    return [claim for name in names for claim in SUITES[name](n_max, cache)]


def formula_bank_rows(h: int, k: int, q: int) -> list[tuple[str, str]]:
    """Every formula-bank output for one (h, k, q), for diffing against
    published tables by eye."""
    rows: list[tuple[str, str]] = []
    for i, expr_fn in ((1, fm.gamma1_expr), (2, fm.gamma2_expr), (3, fm.gamma3_expr)):
        expr = expr_fn(h, k)
        rows.append(
            (
                f"gamma{i} expression",
                f"({poly_str(expr.numerator, 'q')}) / ({expr.denominator_constant} (q-2)!)",
            )
        )
        rows.append((f"gamma{i} at q={q}", format_fraction(expr.value(q))))
    rows.append(
        ("gamma3 expanded-display route at q=%d" % q,
         format_fraction(fm.gamma3_expr_expanded(h, k).value(q)))
    )
    for i in (1, 2, 3):
        rows.append(
            (f"gamma{i} leading q-term", format_fraction(fm.gamma_leading_term(h, k, i)))
        )
    if q >= 3:
        rows.append(("gamma5 periodic part", format_fraction(fm.gamma5_periodic(h, k, q))))
    if q >= 4:
        rows.append(("gamma6 periodic part", format_fraction(fm.gamma6_periodic(h, k, q))))
    rows.append(("two-piece count u(2;n)", poly_str(fm.u2_closed(h, k))))
    rows.append(("three-piece count u(3;n)", qp_str(fm.u3_closed(h, k))))
    rows.append(("three-piece types (value at -1)", format_fraction(evaluate(fm.u3_closed(h, k), -1))))
    rows.append(("type-count conjecture at |M|=h+k", str(fm.types3_conjecture(h + k))))
    return rows
