"""Command-line front end.

Grammar::

    qqueens <count|fit|verify|audit|types|formulas>
            [--piece h,k | --moves JSON] [--q INT] [--n LO..HI]
            [--period-max INT] [--budget INT] [--cache PATH]
            [--format json|csv|latex|text]

Counts and coefficients are printed exactly (integers and fraction
strings); reports are deterministic given the configuration and cache
state.  Exit status: 0 all checks passed, 1 a check or fit failed,
2 usage error, 3 search budget exceeded (partial output flagged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .cache import ENV_VAR, CountCache
from .core import ALL_PIECE_SPECS, MoveSet, PartialQueenSpec, partial_queen
from .enumerator import DEFAULT_BUDGET, BudgetExceededError, sequence
from .quasipoly import (
    InconsistentSamplesError,
    InsufficientSamplesError,
    PeriodNotFoundError,
    detect_period,
    eval_at_minus_one,
    fit,
    format_fraction,
)
from . import formulas as fm
from .reports import (
    VERIFY_SCOPES,
    formula_bank_rows,
    render,
    run_verify,
    suite_audit,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    """Validated invocation: which command, which piece, and the knobs."""

    command: str
    piece: Optional[PartialQueenSpec]
    moves: Optional[MoveSet]
    q: int
    n_lo: int
    n_hi: int
    period_max: int
    budget: int
    cache_path: Optional[str]
    fmt: str
    scope: str = "all"
    n_given: bool = True

    def move_set(self) -> MoveSet:
        if self.moves is not None:
            return self.moves
        if self.piece is not None:
            return partial_queen(self.piece)
        raise ValueError("a piece (--piece or --moves) is required for this command")

    def cache(self) -> Optional[CountCache]:
        return CountCache(self.cache_path) if self.cache_path else None


def _parse_piece(text: str) -> PartialQueenSpec:
    try:
        h, k = (int(part) for part in text.split(","))
        return PartialQueenSpec(h, k)
    except (ValueError, TypeError) as err:
        raise argparse.ArgumentTypeError(f"bad --piece {text!r}: {err}")


def _parse_moves(text: str) -> MoveSet:
    try:
        return MoveSet.from_json(text)
    except (ValueError, TypeError, KeyError) as err:
        raise argparse.ArgumentTypeError(f"bad --moves {text!r}: {err}")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad --n range {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqueens",
        description="Exact nonattacking-placement counts, quasipolynomial fits, and formula audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, need_n=True) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--piece", type=_parse_piece, metavar="H,K",
                           help="piece with H orthogonal and K diagonal moves, e.g. 2,2")
        group.add_argument("--moves", type=_parse_moves, metavar="JSON",
                           help='explicit move list, e.g. "[[1,0],[1,2]]"')
        p.add_argument("--q", type=int, default=2, help="number of pieces (default 2)")
        if need_n:
            p.add_argument("--n", type=_parse_range, default=None, metavar="LO..HI",
                           help="board size range (single value allowed)")
        p.add_argument("--period-max", type=int, default=2,
                       help="largest period the fit search tries (default 2)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="node budget of the enumeration search, per board size; "
                            "a node is a placement of 1 to q-1 nonattacking pieces, "
                            "one of them marked as the first")
        p.add_argument("--cache", default=None,
                       help=f"count cache path (default:  ${ENV_VAR} if set)")
        p.add_argument("--format", dest="fmt", default="text",
                       choices=("json", "csv", "latex", "text"), help="output format")

    p_count = sub.add_parser("count", help="oracle counts over a range of board sizes")
    add_common(p_count)

    p_fit = sub.add_parser("fit", help="fit an exact quasipolynomial to oracle counts")
    add_common(p_fit)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    add_common(p_verify)
    p_verify.add_argument("--scope", default="all", choices=VERIFY_SCOPES)
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="board-size ceiling for oracle-backed checks")

    p_audit = sub.add_parser("audit", help="brute-force every catalog case against its closed form")
    add_common(p_audit)
    p_audit.add_argument("--report", dest="fmt_report",
                         choices=("json", "csv", "latex", "text"), default=None,
                         help="alias for --format")

    p_types = sub.add_parser("types", help="combinatorial-type counts via the value at -1")
    add_common(p_types)

    p_formulas = sub.add_parser("formulas", help="dump the formula bank for one piece")
    add_common(p_formulas, need_n=False)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    n_given = getattr(args, "n", None) is not None
    n_lo, n_hi = args.n if n_given else (1, 8)
    cache_path = args.cache or os.environ.get(ENV_VAR) or None
    fmt = getattr(args, "fmt_report", None) or args.fmt
    return RunConfig(
        command=args.command,
        piece=args.piece,
        moves=args.moves,
        q=args.q,
        n_lo=n_lo,
        n_hi=n_hi,
        period_max=args.period_max,
        budget=args.budget,
        cache_path=cache_path,
        fmt=fmt,
        scope=getattr(args, "scope", "all"),
        n_given=n_given,
    )


def cmd_count(config: RunConfig, out) -> int:
    moves = config.move_set()
    try:
        records = sequence(moves, config.q, config.n_lo, config.n_hi,
                           budget=config.budget, cache=config.cache())
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        if err.completed:
            rows = [(r.n, r.count, "partial") for r in err.completed]
            print(render(("n", "count", "status"), rows, config.fmt), file=out)
        return EXIT_BUDGET
    rows = [(r.n, r.count) for r in records]
    print(render(("n", "count"), rows, config.fmt), file=out)
    return EXIT_OK


def cmd_fit(config: RunConfig, out) -> int:
    moves = config.move_set()
    degree = 2 * config.q
    n_hi = config.n_hi
    if not config.n_given:
        # enough samples per residue class at the largest period tried
        n_hi = config.period_max * (degree + 2)
    records = sequence(moves, config.q, config.n_lo, n_hi,
                       budget=config.budget, cache=config.cache())
    samples = [(r.n, r.count) for r in records]
    try:
        period = detect_period(samples, degree, config.period_max)
        qp = fit(samples, degree, period)
    except InconsistentSamplesError as err:
        print(f"inconsistent fit: first failing n={err.n} "
              f"(expected {err.expected}, oracle gives {err.actual})", file=sys.stderr)
        return EXIT_FAIL
    except (InsufficientSamplesError, PeriodNotFoundError) as err:
        print(f"fit failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    if config.fmt == "json":
        print(json.dumps(qp.to_json_dict(), sort_keys=True), file=out)
    else:
        from .reports import qp_str

        rows = [
            ("period", str(period)),
            ("degree", str(qp.degree)),
            ("quasipolynomial", qp_str(qp)),
            ("surplus validation", "passed on all %d samples" % len(samples)),
        ]
        print(render(("field", "value"), rows, config.fmt), file=out)
    return EXIT_OK


def cmd_verify(config: RunConfig, n_max: Optional[int], out) -> int:
    claims, aux = run_verify(config.scope, n_max=n_max, cache=config.cache())
    rows = [
        ("PASS" if c.passed else "FAIL", c.name, c.detail) for c in claims
    ]
    print(render(("status", "claim", "detail"), rows, config.fmt), file=out)
    if "report" in aux and config.fmt == "text":
        report = aux["report"]
        for piece_row in report.get("pieces", []):
            print(
                "piece ({h},{k}): fitted alternating n-coefficient {v}"
                " | periodic-part-formula {t} | three-piece-table {w}".format(
                    h=piece_row["h"], k=piece_row["k"],
                    v=format_fraction(piece_row["fitted_alternating_n_coefficient"]),
                    t=format_fraction(piece_row["periodic_part_formula_value"]),
                    w=format_fraction(piece_row["three_piece_table_value"]),
                ),
                file=out,
            )
        print(f"conclusion: {report['conclusion']}", file=out)
    return EXIT_OK if all(c.passed for c in claims) else EXIT_FAIL


def cmd_audit(config: RunConfig, out) -> int:
    pieces = (config.piece,) if config.piece is not None else ALL_PIECE_SPECS
    _, records = suite_audit(max(1, config.n_lo), config.n_hi, pieces)
    rows = [
        (r.case, r.h, r.k, r.n, r.brute, format_fraction(r.closed), r.match)
        for r in records
    ]
    if config.fmt == "json":
        payload = [
            {"case": r.case, "h": r.h, "k": r.k, "n": r.n,
             "brute": r.brute, "closed": format_fraction(r.closed), "match": r.match}
            for r in records
        ]
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        print(render(("case", "h", "k", "n", "brute", "closed", "match"), rows, config.fmt), file=out)
    return EXIT_OK if all(r.match for r in records) else EXIT_FAIL


def cmd_types(config: RunConfig, out) -> int:
    q = config.q
    degree = 2 * q
    exploratory = config.moves is not None
    period_max = max(config.period_max, 12) if exploratory else config.period_max
    moves = config.move_set()
    n_hi = config.n_hi if config.n_given else period_max * (degree + 2)
    records = sequence(moves, q, 1, n_hi, budget=config.budget, cache=config.cache())
    samples = [(r.n, r.count) for r in records]
    try:
        period = detect_period(samples, degree, period_max)
        qp = fit(samples, degree, period)
    except (InconsistentSamplesError, InsufficientSamplesError, PeriodNotFoundError) as err:
        print(f"fit failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    value = eval_at_minus_one(qp)
    rows = [("fitted period", str(period)), ("value at -1", format_fraction(value))]
    ok = True
    if exploratory:
        conj = fm.types3_conjecture(len(moves)) if q == 3 else None
        rows.append(("mode", "exploratory (not acceptance-gating)"))
        if conj is not None:
            rows.append(("conjecture value at |M|=%d" % len(moves), str(conj)))
            rows.append(("matches conjecture", str(value == conj)))
    else:
        h, k = config.piece.h, config.piece.k
        if q == 2:
            expected = h + k
            rows.append(("expected (h+k)", str(expected)))
            ok = value == expected
        elif q == 3:
            expected = fm.TABLE3_TYPES[(h, k)]
            rows.append(("expected (type table)", str(expected)))
            rows.append(("conjecture value", str(fm.types3_conjecture(h + k))))
            ok = value == expected
        rows.append(("match", str(ok)))
    print(render(("field", "value"), rows, config.fmt), file=out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_formulas(config: RunConfig, out) -> int:
    if config.piece is None:
        print("formulas needs --piece H,K", file=sys.stderr)
        return EXIT_USAGE
    rows = formula_bank_rows(config.piece.h, config.piece.k, config.q)
    print(render(("quantity", "value"), rows, config.fmt), file=out)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    out = sys.stdout
    try:
        if config.command == "count":
            return cmd_count(config, out)
        if config.command == "fit":
            return cmd_fit(config, out)
        if config.command == "verify":
            return cmd_verify(config, getattr(args, "n_max", None), out)
        if config.command == "audit":
            return cmd_audit(config, out)
        if config.command == "types":
            return cmd_types(config, out)
        if config.command == "formulas":
            return cmd_formulas(config, out)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
