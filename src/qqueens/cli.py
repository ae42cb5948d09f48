"""Command-line front end.

Grammar, one line per command::

    qqueens count    (--piece H,K | --moves JSON) [--q INT] [--n LO..HI] [--budget INT] [--cache PATH]
    qqueens fit      (--piece H,K | --moves JSON) [--q INT] [--n LO..HI] [--budget INT] [--cache PATH]
    qqueens verify   [--scope SCOPE] [--n-max INT] [--cache PATH]
    qqueens audit    [--piece H,K] [--n LO..HI]
    qqueens types    (--piece H,K | --moves JSON) [--q INT] [--n LO..HI] [--budget INT] [--cache PATH]
    qqueens formulas --piece H,K [--q INT>=2]

Every command also takes ``--format json|csv|latex|text``.  ``--q`` is an
integer of at least 1 (of at least 2 for ``formulas``), and ``--q``,
``--n`` and ``--piece`` take plain digits.  ``verify`` takes ``--n-max``
(at least 1), not ``--n``; ``audit`` needs an ``--n`` range that reaches
1.  Without ``--n``, ``fit`` and ``types`` count n = 1..2(2q+2)
(``types --moves``: 1..12(2q+2)); the fit tries periods 1, 2, ... until
one validates or a residue class runs short.
Counts and coefficients are printed exactly (integers and fraction
strings); reports are deterministic given the arguments and cache state.
Exit status: 0 all checks passed, 1 a check or fit failed (under every
command), the cache file holds two counts for one key, or stdout was
closed early, 2 usage error, 3 search budget exceeded (partial output
flagged).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from functools import partial
from typing import Optional

from .cache import ENV_VAR, CacheAccessError, CacheConflictError, CountCache
from .core import ALL_PIECE_SPECS, MoveSet, PartialQueenSpec, partial_queen
from .enumerator import DEFAULT_BUDGET, BudgetExceededError, sequence
from .quasipoly import FitError, QuasiPolynomial, evaluate, format_fraction
from . import formulas as fm
from .reports import (
    VERIFY_SCOPES,
    fitted_counts,
    formula_bank_rows,
    qp_str,
    render,
    run_verify,
    suite_audit,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

FORMATS = ("json", "csv", "latex", "text")


def _parse_piece(text: str) -> PartialQueenSpec:
    parts = text.split(",")
    if len(parts) != 2 or not all(map(_is_digits, parts)):
        raise argparse.ArgumentTypeError(f"bad --piece {text!r}: need H,K in plain digits")
    try:
        return PartialQueenSpec(int(parts[0]), int(parts[1]))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad --piece {text!r}: {err}")


def _parse_moves(text: str) -> MoveSet:
    try:
        return MoveSet.from_json(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad --moves {text!r}: {err}")


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, hi_s = text.split("..", 1) if ".." in text else (text, text)
    if not (_is_digits(lo_s) and _is_digits(hi_s)) or int(hi_s) < int(lo_s):
        raise argparse.ArgumentTypeError(f"bad --n range {text!r}: need LO..HI in plain digits, LO <= HI")
    return int(lo_s), int(hi_s)


def _parse_at_least(flag: str, least: int, text: str) -> int:
    if not _is_digits(text) or int(text) < least:
        raise argparse.ArgumentTypeError(f"bad {flag} {text!r}: need an integer >= {least}")
    return int(text)


def _piece(p: argparse.ArgumentParser) -> None:
    p.add_argument("--piece", type=_parse_piece, metavar="H,K",
                   help="piece with H orthogonal and K diagonal moves, e.g. 2,2")


def _rider(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    _piece(group)
    group.add_argument("--moves", type=_parse_moves, metavar="JSON",
                       help='explicit move list, e.g. "[[1,0],[1,2]]"')


def _q(p: argparse.ArgumentParser, least: int = 1) -> None:
    p.add_argument("--q", type=partial(_parse_at_least, "--q", least), default=2,
                   help=f"number of pieces, at least {least} (default 2)")


def _n(p: argparse.ArgumentParser, default: Optional[tuple[int, int]]) -> None:
    p.add_argument("--n", type=_parse_range, default=default, metavar="LO..HI",
                   help="board size range (single value allowed)")


def _budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=partial(_parse_at_least, "--budget", 1), default=DEFAULT_BUDGET,
                   help="node budget of the enumeration search, per board size (at least 1); "
                        "a node is a placement of 1 to q-1 nonattacking pieces, "
                        "one of them marked as the first")


def _cache_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", help=f"count cache path (default: ${ENV_VAR} if set)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqueens",
        description="Exact nonattacking-placement counts, quasipolynomial fits, and formula audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, *flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            flag(p)
        p.add_argument("--format", dest="fmt", default="text", choices=FORMATS,
                       help="output format")
        p.set_defaults(run=run)
        return p

    n_1_8 = partial(_n, default=(1, 8))
    n_auto = partial(_n, default=None)  # None: _fit picks the default range
    command("count", cmd_count, "oracle counts over a range of board sizes",
            _rider, _q, n_1_8, _budget, _cache_flag)
    command("fit", cmd_fit, "fit an exact quasipolynomial to oracle counts",
            _rider, _q, n_auto, _budget, _cache_flag)

    p_verify = command("verify", cmd_verify, "run a verification suite", _cache_flag)
    p_verify.add_argument("--scope", default="all", choices=VERIFY_SCOPES)
    p_verify.add_argument("--n-max", type=partial(_parse_at_least, "--n-max", 1), default=None,
                          help="board-size ceiling for oracle-backed checks")

    command("audit", cmd_audit, "brute-force every catalog case against its closed form",
            _piece, n_1_8)

    command("types", cmd_types, "combinatorial-type counts via the value at -1",
            _rider, _q, n_auto, _budget, _cache_flag)

    # the gamma expressions divide by (q-2)!, so the bank starts at two pieces
    command("formulas", cmd_formulas, "dump the formula bank for one piece", _piece, partial(_q, least=2))
    return parser


def _moves(args: argparse.Namespace) -> MoveSet:
    if args.moves is not None:
        return args.moves
    if args.piece is not None:
        return partial_queen(args.piece)
    raise ValueError("a piece (--piece or --moves) is required for this command")


def _cache(args: argparse.Namespace) -> Optional[CountCache]:
    path = os.environ.get(ENV_VAR) if args.cache is None else args.cache
    return CountCache(path) if path else None


def _fit(args: argparse.Namespace, classes: int) -> tuple[list, QuasiPolynomial]:
    """``fitted_counts`` over ``--n``; by default 2q+2 samples per residue
    class mod ``classes``."""
    n_lo, n_hi = args.n or (1, classes * (2 * args.q + 2))
    return fitted_counts(_moves(args), args.q, n_lo, n_hi,
                         budget=args.budget, cache=_cache(args))


def cmd_count(args: argparse.Namespace, out) -> int:
    try:
        samples = sequence(_moves(args), args.q, *args.n, budget=args.budget, cache=_cache(args))
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        if err.completed:
            rows = [(n, count, "partial") for n, count in err.completed]
            print(render(("n", "count", "status"), rows, args.fmt), file=out)
        return EXIT_BUDGET
    print(render(("n", "count"), samples, args.fmt), file=out)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace, out) -> int:
    samples, qp = _fit(args, 2)
    if args.fmt == "json":
        print(json.dumps(qp.to_json_dict(), sort_keys=True), file=out)
    else:
        rows = [
            ("period", str(qp.period)),
            ("degree", str(qp.degree)),
            ("quasipolynomial", qp_str(qp)),
            ("surplus validation", "passed on all %d samples" % len(samples)),
        ]
        print(render(("field", "value"), rows, args.fmt), file=out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out) -> int:
    claims = run_verify(args.scope, n_max=args.n_max, cache=_cache(args))
    rows = [("PASS" if c.passed else "FAIL", c.name, c.detail) for c in claims]
    print(render(("status", "claim", "detail"), rows, args.fmt), file=out)
    if args.fmt == "text":
        for c in claims:
            for note in c.notes:
                print(note, file=out)
    return EXIT_OK if all(c.passed for c in claims) else EXIT_FAIL


def cmd_audit(args: argparse.Namespace, out) -> int:
    pieces = (args.piece,) if args.piece is not None else ALL_PIECE_SPECS
    n_lo, n_hi = args.n
    if n_hi < 1:
        raise ValueError(f"audit needs a board size of at least 1, got --n {n_lo}..{n_hi}")
    _, records = suite_audit(max(1, n_lo), n_hi, pieces)
    headers = ("case", "h", "k", "n", "brute", "closed", "match")
    rows = [(r.case, r.h, r.k, r.n, r.brute, format_fraction(r.closed), r.match) for r in records]
    if args.fmt == "json":
        # keeps the JSON types of the values, where render() writes strings
        print(json.dumps([dict(zip(headers, row)) for row in rows], sort_keys=True), file=out)
    else:
        print(render(headers, rows, args.fmt), file=out)
    return EXIT_OK if all(r.match for r in records) else EXIT_FAIL


def cmd_types(args: argparse.Namespace, out) -> int:
    q = args.q
    _, qp = _fit(args, 2 if args.moves is None else 12)
    value = evaluate(qp, -1)
    rows = [("fitted period", str(qp.period)), ("value at -1", format_fraction(value))]
    ok = True
    if args.moves is not None:
        rows.append(("mode", "exploratory (not acceptance-gating)"))
        if q == 3:
            conj = fm.types3_conjecture(len(args.moves))
            rows.append(("conjecture value at |M|=%d" % len(args.moves), str(conj)))
            rows.append(("matches conjecture", str(value == conj)))
    else:
        h, k = args.piece.h, args.piece.k
        expected = fm.expected_types(h, k, q)
        if q == 2:
            rows.append(("expected (h+k)", str(expected)))
        elif q == 3:
            rows.append(("expected (type table)", str(expected)))
            rows.append(("conjecture value", str(fm.types3_conjecture(h + k))))
        if expected is not None:
            ok = value == expected
            rows.append(("match", str(ok)))
    print(render(("field", "value"), rows, args.fmt), file=out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_formulas(args: argparse.Namespace, out) -> int:
    if args.piece is None:
        raise ValueError("formulas needs --piece H,K")
    rows = formula_bank_rows(args.piece.h, args.piece.k, args.q)
    print(render(("quantity", "value"), rows, args.fmt), file=out)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args, sys.stdout)
        sys.stdout.flush()  # so a closed pipe surfaces here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader went away (``qqueens ... | head``): stop quietly.  Point
        # stdout at devnull so the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except FitError as err:
        print(f"fit failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    except CacheConflictError as err:
        print(f"cache conflict: {err}", file=sys.stderr)
        return EXIT_FAIL
    except CacheAccessError as err:
        print(f"error: cannot open --cache {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
