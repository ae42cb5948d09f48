"""Shared helpers: a transparent brute-force oracle independent of the fast paths."""

import gc
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from qqueens.cache import CacheConflictError
from qqueens.core import Move, MoveSet


class Square(NamedTuple):
    """A board square with 1-based coordinates."""

    x: int
    y: int


def is_multiple(dx: int, dy: int, m: Move) -> bool:
    """True when ``(dx, dy)`` equals ``t * (m.c, m.d)`` for some integer t (t=0 allowed)."""
    if m.c == 0:
        # canonical vertical move is (0, 1)
        return dx == 0
    if dx % m.c != 0:
        return False
    return dy == (dx // m.c) * m.d


def attacks(moves: MoveSet, a: Square, b: Square) -> bool:
    """Whether pieces on ``a`` and ``b`` attack each other.

    Coincident squares always attack.
    """
    dx, dy = b.x - a.x, b.y - a.y
    if (dx, dy) == (0, 0):
        return True
    return any(is_multiple(dx, dy, m) for m in moves)


def naive_count_unlabelled(moves: MoveSet, q: int, n: int) -> int:
    """Check every q-combination of squares against the attack predicate."""
    squares = [Square(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    total = 0
    for combo in itertools.combinations(squares, q):
        ok = True
        for a, b in itertools.combinations(combo, 2):
            if attacks(moves, a, b):
                ok = False
                break
        if ok:
            total += 1
    return total


def naive_count_labelled(moves: MoveSet, q: int, n: int) -> int:
    """Ordered tuples of distinct squares, pairwise nonattacking."""
    squares = [Square(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    total = 0
    for combo in itertools.permutations(squares, q):
        ok = True
        for a, b in itertools.combinations(combo, 2):
            if attacks(moves, a, b):
                ok = False
                break
        if ok:
            total += 1
    return total


def naive_board_lines(slope, n: int) -> tuple[tuple[int, ...], ...]:
    """The maximal lines of one slope on the n x n board, single squares
    included, as the indices (y-1)*n + (x-1) of their squares: a walk from
    every square whose step back leaves the board, in row-major order."""
    lines = []
    for y0 in range(n):
        for x0 in range(n):
            if 0 <= x0 - slope.c < n and 0 <= y0 - slope.d < n:
                continue  # not the first square of its line
            x, y, squares = x0, y0, []
            while 0 <= x < n and 0 <= y < n:
                squares.append(y * n + x)
                x, y = x + slope.c, y + slope.d
            lines.append(tuple(squares))
    return tuple(lines)


def naive_cache_load(path) -> dict:
    """The count cache's entries as a fresh line-by-line parse reads them:
    every line decoded, parsed and checked anew, corrupt lines skipped with
    ``CountCache``'s warning, a conflicting count raising its
    ``CacheConflictError``.  A path that does not exist holds no entries."""
    entries, first_line, move_keys = {}, {}, {}
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return entries
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                pairs = tuple(map(tuple, obj["moves"]))
                if not all(type(x) is int for pair in pairs for x in pair):
                    raise ValueError(f"moves {obj['moves']} have a non-integer component")
                moves_key = move_keys.get(pairs)
                if moves_key is None:
                    moves_key = move_keys[pairs] = MoveSet.from_pairs(pairs).canonical_key()
                q, n, count = obj["q"], obj["n"], obj["count"]
                if type(q) is not int or type(n) is not int:
                    raise ValueError(f"q {q!r} and n {n!r} must be integers")
                if not (isinstance(count, str) and count.isascii() and count.isdigit()):
                    raise ValueError(f"count {count!r} is not a decimal string")
                key = (moves_key, q, n)
                count = int(count)
            except (ValueError, KeyError, TypeError) as err:
                print(f"warning: skipping corrupt cache line {lineno} in {path}: {err}", file=sys.stderr)
                continue
            known = entries.setdefault(key, count)
            first = first_line.setdefault(key, lineno)
            if known != count:
                raise CacheConflictError(
                    f"{path}: moves {[list(cd) for cd in key[0]]}, q={q}, n={n} "
                    f"has count {known} on line {first} and {count} on line {lineno}"
                )
    return entries


def naive_count_pattern(pattern, n: int) -> int:
    """Every constrained tuple of squares, enumerated one piece at a time.
    Pieces are placed in the order the constraints name them, unconstrained
    ones last, and each constraint is checked once both its pieces are
    placed, so a tuple that breaks one is cut off there."""
    from qqueens.enumerator import Collinear

    squares = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    named = [p for c in pattern.constraints for p in (c.i, c.j)]
    order = list(dict.fromkeys(named + list(range(1, pattern.piece_count + 1))))
    at = {piece: t for t, piece in enumerate(order)}
    # closing[t]: the constraints whose later piece is the t-th placed, each as
    # the place of its earlier piece and its slope (None for Equal)
    closing = [[] for _ in order]
    for c in pattern.constraints:
        first, second = sorted((at[c.i], at[c.j]))
        closing[second].append((first, c.slope if isinstance(c, Collinear) else None))
    placed = [None] * len(order)
    last = len(order) - 1

    def extend(t: int) -> int:
        total = 0
        for x, y in squares:
            for other, slope in closing[t]:
                ox, oy = placed[other]
                if (x, y) != (ox, oy) if slope is None else not is_multiple(x - ox, y - oy, slope):
                    break
            else:
                placed[t] = (x, y)
                total += 1 if t == last else extend(t + 1)
        return total

    return extend(0)


def naive_canonical_components(pat):
    """``enumerator.canonical_components`` as first written: Equal contracted,
    then each component's least sorted (i, j, c, d) list over every element
    of D4 applied to its slopes (each image a validated ``Move``) and every
    degree-ordered relabelling of its own pieces, each component as its
    (k, form) pair, the pairs sorted."""
    from qqueens.enumerator import D4, Collinear, Equal

    def image(g, m):
        a, b, c, d = g
        return Move.from_vector(a * m.c + b * m.d, c * m.c + d * m.d)

    def linked(constraints):
        out = {p: {p} for c in constraints for p in (c.i, c.j)}
        for c in constraints:
            merged = out[c.i] | out[c.j]
            for p in merged:
                out[p] = merged
        return out

    same = linked([c for c in pat.constraints if isinstance(c, Equal)])
    least = {p: min(same.get(p, (p,))) for p in range(1, pat.piece_count + 1)}
    mapped = ((c, sorted((least[c.i], least[c.j]))) for c in pat.constraints if isinstance(c, Collinear))
    constraints = list(dict.fromkeys(Collinear(i, j, c.slope) for c, (i, j) in mapped if i < j))
    component_of = linked(constraints)
    forms = []
    for component in {frozenset(pieces) for pieces in component_of.values()}:
        own = [c for c in constraints if c.i in component]
        degree = {p: sum(p in (c.i, c.j) for c in own) for p in component}
        groups = [sorted(p for p in component if degree[p] == d) for d in sorted(set(degree.values()))]
        labellings = [
            {p: label for label, p in enumerate(itertools.chain.from_iterable(order), 1)}
            for order in itertools.product(*map(itertools.permutations, groups))
        ]
        ends = [(c.i, c.j) for c in own]
        forms.append((len(component), min(
            tuple(sorted(
                (label[i], label[j], m.c, m.d) if label[i] < label[j] else (label[j], label[i], m.c, m.d)
                for (i, j), m in zip(ends, images)
            ))
            for images in ([image(g, c.slope) for c in own] for g in D4)
            for label in labellings
        )))
    return len(set(least.values())) - len(component_of), tuple(sorted(forms))


def form_pattern(k, form):
    """The pattern on pieces 1..k with the constraints (i, j, c, d) of a
    canonical form, for the naive counter."""
    from qqueens.enumerator import Collinear, ConstraintPattern

    return ConstraintPattern(k, tuple(Collinear(i, j, Move(c, d)) for i, j, c, d in form))


def naive_fit(samples, degree, period):
    """``quasipoly.fit`` by dense Gauss-Jordan elimination over ``Fraction``s.

    The unknowns are the coefficients c[k, r mod period[k]], in sorted
    order.  Samples are taken in increasing n; one whose row is a
    combination of the earlier rows is a check of its residue class mod
    L = lcm(periods), and the first check whose value differs from the
    combination's is the failure.  Returns the quasipolynomial, or the
    exception ``fit`` should raise: ``InsufficientSamplesError`` when a
    class mod L has no check or an unknown of it no pivot, else
    ``InconsistentSamplesError`` at the first failed check.
    """
    from qqueens.quasipoly import (
        InconsistentSamplesError,
        InsufficientSamplesError,
        Polynomial,
        QuasiPolynomial,
    )

    periods = [period] * (degree + 1) if isinstance(period, int) else list(period)
    big = math.lcm(*periods)
    columns = [(k, r) for k, p in enumerate(periods) for r in range(p)]
    reduced = []  # [pivot index, row, value], each row 1 at its pivot and 0 at every other pivot
    checked, failed = set(), None
    for n, value in sorted(samples):
        row = [Fraction(n**k if n % periods[k] == r else 0) for k, r in columns]
        rhs = Fraction(value)
        for pivot, other, other_rhs in reduced:
            factor = row[pivot]
            row = [a - factor * b for a, b in zip(row, other)]
            rhs -= factor * other_rhs
        lead = next((i for i, a in enumerate(row) if a), None)
        if lead is None:
            checked.add(n % big)
            if rhs and failed is None:
                failed = InconsistentSamplesError(n, Fraction(value) - rhs, Fraction(value))
            continue
        row, rhs = [a / row[lead] for a in row], rhs / row[lead]
        for entry in reduced:
            factor = entry[1][lead]
            entry[1] = [a - factor * b for a, b in zip(entry[1], row)]
            entry[2] -= factor * rhs
        reduced.append([lead, row, rhs])

    solved = {columns[pivot]: rhs for pivot, _, rhs in reduced}
    for r in range(big):
        if r not in checked or any((k, r % p) not in solved for k, p in enumerate(periods)):
            return InsufficientSamplesError(f"residue class {r} mod {big}")
    if failed is not None:
        return failed
    return QuasiPolynomial.make(
        Polynomial.make(solved[k, r % p] for k, p in enumerate(periods)) for r in range(big)
    )


def naive_poly(coeffs) -> tuple:
    """A polynomial as the plain tuple of its ``Fraction`` coefficients,
    indexed by power, with no trailing zero: the oracle of ``Polynomial``."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def naive_poly_add(a: tuple, b: tuple) -> tuple:
    return naive_poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(max(len(a), len(b))))


def naive_poly_scale(a: tuple, factor) -> tuple:
    return naive_poly(c * factor for c in a)


def naive_poly_mul(a: tuple, b: tuple) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return naive_poly(out)


def naive_poly_value(a: tuple, x) -> Fraction:
    value = Fraction(0)
    for c in reversed(a):
        value = value * x + c
    return value


def cyclic_garbage(call) -> list:
    """The objects that only the cyclic collector would free after ``call()``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
