"""The ground-truth counters: nonattacking placements by exhaustive search,
and the lattice points of constraint patterns by folding per-square tables
(see ``count_pattern``).

Everything here is exact integer counting.  ``count_unlabelled`` rests on two
identities.

* Line occupancy.  Two distinct squares lie on at most one common attack
  line, so the nonattacking pairs inside a set S number
  C(|S|, 2) - sum over lines L of C(|S & L|, 2).  That is one popcount per
  board line (about 6n for the queen) in place of a loop over S, so the last
  two pieces cost one leaf evaluation, and q = 2 is read off the full board.
* Board symmetry.  Each nonattacking q-set is counted once from each of its
  squares, so u(q) = (1/q) sum_s N_{q-1}(T_s), where T_s holds the squares
  that s does not attack and N_k counts nonattacking k-subsets.  A symmetry
  of the board that maps the move set to itself maps T_s onto T_{g(s)}, so
  one square per orbit, weighted by the orbit's size, stands for the orbit.
  The subgroup of the dihedral group that qualifies is computed from the
  moves.

Between the first piece and the last two, squares are taken in increasing
index order and pruned with per-square attack bitsets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .core import Move, MoveSet

DEFAULT_BUDGET = 10**9


class BudgetExceededError(Exception):
    """A search visited more nodes than its budget allows.

    The budget applies to each board size on its own (one call of
    ``count_unlabelled``), never to a run over several sizes.  A node is a
    partial placement the search stands for: a nonattacking set of 1 to q - 1
    pieces with one of them marked as the first, so counting q pieces on the
    n x n board takes sum_{j<q} j * u(j; n) nodes.  ``completed`` holds the
    records ``sequence`` finished before the budget ran out.
    """

    def __init__(self, nodes: int, budget: int, completed: tuple[CountRecord, ...] = ()):
        self.nodes = nodes
        self.budget = budget
        self.completed = completed
        detail = f"visited {nodes} partial placements (budget {budget} per board size)"
        if completed:
            detail += f"; last completed board size n={completed[-1].n}"
        super().__init__(detail)

    @property
    def last_completed_n(self) -> Optional[int]:
        return self.completed[-1].n if self.completed else None


@dataclass(frozen=True)
class AttackTable:
    """The attack lines of the n x n board and, per square, the bitset of the
    squares it attacks (itself included).  Square (x, y) has bit (y-1)*n + (x-1).

    ``lines`` holds each maximal line of two or more squares along a move;
    ``masks[i]`` is square i together with the union of the lines through it.
    """

    board_size: int
    masks: tuple[int, ...]
    lines: tuple[int, ...]

    @classmethod
    def build(cls, moves: MoveSet, n: int) -> "AttackTable":
        masks = [1 << i for i in range(n * n)]
        lines = []
        for m in moves:
            for squares in _board_lines(m, n):
                if len(squares) > 1:
                    line = sum(1 << i for i in squares)
                    lines.append(line)
                    for i in squares:
                        masks[i] |= line
        return cls(n, tuple(masks), tuple(lines))


def _board_lines(slope: Move, n: int) -> Iterator[list[int]]:
    """The maximal lines of the given slope on the n x n board, each as the
    indices (y-1)*n + (x-1) of its squares."""
    for y0 in range(n):
        for x0 in range(n):
            if 0 <= x0 - slope.c < n and 0 <= y0 - slope.d < n:
                continue  # not the first square of its line
            x, y, squares = x0, y0, []
            while 0 <= x < n and 0 <= y < n:
                squares.append(y * n + x)
                x, y = x + slope.c, y + slope.d
            yield squares


# The eight symmetries of the square board as signed 2x2 matrices (a, b, c, d),
# acting as (u, v) -> (a*u + b*v, c*u + d*v) about the board's centre.
D4 = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0),
)


def symmetry_group(moves: MoveSet) -> tuple[tuple[int, int, int, int], ...]:
    """The elements of D4 that map the move set onto itself, slope for slope."""
    return tuple(
        (a, b, c, d) for a, b, c, d in D4
        if all(Move.from_vector(a * m.c + b * m.d, c * m.c + d * m.d) in moves for m in moves)
    )


def _orbits(group: tuple[tuple[int, int, int, int], ...], n: int) -> list[tuple[int, int]]:
    """(lowest square, orbit size) for each orbit of the group on the n x n board."""
    seen: set[int] = set()
    out = []
    for i in range(n * n):
        if i in seen:
            continue
        y, x = divmod(i, n)
        u, v = 2 * x - n + 1, 2 * y - n + 1  # twice the offset from the centre
        orbit = {
            (c * u + d * v + n - 1) // 2 * n + (a * u + b * v + n - 1) // 2
            for a, b, c, d in group
        }
        seen |= orbit
        out.append((i, len(orbit)))
    return out


def count_unlabelled(moves: MoveSet, q: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of q-subsets of distinct squares of the n x n board, pairwise nonattacking.

    Raises ``BudgetExceededError`` once the search passes ``budget`` nodes
    (see there for what a node is).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n == 0:
        return 0
    if q == 1:
        return n * n
    size = n * n
    full = (1 << size) - 1
    table = AttackTable.build(moves, n)
    # ok[i]: higher-indexed squares neither equal to nor attacked by square i
    ok = [~table.masks[i] & (full >> (i + 1) << (i + 1)) for i in range(size)]
    # Lines in order of their highest square, so the lines that can meet a set
    # whose lowest square is i are lines[start[i]:].
    lines = sorted(table.lines, key=int.bit_length)
    start, j = [], 0
    for i in range(size):
        while j < len(lines) and lines[j].bit_length() <= i:
            j += 1
        start.append(j)
    twice_c2 = [j * (j - 1) for j in range(n + 1)]  # 2 * C(j, 2); no line is longer than n
    nodes = 0
    weight = 1  # size of the first square's orbit: every node found stands for this many

    def pairs(allowed: int) -> int:
        """Nonattacking 2-subsets of ``allowed``, by line occupancy."""
        nonlocal nodes
        k = allowed.bit_count()
        nodes += weight * k  # the second pieces a loop over ``allowed`` would place
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)
        if k < 2:
            return 0
        low = (allowed & -allowed).bit_length() - 1
        on_lines = map(int.bit_count, map(allowed.__and__, lines[start[low]:]))
        return (k * (k - 1) - sum(map(twice_c2.__getitem__, on_lines))) // 2

    def subsets(allowed: int, k: int) -> int:
        """Nonattacking k-subsets of ``allowed`` (k >= 2), lowest square first."""
        nonlocal nodes
        if k == 2:
            return pairs(allowed)
        total = 0
        m = allowed
        while m:
            lsb = m & -m
            m ^= lsb
            nodes += weight
            rest = m & ok[lsb.bit_length() - 1]
            if rest:
                total += subsets(rest, k - 1)
        return total

    if q == 2:
        return pairs(full)
    total = 0
    for s, weight in _orbits(symmetry_group(moves), n):
        nodes += weight
        total += weight * subsets(full & ~table.masks[s], q - 1)
    if total % q:
        raise RuntimeError(
            f"orbit-weighted sum {total} for q={q}, n={n} is not divisible by q"
        )
    return total // q


def count_labelled(moves: MoveSet, q: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of nonattacking placements of q labelled pieces: q! times the unlabelled count."""
    return math.factorial(q) * count_unlabelled(moves, q, n, budget=budget)


def alpha_pairs(slope: Move, n: int) -> int:
    """Ordered pairs of squares that attack each other along one slope
    (coincident pairs included): the sum of squared line lengths."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(len(line) ** 2 for line in _board_lines(slope, n))


def beta_triples(slope: Move, n: int) -> int:
    """Ordered triples of squares collinear along one slope (coincidences
    allowed): the sum of cubed line lengths."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(len(line) ** 3 for line in _board_lines(slope, n))


@dataclass(frozen=True)
class Collinear:
    """Pieces i and j lie on a common line of the given slope (possibly coincident)."""

    i: int
    j: int
    slope: Move


@dataclass(frozen=True)
class Equal:
    """Pieces i and j occupy the same square."""

    i: int
    j: int


Constraint = Union[Collinear, Equal]


@dataclass(frozen=True)
class ConstraintPattern:
    """A placement pattern on ``piece_count`` pieces; counting it means counting
    ordered tuples of squares (repetition allowed) meeting every constraint."""

    piece_count: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("pattern needs at least one constraint")
        for c in self.constraints:
            if not (1 <= c.i < c.j <= self.piece_count):
                raise ValueError(f"constraint indices {(c.i, c.j)} out of range")

    def relabelled(self, perm: dict[int, int]) -> "ConstraintPattern":
        """Apply a piece permutation consistently to every constraint."""
        out: list[Constraint] = []
        for c in self.constraints:
            i, j = perm[c.i], perm[c.j]
            if i > j:
                i, j = j, i
            if isinstance(c, Collinear):
                out.append(Collinear(i, j, c.slope))
            else:
                out.append(Equal(i, j))
        return ConstraintPattern(self.piece_count, tuple(out))


def pattern(piece_count: int, *constraints: Constraint) -> ConstraintPattern:
    return ConstraintPattern(piece_count, tuple(constraints))


def count_pattern(pat: ConstraintPattern, n: int) -> int:
    """Exact number of ordered tuples of board squares satisfying the pattern.

    Each piece carries a table over the n^2 squares, all ones at the start:
    the number of ways to place the pieces folded into it so far, given the
    square it stands on.  Pieces are taken fewest constraints first.  One
    with no constraint left multiplies the total by the sum of its table.
    One with a single constraint left folds its table into the other piece:
    an ``Equal`` passes the table on unchanged, a ``Collinear`` gives each
    square the sum of the table over that square's line of the slope.  One
    with two or more (only cycles and repeated pairs leave such a piece) is
    fixed on each square in turn; carrying a one-hot table across each of
    its constraints restricts its neighbours, and the rest is folded the
    same way.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lines = {
        c.slope: list(_board_lines(c.slope, n)) for c in pat.constraints if isinstance(c, Collinear)
    }

    def carry(table: list[int], piece: int, c: Constraint, tables: dict[int, list[int]]) -> None:
        """Multiply the table of the piece at c's other end by ``table`` carried across c."""
        if isinstance(c, Collinear):
            on_lines = [0] * len(table)
            for line in lines[c.slope]:
                on_line = sum(table[i] for i in line)
                for i in line:
                    on_lines[i] = on_line
            table = on_lines
        other = c.i + c.j - piece
        tables[other] = list(map(operator.mul, tables[other], table))

    def fold(tables: dict[int, list[int]], constraints: list[Constraint]) -> int:
        total = 1
        while tables:
            piece = min(tables, key=lambda p: sum(p in (c.i, c.j) for c in constraints))
            own = [c for c in constraints if piece in (c.i, c.j)]
            constraints = [c for c in constraints if piece not in (c.i, c.j)]
            table = tables.pop(piece)
            if not own:
                total *= sum(table)
            elif len(own) == 1:
                carry(table, piece, own[0], tables)
            else:
                fixed = 0
                for s, ways in enumerate(table):
                    if not ways:
                        continue
                    one_hot = [0] * len(table)
                    one_hot[s] = 1
                    rest = dict(tables)
                    for c in own:
                        carry(one_hot, piece, c, rest)
                    fixed += ways * fold(rest, constraints)
                return total * fixed
        return total

    return fold({p: [1] * (n * n) for p in range(1, pat.piece_count + 1)}, list(pat.constraints))


@dataclass(frozen=True)
class CountRecord:
    """One oracle output: the exact count for (piece, q, n)."""

    moves: MoveSet
    q: int
    n: int
    count: int


def sequence(
    moves: MoveSet,
    q: int,
    n_lo: int,
    n_hi: int,
    budget: int = DEFAULT_BUDGET,
    cache: Optional["CountCache"] = None,
) -> list[CountRecord]:
    """Oracle counts for each n in [n_lo, n_hi], cache-aware and deterministic.

    A budget error propagates with the records completed before it attached.
    """
    if n_lo > n_hi:
        raise ValueError("empty range")
    records = []
    for n in range(n_lo, n_hi + 1):
        cached = cache.get(moves, q, n) if cache is not None else None
        if cached is not None:
            value = cached
        else:
            try:
                value = count_unlabelled(moves, q, n, budget=budget)
            except BudgetExceededError as err:
                raise BudgetExceededError(err.nodes, err.budget, tuple(records)) from err
            if cache is not None:
                cache.put(CountRecord(moves, q, n, value))
        records.append(CountRecord(moves, q, n, value))
    return records
