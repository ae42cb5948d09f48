"""The ground-truth oracle: exhaustive placement and lattice-point counters.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .core import Move, MoveSet, is_multiple

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


def _line_count_through(x: int, y: int, slope: Move, n: int) -> int:
    """Number of board points of the form (x, y) + t*slope, t any integer."""
    lo, hi = None, None

    def clamp(p: int, step: int) -> tuple[Optional[int], Optional[int]]:
        if step == 0:
            return None, None
        a, b = 1 - p, n - p
        if step > 0:
            return -((-a) // step), b // step
        return -((-b) // step), a // step

    for p, step in ((x, slope.c), (y, slope.d)):
        l, h = clamp(p, step)
        if l is not None:
            lo = l if lo is None else max(lo, l)
            hi = h if hi is None else min(hi, h)
    if lo is None:
        raise ValueError("zero slope vector")
    return max(0, hi - lo + 1)


def _line_points_through(x: int, y: int, slope: Move, n: int) -> Iterator[tuple[int, int]]:
    for sign in (1, -1):
        t = 0 if sign == 1 else -1
        while True:
            px, py = x + t * slope.c, y + t * slope.d
            if not (1 <= px <= n and 1 <= py <= n):
                break
            yield (px, py)
            t += sign


def count_pattern(pat: ConstraintPattern, n: int) -> int:
    """Exact number of ordered tuples of board squares satisfying the pattern.

    Constraint components are enumerated independently and the component
    counts multiplied; inside a component each piece after the first is
    generated from one constraint to an already-placed piece and filtered
    by the others, and a final single-constraint piece is counted
    arithmetically instead of enumerated.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    edges: dict[int, list[Constraint]] = {i: [] for i in range(1, pat.piece_count + 1)}
    for c in pat.constraints:
        edges[c.i].append(c)
        edges[c.j].append(c)

    seen: set[int] = set()
    total = 1
    for root in range(1, pat.piece_count + 1):
        if root in seen:
            continue
        order: list[int] = [root]
        seen.add(root)
        frontier = [root]
        while frontier:
            cur = frontier.pop(0)
            for c in edges[cur]:
                other = c.j if c.i == cur else c.i
                if other not in seen:
                    seen.add(other)
                    order.append(other)
                    frontier.append(other)
        total *= _count_component(order, edges, n)
        if total == 0:
            return 0
    return total


def _count_component(order: list[int], edges: dict[int, list[Constraint]], n: int) -> int:
    placed_rank = {p: r for r, p in enumerate(order)}

    def back_constraints(piece: int) -> list[tuple[Constraint, int]]:
        out = []
        for c in edges[piece]:
            other = c.j if c.i == piece else c.i
            if other in placed_rank and placed_rank[other] < placed_rank[piece]:
                out.append((c, other))
        return out

    backs = {p: back_constraints(p) for p in order}

    def satisfies(c: Constraint, pos_new: tuple[int, int], pos_old: tuple[int, int]) -> bool:
        dx, dy = pos_new[0] - pos_old[0], pos_new[1] - pos_old[1]
        if isinstance(c, Equal):
            return (dx, dy) == (0, 0)
        return is_multiple(dx, dy, c.slope)

    count = 0
    positions: dict[int, tuple[int, int]] = {}
    last = order[-1]

    def place(rank: int) -> None:
        nonlocal count
        piece = order[rank]
        cons = backs[piece]
        if rank == 0:
            if len(order) == 1:
                count += n * n
                return
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    positions[piece] = (x, y)
                    place(1)
            return
        anchor_c, anchor = cons[0]
        ax, ay = positions[anchor]
        if piece == last and len(cons) == 1:
            if isinstance(anchor_c, Equal):
                count += 1
            else:
                count += _line_count_through(ax, ay, anchor_c.slope, n)
            return
        if isinstance(anchor_c, Equal):
            candidates: Iterable[tuple[int, int]] = ((ax, ay),)
        else:
            candidates = _line_points_through(ax, ay, anchor_c.slope, n)
        rest = cons[1:]
        for pos in candidates:
            if all(satisfies(c, pos, positions[other]) for c, other in rest):
                positions[piece] = pos
                if rank + 1 == len(order):
                    count += 1
                else:
                    place(rank + 1)
        return

    place(0)
    return count


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
