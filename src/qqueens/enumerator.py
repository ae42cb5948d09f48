"""The ground-truth counters: nonattacking placements by exhaustive search,
and the lattice points of constraint patterns by folding per-square tables
(see ``count_pattern``).

Everything here is exact integer counting.  ``count_unlabelled`` rests on two
identities.

* The attack graph of a set S.  Two distinct squares lie on at most one
  common attack line.  With N = |S|, c_L = |S & L| for each line L and
  E = sum_L C(c_L, 2) attacking pairs, the nonattacking pairs in S number
  C(N, 2) - E.  Inclusion-exclusion over the attack graph gives the
  nonattacking triples as C(N, 3) - E (N - 2) + sum_v C(deg v, 2) minus the
  triangles.  A triangle's sides lie on one line or on three distinct
  slopes, and sum_v C(deg v, 2) = 3 sum_L C(c_L, 3) + X, where X sums
  (c_L - 1)(c_L' - 1) over the pairs of lines through each square of S.
  So the triples number C(N, 3) - E (N - 2) + 2 sum_L C(c_L, 3) + X - T,
  where T counts the triangles on three distinct slopes.  For each triple
  of slopes those are two primitive triangles scaled by l = 1, 2, ...
  (``_primitive_triangles``, one table per move set that both paths below
  read).

  For q = 2 and q = 3 S is the full board, c_L is the length of L, and the
  count is arithmetic plus C-level list operations (``_pairs_and_triples``).
  Two squares l steps apart along the slope (c, d), or the ends of l - 1
  collinear triples, span a box |c| l wide and |d| l high, which has
  (n - l |c|)(n - l |d|) places; so do the copies of a primitive triangle
  w wide and h high at scale l, with w and h for |c| and |d|.  So E,
  sum_L C(c_L, 3) and T are read off the power sums of l (``box_sums``)
  and walk no line.  The attack-line claims of ``reports`` read the same
  per-slope sums.  X sums e_s(v) e_s'(v) over the pairs of slopes s, s'
  and the squares v, where the excess e_s(v) is the length of v's line of
  slope s minus 1, and sum_v e_s(v) = 2 E_s.  An orthogonal slope has
  excess o = n - 1 on every square, so a pair of two adds N o^2 and a pair
  of one and another slope s' adds 2 o E_s'.  The pairs of oblique slopes
  (c and d both nonzero) read one per-square excess table per slope
  (``_excess``): with r the sum of those tables they add
  (sum_v r(v)^2 - sum_s sum_v e_s(v)^2) / 2, where
  sum_v e_s(v)^2 = sum_L c_L (c_L - 1)^2 = 6 sum_L C(c_L, 3) + 2 E_s.

  For q >= 4 the leaf reads deg v off S & (attack mask of v), one popcount
  per square, C(c_L, j) off one popcount per board line (about 6n for the
  queen) and T off one big-integer AND of shifted copies of S per scaled
  triangle (``_triangle_shapes``), so the last three pieces cost one leaf
  evaluation.  The attack masks and the leaf serve q >= 4 only.
* Board symmetry.  Each nonattacking q-set is counted once from each of its
  squares, so u(q) = (1/q) sum_s N_{q-1}(T_s), where T_s holds the squares
  that s does not attack and N_k counts nonattacking k-subsets.  A symmetry
  of the board that maps the move set to itself maps T_s onto T_{g(s)}, so
  one square per orbit, weighted by the orbit's size, stands for the orbit.
  The subgroup of the dihedral group that qualifies is computed from the
  moves.

For q >= 5, squares between the first piece and the last three are taken in
increasing index order and pruned with per-square attack bitsets.  The
search counts placements and nothing else: the nodes a count of q pieces
takes, sum_{j<q} j * u(j; n), are known from the lower counts before it
starts, so ``count_unlabelled`` refuses a count over budget up front.

``count_pattern`` counts the ordered tuples of squares that meet a pattern.
Pieces that must share a square (an ``Equal``, or two slopes on one pair)
are contracted into one, and the count is the product of the counts of the
components of the ``Collinear`` graph left, n^2 per unconstrained piece.  Each
component is counted in a canonical form, the least constraint list over the
relabellings of its pieces and the eight board symmetries applied to its
slopes, so isomorphic components share one count per n.  A form is plain
ints, (k, ((i, j, c, d), ...)), worked out once per component shape, so the
side-by-side products of the audit reuse their factors' forms, and it is all
the count reads.  Each form has one fold plan (``fold.plan``), made the
first time the form is counted and the same for every n: the order its
pieces are folded in, which constraint carries each piece into which, and
which piece of a cycle is fixed.  ``fold.run`` carries it out on dense
per-square tables.  A carry is one sum per line of the slope (a C-level
slice sum) and one scatter of those sums onto the other piece's squares;
the last constraint of a component closes as the dot product of both
tables' sums per line.  A piece on a cycle is fixed on one square at a
time, which keeps each neighbour to the line through that square.  Each
neighbour is split by its lines once, so the sums of one part serve every
square fixed on its line.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from . import fold
from .core import Move, MoveSet

DEFAULT_BUDGET = 10**9


class BudgetExceededError(Exception):
    """A count needs more nodes than its budget allows.

    The budget applies to each board size on its own (one call of
    ``count_unlabelled``), never to a run over several sizes.  A node is a
    partial placement the search stands for: a nonattacking set of 1 to q - 1
    pieces with one of them marked as the first, so counting q pieces on the
    n x n board takes sum_{j<q} j * u(j; n) nodes, whatever the algorithm.
    ``nodes`` is that sum up to the first j at which it passes the budget.
    ``completed`` holds the (n, count) samples ``sequence`` finished before
    the budget ran out.
    """

    def __init__(self, nodes: int, budget: int, completed: tuple[tuple[int, int], ...] = ()):
        self.nodes = nodes
        self.budget = budget
        self.completed = completed
        detail = f"needs at least {nodes} partial placements (budget {budget} per board size)"
        if completed:
            detail += f"; last completed board size n={completed[-1][0]}"
        super().__init__(detail)


@dataclass(frozen=True)
class AttackTable:
    """The attack lines of the n x n board and, per square, the bitset of the
    squares it attacks (itself included).  Square (x, y) has bit (y-1)*n + (x-1).

    ``lines`` holds each maximal line of two or more squares along a move;
    ``masks[i]`` is square i together with the union of the lines through it.
    """

    masks: tuple[int, ...]
    lines: tuple[int, ...]

    @classmethod
    def build(cls, moves: MoveSet, n: int) -> "AttackTable":
        masks = [1 << i for i in range(n * n)]
        lines = []
        for m in moves:
            for squares in _board_lines(m.c, m.d, n):
                if len(squares) > 1:
                    line = _line_mask(squares)
                    lines.append(line)
                    for i in squares:
                        masks[i] |= line
        return cls(tuple(masks), tuple(lines))


def _line_mask(squares: range) -> int:
    """The bitset of a line's squares: a base-2^step repunit of one digit per
    square, shifted to the lowest square (the range may step downwards)."""
    step = abs(squares.step)
    return ((1 << step * len(squares)) - 1) // ((1 << step) - 1) << min(squares[0], squares[-1])


def _board_lines(c: int, d: int, n: int) -> list[range]:
    """The maximal lines of the slope (c, d) on the n x n board, single squares
    included, each as the range of the indices (y-1)*n + (x-1) of its squares,
    in the order of their first squares.

    A line starts where a step back leaves the board: on every square of a
    row that a step back leaves vertically, else on the row's first min(c, n)
    squares (c >= 0 for a canonical move).  Its length is 1 + the fewest
    steps from there to the board's edge, and its index step is d*n + c.
    That step is 0 only for (n, -1), whose lines are single squares."""
    step = d * n + c or 1
    lines = []
    for y0 in range(n):
        y_steps = (n - 1 - y0) // d if d > 0 else y0 // -d if d else n
        for x0 in range(min(c, n)) if 0 <= y0 - d < n else range(n):
            first = y0 * n + x0
            length = 1 + min((n - 1 - x0) // c if c else n, y_steps)
            lines.append(range(first, first + length * step, step))
    return lines


# The eight symmetries of the square board as signed 2x2 matrices (a, b, c, d),
# acting as (u, v) -> (a*u + b*v, c*u + d*v) about the board's centre.
D4 = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0),
)


def _slope_image(g: tuple[int, int, int, int], c: int, d: int) -> tuple[int, int]:
    """The slope (c, d) after the board symmetry g, as the sign-canonical pair
    ``Move`` holds."""
    a, b, e, f = g
    x, y = a * c + b * d, e * c + f * d
    return (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)


def symmetry_group(moves: MoveSet) -> tuple[tuple[int, int, int, int], ...]:
    """The elements of D4 that map the move set onto itself, slope for slope."""
    slopes = set(moves.canonical_key())
    return tuple(g for g in D4 if all(_slope_image(g, c, d) in slopes for c, d in slopes))


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


@functools.cache
def _primitive_triangles(key: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
    """One (y1, x1, y2, x2, lo, w, h) per primitive triangle whose sides lie
    on three distinct slopes of the move set with the canonical key ``key``,
    two per triple of slopes, worked out once per key.

    For slopes a, b, c, with s = (b x c)/g and t = (a x c)/g (g their gcd),
    s*a - t*b is a multiple of c, so P, P + l*s*a and P + l*t*b (l != 0) is
    such a triangle, and each one arises from exactly one (P, l): P is the
    vertex where its a and b sides meet.  The one at l is the primitive one
    at l = 1 or -1 scaled by |l|.  Its other vertices lie (x1, y1) and
    (x2, y2) from its lowest-indexed one, the anchor, which lies lo columns
    right of the left edge of the triangle's box, w wide and h high.
    """
    out = []
    for (ax, ay), (bx, by), (cx, cy) in itertools.combinations(key, 3):
        bxc, axc = bx * cy - by * cx, ax * cy - ay * cx
        g = math.gcd(bxc, axc)
        s, t = bxc // g, axc // g
        for l in (1, -1):
            # the vertices as (y, x), so that sorting puts them in index order
            (y0, x0), (y1, x1), (y2, x2) = sorted([(0, 0), (l * s * ay, l * s * ax), (l * t * by, l * t * bx)])
            left = min(x0, x1, x2)
            out.append((y1 - y0, x1 - x0, y2 - y0, x2 - x0, x0 - left, max(x0, x1, x2) - left, y2 - y0))
    return tuple(out)


def _triangle_shapes(moves: MoveSet, n: int) -> list[tuple[int, int, int, int, int]]:
    """One (o1, o2, lo, w, h) per triangle shape on the n x n board: each of
    ``_primitive_triangles`` scaled by l = 1, 2, ... while its box fits.  With
    the anchor at index i the others are at i + o1 and i + o2, so on the
    full board the shape has (n - w)(n - h) anchors, in columns lo .. lo + n - w - 1."""
    return [
        (l * (y1 * n + x1), l * (y2 * n + x2), l * lo, l * w, l * h)
        for y1, x1, y2, x2, lo, w, h in _primitive_triangles(moves.canonical_key())
        for l in range(1, (n - 1) // max(w, h) + 1)
    ]


def count_unlabelled(moves: MoveSet, q: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of q-subsets of distinct squares of the n x n board, pairwise nonattacking.

    Counts u(1) = n^2, u(2), u(3), ... in turn, each only once the one before
    is in: u(2) and u(3) are arithmetic (``_pairs_and_triples``), u(4) and up
    come from the orbit search (``_searched``; the module docstring gives
    both routes).

    Before each count it raises ``BudgetExceededError`` if the nodes of the
    counts so far, sum_j j * u(j; n), pass ``budget`` (see there for what a
    node is), so a count over budget is refused before its search begins.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    nodes = 0
    counts = itertools.chain((n * n,), _pairs_and_triples(moves, n), _searched(moves, n))
    for j, count in enumerate(counts, 1):
        if j == q:
            return count
        nodes += j * count
        if nodes > budget:
            raise BudgetExceededError(nodes, budget)


def _searched(moves: MoveSet, n: int) -> Iterator[int]:
    """u(4; n), u(5; n), ... for n >= 1, each searched only when asked for, on
    one attack table: the first piece runs over one square per board-symmetry
    orbit, any middle pieces run in increasing index order (``_subsets``),
    and one leaf evaluation counts the last three."""
    size = n * n
    full = (1 << size) - 1
    table = AttackTable.build(moves, n)
    masks = table.masks
    # Lines in order of their highest square, so the lines that can meet a set
    # whose lowest square is i are lines[start[i]:].
    lines = sorted(table.lines, key=int.bit_length)
    start, j = [], 0
    for i in range(size):
        while j < len(lines) and lines[j].bit_length() <= i:
            j += 1
        start.append(j)
    # C(j, 2) and C(j, 3) for line occupancies (no line is longer than n), and
    # C(d - 1, 2), the pairs of edges at a square whose attack mask meets the set d times.
    c2 = [j * (j - 1) // 2 for j in range(n + 1)]
    c3 = [j * (j - 1) * (j - 2) // 6 for j in range(n + 1)]
    wedges_at = [(d - 1) * (d - 2) // 2 for d in range(len(moves) * (n - 1) + 2)]
    # each triangle shape as (o1, o2, mask): ``mask`` keeps the anchors whose
    # column leaves all three vertices on the board, so the shifted bitsets of
    # the leaf do not wrap from one row to the next
    rows = ((1 << size) - 1) // ((1 << n) - 1)  # bit 0 of every row
    steps = [(o1, o2, ((1 << n - w) - 1 << lo) * rows) for o1, o2, lo, w, _ in _triangle_shapes(moves, n)]

    def leaf(allowed: int) -> int:
        """Nonattacking triples of ``allowed``, by line occupancy."""
        count = allowed.bit_count()
        if count < 3:
            return 0
        low = (allowed & -allowed).bit_length() - 1
        on_lines = list(map(int.bit_count, map(allowed.__and__, lines[start[low]:])))
        attacking = sum(map(c2.__getitem__, on_lines))
        # wedges = sum_v C(deg v, 2) = 3 sum_L C(c_L, 3) + X, over the attack
        # masks of the squares of ``allowed``, picked by its binary digits
        members = itertools.compress(masks, map("1".__eq__, bin(allowed)[:1:-1]))
        wedges = sum(map(wedges_at.__getitem__, map(int.bit_count, map(allowed.__and__, members))))
        # the triangles: sum_L C(c_L, 3) on one line, T on three slopes
        collinear = sum(map(c3.__getitem__, on_lines))
        skew = sum((allowed & allowed >> o1 & allowed >> o2 & mask).bit_count() for o1, o2, mask in steps)
        return math.comb(count, 3) - attacking * (count - 2) + wedges - collinear - skew

    orbits = _orbits(symmetry_group(moves), n)
    for q in itertools.count(4):
        total = sum(weight * _subsets(full & ~masks[s], q - 1, masks, leaf) for s, weight in orbits)
        if total % q:
            raise RuntimeError(
                f"orbit-weighted sum {total} for q={q}, n={n} is not divisible by q"
            )
        yield total // q


def _pairs_and_triples(moves: MoveSet, n: int) -> Iterator[int]:
    """u(2; n), then u(3; n), for n >= 1, by the module docstring's closed
    forms on the full board.  Each slope's box sums are read once for both,
    and the excess tables are built only once u(3) is asked for."""
    size = n * n
    attacking = collinear = orthogonal = 0
    oblique = []  # (c, d, E_s, sum_v e_s(v)^2) per oblique slope with a line of two squares
    for m in moves:
        pairs_s, triples_s = box_sums(m.c, abs(m.d), n)
        attacking += pairs_s
        collinear += triples_s
        if not (m.c and m.d):
            orthogonal += 1
        elif pairs_s:
            oblique.append((m.c, m.d, pairs_s, 6 * triples_s + 2 * pairs_s))
    yield size * (size - 1) // 2 - attacking
    o = n - 1
    cross = orthogonal * (orthogonal - 1) // 2 * size * o * o + 2 * orthogonal * o * sum(e for _, _, e, _ in oblique)
    if len(oblique) > 1:
        tables = [_excess(c, d, n) for c, d, _, _ in oblique]
        r = list(functools.reduce(functools.partial(map, operator.add), tables))
        cross += (sum(map(operator.mul, r, r)) - sum(own for *_, own in oblique)) // 2
    yield math.comb(size, 3) - attacking * (size - 2) + 2 * collinear + cross - _skew_triangles(moves, n)


def box_sums(w: int, h: int, n: int) -> tuple[int, int]:
    """(sum_l (n - l w)(n - l h), sum_l (l - 1)(n - l w)(n - l h)) over
    l = 1..(n - 1) // max(w, h), read off the power sums of l, l^2 and l^3:
    the copies on the n x n board of a box w wide and h high scaled by l,
    plain and weighted by l - 1.  For the box (|c|, |d|) of a slope these are
    E_s and sum_L C(c_L, 3) along it: two squares l steps apart span the box
    at scale l, and so do the ends of l - 1 collinear triples."""
    top = (n - 1) // max(w, h)
    s1 = top * (top + 1) // 2
    s2 = s1 * (2 * top + 1) // 3
    a, b = n * (w + h), w * h
    return top * n * n - a * s1 + b * s2, (s1 - top) * n * n - a * (s2 - s1) + b * (s1 * s1 - s2)


def _excess(c: int, d: int, n: int) -> list[int]:
    """Per square of the n x n board, in index order, the length of its line
    of the oblique slope (c, d) minus 1."""
    # The steps back from a square to the board's edge plus the steps
    # forward, which are the steps back from its half-turn image: the
    # reversed list.  Row y of the steps back, min(x // c, a) with a the
    # steps back in y, is the first a * c of the x // c, then copies of a.
    quotients = [x // c for x in range(n)]
    back = []
    for y in range(n):
        a = y // d if d > 0 else (n - 1 - y) // -d
        back += quotients[:a * c]
        back += [a] * (n - a * c)
    return list(map(operator.add, back, reversed(back)))


def _skew_triangles(moves: MoveSet, n: int) -> int:
    """T on the full n x n board: each primitive triangle, w wide and h high,
    has (n - l w)(n - l h) copies at scale l = 1, 2, ... (``box_sums``)."""
    return sum(box_sums(w, h, n)[0] for *_, w, h in _primitive_triangles(moves.canonical_key()))


def _subsets(allowed: int, k: int, masks: tuple[int, ...], leaf) -> int:
    """Nonattacking k-subsets of ``allowed`` (k >= 3), lowest square first:
    ``_searched``'s middle pieces, with its attack ``masks`` and ``leaf``.
    Squares are taken lowest first, so those left in ``m`` all lie above the
    one placed."""
    if k == 3:
        return leaf(allowed)
    total = 0
    m = allowed
    while m:
        lsb = m & -m
        m ^= lsb
        rest = m & ~masks[lsb.bit_length() - 1]
        if rest:
            total += _subsets(rest, k - 1, masks, leaf)
    return total


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

# A canonical component as (k, its edges (i, j, c, d) on pieces 1..k; see
# ``fold.Edge``).
Form = tuple[int, tuple[fold.Edge, ...]]


@dataclass(frozen=True)
class ConstraintPattern:
    """A placement pattern on ``piece_count`` pieces; counting it means counting
    ordered tuples of squares (repetition allowed) meeting every constraint.
    Its hash is worked out once, when it is built."""

    piece_count: int
    constraints: tuple[Constraint, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ValueError("pattern needs at least one constraint")
        for c in self.constraints:
            if not (1 <= c.i < c.j <= self.piece_count):
                raise ValueError(f"constraint indices {(c.i, c.j)} out of range")
        object.__setattr__(self, "_hash", hash((self.piece_count, self.constraints)))

    def __hash__(self) -> int:
        return self._hash


def pattern(piece_count: int, *constraints: Constraint) -> ConstraintPattern:
    return ConstraintPattern(piece_count, tuple(constraints))


def count_pattern(pat: ConstraintPattern, n: int) -> int:
    """Exact number of ordered tuples of board squares satisfying the pattern.

    The count factors over the connected components of the constraint graph:
    a piece under no constraint stands on any of the n^2 squares, and each
    component is counted on its own (``_component_count``), in the canonical
    form ``canonical_components`` gives it.  Relabelling the pieces, or
    mapping every slope by one symmetry of the board, is a bijection on the
    tuples counted, so the canonical form counts the same; the audit's
    relabelled, reflected and side-by-side patterns then share one count per
    canonical component and n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    free, components = canonical_components(pat)
    count = n ** (2 * free)
    for form in components:
        count *= _component_count(form, n)
    return count


@functools.cache
def canonical_components(pat: ConstraintPattern) -> tuple[int, tuple[Form, ...]]:
    """(the pieces under no constraint, the canonical form of each connected
    component of the constraint graph), worked out once per pattern.

    Pieces that must share a square are contracted first, each into the least
    of them: those an ``Equal`` joins and, until none is left, pairs on two
    distinct slopes (such lines meet in one square at most).  A ``Collinear``
    whose ends merge holds on any square and is dropped: forms are simple.

    A component on k pieces has as canonical form the least of its sorted,
    duplicate-free constraint lists, each constraint read as (i, j, c, d),
    over every element of ``D4`` applied to its slopes and every relabelling
    of its pieces as 1..k that numbers them in order of degree.  A relabelling
    or a board symmetry keeps every piece's degree, so isomorphic components
    get one form.  The form depends only on the component's shape, its
    constraints with the pieces renumbered 1..k in increasing order, so it is
    worked out once per shape (``_shape_form``).  Each component is given as
    (k, form), and the components are listed in sorted order.
    """
    equal = [(c.i, c.j) for c in pat.constraints if isinstance(c, Equal)]
    merged = -1
    while merged < len(equal):  # until a pass finds no pair on two slopes
        merged = len(equal)
        same = _linked(equal)
        least = {p: min(same.get(p, (p,))) for p in range(1, pat.piece_count + 1)}
        slope_of = {}  # per pair i < j of pieces left, the slope of its Collinears
        for con in pat.constraints:
            if isinstance(con, Collinear):
                i, j = sorted((least[con.i], least[con.j]))
                if i < j and slope_of.setdefault((i, j), con.slope) != con.slope:
                    equal.append((i, j))
    component_of = _linked(list(slope_of))
    forms = []
    for component in {frozenset(pieces) for pieces in component_of.values()}:
        rank = {p: r for r, p in enumerate(sorted(component), 1)}
        forms.append(_shape_form(len(component), tuple(sorted(
            (rank[i], rank[j], m.c, m.d) for (i, j), m in slope_of.items() if i in component
        ))))
    return len(set(least.values())) - len(component_of), tuple(sorted(forms))


@functools.cache
def _shape_form(k: int, shape: tuple[fold.Edge, ...]) -> Form:
    """(k, canonical form) of a component on pieces 1..k with the constraints
    (i, j, c, d) of ``shape``; see ``canonical_components``.  Slopes are
    mapped as plain (c, d) pairs, with no ``Move`` built per image."""
    degree = [0] * (k + 1)
    for i, j, _, _ in shape:
        degree[i] += 1
        degree[j] += 1
    groups = [[p for p in range(1, k + 1) if degree[p] == d] for d in sorted(set(degree[1:]))]
    labellings = [
        {p: label for label, p in enumerate(itertools.chain.from_iterable(order), 1)}
        for order in itertools.product(*map(itertools.permutations, groups))
    ]
    # each constraint's ends under each labelling and its slope under each
    # symmetry, so that a candidate list only pairs them up
    ends = [[(min(label[i], label[j]), max(label[i], label[j])) for i, j, _, _ in shape] for label in labellings]
    images = [[_slope_image(g, c, d) for _, _, c, d in shape] for g in D4]
    form = min(tuple(sorted(map(operator.add, e, image))) for e in ends for image in images)
    return k, form


def _linked(pairs: list[tuple[int, int]]) -> dict[int, set[int]]:
    """Each piece on a pair -> the set of pieces a chain of pairs links it to."""
    linked = {p: {p} for pair in pairs for p in pair}
    for i, j in pairs:
        merged = linked[i] | linked[j]
        for p in merged:
            linked[p] = merged
    return linked


@functools.cache
def _component_count(form: Form, n: int) -> int:
    """``count_pattern`` of one canonical component (k, constraints), once per
    (form, n) in a process: the form's fold plan (``fold.plan``, one per
    form) run on the n x n board, where every piece starts with weight 1 on
    every square (``fold.run``)."""
    k, constraints = form
    lines = {(c, d): _line_index(c, d, n) for _, _, c, d in constraints}
    return fold.run(fold.plan(k, constraints), [[1] * (n * n)] * (k + 1), lines)


@functools.cache
def _line_index(c: int, d: int, n: int) -> fold.LineIndex:
    """(the board lines of the slope (c, d), each as the ascending range of
    its squares; the same as slices; the index of the line through each
    square), built once per (slope, n) in a process.  ``fold.run`` only
    reads them."""
    lines = [r if r.step > 0 else r[::-1] for r in _board_lines(c, d, n)]
    line_of = [0] * (n * n)
    for k, r in enumerate(lines):
        line_of[r.start:r.stop:r.step] = [k] * len(r)
    return lines, [slice(r.start, r.stop, r.step) for r in lines], line_of


def sequence(
    moves: MoveSet,
    q: int,
    n_lo: int,
    n_hi: int,
    budget: int = DEFAULT_BUDGET,
    cache: Optional["CountCache"] = None,
) -> list[tuple[int, int]]:
    """Oracle samples (n, u(q; n)) for each n in [n_lo, n_hi], cache-aware and
    deterministic.

    A budget error propagates with the samples completed before it attached.
    The new counts go to the cache in one append at the end, also when a
    budget error ends the run.
    """
    if n_lo > n_hi:
        raise ValueError("empty range")
    if n_lo < 0:
        raise ValueError("n must be >= 0")
    samples = []
    try:
        for n in range(n_lo, n_hi + 1):
            count = cache.get(moves, q, n) if cache is not None else None
            if count is None:
                try:
                    count = count_unlabelled(moves, q, n, budget=budget)
                except BudgetExceededError as err:
                    raise BudgetExceededError(err.nodes, err.budget, tuple(samples)) from err
                if cache is not None:
                    cache.put(moves, q, n, count)
            samples.append((n, count))
    finally:
        if cache is not None:
            cache.flush()
    return samples
