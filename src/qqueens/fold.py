"""Fold plans: the lattice points of one connected component of collinearity
constraints, counted on per-square tables.

A component is a canonical form (k, ((i, j, c, d), ...)) on pieces 1..k (see
``enumerator.canonical_components``).  Each piece carries a table: for each
square it may stand on, the number of ways to place the pieces folded into
it so far, given that square.  ``plan`` works out once per form the order the
pieces are folded in and what happens to each; ``run`` carries the plan out
on the tables of one board, given that board's line index of each slope
(``enumerator._line_index``): the board lines as ascending ranges and as
slices, and the line through each square.  A form is a simple graph.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence, Union

# A Collinear of a canonical component as plain ints (i, j, c, d), i < j.
Edge = tuple[int, int, int, int]
# One slope's lines on one board: each as the ascending range of its
# squares, each as a slice, and the line through each square.
LineIndex = tuple[list[range], list[slice], list[int]]


@functools.cache
def plan(k: int, constraints: tuple[Edge, ...]) -> tuple:
    """The fold plan of a component on pieces 1..k, worked out once per form
    and the same for every board (see ``_steps``)."""
    return _steps(list(range(1, k + 1)), list(constraints))


def _steps(pieces: list[int], edges: list[Edge]) -> tuple:
    """The steps that fold ``pieces`` under ``edges``, one per piece taken.

    Pieces are taken fewest constraints first, the lowest label among
    equals.  A piece with no constraint left is ``("sum", p)``: the total
    is multiplied by the sum of its table.  One with a single constraint
    (i, j, c, d) left is ``("close", p, o, c, d)`` when that constraint is
    the last one on the other piece o too, which is then done as well, and
    ``("carry", p, o, c, d)`` otherwise.  One with two or more left (only a
    cycle leaves such a piece) is the last step,
    ``("fix", p, ((o, (c, d)), ...), rest)``: p is fixed on each square in
    turn, each neighbour o keeps its squares on the line of slope (c, d)
    through that square, and ``rest`` folds the pieces left.
    """
    steps: list[tuple] = []
    while pieces:
        ends = [p for e in edges for p in e[:2]]  # each piece once per constraint on it
        piece = min(pieces, key=ends.count)
        pieces = [p for p in pieces if p != piece]
        own = [e for e in edges if piece in e[:2]]
        edges = [e for e in edges if piece not in e[:2]]
        if len(own) > 1:
            neighbours = tuple((i + j - piece, (c, d)) for i, j, c, d in own)
            return (*steps, ("fix", piece, neighbours, _steps(pieces, edges)))
        if not own:
            steps.append(("sum", piece))
            continue
        i, j, c, d = own[0]
        other = i + j - piece
        if ends.count(other) == 1:
            pieces.remove(other)
            steps.append(("close", piece, other, c, d))
        else:
            steps.append(("carry", piece, other, c, d))
    return tuple(steps)


class _Part:
    """A table that is 0 off a few squares, as a fixed piece leaves each of
    its neighbours: those ``squares``, their ``weights``, and the table's
    sums per line of each slope once worked out.  One part serves every
    square fixed on its line, so its sums are worked out once per line."""

    __slots__ = ("squares", "weights", "sums")

    def __init__(self, squares: Sequence[int], weights: list[int]):
        self.squares = squares
        self.weights = weights
        self.sums: dict[tuple[int, int], list[int]] = {}


Table = Union[list, _Part]  # a list holds one weight per square of the board


def _entries(table: Table) -> Iterable[tuple[int, int]]:
    """(square, weight) for each square the table holds."""
    return enumerate(table) if type(table) is list else zip(table.squares, table.weights)


def run(steps: tuple, tables: list[Table], lines: dict[tuple[int, int], LineIndex]) -> int:
    """The number of ways to place the pieces of the plan ``steps``, given
    each piece's table in ``tables``, which the steps replace as they go,
    and the board's line index of each slope in ``lines``.

    A carry is the table's sum over each line of the slope (a slice sum per
    line), scattered onto the other piece's squares by their line; a close
    is the dot product of both tables' line sums.  A fix splits each
    neighbour's table by its lines once (``_split``), then runs the rest of
    the plan once per square of the fixed piece, with each neighbour's part
    on that square's line.
    """
    total = 1
    for step in steps:
        if step[0] == "sum":
            table = tables[step[1]]
            total *= sum(table if type(table) is list else table.weights)
        elif step[0] == "carry":
            _, p, o, c, d = step
            tables[o] = _scatter(tables[o], _line_sums(tables[p], (c, d), lines), lines[c, d])
        elif step[0] == "close":
            _, p, o, c, d = step
            ends = (_line_sums(tables[p], (c, d), lines), _line_sums(tables[o], (c, d), lines))
            total *= sum(map(operator.mul, *ends))
        else:
            _, p, neighbours, rest = step
            splits = [(o, lines[slope][2], _split(tables[o], lines[slope])) for o, slope in neighbours]
            fixed = 0
            for s, ways in _entries(tables[p]):
                if ways:
                    kept = tables.copy()
                    for o, line_of, parts in splits:
                        kept[o] = parts.get(line_of[s])
                        if kept[o] is None:
                            break
                    else:
                        fixed += ways * run(rest, kept, lines)
            return total * fixed
    return total


def _line_sums(table: Table, slope: tuple[int, int], lines: dict[tuple[int, int], LineIndex]) -> list[int]:
    """The sums of ``table`` over each line of the slope, in line index order."""
    board_lines, slices, line_of = lines[slope]
    if type(table) is list:
        return list(map(sum, map(table.__getitem__, slices)))
    sums = table.sums.get(slope)
    if sums is None:
        sums = table.sums[slope] = [0] * len(board_lines)
        for s, ways in _entries(table):
            sums[line_of[s]] += ways
    return sums


def _scatter(table: Table, sums: list[int], index: LineIndex) -> Table:
    """``table`` with each square's weight times ``sums`` at its line of the
    index's slope."""
    line_of = index[2]
    if type(table) is list:
        return list(map(operator.mul, table, map(sums.__getitem__, line_of)))
    on_lines = map(sums.__getitem__, map(line_of.__getitem__, table.squares))
    return _Part(table.squares, list(map(operator.mul, table.weights, on_lines)))


def _split(table: Table, index: LineIndex) -> dict[int, _Part]:
    """Per line of the index, ``table`` kept to that line's squares, as a
    ``_Part``.  A line with no nonzero square may be left out."""
    board_lines, slices, line_of = index
    if type(table) is list:
        return dict(enumerate(map(_Part, board_lines, map(table.__getitem__, slices))))
    grouped: dict[int, tuple[list[int], list[int]]] = {}
    for s, ways in _entries(table):
        if ways:
            squares, weights = grouped.setdefault(line_of[s], ([], []))
            squares.append(s)
            weights.append(ways)
    return {line: _Part(*part) for line, part in grouped.items()}
