import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    cyclic_garbage,
    fold_component_count,
    form_pattern,
    is_multiple,
    naive_board_lines,
    naive_canonical_components,
    naive_count_labelled,
    naive_count_pattern,
    naive_count_unlabelled,
)
from qqueens.core import ALL_PIECE_SPECS, Move, MoveSet, PartialQueenSpec, partial_queen
from qqueens.fold import plan
from qqueens.enumerator import (
    D4,
    AttackTable,
    BudgetExceededError,
    Collinear,
    ConstraintPattern,
    Equal,
    _board_lines,
    _box_sums,
    _component_count,
    _excess,
    _line_index,
    _line_mask,
    _skew_triangles,
    _triangle_shapes,
    canonical_components,
    count_pattern,
    count_unlabelled,
    line_lengths,
    pattern,
    sequence,
    symmetry_group,
)

QUEEN = partial_queen(PartialQueenSpec(2, 2))
BISHOP = partial_queen(PartialQueenSpec(0, 2))
ROOK = partial_queen(PartialQueenSpec(2, 0))
SEMIROOK = partial_queen(PartialQueenSpec(1, 0))


def test_attack_table_symmetric_and_reflexive():
    for n in (1, 2, 5):
        table = AttackTable.build(QUEEN, n)
        for i in range(n * n):
            assert table.masks[i] >> i & 1
            for j in range(n * n):
                assert (table.masks[i] >> j) & 1 == (table.masks[j] >> i) & 1


def test_count_single_piece_is_board_size():
    for spec in ALL_PIECE_SPECS:
        moves = partial_queen(spec)
        for n in (0, 1, 3, 7):
            assert count_unlabelled(moves, 1, n) == n * n


def test_count_examples():
    assert count_unlabelled(QUEEN, 2, 3) == 8
    assert count_unlabelled(ROOK, 2, 2) == 2
    assert count_unlabelled(QUEEN, 2, 0) == 0
    # every three-square subset of the 2x2 board holds a bishop-attacking pair
    assert count_unlabelled(BISHOP, 3, 2) == 0


def test_counts_match_naive_oracle():
    for spec in ALL_PIECE_SPECS:
        moves = partial_queen(spec)
        for q in (2, 3, 4):
            for n in (1, 2, 3, 4, 5):
                assert count_unlabelled(moves, q, n) == naive_count_unlabelled(moves, q, n)


NIGHTRIDER = MoveSet.from_pairs([(1, 2), (2, 1), (1, -2), (2, -1)])
LOPSIDED_RIDERS = (MoveSet.from_pairs([(1, 2)]), MoveSet.from_pairs([(1, 0), (1, 2)]))


def test_symmetry_group_computed_from_moves():
    orders = {spec: len(symmetry_group(partial_queen(spec))) for spec in ALL_PIECE_SPECS}
    assert orders == {
        PartialQueenSpec(2, 2): 8, PartialQueenSpec(2, 0): 8, PartialQueenSpec(0, 2): 8,
        PartialQueenSpec(1, 0): 4, PartialQueenSpec(0, 1): 4,
        PartialQueenSpec(2, 1): 4, PartialQueenSpec(1, 2): 4,
        PartialQueenSpec(1, 1): 2,
    }
    assert len(symmetry_group(NIGHTRIDER)) == 8
    assert [len(symmetry_group(m)) for m in LOPSIDED_RIDERS] == [2, 2]


def test_count_non_unit_slope_piece():
    for moves in (NIGHTRIDER, *LOPSIDED_RIDERS):
        for q in (2, 3, 4):
            for n in (1, 2, 3, 4, 5):
                assert count_unlabelled(moves, q, n) == naive_count_unlabelled(moves, q, n)


# every basic move with |c|, |d| <= 3, once per slope
CANONICAL_MOVES = [
    Move(c, d) for c in range(4) for d in range(-3, 4)
    if math.gcd(c, d) == 1 and (c > 0 or d == 1)
]


@given(
    st.lists(st.sampled_from(CANONICAL_MOVES), min_size=1, max_size=3, unique=True),
    st.integers(2, 4),
    st.integers(1, 5),
)
@settings(deadline=None)
def test_random_rider_counts_match_naive_oracle(moves, q, n):
    rider = MoveSet(tuple(moves))
    assert count_unlabelled(rider, q, n) == naive_count_unlabelled(rider, q, n)


# Three or more slopes, some not unit, so the leaf's count of triangles with
# sides on three distinct slopes meets primitive shapes larger than one square.
MANY_SLOPE_RIDERS = (
    MoveSet.from_pairs([(1, 0), (1, 2), (2, -1)]),
    MoveSet.from_pairs([(1, 3), (3, -1), (2, 1)]),
    MoveSet.from_pairs([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)]),
)


@pytest.mark.parametrize("rider", MANY_SLOPE_RIDERS, ids=lambda ms: str([[m.c, m.d] for m in ms]))
def test_many_slope_riders_match_naive_oracle(rider):
    for n in range(1, 8):
        assert count_unlabelled(rider, 3, n) == naive_count_unlabelled(rider, 3, n)
    for n in range(1, 6):
        assert count_unlabelled(rider, 4, n) == naive_count_unlabelled(rider, 4, n)


# q = 5 and q = 6 place one and two middle pieces (``_subsets``) before the leaf
MIDDLE_PIECE_CASES = [
    (partial_queen(PartialQueenSpec(0, 1)), 5, 4, 904),
    (partial_queen(PartialQueenSpec(0, 1)), 6, 4, 564),
    (BISHOP, 5, 4, 112),
    (BISHOP, 6, 4, 16),
    (NIGHTRIDER, 5, 4, 340),
    (NIGHTRIDER, 6, 4, 170),
    (LOPSIDED_RIDERS[0], 5, 4, 2364),
    (LOPSIDED_RIDERS[0], 6, 4, 2972),
    (QUEEN, 5, 5, 10),
    (ROOK, 5, 5, 120),
    (BISHOP, 5, 5, 3368),
]


@pytest.mark.parametrize(
    "rider, q, n, count", MIDDLE_PIECE_CASES, ids=lambda v: str([[m.c, m.d] for m in v]) if isinstance(v, MoveSet) else None
)
def test_middle_piece_search_matches_naive_oracle(rider, q, n, count):
    assert count_unlabelled(rider, q, n) == naive_count_unlabelled(rider, q, n) == count


def _no_attack_table(moves, n):
    raise AssertionError("q <= 3 must not build an attack table")


def _no_line_walk(c, d, n):
    raise AssertionError("q <= 3 must not walk the board's lines")


@given(
    st.lists(st.sampled_from(CANONICAL_MOVES), min_size=1, max_size=5, unique=True),
    st.integers(2, 3),
    st.integers(0, 7),
)
@example([Move(1, 2), Move(2, 1), Move(1, -2), Move(2, -1)], 3, 7)  # the nightrider
@example([Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1), Move(1, 2)], 3, 7)
@settings(deadline=None, max_examples=60)
def test_two_and_three_pieces_from_line_lengths_match_naive_oracle(moves, q, n):
    rider = MoveSet(tuple(moves))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AttackTable, "build", _no_attack_table)
        patch.setattr("qqueens.enumerator._board_lines", _no_line_walk)
        count = count_unlabelled(rider, q, n)
    assert count == naive_count_unlabelled(rider, q, n)


@given(
    st.lists(st.sampled_from(CANONICAL_MOVES), min_size=1, max_size=5, unique=True),
    st.integers(2, 3),
    st.integers(1, 12),
)
@settings(deadline=None)
def test_two_and_three_piece_budget_is_the_search_nodes(moves, q, n):
    # n^2 first squares, and for q = 3 each nonattacking pair once per choice of first piece
    rider = MoveSet(tuple(moves))
    nodes = n * n + (2 * count_unlabelled(rider, 2, n) if q == 3 else 0)
    count_unlabelled(rider, q, n, budget=nodes)
    with pytest.raises(BudgetExceededError) as exc:
        count_unlabelled(rider, q, n, budget=nodes - 1)
    assert (exc.value.nodes, exc.value.budget) == (nodes, nodes - 1)


@given(
    st.lists(st.sampled_from(CANONICAL_MOVES), min_size=3, max_size=5, unique=True),
    st.integers(1, 12),
)
@settings(deadline=None)
def test_full_board_triangles_by_arithmetic_match_the_mask_popcount(moves, n):
    # a shape has (n - w)(n - h) anchors, which the q = 3 closed form sums;
    # the q >= 4 leaf turns the same shapes into column masks, whose popcount
    # on the full board (anchors whose highest vertex stays below bit n^2)
    # must agree
    rows = ((1 << n * n) - 1) // ((1 << n) - 1)
    full = (1 << n * n) - 1
    for o1, o2, lo, w, h in _triangle_shapes(MoveSet(tuple(moves)), n):
        mask = ((1 << n - w) - 1 << lo) * rows
        assert (mask & full >> max(o1, o2)).bit_count() == (n - w) * (n - h)


def _skew_by_shapes(moves, n):
    """T as the q = 3 count read it before the closed form: (n - w)(n - h)
    anchors for each scaled shape of ``_triangle_shapes``."""
    return sum((n - w) * (n - h) for _, _, _, w, h in _triangle_shapes(moves, n))


def test_triangle_closed_form_matches_the_scaled_shapes_on_the_five_slope_rider():
    rider = MANY_SLOPE_RIDERS[2]  # H, V, both diagonals and (1, 2)
    assert [_skew_triangles(rider, n) for n in range(1, 81)] == [_skew_by_shapes(rider, n) for n in range(1, 81)]


@given(
    st.lists(st.sampled_from(CANONICAL_MOVES), min_size=1, max_size=6, unique=True),
    st.integers(1, 40),
)
@settings(deadline=None)
def test_triangle_closed_form_matches_the_scaled_shapes(moves, n):
    rider = MoveSet(tuple(moves))
    assert _skew_triangles(rider, n) == _skew_by_shapes(rider, n)


ANY_SLOPE = (
    st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    .filter(lambda v: math.gcd(*v) == 1)
    .map(lambda v: Move.from_vector(*v))
)


@given(ANY_SLOPE, st.integers(0, 60))
@example(Move(5, -4), 4)  # longer than the board: no line of two squares
@example(Move(1, 0), 0)
@settings(deadline=None)
def test_per_slope_line_sums_match_the_line_lengths(slope, n):
    lengths = line_lengths(slope, n)
    pairs = sum(math.comb(length, 2) for length in lengths)
    triples = sum(math.comb(length, 3) for length in lengths)
    assert _box_sums(slope.c, abs(slope.d), n) == (pairs, triples)


@given(ANY_SLOPE.filter(lambda m: m.c and m.d), st.integers(0, 30))
@example(Move(5, -4), 4)
@example(Move(1, -1), 1)
@settings(deadline=None)
def test_excess_table_is_each_squares_line_length_minus_one(slope, n):
    table = [None] * (n * n)
    for line in _board_lines(slope.c, slope.d, n):
        for i in line:
            table[i] = len(line) - 1
    assert _excess(slope.c, slope.d, n) == table


def _triples_by_degree_loop(moves, n):
    """u(3; n) as the q = 3 count read it before the closed forms: E and
    sum_L C(c_L, 3) added up line by line, each square's degree added up
    square by square, and T from the scaled shapes."""
    size = n * n
    attacking = collinear = 0
    degree = [0] * size
    for slope in moves:
        for line in _board_lines(slope.c, slope.d, n):
            j = len(line)
            attacking += j * (j - 1) // 2
            collinear += j * (j - 1) * (j - 2) // 6
            for i in line:
                degree[i] += j - 1
    wedges = sum(d * (d - 1) for d in degree) // 2
    return math.comb(size, 3) - attacking * (size - 2) + wedges - collinear - _skew_by_shapes(moves, n)


@given(
    st.lists(st.sampled_from(CANONICAL_MOVES), min_size=1, max_size=6, unique=True),
    st.integers(1, 40),
)
@example([Move(1, 0), Move(0, 1)], 40)  # the rook: orthogonal slopes only
@example([Move(1, 2), Move(2, 1), Move(1, -2), Move(2, -1)], 40)  # the nightrider: none
@example([Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1), Move(1, 2)], 40)
@settings(deadline=None, max_examples=60)
def test_three_piece_closed_forms_match_the_degree_loop(moves, n):
    rider = MoveSet(tuple(moves))
    assert count_unlabelled(rider, 3, n) == _triples_by_degree_loop(rider, n)


def _no_excess_table(c, d, n):
    raise AssertionError("a lone oblique slope pairs with no other table")


def test_a_lone_oblique_slope_reads_no_excess_table(monkeypatch):
    # its pairs with the orthogonal slopes are closed forms
    rider = MoveSet.from_pairs([(1, 0), (0, 1), (1, 1)])
    expected = naive_count_unlabelled(rider, 3, 6)
    monkeypatch.setattr("qqueens.enumerator._excess", _no_excess_table)
    assert count_unlabelled(rider, 3, 6) == expected


def test_count_labelled_matches_naive_permutation_count():
    # the q! relation is checked against an independent ordered enumeration
    for spec in (PartialQueenSpec(2, 2), PartialQueenSpec(1, 1)):
        moves = partial_queen(spec)
        for n in (2, 3):
            assert 6 * count_unlabelled(moves, 3, n) == naive_count_labelled(moves, 3, n)


def test_monotone_in_board_size():
    for spec in ALL_PIECE_SPECS:
        moves = partial_queen(spec)
        values = [count_unlabelled(moves, 3, n) for n in range(0, 9)]
        assert values == sorted(values)


def test_budget_applies_per_board_size():
    # a complete count of 3 pieces visits n^2 first squares and 2 u(2; n) marked pairs
    nodes = {n: n * n + 2 * count_unlabelled(QUEEN, 2, n) for n in range(1, 13)}
    largest = max(nodes.values())
    assert largest == nodes[12] < sum(nodes.values())
    samples = sequence(QUEEN, 3, 1, 12, budget=largest)
    assert [n for n, _ in samples] == list(range(1, 13))
    with pytest.raises(BudgetExceededError) as exc:
        sequence(QUEEN, 3, 1, 12, budget=largest - 1)
    assert exc.value.completed == tuple(samples[:11])


def test_budget_applies_per_board_size_four_pieces():
    # 4 pieces: n^2 first squares, 2 u(2; n) marked pairs and 3 u(3; n) marked triples
    nodes = {
        n: sum(j * count_unlabelled(QUEEN, j, n) for j in (1, 2, 3)) for n in range(1, 11)
    }
    largest = max(nodes.values())
    assert largest == nodes[10] < sum(nodes.values())
    samples = sequence(QUEEN, 4, 1, 10, budget=largest)
    assert [n for n, _ in samples] == list(range(1, 11))
    with pytest.raises(BudgetExceededError) as exc:
        sequence(QUEEN, 4, 1, 10, budget=largest - 1)
    assert exc.value.completed == tuple(samples[:9])


def test_budget_error_carries_progress():
    with pytest.raises(BudgetExceededError) as exc:
        count_unlabelled(QUEEN, 3, 8, budget=10)
    assert exc.value.nodes > 10
    assert exc.value.budget == 10


def power_sum(slope: Move, n: int, power: int) -> int:
    """Sum of the given power of the slope's line lengths: attacking pairs for
    power 2, collinear triples for power 3."""
    return sum(length**power for length in line_lengths(slope, n))


def test_line_lengths_examples():
    assert sorted(line_lengths(Move(1, 1), 3)) == [1, 1, 2, 2, 3]
    assert line_lengths(Move(1, 0), 0) == []
    with pytest.raises(ValueError):
        line_lengths(Move(1, 0), -1)


@pytest.mark.parametrize("slope", [Move(1, 2), Move(2, -1), Move(1, 3), Move(3, -2)])
def test_rider_line_lengths_match_naive_pair_count(slope):
    # the lines tile the board, and a line of length l holds l^2 ordered pairs
    for n in range(10):
        lengths = line_lengths(slope, n)
        squares = [(x, y) for x in range(n) for y in range(n)]
        pairs = sum(is_multiple(bx - ax, by - ay, slope) for ax, ay in squares for bx, by in squares)
        assert sum(lengths) == n * n
        assert sum(length**2 for length in lengths) == pairs


@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    .filter(lambda v: math.gcd(*v) == 1)
    .map(lambda v: Move.from_vector(*v)),
    st.integers(0, 9),
)
# a step of (n, -1) adds d*n + c = 0 to a square's index: every line is one square
@example(Move(1, -1), 1)
@example(Move(2, -1), 2)
@example(Move(3, -1), 3)
@settings(deadline=None)
def test_board_lines_match_naive_walk(slope, n):
    assert [tuple(r) for r in _board_lines(slope.c, slope.d, n)] == list(naive_board_lines(slope, n))


@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    .filter(lambda v: math.gcd(*v) == 1)
    .map(lambda v: Move.from_vector(*v)),
    st.integers(0, 9),
)
# (1, -1) lines step down by n - 1 squares: the lowest square is the last
@example(Move(1, -1), 5)
@example(Move(2, -1), 4)
@settings(deadline=None)
def test_line_mask_is_the_sum_of_its_squares(slope, n):
    for squares in _board_lines(slope.c, slope.d, n):
        assert _line_mask(squares) == sum(1 << i for i in squares)


def test_alpha_examples():
    assert power_sum(Move(1, 0), 3, 2) == 27
    assert power_sum(Move(0, 1), 3, 2) == 27
    assert power_sum(Move(1, 1), 3, 2) == 19
    assert power_sum(Move(1, 1), 0, 2) == 0


def test_beta_examples():
    assert power_sum(Move(1, 0), 2, 3) == 16
    assert power_sum(Move(1, 1), 2, 3) == 10
    assert power_sum(Move(1, -1), 1, 3) == 1


def test_attack_line_closed_forms_to_50():
    from fractions import Fraction

    from qqueens.formulas import alpha_closed, beta_closed
    from qqueens.quasipoly import evaluate

    for slope in (Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1)):
        ap, bq = alpha_closed(slope), beta_closed(slope)
        for n in range(51):
            assert Fraction(power_sum(slope, n, 2)) == ap(n)
            assert Fraction(power_sum(slope, n, 3)) == evaluate(bq, n)


def test_pattern_validation():
    with pytest.raises(ValueError):
        ConstraintPattern(2, ())
    with pytest.raises(ValueError):
        pattern(2, Collinear(2, 1, Move(1, 0)))
    with pytest.raises(ValueError):
        pattern(2, Equal(1, 3))


def test_count_pattern_examples():
    assert count_pattern(pattern(2, Collinear(1, 2, Move(1, 0))), 3) == 27
    # the two-diagonal chain: closed form (5/12)n^4 + n^2/3 + 1/8 - (-1)^n/8
    assert count_pattern(pattern(3, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, -1))), 2) == 8
    assert count_pattern(pattern(2, Equal(1, 2)), 4) == 16


def test_count_pattern_matches_naive():
    pats = [
        pattern(2, Collinear(1, 2, Move(1, 1))),
        pattern(3, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, -1))),
        pattern(3, Collinear(1, 2, Move(1, 0)), Collinear(1, 3, Move(1, 1)), Collinear(2, 3, Move(1, -1))),
        pattern(3, Equal(1, 2), Collinear(2, 3, Move(0, 1))),
        pattern(4, Collinear(1, 2, Move(1, 1)), Collinear(3, 4, Move(1, 0))),
        pattern(4, Collinear(1, 2, Move(1, 2)), Collinear(2, 3, Move(1, -1)), Collinear(3, 4, Move(0, 1))),
    ]
    for pat in pats:
        for n in (1, 2, 3, 4):
            assert count_pattern(pat, n) == naive_count_pattern(pat, n)


# The four queen slopes and two knight-like ones, for the differential tests.
PATTERN_SLOPES = (Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1), Move(1, 2), Move(2, -1))


@st.composite
def constraint_patterns(draw, max_pieces=5):
    """2 to ``max_pieces`` pieces under 1 to 6 constraints; cycles, repeated
    pairs and unconstrained pieces all occur."""
    pieces = draw(st.integers(2, max_pieces))
    pair = st.lists(st.integers(1, pieces), min_size=2, max_size=2, unique=True).map(sorted)
    constraint = st.one_of(
        pair.map(lambda ij: Equal(*ij)),
        st.builds(lambda ij, slope: Collinear(*ij, slope), pair, st.sampled_from(PATTERN_SLOPES)),
    )
    return pattern(pieces, *draw(st.lists(constraint, min_size=1, max_size=6)))


@given(constraint_patterns(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_count_pattern_matches_naive_on_random_patterns(pat, n):
    assert count_pattern(pat, n) == naive_count_pattern(pat, n)


def test_count_pattern_cycles_and_repeated_pairs():
    h, v, du, dd, knight = Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1), Move(1, 2)
    pats = [
        # a 4-cycle
        pattern(4, Collinear(1, 2, h), Collinear(2, 3, du), Collinear(3, 4, v), Collinear(1, 4, dd)),
        # K4: every pair of four pieces constrained
        pattern(
            4, Collinear(1, 2, h), Collinear(1, 3, v), Collinear(1, 4, du),
            Collinear(2, 3, dd), Collinear(2, 4, knight), Collinear(3, 4, h),
        ),
        # one pair both horizontal and vertical: forced to coincide
        pattern(2, Collinear(1, 2, h), Collinear(1, 2, v)),
        # one pair both equal and collinear
        pattern(3, Equal(1, 2), Collinear(1, 2, du), Collinear(2, 3, knight)),
        # a cascade: 1 and 2 merge, which puts 3 on two slopes to the merged piece
        pattern(3, Collinear(1, 2, h), Collinear(1, 2, v), Collinear(2, 3, du), Collinear(1, 3, dd)),
    ]
    for pat in pats:
        for n in range(5):
            assert count_pattern(pat, n) == naive_count_pattern(pat, n)
    assert count_pattern(pats[2], 7) == 49
    assert canonical_components(pats[4]) == (1, ())


def test_count_pattern_leaves_no_cyclic_garbage():
    # a 4-cycle is folded by fixing a piece on each square in turn; the
    # fold's line tables must be freed by reference counting alone
    h, v, du, dd = Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1)
    cycle = pattern(4, Collinear(1, 2, h), Collinear(2, 3, du), Collinear(3, 4, v), Collinear(1, 4, dd))
    _component_count.cache_clear()
    assert cyclic_garbage(lambda: count_pattern(cycle, 5)) == []
    assert _component_count.cache_info().misses == 1


@pytest.mark.parametrize("q", [4, 5])
def test_count_unlabelled_leaves_no_cyclic_garbage(q):
    # the middle pieces recurse through a module function, not a closure
    # that refers to itself, so the search's tables are freed on return
    assert cyclic_garbage(lambda: count_unlabelled(QUEEN, q, 8)) == []


def test_count_pattern_board_size_bounds():
    pat = pattern(3, Collinear(1, 2, Move(1, 0)), Collinear(1, 3, Move(1, 1)), Collinear(2, 3, Move(1, -1)))
    assert count_pattern(pat, 0) == 0
    with pytest.raises(ValueError):
        count_pattern(pat, -1)


def test_count_pattern_rejects_negative_n_after_counting_the_pattern():
    pat = pattern(2, Collinear(1, 2, Move(1, 2)), Equal(1, 2))
    assert count_pattern(pat, 3) == 9
    with pytest.raises(ValueError):
        count_pattern(pat, -1)


def test_oracle_rejects_negative_n(tmp_path):
    import json

    from qqueens.cache import CountCache

    for q in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="n must be >= 0"):
            count_unlabelled(QUEEN, q, -3)
    # nothing is written for a negative size, and a record of one is never read
    empty = tmp_path / "empty.jsonl"
    with pytest.raises(ValueError, match="n must be >= 0"):
        sequence(QUEEN, 2, -2, 1, cache=CountCache(empty))
    assert not empty.exists()
    seeded = tmp_path / "seeded.jsonl"
    seeded.write_text(json.dumps({"moves": [[1, 0], [0, 1], [1, 1], [1, -1]], "q": 2, "n": -2, "count": "6"}) + "\n")
    with pytest.raises(ValueError, match="n must be >= 0"):
        sequence(QUEEN, 2, -2, -2, cache=CountCache(seeded))


def test_sequence_appends_once_and_keeps_the_samples_before_a_budget_stop(tmp_path, monkeypatch):
    from qqueens.cache import CountCache

    path = tmp_path / "counts.jsonl"
    opens = []
    real_open = CountCache._open
    monkeypatch.setattr(CountCache, "_open", lambda self, mode: opens.append(mode) or real_open(self, mode))
    with pytest.raises(BudgetExceededError) as exc:
        sequence(QUEEN, 3, 1, 9, budget=2000, cache=CountCache(path))
    completed = exc.value.completed
    assert completed and opens == ["ab"]
    fresh = CountCache(path)
    assert len(fresh) == len(completed)
    assert [(n, fresh.get(QUEEN, 3, n)) for n, _ in completed] == list(completed)
    # a warm rerun over the completed sizes appends nothing
    opens.clear()
    assert sequence(QUEEN, 3, 1, len(completed), cache=CountCache(path)) == list(completed)
    assert opens == ["rb"]


def test_repeated_counts_of_a_built_pattern_hash_no_constraint(monkeypatch):
    pat = pattern(4, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, -1)), Equal(3, 4))
    calls = []
    for cls in (Collinear, Move):
        monkeypatch.setattr(cls, "__hash__", lambda self, real=cls.__hash__: calls.append(self) or real(self))
    hash(Collinear(1, 2, Move(1, 0)))
    assert len(calls) == 2  # the wrappers see a hash of a constraint and of its move
    calls.clear()
    counts = {count_pattern(pat, n % 5) for n in range(100)}
    assert calls == [] and len(counts) == 5
    # built apart, equal patterns still hash and compare equal; a different slope differs
    twin = pattern(4, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, -1)), Equal(3, 4))
    other = pattern(4, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, 0)), Equal(3, 4))
    assert twin is not pat and twin == pat and hash(twin) == hash(pat)
    assert other != pat and {pat: 1}.get(twin) == 1 and {pat: 1}.get(other) is None


def test_equal_patterns_built_apart_share_one_count():
    def build(down: Move) -> ConstraintPattern:
        return pattern(3, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, down))

    for n in range(5):
        first, second = build(Move(1, -1)), build(Move(1, -1))
        assert first is not second and first == second
        assert count_pattern(first, n) == count_pattern(second, n) == naive_count_pattern(second, n)
        # a pattern differing only in one slope is a different key
        other = build(Move(1, 0))
        assert count_pattern(other, n) == naive_count_pattern(other, n)


def test_count_pattern_agrees_with_specialized_counters():
    for slope in (Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1)):
        for n in range(31):
            assert power_sum(slope, n, 2) == count_pattern(
                pattern(2, Collinear(1, 2, slope)), n
            )
            assert power_sum(slope, n, 3) == count_pattern(
                pattern(3, Collinear(1, 2, slope), Collinear(2, 3, slope)), n
            )


def relabelled(pat: ConstraintPattern, perm: dict[int, int]) -> ConstraintPattern:
    """The pattern with the piece permutation applied to every constraint."""
    out = []
    for c in pat.constraints:
        i, j = sorted((perm[c.i], perm[c.j]))
        out.append(Collinear(i, j, c.slope) if isinstance(c, Collinear) else Equal(i, j))
    return ConstraintPattern(pat.piece_count, tuple(out))


def mapped(pat: ConstraintPattern, g: tuple[int, int, int, int]) -> ConstraintPattern:
    """The pattern with the board symmetry g applied to every slope."""
    a, b, c, d = g
    return ConstraintPattern(pat.piece_count, tuple(
        Collinear(con.i, con.j, Move.from_vector(a * con.slope.c + b * con.slope.d, c * con.slope.c + d * con.slope.d))
        if isinstance(con, Collinear) else con
        for con in pat.constraints
    ))


def side_by_side(first: ConstraintPattern, second: ConstraintPattern) -> ConstraintPattern:
    """Both patterns on disjoint pieces, the second's numbered after the first's."""
    off = first.piece_count
    shifted = tuple(replace(c, i=c.i + off, j=c.j + off) for c in second.constraints)
    return ConstraintPattern(off + second.piece_count, first.constraints + shifted)


# The canonical form rests on three facts about the lattice-point count; the
# tests below check each with the naive oracle alone, since any two patterns
# with one canonical form share one memo entry in ``count_pattern``.


@given(st.permutations([1, 2, 3]), st.integers(1, 5))
def test_count_pattern_relabelling_invariance(perm, n):
    pat = pattern(3, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, 0)))
    mapping = {i + 1: perm[i] for i in range(3)}
    assert canonical_components(relabelled(pat, mapping)) == canonical_components(pat)
    assert naive_count_pattern(relabelled(pat, mapping), n) == naive_count_pattern(pat, n) == count_pattern(pat, n)


@given(st.permutations([1, 2, 3, 4]), st.integers(1, 4))
@settings(max_examples=30)
def test_count_pattern_relabelling_invariance_four_pieces(perm, n):
    pat = pattern(
        4, Collinear(1, 2, Move(1, 1)), Collinear(2, 3, Move(1, -1)), Equal(3, 4)
    )
    mapping = {i + 1: perm[i] for i in range(4)}
    assert canonical_components(relabelled(pat, mapping)) == canonical_components(pat)
    assert naive_count_pattern(relabelled(pat, mapping), n) == naive_count_pattern(pat, n) == count_pattern(pat, n)


@given(constraint_patterns(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_canonical_components_count_as_the_pattern(pat, n):
    free, components = canonical_components(pat)
    assert all(form for _, form in components)
    product = math.prod((naive_count_pattern(form_pattern(*c), n) for c in components), start=n ** (2 * free))
    assert naive_count_pattern(pat, n) == product


@given(constraint_patterns(max_pieces=4), st.data(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_board_symmetries_and_relabellings_keep_the_count(pat, data, n):
    count = naive_count_pattern(pat, n)
    form = canonical_components(pat)
    pieces = range(1, pat.piece_count + 1)
    perm = data.draw(st.permutations(pieces))
    assert canonical_components(relabelled(pat, dict(zip(pieces, perm)))) == form
    for g in D4:
        assert naive_count_pattern(mapped(pat, g), n) == count
        assert canonical_components(mapped(pat, g)) == form


@given(constraint_patterns(max_pieces=3), constraint_patterns(max_pieces=2), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_side_by_side_patterns_count_as_the_product(first, second, n):
    both = side_by_side(first, second)
    assert naive_count_pattern(both, n) == naive_count_pattern(first, n) * naive_count_pattern(second, n)
    assert count_pattern(both, n) == count_pattern(first, n) * count_pattern(second, n)


def test_triangle_relabelling_and_reflection_share_one_component_count():
    h, v, du, dd = Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1)
    triangle = pattern(3, Collinear(1, 2, h), Collinear(2, 3, v), Collinear(1, 3, du))
    relabel = relabelled(triangle, {1: 2, 2: 3, 3: 1})
    reflection = pattern(3, Collinear(1, 2, h), Collinear(2, 3, v), Collinear(1, 3, dd))
    assert mapped(triangle, (-1, 0, 0, 1)) == reflection
    pats = (triangle, relabel, reflection, side_by_side(triangle, reflection))
    assert len(set(pats)) == 4
    _component_count.cache_clear()
    counts = [count_pattern(p, 5) for p in pats]
    assert _component_count.cache_info().currsize == 1
    single = naive_count_pattern(triangle, 5)
    assert counts == [single, single, single, single * single]


def test_equal_pieces_contract_into_one():
    slope = Move(1, 2)
    chained = pattern(3, Equal(1, 2), Collinear(2, 3, slope))
    assert canonical_components(chained) == canonical_components(pattern(2, Collinear(1, 2, slope)))
    _component_count.cache_clear()
    assert count_pattern(chained, 4) == count_pattern(pattern(2, Collinear(1, 2, slope)), 4)
    assert _component_count.cache_info().currsize == 1


def _catalog_patterns() -> set[ConstraintPattern]:
    from qqueens.audit import case_catalog

    return {
        p
        for case in case_catalog()
        for spec in ALL_PIECE_SPECS
        if case.applicable(spec.h, spec.k)
        for p in case.pattern_family(spec.h, spec.k)
    }


def test_canonical_components_of_the_catalog_match_first_written_algorithm():
    pats = _catalog_patterns()
    results = [canonical_components(p) for p in pats]
    assert results == [naive_canonical_components(p) for p in pats]


@given(constraint_patterns(), constraint_patterns(max_pieces=3), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_canonical_components_match_first_written_algorithm(pat, other, gap):
    # side by side with a copy of itself and with another pattern, the later
    # pieces numbered after ``gap`` unconstrained ones, so each component
    # recurs under other piece numbers
    spaced = replace(pat, piece_count=pat.piece_count + gap)
    pats = [pat, side_by_side(spaced, pat), side_by_side(spaced, other), side_by_side(other, spaced)]
    results = [canonical_components(p) for p in pats]
    assert results == [naive_canonical_components(p) for p in pats]


def test_component_counts_build_one_line_index_per_slope_and_size(monkeypatch):
    import qqueens.enumerator as enumerator

    built = []
    real = enumerator._board_lines
    monkeypatch.setattr(enumerator, "_board_lines", lambda c, d, n: built.append((c, d, n)) or real(c, d, n))
    _component_count.cache_clear()
    _line_index.cache_clear()
    pats = _catalog_patterns()
    for n in range(1, 6):
        for p in pats:
            count_pattern(p, n)
    assert built and len(built) == len(set(built))


def test_catalog_forms_fold_as_the_dict_fold():
    # the catalog's 23 trees and 2 triangles, on boards whose lines reach 12 squares
    forms = sorted({form for p in _catalog_patterns() for form in canonical_components(p)[1]})
    assert len(forms) == 25
    _component_count.cache_clear()
    for form in forms:
        for n in range(13):
            assert _component_count(form, n) == fold_component_count(form, n), (form, n)


H, V, DU, DD, KNIGHT = Move(1, 0), Move(0, 1), Move(1, 1), Move(1, -1), Move(1, 2)


@given(constraint_patterns(), st.integers(0, 8))
@example(pattern(4, Collinear(1, 2, H), Collinear(2, 3, DU), Collinear(3, 4, V), Collinear(1, 4, DD)), 8)  # 4-cycle
@example(pattern(4, Collinear(1, 2, H), Collinear(1, 3, V), Collinear(1, 4, DU),
                 Collinear(2, 3, DD), Collinear(2, 4, KNIGHT), Collinear(3, 4, H)), 8)  # K4
@example(pattern(3, Collinear(1, 2, H), Collinear(1, 2, V), Collinear(2, 3, KNIGHT)), 8)  # a pair on two slopes
@example(pattern(4, Equal(1, 3), Collinear(1, 2, DU), Collinear(2, 3, DD), Collinear(3, 4, H)), 8)  # contracted
# a triangle with a piece hanging off it, folded in before the fix, so the
# fixed piece's neighbours do not weigh every square alike
@example(pattern(4, Collinear(1, 2, H), Collinear(2, 3, V), Collinear(1, 3, DU), Collinear(3, 4, KNIGHT)), 7)
# a triangle with two sides of one slope: the close sums a neighbour's part along its own line
@example(pattern(3, Collinear(1, 2, DU), Collinear(2, 3, DU), Collinear(1, 3, H)), 6)
# two triangles on one piece: after the first fix a leaf carries into a neighbour's part
@example(pattern(5, Collinear(1, 2, H), Collinear(2, 3, V), Collinear(1, 3, DU),
                 Collinear(3, 4, DD), Collinear(4, 5, H), Collinear(3, 5, KNIGHT)), 6)
@settings(max_examples=60, deadline=None)
def test_count_pattern_matches_the_dict_fold(pat, n):
    free, components = canonical_components(pat)
    expected = math.prod((fold_component_count(form, n) for form in components), start=n ** (2 * free))
    assert count_pattern(pat, n) == expected


# Patterns with pairs on two slopes, for the dict fold on their edges as given.
REPEATED_PAIRS = [
    pattern(2, Collinear(1, 2, H), Collinear(1, 2, V)),
    pattern(3, Collinear(1, 2, H), Collinear(1, 2, V), Collinear(2, 3, KNIGHT)),
    pattern(3, Collinear(1, 2, H), Collinear(1, 2, V), Collinear(2, 3, DU), Collinear(1, 3, DD)),  # a cascade
    pattern(4, Collinear(1, 2, DU), Collinear(1, 2, DD), Collinear(2, 3, H), Collinear(3, 4, KNIGHT)),  # pair and path
    # a pair on a triangle whose other sides share a slope: after the merge they are one constraint
    pattern(3, Collinear(1, 2, H), Collinear(1, 2, V), Collinear(2, 3, DU), Collinear(1, 3, DU)),
]


@pytest.mark.parametrize("pat", REPEATED_PAIRS, ids=range(len(REPEATED_PAIRS)))
def test_contracted_pairs_count_as_the_dict_fold_of_the_uncontracted_edges(pat):
    # the dict fold fixes a piece of a repeated pair on each square in turn;
    # count_pattern merges the pair first, and the two must agree
    edges = [(c.i, c.j, c.slope.c, c.slope.d) for c in pat.constraints]
    for n in range(9):
        assert count_pattern(pat, n) == fold_component_count((pat.piece_count, edges), n), n


def test_fold_plans_carry_close_and_fix():
    # a path carries its first leaf into the middle piece and closes on the
    # second; a triangle fixes one piece and closes its other two, each kept
    # to a line through the fixed square
    path = canonical_components(pattern(3, Collinear(1, 2, H), Collinear(2, 3, V)))[1][0]
    assert plan(*path) == (("carry", 1, 3, 0, 1), ("close", 2, 3, 1, 0))
    triangle = canonical_components(pattern(3, Collinear(1, 2, H), Collinear(2, 3, V), Collinear(1, 3, DD)))[1][0]
    assert plan(*triangle) == (("fix", 1, ((2, (0, 1)), (3, (1, -1))), (("close", 2, 3, 1, 0),)),)
    # a pair on two slopes shares one square, so it is one free piece and has no plan
    assert canonical_components(pattern(2, Collinear(1, 2, H), Collinear(1, 2, V))) == (1, ())


SMALL_SLOPES = sorted(
    {Move.from_vector(c, d) for c in range(-3, 4) for d in range(-3, 4) if math.gcd(c, d) == 1},
    key=lambda m: (m.c, m.d),
)


@pytest.mark.parametrize("slope", SMALL_SLOPES, ids=lambda m: f"{m.c},{m.d}")
def test_line_lengths_follow_the_naive_walk(slope):
    for n in range(31):
        assert line_lengths(slope, n) == [len(line) for line in naive_board_lines(slope, n)], n


def test_equal_chain_is_one_free_piece():
    chain = pattern(3, Equal(1, 2), Equal(2, 3))
    assert canonical_components(chain) == (1, ())
    _component_count.cache_clear()
    assert count_pattern(chain, 4) == 16
    assert _component_count.cache_info().misses == 0


@given(constraint_patterns())
@settings(max_examples=60)
def test_canonical_components_hold_no_equal(pat):
    _, components = canonical_components(pat)
    for k, form in components:
        for con in form:
            assert len(con) == 4 and all(type(x) is int for x in con)
            i, j, c, d = con
            assert 1 <= i < j <= k
            Move(c, d)  # raises unless (c, d) is a canonical move
        assert len({con[:2] for con in form}) == len(form)  # one constraint per pair of pieces at most


def test_single_move_symmetry_horizontal_vs_vertical():
    # one orthogonal move: the horizontal and vertical choices count alike
    horizontal = MoveSet.from_pairs([(1, 0)])
    vertical = MoveSet.from_pairs([(0, 1)])
    for k_extra in ((), ((1, 1),), ((1, 1), (1, -1))):
        a = MoveSet.from_pairs([(1, 0), *k_extra])
        b = MoveSet.from_pairs([(0, 1), *k_extra])
        for q in (2, 3):
            for n in range(1, 11):
                assert count_unlabelled(a, q, n) == count_unlabelled(b, q, n)
    assert all(
        count_unlabelled(horizontal, 2, n) == count_unlabelled(vertical, 2, n)
        for n in range(1, 11)
    )


def test_single_diagonal_symmetry():
    up = MoveSet.from_pairs([(1, 1)])
    down = MoveSet.from_pairs([(1, -1)])
    for q in (2, 3):
        for n in range(1, 9):
            assert count_unlabelled(up, q, n) == count_unlabelled(down, q, n)


def test_sequence_examples():
    assert sequence(QUEEN, 1, 1, 3) == [(1, 1), (2, 4), (3, 9)]
    semiqueen = partial_queen(PartialQueenSpec(1, 1))
    assert sequence(semiqueen, 3, 2, 2) == [(2, 0)]
    from qqueens.formulas import u2_closed

    closed = u2_closed(0, 2)
    assert sequence(BISHOP, 2, 1, 4) == [(n, closed(n)) for n in range(1, 5)]


def test_sequence_budget_reports_last_completed():
    with pytest.raises(BudgetExceededError) as exc:
        sequence(QUEEN, 3, 1, 9, budget=2000)
    assert exc.value.completed
    assert [n for n, _ in exc.value.completed] == list(range(1, len(exc.value.completed) + 1))
