import json

import pytest
from hypothesis import given, strategies as st

from conftest import Square, attacks
from qqueens.core import ALL_PIECE_SPECS, Move, MoveSet, PartialQueenSpec, partial_queen
from qqueens.enumerator import Collinear, ConstraintPattern, Equal
from qqueens.reports import ClaimResult


def test_records_are_immutable_and_equal_only_within_their_class():
    assert Move(1, 2) == Move(1, 2) and hash(Move(1, 2)) == hash(Move(1, 2))
    assert Move(1, 2) != Move(2, 1)
    assert Move(1, 0) != (1, 0) and (1, 0) != Move(1, 0)
    assert Equal(1, 2) != Move(1, 2)
    pat = ConstraintPattern(3, (Equal(1, 2), Collinear(2, 3, Move(1, 1))))
    assert pat == ConstraintPattern(3, (Equal(1, 2), Collinear(2, 3, Move(1, 1))))
    assert hash(pat) == hash(ConstraintPattern(3, (Equal(1, 2), Collinear(2, 3, Move(1, 1)))))
    assert pat != ConstraintPattern(4, pat.constraints)
    for record, name in [(Move(1, 0), "c"), (pat, "piece_count"), (PartialQueenSpec(1, 1), "h")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 2)
    assert repr(Move(1, 0)) == "Move(c=1, d=0)"
    assert repr(Collinear(1, 2, Move(1, -1))) == "Collinear(i=1, j=2, slope=Move(c=1, d=-1))"
    assert repr(ClaimResult("x", True)) == "ClaimResult(name='x', passed=True, detail='', notes=())"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Move(2, 0), r"move vector \(2, 0\) is not in lowest terms"),
        (lambda: MoveSet(()), "move set must be nonempty"),
        (lambda: PartialQueenSpec(3, 0), "h and k must each be 0, 1, or 2"),
    ],
)
def test_record_checks_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_move_rejects_zero_vector():
    with pytest.raises(ValueError):
        Move(0, 0)


def test_move_rejects_common_factor():
    with pytest.raises(ValueError):
        Move(2, 4)


def test_move_rejects_noncanonical_sign():
    with pytest.raises(ValueError):
        Move(-1, 1)
    with pytest.raises(ValueError):
        Move(0, -1)


def test_move_from_vector_canonicalizes():
    assert Move.from_vector(-1, 1) == Move(1, -1)
    assert Move.from_vector(0, -1) == Move(0, 1)
    assert Move.from_vector(1, 2) == Move(1, 2)


def test_moveset_validation():
    with pytest.raises(ValueError):
        MoveSet(())
    with pytest.raises(ValueError):
        MoveSet((Move(1, 0), Move(1, 0)))


def test_moveset_json_round_trip():
    ms = MoveSet.from_pairs([(1, 0), (-1, -1)])
    pairs = [[m.c, m.d] for m in ms]
    assert pairs == [[1, 0], [1, 1]]
    assert MoveSet.from_json(json.dumps(pairs)) == ms


def test_partial_queen_canonical_sets():
    def pairs(spec):
        return [(m.c, m.d) for m in partial_queen(spec)]

    assert pairs(PartialQueenSpec(2, 2)) == [(1, 0), (0, 1), (1, 1), (1, -1)]
    assert pairs(PartialQueenSpec(0, 2)) == [(1, 1), (1, -1)]
    assert pairs(PartialQueenSpec(1, 0)) == [(1, 0)]


def test_partial_queen_rejects_bad_spec():
    with pytest.raises(ValueError):
        PartialQueenSpec(0, 0)
    with pytest.raises(ValueError):
        PartialQueenSpec(3, 0)


def test_partial_queen_move_count():
    for spec in ALL_PIECE_SPECS:
        assert len(partial_queen(spec)) == spec.h + spec.k


def test_attacks_examples():
    queen = partial_queen(PartialQueenSpec(2, 2))
    bishop = partial_queen(PartialQueenSpec(0, 2))
    assert attacks(queen, Square(1, 1), Square(3, 3))
    assert not attacks(bishop, Square(1, 1), Square(1, 2))
    assert attacks(bishop, Square(2, 2), Square(2, 2))  # coincident squares attack


def test_attacks_non_unit_slope():
    nightrider = MoveSet.from_pairs([(1, 2)])
    assert attacks(nightrider, Square(1, 1), Square(3, 5))
    assert not attacks(nightrider, Square(1, 1), Square(2, 4))


squares = st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda t: Square(*t))
specs = st.sampled_from(ALL_PIECE_SPECS)


@given(specs, squares, squares)
def test_attacks_symmetric(spec, a, b):
    moves = partial_queen(spec)
    assert attacks(moves, a, b) == attacks(moves, b, a)


@given(specs, squares)
def test_attacks_reflexive(spec, a):
    assert attacks(partial_queen(spec), a, a)


def classical_queen_attack(a: Square, b: Square) -> bool:
    return a.x == b.x or a.y == b.y or abs(a.x - b.x) == abs(a.y - b.y)


def test_queen_matches_classical_relation():
    queen = partial_queen(PartialQueenSpec(2, 2))
    for n in range(1, 9):
        board = [Square(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for a in board:
            for b in board:
                assert attacks(queen, a, b) == classical_queen_attack(a, b)

