"""Moves and pieces.

A rider piece is defined by a finite set of basic moves: nonzero integer
vectors in lowest terms, pairwise non-parallel.  A piece on square ``a``
attacks square ``b`` when ``b - a`` is an integer multiple (zero included,
so coincident squares attack) of some basic move.  Boards are ``n x n``
with 1-based coordinates in ``[1, n]``.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Sequence

# A record's __init__ sets each field through this, past the record's own __setattr__.
set_field = object.__setattr__


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``set_field``.  Records are equal when they are of the
    same class and their fields are equal, equal records hash alike, and a
    record prints as ``Name(field=value, ...)``.  Assigning to or deleting
    an attribute raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Move(Record):
    """A basic move vector ``(c, d)`` in lowest terms with canonical sign.

    Canonical sign means ``c > 0``, or ``c == 0 and d == 1``, so parallel
    vectors share one representative and slope identity is equality.
    """

    _fields = ("c", "d")
    c: int
    d: int

    def __init__(self, c: int, d: int) -> None:
        if type(c) is not int or type(d) is not int:
            raise ValueError(f"move vector {(c, d)} has a non-integer component")
        if (c, d) == (0, 0):
            raise ValueError("move vector must be nonzero")
        if math.gcd(abs(c), abs(d)) != 1:
            raise ValueError(f"move vector {(c, d)} is not in lowest terms")
        if not (c > 0 or (c == 0 and d == 1)):
            raise ValueError(f"move vector {(c, d)} is not sign-canonical; use Move.from_vector")
        set_field(self, "c", c)
        set_field(self, "d", d)

    @classmethod
    def from_vector(cls, c: int, d: int) -> "Move":
        """Build a canonical move from any nonzero integer vector in lowest terms.

        Only exact ints are flipped, so ``False`` (which ``-False`` would make
        the int 0) still fails the constructor's type check."""
        if type(c) is int and type(d) is int and (c < 0 or (c == 0 and d < 0)):
            c, d = -c, -d
        return cls(c, d)


HORIZONTAL = Move(1, 0)
VERTICAL = Move(0, 1)
DIAGONAL_UP = Move(1, 1)
DIAGONAL_DOWN = Move(1, -1)
ORTHOGONAL = (HORIZONTAL, VERTICAL)
DIAGONAL = (DIAGONAL_UP, DIAGONAL_DOWN)


class MoveSet(Record):
    """A nonempty ordered set of pairwise non-parallel canonical moves."""

    _fields = ("moves",)
    moves: tuple[Move, ...]

    def __init__(self, moves: tuple[Move, ...]) -> None:
        if not moves:
            raise ValueError("move set must be nonempty")
        if len(set(moves)) != len(moves):
            raise ValueError("move set contains parallel (duplicate) moves")
        set_field(self, "moves", moves)

    def __iter__(self):
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "MoveSet":
        """The move set of a list (or tuple) of ``[c, d]`` pairs; anything
        else, or an entry that is not a two-item list or tuple, raises
        ``ValueError`` naming it."""
        for pair in pairs if isinstance(pairs, (list, tuple)) else [pairs]:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"moves must be a list of [c, d] pairs; {pair!r} is not one")
        return cls(tuple(Move.from_vector(c, d) for c, d in pairs))

    def canonical_key(self) -> tuple[tuple[int, int], ...]:
        """Order-independent key; cache entries and reports use it."""
        return tuple(sorted((m.c, m.d) for m in self.moves))

    @classmethod
    def from_json(cls, text: str) -> "MoveSet":
        return cls.from_pairs(json.loads(text))


class PartialQueenSpec(Record):
    """A piece with ``h`` orthogonal moves and ``k`` diagonal (slope +-1) moves."""

    _fields = ("h", "k")
    h: int
    k: int

    def __init__(self, h: int, k: int) -> None:
        if h not in (0, 1, 2) or k not in (0, 1, 2):
            raise ValueError("h and k must each be 0, 1, or 2")
        if h + k < 1:
            raise ValueError("h + k must be at least 1")
        set_field(self, "h", h)
        set_field(self, "k", k)


def partial_queen(spec: PartialQueenSpec) -> MoveSet:
    """Canonical move set of a partial queen: the first h of
    ``ORTHOGONAL`` (horizontal, then vertical) and the first k of
    ``DIAGONAL`` (slope +1, then -1).  On a square board every alternative
    single-move choice is count-equivalent; tests verify that rather than
    assume it.
    """
    return MoveSet(ORTHOGONAL[:spec.h] + DIAGONAL[:spec.k])


ALL_PIECE_SPECS: tuple[PartialQueenSpec, ...] = tuple(
    PartialQueenSpec(h, k) for h in (0, 1, 2) for k in (0, 1, 2) if h + k >= 1
)
