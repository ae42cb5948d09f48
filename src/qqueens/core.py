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
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Move:
    """A basic move vector ``(c, d)`` in lowest terms with canonical sign.

    Canonical sign means ``c > 0``, or ``c == 0 and d == 1``, so parallel
    vectors share one representative and slope identity is equality.
    """

    c: int
    d: int

    def __post_init__(self) -> None:
        if type(self.c) is not int or type(self.d) is not int:
            raise ValueError(f"move vector {(self.c, self.d)} has a non-integer component")
        if (self.c, self.d) == (0, 0):
            raise ValueError("move vector must be nonzero")
        if math.gcd(abs(self.c), abs(self.d)) != 1:
            raise ValueError(f"move vector {(self.c, self.d)} is not in lowest terms")
        if not (self.c > 0 or (self.c == 0 and self.d == 1)):
            raise ValueError(
                f"move vector {(self.c, self.d)} is not sign-canonical; "
                "use Move.from_vector"
            )

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


@dataclass(frozen=True)
class MoveSet:
    """A nonempty ordered set of pairwise non-parallel canonical moves."""

    moves: tuple[Move, ...]

    def __post_init__(self) -> None:
        if not self.moves:
            raise ValueError("move set must be nonempty")
        if len(set(self.moves)) != len(self.moves):
            raise ValueError("move set contains parallel (duplicate) moves")

    def __iter__(self):
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "MoveSet":
        return cls(tuple(Move.from_vector(c, d) for c, d in pairs))

    def canonical_key(self) -> tuple[tuple[int, int], ...]:
        """Order-independent key; cache entries and reports use it."""
        return tuple(sorted((m.c, m.d) for m in self.moves))

    @classmethod
    def from_json(cls, text: str) -> "MoveSet":
        return cls.from_pairs(json.loads(text))


@dataclass(frozen=True)
class PartialQueenSpec:
    """A piece with ``h`` orthogonal moves and ``k`` diagonal (slope +-1) moves."""

    h: int
    k: int

    def __post_init__(self) -> None:
        if self.h not in (0, 1, 2) or self.k not in (0, 1, 2):
            raise ValueError("h and k must each be 0, 1, or 2")
        if self.h + self.k < 1:
            raise ValueError("h + k must be at least 1")


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
