"""Append-only JSON-lines cache of oracle counts.

One record per line: ``{"moves": [[c,d], ...], "q": int, "n": int,
"count": "decimal-string"}``.  Counts are decimal strings so no reader
needs to assume an integer width.  Corrupt lines, among them any that
is not UTF-8, any whose moves, q or n are not JSON integers, or whose
count is not a decimal string, are skipped with a warning, never
trusted.  A key repeated with the same count is accepted; a key repeated
with a different count raises ``CacheConflictError``, since neither
record can be trusted over the other.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Union

from .core import MoveSet

ENV_VAR = "QQUEENS_CACHE"

Key = tuple[tuple[tuple[int, int], ...], int, int]


class CacheConflictError(Exception):
    """Two records of the cache file give one key different counts."""


class CacheAccessError(Exception):
    """The cache file cannot be opened to read or to append; the message is
    its path and the operating system's reason."""


class CountCache:
    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._entries: dict[Key, int] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        first_line: dict[Key, int] = {}
        # a line's move pairs -> their canonical key, so each distinct move
        # list is validated once per load.  Only pairs of exact ints are
        # stored (``from_pairs`` accepts nothing else) or looked up, so
        # [true, 0] or [1.0, 0] never hits the entry that [1, 0] made.
        move_keys: dict[tuple, tuple[tuple[int, int], ...]] = {}
        with self._open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                    pairs = tuple(map(tuple, obj["moves"]))
                    exact = all(type(x) is int for pair in pairs for x in pair)
                    moves_key = move_keys.get(pairs) if exact else None
                    if moves_key is None:
                        moves_key = move_keys[pairs] = MoveSet.from_pairs(obj["moves"]).canonical_key()
                    q, n, count = obj["q"], obj["n"], obj["count"]
                    if type(q) is not int or type(n) is not int:
                        raise ValueError(f"q {q!r} and n {n!r} must be integers")
                    if not (isinstance(count, str) and count.isascii() and count.isdigit()):
                        raise ValueError(f"count {count!r} is not a decimal string")
                    key = (moves_key, q, n)
                    count = int(count)
                except (ValueError, KeyError, TypeError) as err:
                    print(
                        f"warning: skipping corrupt cache line {lineno} in {self.path}: {err}",
                        file=sys.stderr,
                    )
                    continue
                known = self._entries.setdefault(key, count)
                first = first_line.setdefault(key, lineno)
                if known != count:
                    raise CacheConflictError(
                        f"{self.path}: moves {[list(cd) for cd in key[0]]}, q={q}, n={n} "
                        f"has count {known} on line {first} and {count} on line {lineno}"
                    )

    def get(self, moves: MoveSet, q: int, n: int) -> Optional[int]:
        return self._entries.get((moves.canonical_key(), q, n))

    def put(self, moves: MoveSet, q: int, n: int, count: int) -> None:
        key = (moves.canonical_key(), q, n)
        if key in self._entries:
            return
        self._entries[key] = count
        line = json.dumps(
            {"moves": [list(cd) for cd in key[0]], "q": q, "n": n, "count": str(count)}
        )
        with self._open("ab") as fh:
            fh.write(line.encode("utf-8") + b"\n")

    def _open(self, mode: str):
        """The cache file opened in binary ``mode``, its directory made if
        missing; any failure raises :class:`CacheAccessError`."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return self.path.open(mode)
        except OSError as err:
            raise CacheAccessError(f"{self.path}: {err.strerror}") from err

    def __len__(self) -> int:
        return len(self._entries)
