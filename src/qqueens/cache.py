"""Append-only JSON-lines cache of oracle counts.

One record per line: ``{"moves": [[c,d], ...], "q": int, "n": int,
"count": "decimal-string"}``.  Counts are decimal strings so no reader
needs to assume an integer width.  Corrupt lines, among them any that
is not UTF-8, any whose moves, q or n are not JSON integers, or whose
count is not a decimal string, are skipped with a warning, never
trusted.  A key repeated with the same count is accepted; a key repeated
with a different count raises ``CacheConflictError``, since neither
record can be trusted over the other.

Every load reads the whole file.  Lines end at ``\n`` only, as binary
file iteration splits them.  For each path, the process holds the
complete lines it has parsed, as bytes, and what they gave: the entries,
the line each key was first read on, the warnings and the line count.  A
later load of that path whose file starts with the held bytes prints the
held warnings again and parses only the lines after them; a file that no
longer starts with them (rewritten or truncated) is parsed from scratch.
So a load gives the entries, warnings and conflict of a fresh parse, and
a line rewritten in place or a conflict appended is never missed.  A last
line without its ``\n`` is parsed on every load and never held, so it is
read again once it is completed.

``put`` holds a new record in memory and ``flush`` appends the records held
in one write, after a ``\n`` if the file as loaded ended in a line without
one, so a new record is never glued onto a torn line;
``enumerator.sequence`` flushes once per call.
"""

from __future__ import annotations

import functools
import io
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


def _record(line: bytes) -> tuple[Key, int]:
    """The key and count of one cache line; raises ``ValueError``,
    ``KeyError`` or ``TypeError`` if the line is corrupt."""
    obj = json.loads(line.decode("utf-8"))
    pairs = tuple(map(tuple, obj["moves"]))
    if not all(type(x) is int for pair in pairs for x in pair):
        raise ValueError(f"moves {obj['moves']} have a non-integer component")
    moves_key = _moves_key(pairs)
    q, n, count = obj["q"], obj["n"], obj["count"]
    if type(q) is not int or type(n) is not int:
        raise ValueError(f"q {q!r} and n {n!r} must be integers")
    if not (isinstance(count, str) and count.isascii() and count.isdigit()):
        raise ValueError(f"count {count!r} is not a decimal string")
    return (moves_key, q, n), int(count)


@functools.cache
def _moves_key(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The canonical key of a move list, each distinct list validated once.

    Only lists of exact ints may be passed: ``(True, 0)`` and ``(1.0, 0)``
    equal ``(1, 0)`` and hash alike, so they would be served the key made
    for ``[1, 0]`` without being checked."""
    return MoveSet.from_pairs(pairs).canonical_key()


# Per path loaded in this process: the bytes of the complete lines parsed,
# and the entries, first line per key, warnings and line count they gave.
_held: dict[Path, tuple[bytes, dict[Key, int], dict[Key, int], tuple[str, ...], int]] = {}
_UNREAD = (b"", {}, {}, (), 0)


class CountCache:
    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._entries: dict[Key, int] = {}
        self._pending: list[bytes] = []  # lines put since the last flush
        self._torn = False  # the file as loaded ends in a line without its \n
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self._open("rb") as fh:
            data = fh.read()
        held, entries, first_line, warnings, lineno = _held.get(self.path, _UNREAD)
        if not data.startswith(held):
            held, entries, first_line, warnings, lineno = _UNREAD
        for warning in warnings:
            print(warning, file=sys.stderr)
        end = data.rfind(b"\n") + 1  # the complete lines end here
        if end > len(held):
            entries, first_line, warnings = dict(entries), dict(first_line), list(warnings)
            lineno = self._parse(data[len(held):end], lineno, entries, first_line, warnings)
            _held[self.path] = (data[:end], entries, first_line, tuple(warnings), lineno)
        self._entries = dict(entries)
        self._torn = end < len(data)
        if self._torn:
            self._parse(data[end:], lineno, self._entries, dict(first_line), [])

    def _parse(
        self, chunk: bytes, lineno: int, entries: dict[Key, int], first_line: dict[Key, int], warnings: list[str]
    ) -> int:
        """Read the lines of ``chunk``, numbered after ``lineno``, into
        ``entries``, warning of each corrupt one and raising
        ``CacheConflictError`` on a count that differs from the key's
        first; returns the number of the last line."""
        for lineno, line in enumerate(io.BytesIO(chunk), start=lineno + 1):
            if not line.strip():
                continue
            try:
                key, count = _record(line)
            except (ValueError, KeyError, TypeError) as err:
                warning = f"warning: skipping corrupt cache line {lineno} in {self.path}: {err}"
                print(warning, file=sys.stderr)
                warnings.append(warning)
                continue
            known = entries.setdefault(key, count)
            first = first_line.setdefault(key, lineno)
            if known != count:
                moves, q, n = key
                raise CacheConflictError(
                    f"{self.path}: moves {[list(cd) for cd in moves]}, q={q}, n={n} "
                    f"has count {known} on line {first} and {count} on line {lineno}"
                )
        return lineno

    def get(self, moves: MoveSet, q: int, n: int) -> Optional[int]:
        return self._entries.get((moves.canonical_key(), q, n))

    def put(self, moves: MoveSet, q: int, n: int, count: int) -> None:
        """Hold a new record; ``flush`` appends it to the file."""
        key = (moves.canonical_key(), q, n)
        if key in self._entries:
            return
        self._entries[key] = count
        # the JSON of the record: a list of int lists prints as JSON does
        self._pending.append(
            f'{{"moves": {[list(cd) for cd in key[0]]}, "q": {q}, "n": {n}, "count": "{count}"}}\n'.encode()
        )

    def flush(self) -> None:
        """Append the records held since the last flush, in one write."""
        if not self._pending:
            return
        with self._open("ab") as fh:
            fh.write(b"\n" * self._torn + b"".join(self._pending))
        self._pending.clear()
        self._torn = False

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
