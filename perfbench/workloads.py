"""The three benchmark workloads: their inputs, made from the seed, and their checks.

Each workload builds the inputs of one operation (see ``op.py``) and a
checker that turns the operation's outputs into one verdict per checked
call.  The checks use pinned data from ``data/`` and oracles written here,
independent of the package, wherever the package's own answer is not the
thing being certified.

Why these three (see README.md for the layer each one stresses):

* ``queen-q4``: deep search.  The enumerator does almost all the work, so a
  faster enumerator shows here first.
* ``verify-all``: the whole certification suite.  The pattern counter and
  catalog assembly dominate; the enumerator only sees small boards.
* ``rider-sweep``: many small CLI calls on riders of every shape, against
  a fresh count cache, run once cold (cache writes) and once warm (cache
  reads only).  Attack-table set-up, fitting, argument parsing and cache
  I/O are a large share, so per-call overheads show here.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qqueens import formulas
from qqueens.core import ALL_PIECE_SPECS
from qqueens.quasipoly import QuasiPolynomial

DATA = Path(__file__).resolve().parent / "data"

QUEEN_MOVES = frozenset({(1, 0), (0, 1), (1, 1), (1, -1)})
RIDER_COUNT = 6
RIDER_Q2_N = range(1, 21)
RIDER_Q3_N = range(1, 13)


@dataclass
class Operation:
    """Inputs for one run of ``op.py``, the checker for its outputs, and the
    number of verdicts a complete run yields (each is one attempted call)."""

    kind: str
    inputs: dict
    check: Callable[[list[dict]], list[bool]]
    calls: int


def load_queen_q4() -> dict:
    return json.loads((DATA / "queen_q4.json").read_text())


def queen_q4(seed: int, cache_dir: Path) -> Operation:
    """u(4; n) for the queen, n = 1..19, each checked against its pinned value."""
    pinned = load_queen_q4()
    ns = sorted(int(n) for n in pinned["counts"])
    expected = [pinned["counts"][str(n)] for n in ns]

    def check(outputs):
        return [out.get("count") == want for out, want in zip(outputs, expected)]

    return Operation("counts", {"moves": pinned["moves"], "q": pinned["q"], "n": ns}, check, len(ns))


def verify_all(seed: int, cache_dir: Path) -> Operation:
    """``qqueens verify --scope all``: exit 0 and stdout byte-identical to the pinned copy."""
    pinned = (DATA / "verify_all.txt").read_text()

    def check(outputs):
        return [out["exit"] == 0 and out["error"] is None and out["stdout"] == pinned for out in outputs]

    return Operation("cli", {"calls": [["verify", "--scope", "all"]]}, check, 1)


def _move_vectors(bound: int = 3) -> list[tuple[int, int]]:
    """Canonical basic moves with |c|, |d| <= bound."""
    out = []
    for c in range(0, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(c, abs(d)) == 1 and (c > 0 or d == 1):
                out.append((c, d))
    return out


def draw_riders(rng: random.Random, count: int) -> list[tuple[tuple[int, int], ...]]:
    """Distinct riders of 2 or 3 moves, none of them a partial queen."""
    vectors = _move_vectors()
    riders: list[tuple[tuple[int, int], ...]] = []
    while len(riders) < count:
        moves = tuple(sorted(rng.sample(vectors, rng.choice((2, 3)))))
        if set(moves) <= QUEEN_MOVES or moves in riders:
            continue
        riders.append(moves)
    return riders


def line_alpha(move: tuple[int, int], n: int) -> int:
    """Ordered pairs of squares (coincident included) on a common line of the move."""
    c, d = abs(move[0]), abs(move[1])
    total, t = n * n, 1
    while n - t * c > 0 and n - t * d > 0:
        total += 2 * (n - t * c) * (n - t * d)
        t += 1
    return total


def rider_pairs(moves, n: int) -> int:
    """Nonattacking 2-sets by the line identity: two distinct squares share at most one line."""
    return math.comb(n * n, 2) - sum((line_alpha(m, n) - n * n) // 2 for m in moves)


def attack_graph(moves, n: int) -> list[int]:
    """Adjacency bitsets of the n x n board: two squares attack when their
    difference is parallel to a move."""
    squares = [(x, y) for x in range(n) for y in range(n)]
    adjacency = [0] * len(squares)
    for i, j in itertools.combinations(range(len(squares)), 2):
        dx, dy = squares[j][0] - squares[i][0], squares[j][1] - squares[i][1]
        if any(dx * d == dy * c for c, d in moves):
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return adjacency


def rider_triples(moves, n: int) -> int:
    """Nonattacking 3-sets by inclusion-exclusion over the attack graph:
    C(N, 3) - E (N - 2) + sum_v C(deg v, 2) - triangles."""
    adjacency = attack_graph(moves, n)
    size = len(adjacency)
    degrees = [a.bit_count() for a in adjacency]
    edges = sum(degrees) // 2
    # Each triangle is seen once from each of its three edges.
    triangles = sum((adjacency[i] & adjacency[j]).bit_count()
                    for i in range(size) for j in range(i + 1, size) if adjacency[i] >> j & 1) // 3
    return (math.comb(size, 3) - edges * (size - 2)
            + sum(math.comb(deg, 2) for deg in degrees) - triangles)


def _span(ns: range) -> str:
    return f"{ns[0]}..{ns[-1]}"


def _count_rows(stdout: str) -> list[tuple[int, int]]:
    return [(int(row["n"]), int(row["count"])) for row in json.loads(stdout)]


def rider_sweep(seed: int, cache_dir: Path) -> Operation:
    """Fits and type counts for all partial queens plus counts for seeded riders,
    in a seeded order, run cold against an empty cache and then warm."""
    rng = random.Random(seed)
    cache = str(cache_dir / "counts.jsonl")
    jobs: list[tuple[list[str], Callable[[dict], bool]]] = []

    def fits(qp_json: str, closed: QuasiPolynomial) -> bool:
        return QuasiPolynomial.from_json_dict(json.loads(qp_json)) == closed

    for spec in ALL_PIECE_SPECS:
        piece = f"{spec.h},{spec.k}"
        u2 = QuasiPolynomial.constant_poly(formulas.u2_closed(spec.h, spec.k))
        u3 = formulas.u3_closed(spec.h, spec.k)
        jobs.append((["fit", "--piece", piece, "--q", "2"], lambda o, u=u2: fits(o["stdout"], u)))
        jobs.append((["fit", "--piece", piece, "--q", "3"], lambda o, u=u3: fits(o["stdout"], u)))
        jobs.append((["types", "--piece", piece, "--q", "3"],
                     lambda o: {r["field"]: r["value"] for r in json.loads(o["stdout"])}["match"] == "True"))
    for moves in draw_riders(rng, RIDER_COUNT):
        text = json.dumps([list(m) for m in moves])
        want2 = [(n, rider_pairs(moves, n)) for n in RIDER_Q2_N]
        want3 = [(n, rider_triples(moves, n)) for n in RIDER_Q3_N]
        jobs.append((["count", "--moves", text, "--q", "2", "--n", _span(RIDER_Q2_N)],
                     lambda o, w=want2: _count_rows(o["stdout"]) == w))
        jobs.append((["count", "--moves", text, "--q", "3", "--n", _span(RIDER_Q3_N)],
                     lambda o, w=want3: _count_rows(o["stdout"]) == w))
    rng.shuffle(jobs)
    calls = [argv + ["--cache", cache, "--format", "json"] for argv, _ in jobs]

    def check(outputs):
        cold, warm = outputs[: len(jobs)], outputs[len(jobs):]
        verdicts = [_safe(ok, out) for (_, ok), out in zip(jobs, cold)]
        verdicts += [w == c and v for c, w, v in zip(cold, warm, verdicts)]
        return verdicts

    return Operation("cli", {"calls": calls + calls}, check, 2 * len(calls))


def _safe(ok: Callable[[dict], bool], out: dict) -> bool:
    if out["exit"] != 0 or out["error"] is not None:
        return False
    try:
        return bool(ok(out))
    except (ValueError, KeyError, TypeError):
        return False


WORKLOADS: dict[str, Callable[[int, Path], Operation]] = {
    "queen-q4": queen_q4,
    "verify-all": verify_all,
    "rider-sweep": rider_sweep,
}
