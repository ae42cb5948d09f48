import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qqueens

from conftest import cyclic_garbage, naive_cache_load
import qqueens.cache as cache
from qqueens.cli import main
from qqueens.cache import ENV_VAR, CacheConflictError, CountCache
from qqueens.core import Move, MoveSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_queen_pairs(capsys):
    code, out, _ = run_cli(capsys, "count", "--piece", "2,2", "--q", "2", "--n", "1..5")
    assert code == 0
    counts = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert counts == ["0", "0", "8", "44", "140"]


def test_count_rejects_illegal_piece(capsys):
    with pytest.raises(SystemExit):
        main(["count", "--piece", "0,0", "--q", "3", "--n", "3"])


def test_count_explicit_moves(capsys):
    code, out, _ = run_cli(capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "2")
    assert code == 0
    assert out.strip().splitlines()[1].split() == ["2", "4"]


@pytest.mark.parametrize("moves", ["[[1.9,0]]", "[[true,0]]", '[["1","2"]]', "[[1,0.0]]", "[[false,-1]]"])
def test_count_rejects_moves_that_are_not_integers(moves):
    # no component is rounded or coerced into a move
    with pytest.raises(SystemExit) as exc:
        main(["count", "--moves", moves, "--q", "2", "--n", "3"])
    assert exc.value.code == 2


def test_count_json_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--piece", "1,1", "--q", "2", "--n", "2..3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"count": "3", "n": "2"}, {"count": "22", "n": "3"}]


def test_count_csv_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--piece", "1,1", "--q", "2", "--n", "2..3", "--format", "csv")
    assert code == 0
    assert out == "n,count\n2,3\n3,22\n"


def test_count_budget_exceeded_flags_partial(capsys):
    code, out, err = run_cli(
        capsys, "count", "--piece", "2,2", "--q", "3", "--n", "1..12", "--budget", "4000"
    )
    assert code == 3
    assert "budget" in err
    assert "partial" in out


def test_count_budget_partial_rows_are_computed_once(capsys, monkeypatch):
    from qqueens import enumerator
    from qqueens.core import PartialQueenSpec, partial_queen

    monkeypatch.delenv(ENV_VAR, raising=False)
    computed = []
    real = enumerator.count_unlabelled

    def counting(moves, q, n, budget=enumerator.DEFAULT_BUDGET):
        computed.append(n)
        return real(moves, q, n, budget=budget)

    monkeypatch.setattr(enumerator, "count_unlabelled", counting)
    code, out, err = run_cli(
        capsys, "count", "--piece", "2,2", "--q", "3", "--n", "2..12",
        "--budget", "4000", "--format", "json",
    )
    assert code == 3
    rows = json.loads(out)
    last = int(rows[-1]["n"])
    assert f"last completed board size n={last}" in err
    queen = partial_queen(PartialQueenSpec(2, 2))
    assert rows == [
        {"n": str(n), "count": str(real(queen, 3, n)), "status": "partial"}
        for n in range(2, last + 1)
    ]
    # each size is searched once; the size that ran out of budget is the last
    assert computed == list(range(2, last + 2))


def test_fit_queen_three_pieces_json(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--piece", "2,2", "--q", "3", "--n", "1..17", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["period"] == 2 and obj["degree"] == 6
    from qqueens.formulas import table2_row
    from qqueens.quasipoly import QuasiPolynomial

    assert QuasiPolynomial.from_json_dict(obj) == table2_row(2, 2)


def test_fit_semirook_two_pieces(capsys):
    code, out, _ = run_cli(capsys, "fit", "--piece", "1,0", "--q", "2", "--n", "1..7")
    assert code == 0
    assert "period" in out and "1" in out


def test_fit_rook_three_pieces(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--piece", "2,0", "--q", "3", "--n", "1..9", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    from qqueens.formulas import table2_row
    from qqueens.quasipoly import QuasiPolynomial

    assert QuasiPolynomial.from_json_dict(obj) == table2_row(2, 0)


def test_fit_finds_a_period_beyond_two_when_the_samples_allow(capsys):
    # the (1,3) rider's pair count has period 3; n = 1..18 gives each class 6 samples
    from qqueens.core import MoveSet
    from qqueens.enumerator import count_unlabelled
    from qqueens.quasipoly import QuasiPolynomial, evaluate

    code, out, _ = run_cli(capsys, "fit", "--moves", "[[1,3]]", "--q", "2", "--n", "1..18")
    assert code == 0
    assert out.splitlines()[1].split() == ["period", "3"]
    code, out, _ = run_cli(
        capsys, "fit", "--moves", "[[1,3]]", "--q", "2", "--n", "1..18", "--format", "json"
    )
    assert code == 0
    qp = QuasiPolynomial.from_json_dict(json.loads(out))
    rider = MoveSet.from_json("[[1,3]]")
    assert all(evaluate(qp, n) == count_unlabelled(rider, 2, n) for n in range(19, 31))


def test_fit_insufficient_samples_fails(capsys):
    code, _, err = run_cli(capsys, "fit", "--piece", "2,2", "--q", "3", "--n", "1..8")
    assert code == 1
    assert "fit failed" in err or "inconsistent" in err


def test_verify_coeffs_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "coeffs")
    assert code == 0
    assert "FAIL" not in out


def test_verify_tables_scope_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "tables", "--n-max", "4")
    assert code == 0
    assert "FAIL" not in out


def test_verify_gamma5_sign_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "gamma5-sign")
    assert code == 0
    # the notes follow the table in text format only
    *table, piece_a, piece_b, conclusion = out.splitlines()
    assert len(table) == 2  # header and the one claim
    assert [line.split(":")[0] for line in (piece_a, piece_b)] == ["piece (1,2)", "piece (2,2)"]
    assert conclusion == "conclusion: three-piece table carries the correct sign"
    code, out, _ = run_cli(capsys, "verify", "--scope", "gamma5-sign", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 1
    assert "conclusion:" not in out


def test_audit_report_json(capsys):
    from qqueens.audit import case_catalog

    code, out, _ = run_cli(
        capsys, "audit", "--piece", "2,2", "--n", "1..3", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert all(set(r) == {"case", "h", "k", "n", "brute", "closed", "match"} for r in records)
    assert all(r["match"] for r in records)
    assert {r["case"] for r in records} == {c.name for c in case_catalog()}


def test_audit_all_pieces_small(capsys):
    code, out, _ = run_cli(capsys, "audit", "--n", "1..2", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert all(r["match"] for r in records)


def test_types_queen_q2(capsys):
    code, out, _ = run_cli(capsys, "types", "--piece", "1,2", "--q", "2", "--n", "1..7")
    assert code == 0
    assert "3" in out  # h + k = 3


def test_types_queen_q3(capsys):
    code, out, _ = run_cli(capsys, "types", "--piece", "2,2", "--q", "3", "--n", "1..17")
    assert code == 0
    assert "36" in out


def test_types_without_a_printed_count_claims_no_match(capsys):
    # no type count is printed for q = 4, so there is nothing to compare
    code, out, _ = run_cli(capsys, "types", "--piece", "1,0", "--q", "4", "--n", "1..12")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["field", "fitted", "value"]
    assert "match" not in out and "expected" not in out


def test_types_exploratory_moves(capsys):
    # a three-move rider outside the h,k family: slopes 0, +1, and 2
    code, out, _ = run_cli(
        capsys, "types", "--moves", "[[1,0],[1,1],[1,2]]", "--q", "2", "--n", "1..14"
    )
    assert code == 0
    assert "exploratory" in out


def test_types_exploratory_three_pieces_matches_conjecture(capsys):
    code, out, _ = run_cli(
        capsys, "types", "--moves", "[[1,0],[1,1],[1,2]]", "--q", "3", "--n", "1..24"
    )
    assert code == 0
    assert "exploratory" in out
    assert "17" in out and "True" in out


def test_formulas_dump(capsys):
    code, out, _ = run_cli(capsys, "formulas", "--piece", "2,2", "--q", "3", "--format", "latex")
    assert code == 0
    assert "tabular" in out and "gamma2" in out
    assert "gamma6" not in out  # its row starts at q = 4


def test_formulas_q4_prints_the_gamma6_periodic_part(capsys):
    code, out, _ = run_cli(capsys, "formulas", "--piece", "2,2", "--q", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "value"]
    assert dict(rows[1:])["gamma6 periodic part"] == "-1/8"


def test_formulas_requires_piece(capsys):
    code, out, err = run_cli(capsys, "formulas", "--q", "3")
    assert code == 2
    assert out == ""
    assert err == "error: formulas needs --piece H,K\n"


def test_cache_round_trip_and_byte_identical_reports(tmp_path, capsys):
    cache_file = tmp_path / "counts.jsonl"
    args = ["count", "--piece", "2,2", "--q", "2", "--n", "1..6", "--cache", str(cache_file), "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    assert cache_file.exists()
    first = cache_file.read_text()
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert out1 == out2  # warm rerun is byte-identical
    assert cache_file.read_text() == first  # nothing re-appended


def test_cache_corrupt_lines_skipped(tmp_path, capsys):
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_text(
        '{"moves": [[1, 0]], "q": 2, "n": 2, "count": "999"}\n'
        "not json at all\n"
        '{"moves": [[1, 0]], "q": 2, "count": "7"}\n'
    )
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "2", "--cache", str(cache_file), "--format", "json"
    )
    assert code == 0
    assert "skipping corrupt cache line" in err
    # the valid (wrong) cached value is trusted over recomputation by design
    assert json.loads(out) == [{"n": "2", "count": "999"}]


def test_cache_line_that_is_not_utf8_skipped(tmp_path, capsys):
    # a bad byte spoils only its own line; the records around it are still read
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_bytes(
        b'{"moves": [[1, 0]], "q": 2, "n": 2, "count": "999"}\n'
        b"\xff\n"
        b'{"moves": [[1, 0]], "q": 2, "n": 3, "count": "888"}\n'
    )
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "2..3", "--cache", str(cache_file),
        "--format", "json",
    )
    assert code == 0
    assert "skipping corrupt cache line 2" in err
    assert json.loads(out) == [{"n": "2", "count": "999"}, {"n": "3", "count": "888"}]


def test_cache_lines_end_at_newline_only(tmp_path, capsys):
    # a carriage return does not end a line, so the record after one is part
    # of corrupt line 2, and the lines after it keep their numbers
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_bytes(
        b'{"moves": [[1, 0]], "q": 2, "n": 2, "count": "999"}\n'
        b'junk\r{"moves": [[1, 0]], "q": 2, "n": 3, "count": "9"}\n'
        b"not json\n"
        b'{"moves": [[1, 0]], "q": 2, "n": 4, "count": "777"}\n'
    )
    args = ["count", "--moves", "[[1,0]]", "--q", "2", "--n", "2..4", "--cache", str(cache_file), "--format", "json"]
    for _ in range(2):  # a fresh load and one that reads what the first held
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert [line.startswith(f"warning: skipping corrupt cache line {k} in {cache_file}: ")
                for k, line in zip((2, 3), err.splitlines())] == [True, True]
        assert len(err.splitlines()) == 2
        assert json.loads(out) == [{"n": "2", "count": "999"}, {"n": "3", "count": "27"}, {"n": "4", "count": "777"}]


def test_cache_record_appended_after_a_torn_line_is_read_back(tmp_path, capsys):
    # the file ends in a line without its newline: the record appended after
    # it starts a line of its own, and the torn line still warns
    cache_file = tmp_path / "counts.jsonl"
    torn = '{"moves": [[1, 0]], "q": 2, "n": 2, "count": "4"}\n{"moves": [[1, 0]], "q"'
    cache_file.write_text(torn)
    args = ["count", "--moves", "[[1,0]]", "--q", "2", "--n", "2..3", "--cache", str(cache_file), "--format", "json"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert "skipping corrupt cache line 2" in err
    assert json.loads(out) == [{"n": "2", "count": "4"}, {"n": "3", "count": "27"}]
    written = cache_file.read_text()
    assert written == torn + "\n" + '{"moves": [[1, 0]], "q": 2, "n": 3, "count": "27"}\n'
    moves = MoveSet.from_pairs([[1, 0]])
    assert naive_cache_load(cache_file)[(moves.canonical_key(), 2, 3)] == 27
    code, out2, err = run_cli(capsys, *args)
    assert (code, out2) == (0, out)
    assert "skipping corrupt cache line 2" in err and "line 3" not in err
    assert cache_file.read_text() == written  # the record was read back, not counted again


def test_cache_path_that_cannot_be_opened_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "count", "--piece", "2,2", "--q", "2", "--n", "3", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    assert len(err.splitlines()) == 1


def test_cache_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    # the parent of the cache path is a regular file: reading finds no
    # cache, and the first write cannot make the directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "x"
    code, out, err = run_cli(capsys, "count", "--piece", "2,2", "--q", "2", "--n", "3", "--cache", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot open --cache {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "record",
    [
        '{"moves": [[1.5, 0]], "q": 2.7, "n": 3, "count": "999"}',
        '{"moves": [[1, 0]], "q": 2.0, "n": 3, "count": "999"}',
        '{"moves": [[true, 0]], "q": 2, "n": 3, "count": "999"}',
        '{"moves": [[false, -1]], "q": 2, "n": 3, "count": "999"}',
        '{"moves": [["1", "0"]], "q": 2, "n": 3, "count": "999"}',
        '{"moves": [[1, 0]], "q": 2, "n": true, "count": "999"}',
        '{"moves": [[1, 0]], "q": 2, "n": "3", "count": "999"}',
        '{"moves": [[1, 0]], "q": 2, "n": 3, "count": 999}',
        '{"moves": [[1, 0]], "q": 2, "n": 3, "count": "-999"}',
        '{"moves": [[1, 0]], "q": 2, "n": 3, "count": " 999"}',
    ],
)
def test_cache_line_with_non_integer_fields_skipped(tmp_path, capsys, record):
    # a record is served only when moves, q and n are JSON integers and the count a decimal string
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_text(record + "\n")
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "3", "--cache", str(cache_file)
    )
    assert code == 0
    assert "skipping corrupt cache line 1" in err
    assert out.strip().splitlines()[1].split() == ["3", "27"]


def test_cache_line_equal_to_a_valid_one_but_not_integer_skipped(tmp_path, capsys):
    # each distinct move list is validated once per process; [true, 0] and
    # [1.0, 0] compare equal to [1, 0], read earlier, and must still be checked
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_text(
        '{"moves": [[1, 0]], "q": 2, "n": 2, "count": "4"}\n'
        '{"moves": [[true, 0]], "q": 2, "n": 3, "count": "999"}\n'
        '{"moves": [[1.0, 0]], "q": 2, "n": 3, "count": "999"}\n'
    )
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "2..3", "--cache", str(cache_file), "--format", "json"
    )
    assert code == 0
    assert "skipping corrupt cache line 2" in err and "skipping corrupt cache line 3" in err
    assert json.loads(out) == [{"n": "2", "count": "4"}, {"n": "3", "count": "27"}]


def test_cache_conflict_across_move_orders_exits_1(tmp_path, capsys):
    # two orders of one move set share a key, so their counts must agree
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_text(
        '{"moves": [[0, 1], [1, 0]], "q": 2, "n": 2, "count": "2"}\n'
        '{"moves": [[1, 0], [0, 1]], "q": 2, "n": 2, "count": "3"}\n'
    )
    code, out, err = run_cli(
        capsys, "count", "--piece", "2,0", "--q", "2", "--n", "2", "--cache", str(cache_file)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("cache conflict: ")
    assert "moves [[0, 1], [1, 0]], q=2, n=2 has count 2 on line 1 and 3 on line 2" in err


def test_cache_conflict_exits_1_naming_both_records(tmp_path, capsys):
    cache_file = tmp_path / "counts.jsonl"
    cache_file.write_text(
        '{"moves": [[1, 0]], "q": 2, "n": 2, "count": "4"}\n'
        '{"moves": [[1, 0]], "q": 2, "n": 3, "count": "18"}\n'
        '{"moves": [[1, 0]], "q": 2, "n": 2, "count": "5"}\n'
    )
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "2", "--cache", str(cache_file)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("cache conflict: ")
    assert "moves [[1, 0]], q=2, n=2 has count 4 on line 1 and 5 on line 3" in err


def test_cache_identical_duplicate_records_accepted(tmp_path, capsys):
    cache_file = tmp_path / "counts.jsonl"
    record = '{"moves": [[1, 0]], "q": 2, "n": 2, "count": "999"}\n'
    cache_file.write_text(record + record)
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "2", "--cache", str(cache_file), "--format", "json"
    )
    assert code == 0
    assert err == ""
    assert json.loads(out) == [{"n": "2", "count": "999"}]


def loaded(load, path):
    """What one load of ``path`` yields: its entries or its conflict message,
    and the warnings it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            result = load(path)
        except CacheConflictError as conflict:
            result = str(conflict)
    return result, err.getvalue()


# Move lists drawn in several orders and signs; each key's true count is
# q * 100 + n, so a record's count differs only when a conflict is drawn.
CACHE_MOVES = ([[1, 0]], [[-1, 0]], [[0, 1], [1, 0]], [[1, 0], [0, 1]], [[1, 1], [1, -1]], [[1, -1], [-1, -1]])
CORRUPT_LINES = (
    b"\xff\n",
    b'{"moves": [[true, 0]], "q": 2, "n": 1, "count": "201"}\n',
    b'{"moves": [[1.0, 0]], "q": 2, "n": 1, "count": "201"}\n',
    b'{"moves": [[1, 0]], "q": 2.0, "n": 1, "count": "201"}\n',
    b'{"moves": [[1, 0]], "q": 2, "n": 1, "count": 999}\n',
    b'{"moves": [[1, 0]], "q": 2, "n": 1, "count": "-1"}\n',
    b'{"moves": [1, 0], "q": 2, "n": 1, "count": "201"}\n',
    b"not json\n",
    b"\n",
)
valid_lines = st.builds(
    lambda moves, q, n, conflict: (
        json.dumps({"moves": moves, "q": q, "n": n, "count": str(q * 100 + n + conflict)}) + "\n"
    ).encode(),
    st.sampled_from(CACHE_MOVES),
    st.integers(2, 3),
    st.integers(1, 3),
    st.sampled_from((0,) * 7 + (1,)),
)


@given(st.lists(st.one_of(valid_lines, valid_lines, st.sampled_from(CORRUPT_LINES)), max_size=12))
@settings(deadline=None)
def test_cache_loads_match_a_fresh_parse(tmp_path_factory, lines):
    # both loads of a file in one process agree with a parse that keeps
    # nothing between loads: entries, warnings and conflict messages
    path = tmp_path_factory.mktemp("cache") / "counts.jsonl"
    path.write_bytes(b"".join(lines))
    expected = loaded(naive_cache_load, path)
    for _ in range(2):
        result, err = loaded(lambda p: CountCache(p)._entries, path)
        assert (result, err) == expected


# An edit of the cache file between two loads: lines appended (a line may
# arrive in two parts, loaded in between), one byte rewritten in place, or
# the file cut at some length.
cache_edits = st.one_of(
    st.tuples(st.just("append"), st.one_of(valid_lines, valid_lines, st.sampled_from(CORRUPT_LINES)),
              st.none() | st.integers(0, 60)),
    st.tuples(st.just("rewrite"), st.integers(0, 2000), st.sampled_from(b"0123456789 \n")),
    st.tuples(st.just("truncate"), st.integers(0, 2000)),
)


@given(st.lists(cache_edits, max_size=10))
@settings(deadline=None)
def test_cache_loads_after_edits_match_a_fresh_parse(tmp_path_factory, edits):
    # every load in one process after each edit agrees with a fresh parse:
    # what an earlier load held is reused only while the file starts with it
    path = tmp_path_factory.mktemp("cache") / "counts.jsonl"
    data = b""

    def check(new: bytes) -> None:
        path.write_bytes(new)
        assert loaded(lambda p: CountCache(p)._entries, path) == loaded(naive_cache_load, path)

    for kind, *args in edits:
        if kind == "append":
            line, cut = args
            if cut is not None and cut < len(line):
                check(data + line[:cut])  # a partial last line, completed below
            data += line
        elif kind == "rewrite" and data:
            at, byte = args[0] % len(data), args[1]
            data = data[:at] + bytes([byte]) + data[at + 1:]
        elif kind == "truncate":
            data = data[: args[0] % (len(data) + 1)]
        check(data)


big = st.integers(-(2**70), 2**70)


@given(
    st.lists(st.tuples(big, big).filter(lambda v: math.gcd(*v) == 1), min_size=1, max_size=4,
             unique_by=lambda v: Move.from_vector(*v)),
    st.integers(1, 2**70),
    st.integers(1, 2**70),
    st.integers(0, 2**200),
)
@example([[1, -2], [3, -1]], 2, 3, 2**64 + 1)
@settings(deadline=None)
def test_cache_record_line_is_the_json_of_the_record(tmp_path_factory, pairs, q, n, count):
    # the line put writes is json.dumps of the record, and a load reads it back
    path = tmp_path_factory.mktemp("cache") / "counts.jsonl"
    moves = MoveSet.from_pairs(pairs)
    store = CountCache(path)
    store.put(moves, q, n, count)
    store.flush()
    record = {"moves": [list(cd) for cd in moves.canonical_key()], "q": q, "n": n, "count": str(count)}
    assert path.read_bytes() == (json.dumps(record) + "\n").encode()
    assert CountCache(path).get(moves, q, n) == count


RECORD = '{{"moves": [[1, 0]], "q": 2, "n": {n}, "count": "{count}"}}\n'


def test_cache_reload_parses_only_the_appended_lines(tmp_path, monkeypatch):
    path = tmp_path / "counts.jsonl"
    path.write_text("".join(RECORD.format(n=n, count=100 + n) for n in range(1, 6)))
    assert len(CountCache(path)) == 5
    parsed = []
    record = cache._record
    monkeypatch.setattr(cache, "_record", lambda line: parsed.append(line) or record(line))
    with path.open("a") as fh:
        fh.write("".join(RECORD.format(n=n, count=100 + n) for n in range(6, 9)))
    reloaded = CountCache(path)
    assert len(parsed) == 3
    assert reloaded.get(MoveSet.from_pairs([[1, 0]]), 2, 8) == 108 and len(reloaded) == 8
    assert len(CountCache(path)) == 8 and len(parsed) == 3


def test_cache_line_rewritten_in_place_is_read_again(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text(RECORD.format(n=2, count=4) + RECORD.format(n=3, count=18))
    moves = MoveSet.from_pairs([[1, 0]])
    assert CountCache(path).get(moves, 2, 3) == 18
    path.write_text(RECORD.format(n=2, count=4) + RECORD.format(n=3, count=19))
    assert CountCache(path).get(moves, 2, 3) == 19


def test_cache_conflict_appended_after_a_warm_load_exits_1(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    path.write_text(RECORD.format(n=2, count=4))
    args = ["count", "--moves", "[[1,0]]", "--q", "2", "--n", "2", "--cache", str(path)]
    assert run_cli(capsys, *args)[0] == 0
    with path.open("a") as fh:
        fh.write(RECORD.format(n=2, count=5))
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert "has count 4 on line 1 and 5 on line 2" in err


def test_cache_corrupt_line_warns_on_every_load(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    path.write_text(RECORD.format(n=2, count=4) + RECORD.format(n=3, count="-1"))
    args = ["count", "--moves", "[[1,0]]", "--q", "2", "--n", "2", "--cache", str(path)]
    for _ in range(2):
        code, _, err = run_cli(capsys, *args)
        assert code == 0
        assert "skipping corrupt cache line 2" in err


@pytest.mark.parametrize("moves", ["[[true, 0]]", "[[1.0, 0]]"])
def test_cache_move_list_equal_to_one_read_earlier_is_still_checked(tmp_path, capsys, moves):
    # [true, 0] and [1.0, 0] equal [1, 0], which a load earlier in the
    # process read, and must not be served its checked key
    valid = tmp_path / "valid.jsonl"
    valid.write_text(RECORD.format(n=2, count=4))
    assert len(CountCache(valid)) == 1
    path = tmp_path / "counts.jsonl"
    path.write_text(f'{{"moves": {moves}, "q": 2, "n": 3, "count": "999"}}\n')
    code, out, err = run_cli(
        capsys, "count", "--moves", "[[1,0]]", "--q", "2", "--n", "3", "--cache", str(path), "--format", "json"
    )
    assert code == 0
    assert "skipping corrupt cache line 1" in err
    assert json.loads(out) == [{"n": "3", "count": "27"}]


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_file = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv(ENV_VAR, str(cache_file))
    code, _, _ = run_cli(capsys, "count", "--piece", "1,0", "--q", "2", "--n", "1..3")
    assert code == 0
    assert cache_file.exists()


def test_cache_env_var_is_read_at_each_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so the variable must not be its default
    for name in ("first.jsonl", "second.jsonl"):
        cache_file = tmp_path / name
        monkeypatch.setenv(ENV_VAR, str(cache_file))
        code, _, _ = run_cli(capsys, "count", "--piece", "1,0", "--q", "2", "--n", "1..3")
        assert code == 0
        assert cache_file.exists()


def test_empty_cache_flag_overrides_the_env_var(tmp_path, capsys, monkeypatch):
    cache_file = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv(ENV_VAR, str(cache_file))
    code, _, _ = run_cli(capsys, "count", "--piece", "1,0", "--q", "2", "--n", "1..3", "--cache", "")
    assert code == 0
    assert not cache_file.exists()


def test_cache_env_var_that_cannot_be_opened_names_its_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    code, out, err = run_cli(capsys, "count", "--piece", "2,2", "--q", "2", "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot open --cache {tmp_path}: ")


def test_repeated_count_leaves_no_cyclic_garbage(capsys, monkeypatch):
    # the parser is built once and kept, not rebuilt as garbage at each call
    monkeypatch.delenv(ENV_VAR, raising=False)
    argv = ["count", "--piece", "2,2", "--q", "3", "--n", "1..4"]
    assert main(argv) == 0
    assert cyclic_garbage(lambda: main(argv)) == []
    capsys.readouterr()


def test_verify_exit_nonzero_on_failure(monkeypatch, capsys):
    # force one claim to fail to confirm the exit-status contract
    import qqueens.reports as reports

    real = reports.suite_coeffs

    def broken():
        claims = real()
        claims.append(reports.ClaimResult("forced failure", False))
        return claims

    monkeypatch.setattr(reports, "suite_coeffs", broken)
    code, out, _ = run_cli(capsys, "verify", "--scope", "coeffs")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("n_max", [None, 11])
def test_verify_all_gives_each_suite_its_own_scope_ceiling(monkeypatch, n_max):
    import qqueens.reports as reports

    calls = []

    def recorder(name):
        def suite(*args, **kwargs):
            calls.append((name, args, kwargs))
            return ([], []) if name == "suite_audit" else []
        return suite

    for name in ("suite_attacklines", "suite_tables", "suite_coeffs", "suite_audit",
                 "suite_assembly", "suite_types", "suite_gamma5_sign"):
        monkeypatch.setattr(reports, name, recorder(name))
    for scope in reports.SUITES:
        reports.run_verify(scope, n_max)
    one_by_one = calls[:]
    calls.clear()
    assert reports.run_verify("all", n_max) == []
    assert calls == one_by_one
    assert len(calls) == len(reports.SUITES) == 7


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_verify_rejects_n_max_below_one(n_max):
    # a ceiling below 1 leaves no board size to check
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "attacklines", "--n-max", n_max])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["fit", "types"])
def test_fit_and_types_out_of_budget_exit_3(capsys, monkeypatch, command):
    # no partial rows to flag: the message on stderr and nothing on stdout
    monkeypatch.delenv(ENV_VAR, raising=False)
    code, out, err = run_cli(capsys, command, "--piece", "2,2", "--q", "4", "--budget", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_count_rejects_budget_below_one(budget):
    # a budget below 1 stops every search before its first node
    with pytest.raises(SystemExit) as exc:
        main(["count", "--piece", "2,2", "--q", "2", "--n", "3", "--budget", budget])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--q", "1_0"), ("--q", "+2"), ("--q", "0"), ("--q", "-1"), ("--q", "２"),
     ("--n", "1_0"), ("--n", "+3"), ("--n", "١..٣"), ("--n", "1..+3"), ("--n", "3.."), ("--n", "5..2"),
     ("--piece", "+2,-0"), ("--piece", "２,２"), ("--piece", " 2, 2")],
)
def test_count_rejects_q_and_n_that_are_not_plain_digits(flag, value):
    # int() would read underscores, signs, spaces and non-ASCII digits
    flags = {"--piece": "2,2", "--q": "2", "--n": "3", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["count", "--piece", flags["--piece"], "--q", flags["--q"], "--n", flags["--n"]])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", ["0", "0..0"])
def test_audit_rejects_range_below_one(capsys, n):
    # the audit counts boards from n = 1; a range below 1 leaves none to check
    code, out, err = run_cli(capsys, "audit", "--piece", "2,2", "--n", n)
    assert code == 2
    assert out == ""
    assert "at least 1" in err


def test_verify_fit_failure_exits_1(capsys):
    # n <= 12 leaves too few three-piece samples per residue class to fit
    code, out, err = run_cli(capsys, "verify", "--scope", "types", "--n-max", "12")
    assert code == 1
    assert "fit failed" in err
    assert out == ""


def test_verify_all_applies_n_max_to_every_suite(capsys):
    # --scope all runs the types suite at the same ceiling as --scope types
    code, out, err = run_cli(capsys, "verify", "--scope", "all", "--n-max", "12")
    _, _, types_err = run_cli(capsys, "verify", "--scope", "types", "--n-max", "12")
    assert code == 1
    assert "fit failed" in err
    assert err == types_err
    assert out == ""


def test_verify_all_stdout_is_the_reference_report(capsys, monkeypatch):
    # the benchmark's reference output, read only; a stale memo would change a row
    monkeypatch.delenv(ENV_VAR, raising=False)
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify_all.txt"
    code, out, _ = run_cli(capsys, "verify", "--scope", "all")
    assert code == 0
    assert out.encode("utf-8") == reference.read_bytes()


def test_closed_stdout_exits_quietly():
    # the read end is closed before the command can start writing, as `| head -0` would
    src = str(Path(qqueens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qqueens.cli", "verify", "--scope", "attacklines"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--moves", "[[1,0]]"],
        ["verify", "--piece", "2,2"],
        ["formulas", "--piece", "2,2", "--budget", "5"],
        ["count", "--piece", "1,0", "--period-max", "3"],
        ["fit", "--piece", "1,0", "--period-max", "3"],
        ["types", "--piece", "1,0", "--period-max", "3"],
        ["audit", "--report", "json"],
    ],
)
def test_command_rejects_flags_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_types_samples_from_the_low_end_of_n(capsys, monkeypatch):
    from qqueens import reports

    ranges = []
    real = reports.sequence

    def recording(moves, q, n_lo, n_hi, **kwargs):
        ranges.append((n_lo, n_hi))
        return real(moves, q, n_lo, n_hi, **kwargs)

    monkeypatch.setattr(reports, "sequence", recording)
    code, out, _ = run_cli(capsys, "types", "--piece", "2,1", "--q", "2", "--n", "3..12")
    assert code == 0
    assert ranges == [(3, 12)]
    # from n = 3 class 0 mod 2 of the queen's three-piece counts has 7 samples, one short
    code, _, err = run_cli(capsys, "types", "--piece", "2,2", "--q", "3", "--n", "3..17")
    assert code == 1
    assert "residue class 0 mod 2 has 7 samples" in err


def test_verify_all_warm_cache_counts_nothing(tmp_path, capsys, monkeypatch):
    from qqueens import enumerator

    monkeypatch.delenv(ENV_VAR, raising=False)
    cache_file = tmp_path / "counts.jsonl"
    code, cold, _ = run_cli(capsys, "verify", "--scope", "all", "--cache", str(cache_file))
    assert code == 0
    # every distinct (piece, q, n) that any suite counts
    assert len(cache_file.read_text().splitlines()) == 264

    def no_counting(*args, **kwargs):
        raise AssertionError("a warm verify ran the oracle")

    monkeypatch.setattr(enumerator, "count_unlabelled", no_counting)
    code, warm, _ = run_cli(capsys, "verify", "--scope", "all", "--cache", str(cache_file))
    assert code == 0
    assert warm == cold


@pytest.mark.parametrize(
    "argv, records",
    [
        (["--scope", "tables", "--n-max", "4"], 8 * 2 * 4),  # pieces x q in 2, 3 x n
        (["--scope", "assembly", "--n-max", "3"], 8 * 3 * 3),  # pieces x q in 1..3 x n
        (["--scope", "gamma5-sign", "--n-max", "16"], 2 * 16),  # pieces (1,2), (2,2) x n
    ],
)
def test_verify_suite_writes_its_counts_to_the_cache(tmp_path, capsys, monkeypatch, argv, records):
    monkeypatch.delenv(ENV_VAR, raising=False)
    cache_file = tmp_path / "counts.jsonl"
    code, _, _ = run_cli(capsys, "verify", *argv, "--cache", str(cache_file))
    assert code == 0
    assert len(cache_file.read_text().splitlines()) == records
