import time

import numpy as np
import pytest

import qarylp.lp
from qarylp import (
    BudgetExceeded,
    LengthMismatch,
    ParseError,
    TannerCode,
    enumerate_spc,
    ldpc80_z4,
    random_regular_code,
    read_check_matrix,
    write_check_matrix,
)
from qarylp.decoder import ERASED

from oracles import dense, log_codebook_size_snf, spc_words_bruteforce, syndrome_loop


# ---- Tanner code structure ----


def test_tanner_code_structure():
    code = TannerCode(q=4, n=3, rows=(((1, 2), (0, 1)), ((1, 3), (2, 1))))
    # rows are normalized to ascending column order
    assert code.rows == (((0, 1), (1, 2)), ((1, 3), (2, 1)))
    assert code.m == 2
    assert code.columns == ((0,), (0, 1), (1,))
    assert code.edges == ((0, 0), (1, 0), (1, 1), (2, 1))
    assert dense(code).tolist() == [[1, 2, 0], [0, 3, 1]]


def test_tanner_code_syndrome():
    code = TannerCode(q=4, n=3, rows=(((0, 1), (1, 2)), ((1, 3), (2, 1))))
    assert code.syndrome([2, 1, 0]).tolist() == [0, 3]
    # whole-valued floats are symbols
    assert code.syndrome([2.0, 1.0, 0.0]).tolist() == [0, 3]
    assert not code.is_codeword([2, 1, 0])
    assert code.is_codeword([2, 1, 1])
    assert code.is_codeword([0, 0, 0])
    with pytest.raises(LengthMismatch):
        code.syndrome([0, 0])


@pytest.mark.parametrize("word", [
    np.full(80, 0.5),                       # used to truncate to 0
    np.full(80, 4),                         # used to wrap to 0 mod 4
    np.r_[np.zeros(79, dtype=np.int64), ERASED],
    np.r_[np.zeros(79), np.nan],
    np.zeros(80, dtype=bool),
])
def test_syndrome_refuses_non_symbols(word):
    code = ldpc80_z4()
    with pytest.raises(ValueError, match=r"whole numbers in 0\.\.3"):
        code.is_codeword(word)
    with pytest.raises(ValueError, match=r"whole numbers in 0\.\.3"):
        code.syndrome(word)


def test_syndrome_matches_per_check_loop():
    # the padded table against one dot product per check, on checks of
    # unequal degree, zero-divisor coefficients and non-unit random codes
    rng = np.random.default_rng(61)
    codes = [
        TannerCode(q=4, n=6, rows=(((0, 1), (1, 2), (2, 2)),
                                   ((1, 1), (3, 3), (4, 1)),
                                   ((2, 1), (5, 1)),
                                   ((0, 3), (3, 1), (4, 2), (5, 1)))),
        TannerCode(q=6, n=5, rows=(((0, 2), (1, 3), (2, 1)),
                                   ((1, 1), (2, 2), (3, 3), (4, 1)),
                                   ((0, 3), (4, 2)))),
        TannerCode(q=8, n=5, rows=(((0, 4), (1, 1), (2, 2)),
                                   ((0, 1), (2, 1), (3, 2), (4, 4)),
                                   ((1, 4), (3, 4), (4, 1)))),
        random_regular_code(16, 6, 4, 8, rng, unit_entries=False),
        random_regular_code(18, 6, 4, 6, rng, unit_entries=False),
    ]
    for code in codes:
        for _ in range(20):
            word = rng.integers(0, code.q, size=code.n)
            assert np.array_equal(code.syndrome(word), syndrome_loop(code, word))
        assert not code.syndrome(np.zeros(code.n, dtype=np.int64)).any()


def test_tanner_code_rejects_bad_rows():
    with pytest.raises(ValueError, match="degree"):
        TannerCode(q=4, n=3, rows=(((0, 1),),))
    with pytest.raises(ValueError, match="repeats"):
        TannerCode(q=4, n=3, rows=(((0, 1), (0, 2)),))
    with pytest.raises(ValueError, match="value"):
        TannerCode(q=4, n=3, rows=(((0, 1), (1, 4)),))
    with pytest.raises(ValueError, match="value"):
        TannerCode(q=4, n=3, rows=(((0, 1), (1, 0)),))
    with pytest.raises(ValueError, match="column"):
        TannerCode(q=4, n=3, rows=(((0, 1), (3, 1)),))
    with pytest.raises(ValueError, match="m must be >= 1"):
        TannerCode(q=4, n=3, rows=())


def test_tanner_code_refuses_non_integer_sizes():
    # bool is an Integral, but True is no ring size or length; a float q
    # would make the syndrome a float array
    rows = (((0, 1), (1, 1)),)
    for field in ("q", "n"):
        for bad in (4.0, "4", True):
            sizes = {"q": 4, "n": 2, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                TannerCode(rows=rows, **sizes)
    code = TannerCode(q=np.int64(4), n=np.int64(2), rows=rows)
    assert code.syndrome([1, 3]).tolist() == [0]


@pytest.mark.parametrize("row", [((0, 1), (1.7, 2.9)), ((0, True), (1, 1)),
                                 ((0, 1), (1, np.bool_(True)))])
def test_tanner_code_refuses_non_integer_entries(row):
    # int() alone would truncate a float entry and take a bool as 1
    with pytest.raises(ValueError, match="^check 0: (column|value) must be an integer"):
        TannerCode(q=4, n=2, rows=(row,))


def test_tanner_code_takes_numpy_integer_entries():
    rows = (((0, 1), (1, 3)), ((1, 2), (2, 2)))
    numpy_code = TannerCode(q=4, n=3, rows=tuple(
        tuple((np.int64(i), np.int64(v)) for i, v in row) for row in rows))
    assert numpy_code == TannerCode(q=4, n=3, rows=rows)
    assert {type(x) for row in numpy_code.rows for pair in row for x in pair} == {int}


def test_tanner_code_takes_rows_as_an_array():
    # an (m, d, 2) array of (column, value) pairs builds the same code as
    # the tuple form; the emptiness test reads its length, not its truth
    rows = (((0, 1), (1, 3)), ((1, 2), (2, 2)))
    array_code = TannerCode(q=4, n=3, rows=np.array(rows))
    tuple_code = TannerCode(q=4, n=3, rows=rows)
    assert array_code == tuple_code
    assert hash(array_code) == hash(tuple_code)
    assert array_code.rows == rows
    with pytest.raises(ValueError, match="m must be >= 1"):
        TannerCode(q=4, n=3, rows=np.zeros((0, 2, 2), dtype=np.int64))


# ---- local codebook enumeration ----


def test_enumerate_spc_unit_row():
    code = TannerCode(q=4, n=2, rows=(((0, 1), (1, 3)),))
    book = enumerate_spc(code, 0)
    # b0 + 3 b1 = 0 mod 4 forces b1 = b0
    assert book.words.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]
    assert len(book) == 4


def test_enumerate_spc_nonunit_row():
    code = TannerCode(q=4, n=2, rows=(((0, 2), (1, 2)),))
    book = enumerate_spc(code, 0)
    # 2 b0 + 2 b1 = 0 mod 4 iff b0 + b1 even: 8 words
    expected = sorted(
        w for w in [(a, b) for a in range(4) for b in range(4)]
        if (2 * w[0] + 2 * w[1]) % 4 == 0
    )
    assert book.words.tolist() == [list(w) for w in expected]


def test_enumerate_spc_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        vals = rng.integers(1, q, size=d)
        rows = (tuple((i, int(v)) for i, v in enumerate(vals)),)
        code = TannerCode(q=q, n=d, rows=rows)
        book = enumerate_spc(code, 0)
        assert book.words.tolist() == [list(w) for w in spc_words_bruteforce(code, 0)]


def test_enumerate_spc_ldpc80_row():
    code = ldpc80_z4()
    book = enumerate_spc(code, 0)
    assert len(book) == 256
    assert book.words[0].tolist() == [0, 0, 0, 0, 0]
    vals = code.row_vals[0]
    assert not np.any(np.dot(book.words, vals) % 4)
    # lexicographic and duplicate-free
    as_tuples = [tuple(w) for w in book.words.tolist()]
    assert as_tuples == sorted(set(as_tuples))


@pytest.mark.parametrize("j", [32, 40, -1])
def test_enumerate_spc_refuses_check_out_of_range(j):
    # ldpc80_z4 has checks 0..31; -1 would otherwise wrap to check 31
    with pytest.raises(ValueError, match=r"outside 0\.\.31"):
        enumerate_spc(ldpc80_z4(), j)


def test_enumerate_spc_refuses_oversized_check():
    # 8^11 local words would need gigabytes of prefixes: refused at once
    code = TannerCode(q=8, n=12, rows=(tuple((i, 1) for i in range(12)),))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"check 0: .* 8\^11 .* 1048576"):
        enumerate_spc(code, 0)
    assert time.perf_counter() - start < 1.0
    assert qarylp.lp.BudgetExceeded is BudgetExceeded


# ---- bundled code ----


def test_ldpc80_shape():
    code = ldpc80_z4()
    assert (code.q, code.n, code.m) == (4, 80, 32)
    assert all(len(row) == 5 for row in code.rows)
    assert code.rows[0] == ((0, 1), (8, 3), (25, 3), (41, 1), (48, 1))
    assert all(len(code.columns[i]) >= 1 for i in range(code.n))
    assert code.is_codeword(np.zeros(80, dtype=int))


def test_ldpc80_rate():
    code = ldpc80_z4()
    logq_size = log_codebook_size_snf(dense(code), code.q)
    assert logq_size == pytest.approx(48.0, abs=1e-12)
    assert logq_size / code.n == pytest.approx(0.6, abs=1e-12)


# ---- random codes ----


def test_random_regular_code():
    rng = np.random.default_rng(3)
    code = random_regular_code(n=12, m=6, row_degree=3, q=4, rng=rng)
    assert (code.q, code.n, code.m) == (4, 12, 6)
    assert all(len(row) == 3 for row in code.rows)
    assert all(len(code.columns[i]) >= 1 for i in range(code.n))
    vals = {v for row in code.rows for _, v in row}
    assert vals <= {1, 3}

    loose = random_regular_code(n=12, m=6, row_degree=3, q=4,
                                rng=np.random.default_rng(5), unit_entries=False)
    assert {v for row in loose.rows for _, v in row} <= {1, 2, 3}

    again = random_regular_code(n=12, m=6, row_degree=3, q=4,
                                rng=np.random.default_rng(3))
    assert again == code


def test_random_regular_code_rejects_impossible():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_regular_code(n=20, m=2, row_degree=3, q=4, rng=rng)
    with pytest.raises(ValueError):
        random_regular_code(n=2, m=3, row_degree=3, q=4, rng=rng)
    # q = 1 has no nonzero coefficient to draw
    with pytest.raises(ValueError, match="^q must be >= 2, got 1"):
        random_regular_code(4, 2, 2, 1, rng)
    with pytest.raises(ValueError, match="^row_degree must be >= 2, got 1"):
        random_regular_code(n=4, m=4, row_degree=1, q=4, rng=rng)


@pytest.mark.parametrize("name", ["n", "m", "row_degree", "q"])
@pytest.mark.parametrize("bad", [4.0, "4", True])
def test_random_regular_code_refuses_non_integer_sizes(name, bad):
    sizes = dict(n=4, m=4, row_degree=2, q=4)
    sizes[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        random_regular_code(rng=np.random.default_rng(0), **sizes)


def test_random_regular_code_gives_up_on_unlikely_supports():
    # six distinct columns out of eight in each of 12 checks: the whole-matrix
    # redraw almost never succeeds, so the draw must give up, and quickly
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"n=8, m=12, row_degree=6"):
        random_regular_code(n=8, m=12, row_degree=6, q=4,
                            rng=np.random.default_rng(0))
    assert time.perf_counter() - start < 2.0


# ---- file format ----


def test_check_matrix_roundtrip(tmp_path):
    for code in (ldpc80_z4(),
                 random_regular_code(12, 6, 3, 5, np.random.default_rng(11),
                                     unit_entries=False)):
        path = tmp_path / "code.txt"
        write_check_matrix(code, path)
        assert read_check_matrix(path) == code


def test_check_matrix_tolerates_comments(tmp_path):
    text = """
# a tiny code over Z_4
3 2 4

2 2   # maxima
1
2  # middle column sits in both checks
1
2
2
1:1 2:2
2:3 3:1
"""
    path = tmp_path / "commented.txt"
    path.write_text(text)
    code = read_check_matrix(path)
    assert code == TannerCode(q=4, n=3, rows=(((0, 1), (1, 2)), ((1, 3), (2, 1))))


def _write(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return path


def test_check_matrix_value_at_least_q(tmp_path):
    path = _write(tmp_path, "2 1 3\n2 2\n1\n1\n2\n1:1 2:3\n")
    with pytest.raises(ParseError, match="value 3 >= q") as err:
        read_check_matrix(path)
    assert err.value.line == 6


def test_check_matrix_parse_errors(tmp_path):
    # truncated file
    path = _write(tmp_path, "3 2 4\n2 2\n1\n2\n1\n")
    with pytest.raises(ParseError, match="ended early"):
        read_check_matrix(path)
    # malformed pair token
    path = _write(tmp_path, "2 1 4\n1 2\n1\n1\n2\n1:1 2-3\n")
    with pytest.raises(ParseError, match="bad pair"):
        read_check_matrix(path)
    # declared row degree disagrees with the pair list
    path = _write(tmp_path, "2 1 4\n1 3\n1\n1\n3\n1:1 2:3\n")
    with pytest.raises(ParseError, match="declared 3"):
        read_check_matrix(path)
    # column out of range
    path = _write(tmp_path, "2 1 4\n1 2\n1\n1\n2\n1:1 3:3\n")
    with pytest.raises(ParseError, match="outside"):
        read_check_matrix(path)
    # duplicate column inside a check
    path = _write(tmp_path, "2 1 4\n2 2\n2\n0\n2\n1:1 1:3\n")
    with pytest.raises(ParseError, match="repeats"):
        read_check_matrix(path)
    # column degrees disagree with the checks
    path = _write(tmp_path, "2 1 4\n2 2\n2\n2\n2\n1:1 2:3\n")
    with pytest.raises(ParseError, match="degree is"):
        read_check_matrix(path)
    # trailing garbage
    path = _write(tmp_path, "2 1 4\n1 2\n1\n1\n2\n1:1 2:3\nextra\n")
    with pytest.raises(ParseError, match="trailing"):
        read_check_matrix(path)


def test_parse_error_carries_line_number(tmp_path):
    path = _write(tmp_path, "3 2 4\n2 2\n1\n2\n1\n2\n2\n1:1 2:oops\n2:3 3:1\n")
    with pytest.raises(ParseError) as err:
        read_check_matrix(path)
    assert err.value.line == 8
    assert "line 8" in str(err.value)
