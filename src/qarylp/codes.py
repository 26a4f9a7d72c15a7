"""Linear codes over the ring of integers mod q.

Symbols live in Z_q = {0, ..., q-1} as plain integers.  A parity-check
matrix H over Z_q defines one single-parity-check (SPC) constraint per row:
sum_i c_i * H[j, i] = 0 (mod q).  This module provides the Tanner-graph view
of H (check supports, variable supports, edge list), local SPC codebook
enumeration, a bundled [80, 48] benchmark code over Z_4, a random regular
code generator and a plain-text check-matrix file format.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np


class LengthMismatch(ValueError):
    """Word length does not match the code length."""


class BudgetExceeded(ValueError):
    """A check's local codebook is larger than the configured budget."""


class ParseError(ValueError):
    """Check-matrix file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_integer(name: str, value, low=None) -> None:
    """Refuse a value that is no integer, or that lies below low.

    bool is an Integral, but True is no size, count or matrix entry; numpy
    integers are Integral and pass.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _as_symbols(word, q: int) -> np.ndarray:
    """word as int64 symbols; ValueError for an entry that is not a whole
    number in 0..q-1.

    Whole-valued floats such as np.zeros(n) pass; NaN and ±inf fail the
    float comparisons, and bool, complex and object arrays are refused.
    """
    w = np.asarray(word)
    if w.dtype.kind == "f":
        whole = np.all((w >= 0) & (w < q) & (w == np.floor(w)))
    else:
        whole = w.dtype.kind in "iu" and (
            w.size == 0 or (w.min() >= 0 and w.max() < q))
    if not whole:
        raise ValueError(f"word entries must be whole numbers in 0..{q - 1}")
    return w.astype(np.int64, copy=False)


# ---- Tanner-graph view of a parity-check matrix ----


@dataclass(frozen=True)
class TannerCode:
    """A parity-check matrix over Z_q as a Tanner graph.

    rows[j] lists the (column, value) pairs of check j, columns 0-based and
    sorted ascending, values in 1..q-1.  There must be at least one check,
    and every check must touch at least two columns: a degree-1 check pins
    a single symbol and is rejected.
    """

    q: int
    n: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    # derived structure, not part of equality
    row_cols: tuple = field(default=None, compare=False, repr=False)
    row_vals: tuple = field(default=None, compare=False, repr=False)
    # (m, width) column and value table of the checks, padded with column
    # n and value 0
    padded_cols: np.ndarray = field(default=None, compare=False, repr=False)
    padded_vals: np.ndarray = field(default=None, compare=False, repr=False)
    columns: tuple = field(default=None, compare=False, repr=False)
    edges: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_integer("q", self.q, 2)
        _check_integer("n", self.n, 1)
        if len(self.rows) == 0:
            raise ValueError("m must be >= 1, got 0")
        norm = []
        for j, row in enumerate(self.rows):
            for i, v in row:
                _check_integer(f"check {j}: column", i)
                _check_integer(f"check {j}: value", v)
            pairs = sorted((int(i), int(v)) for i, v in row)
            if len(pairs) < 2:
                raise ValueError(
                    f"check {j} has degree {len(pairs)}; degree >= 2 required"
                )
            cols = [i for i, _ in pairs]
            if len(set(cols)) != len(cols):
                raise ValueError(f"check {j} repeats a column")
            for i, v in pairs:
                if not 0 <= i < self.n:
                    raise ValueError(f"check {j}: column {i} outside 0..{self.n - 1}")
                if not 1 <= v < self.q:
                    raise ValueError(f"check {j}: value {v} outside 1..{self.q - 1}")
            norm.append(tuple(pairs))
        object.__setattr__(self, "rows", tuple(norm))
        object.__setattr__(
            self, "row_cols",
            tuple(np.array([i for i, _ in row], dtype=np.int64) for row in self.rows),
        )
        object.__setattr__(
            self, "row_vals",
            tuple(np.array([v for _, v in row], dtype=np.int64) for row in self.rows),
        )
        width = max(map(len, self.rows))
        padded_cols = np.full((self.m, width), self.n, dtype=np.int64)
        padded_vals = np.zeros((self.m, width), dtype=np.int64)
        for j, row in enumerate(self.rows):
            padded_cols[j, :len(row)] = self.row_cols[j]
            padded_vals[j, :len(row)] = self.row_vals[j]
        object.__setattr__(self, "padded_cols", padded_cols)
        object.__setattr__(self, "padded_vals", padded_vals)
        cols: list[list[int]] = [[] for _ in range(self.n)]
        edges = []
        for j, row in enumerate(self.rows):
            for i, _ in row:
                cols[i].append(j)
                edges.append((i, j))
        object.__setattr__(self, "columns", tuple(tuple(c) for c in cols))
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def m(self) -> int:
        return len(self.rows)

    def syndrome(self, word) -> np.ndarray:
        """Per-check residuals sum_i c_i H[j,i] mod q, shape (m,).

        An entry that is not a whole number in 0..q-1 raises ValueError.
        """
        w = np.asarray(word)
        if w.shape != (self.n,):
            raise LengthMismatch(f"expected length {self.n}, got shape {w.shape}")
        w_pad = np.append(_as_symbols(w, self.q), 0)
        return (w_pad[self.padded_cols] * self.padded_vals).sum(axis=1) % self.q

    def is_codeword(self, word) -> bool:
        return not np.any(self.syndrome(word))


# enumerate_spc refuses a check whose codebook bound q^(d-1) exceeds this:
# its prefix grid alone would take (d-1) * q^(d-1) int64 entries
_MAX_LOCAL_WORDS = 2 ** 20


@dataclass(frozen=True)
class SpcCodebook:
    """All local solutions of one check, one word per row of `words`."""

    check: int
    words: np.ndarray

    def __len__(self) -> int:
        return self.words.shape[0]


def enumerate_spc(code: TannerCode, j: int) -> SpcCodebook:
    """Enumerate the local codebook of check j.

    Words are tuples b over Z_q of length d_j with sum_t b_t * H[j, i_t] = 0
    mod q, listed in lexicographic order.  The search fixes the first d_j - 1
    symbols and completes the last one; a non-unit last coefficient can admit
    zero or several completions per prefix, all of which are emitted.
    A check with q^(d_j - 1) > _MAX_LOCAL_WORDS raises BudgetExceeded before
    anything is allocated, and j outside 0..m-1 raises ValueError.
    """
    if not 0 <= j < code.m:
        raise ValueError(f"check index {j} is outside 0..{code.m - 1}")
    vals = code.row_vals[j]
    q, d = code.q, len(vals)
    if q ** (d - 1) > _MAX_LOCAL_WORDS:
        raise BudgetExceeded(
            f"check {j}: codebook bound {q}^{d - 1} = {q ** (d - 1)} exceeds "
            f"{_MAX_LOCAL_WORDS} local words"
        )
    # every prefix in lexicographic order, one per row
    prefixes = np.indices((q,) * (d - 1)).reshape(d - 1, -1).T
    need = (-(prefixes @ vals[:-1])) % q
    # row-major nonzero order keeps prefixes in order, completions ascending
    rows, last = np.nonzero((vals[-1] * np.arange(q) - need[:, None]) % q == 0)
    words = np.column_stack([prefixes[rows], last]).astype(np.int16)
    return SpcCodebook(check=j, words=words)


# ---- Code constructions ----

# random_regular_code gives up after this many draws of the whole matrix;
# a draw of n=10, m=9, row_degree=4 succeeds with probability about 0.003,
# so 1000 draws failed on about 5% of seeds and 4000 fail on about 5e-6
_MAX_CODE_ATTEMPTS = 4000

_LDPC80_OFFSETS = ((0, 1), (8, 3), (25, 3), (41, 1), (48, 1))


def ldpc80_z4() -> TannerCode:
    """The bundled [80, 48] rate-0.6 LDPC code over Z_4.

    Check j (0-based) touches columns j + 0, 8, 25, 41, 48 with coefficients
    1, 3, 3, 1, 1; the band never wraps, so column offsets stay in range for
    all 32 checks and every column is covered.  All checks have degree 5.
    """
    rows = tuple(
        tuple((j + off, v) for off, v in _LDPC80_OFFSETS) for j in range(32)
    )
    return TannerCode(q=4, n=80, rows=rows)


def random_regular_code(
    n: int,
    m: int,
    row_degree: int,
    q: int,
    rng: np.random.Generator,
    unit_entries: bool = True,
) -> TannerCode:
    """A random code with constant check degree and every column covered.

    With unit_entries=True coefficients are drawn from the units of Z_q, so
    every symbol value remains locally reachable at every edge.  The column
    supports are redrawn whole until no check repeats a column; after
    _MAX_CODE_ATTEMPTS failed draws a ValueError names the parameters.
    """
    for name, value, low in (("n", n, 1), ("m", m, 1),
                             ("row_degree", row_degree, 2), ("q", q, 2)):
        _check_integer(name, value, low)
    slots = m * row_degree
    if slots < n:
        raise ValueError(f"m * row_degree = {slots} cannot cover {n} columns")
    if n < row_degree:
        raise ValueError("row_degree exceeds the number of columns")
    if unit_entries:
        values = [v for v in range(1, q) if math.gcd(v, q) == 1]
    else:
        values = list(range(1, q))
    for _ in range(_MAX_CODE_ATTEMPTS):
        pool = list(range(n)) + [int(rng.integers(n)) for _ in range(slots - n)]
        rng.shuffle(pool)
        rows_cols = [pool[k * row_degree:(k + 1) * row_degree] for k in range(m)]
        if all(len(set(r)) == row_degree for r in rows_cols):
            break
    else:
        raise ValueError(
            f"no column supports without repeats for n={n}, m={m}, "
            f"row_degree={row_degree} after {_MAX_CODE_ATTEMPTS} draws")
    rows = tuple(
        tuple((i, int(rng.choice(values))) for i in sorted(r)) for r in rows_cols
    )
    return TannerCode(q=q, n=n, rows=rows)


# ---- Check-matrix file format ----
#
#   n m q
#   max_col_degree max_row_degree
#   <n lines: column degrees>
#   <m lines: row degrees>
#   <m lines: one check per line as 1-based "col:val" pairs>
#
# '#' starts a comment, blank lines are skipped, whitespace is free-form.

_PAIR_RE = re.compile(r"^(\d+):(\d+)$")


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def _take(lines, count, what):
    out = []
    for _ in range(count):
        try:
            out.append(next(lines))
        except StopIteration:
            raise ParseError(f"file ended early, expected {what}") from None
    return out


def _ints(tokens, lineno, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"expected integers for {what}, got {tokens}", lineno) from None


def read_check_matrix(path) -> TannerCode:
    """Parse a check-matrix file; see the module-level format notes."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = iter(list(_logical_lines(text)))

    (ln, toks), = _take(lines, 1, "the 'n m q' header")
    if len(toks) != 3:
        raise ParseError(f"expected 'n m q', got {' '.join(toks)}", ln)
    n, m, q = _ints(toks, ln, "the header")
    if n < 1 or m < 1 or q < 2:
        raise ParseError(f"bad dimensions n={n} m={m} q={q}", ln)

    (ln, toks), = _take(lines, 1, "the degree header")
    if len(toks) != 2:
        raise ParseError(f"expected 'max_col_deg max_row_deg', got {' '.join(toks)}", ln)
    max_col, max_row = _ints(toks, ln, "the degree header")

    col_deg = []
    for ln, toks in _take(lines, n, f"{n} column degrees"):
        if len(toks) != 1:
            raise ParseError(f"expected one column degree, got {' '.join(toks)}", ln)
        col_deg.append(_ints(toks, ln, "a column degree")[0])
    row_deg = []
    for ln, toks in _take(lines, m, f"{m} row degrees"):
        if len(toks) != 1:
            raise ParseError(f"expected one row degree, got {' '.join(toks)}", ln)
        row_deg.append(_ints(toks, ln, "a row degree")[0])

    rows = []
    seen_col_deg = [0] * n
    for j, (ln, toks) in enumerate(_take(lines, m, f"{m} check lines")):
        pairs = []
        for tok in toks:
            match = _PAIR_RE.match(tok)
            if not match:
                raise ParseError(f"check {j + 1}: bad pair {tok!r}", ln)
            i, v = int(match.group(1)), int(match.group(2))
            if not 1 <= i <= n:
                raise ParseError(f"check {j + 1}: column {i} outside 1..{n}", ln)
            if v >= q:
                raise ParseError(f"check {j + 1}: value {v} >= q = {q}", ln)
            if v < 1:
                raise ParseError(f"check {j + 1}: value {v} outside 1..{q - 1}", ln)
            pairs.append((i - 1, v))
        if len(pairs) < 2:
            raise ParseError(f"check {j + 1} has degree {len(pairs)}; need >= 2", ln)
        if len({i for i, _ in pairs}) != len(pairs):
            raise ParseError(f"check {j + 1} repeats a column", ln)
        if len(pairs) != row_deg[j]:
            raise ParseError(
                f"check {j + 1} has {len(pairs)} pairs, declared {row_deg[j]}", ln
            )
        for i, _ in pairs:
            seen_col_deg[i] += 1
        rows.append(tuple(pairs))

    for ln, toks in lines:
        raise ParseError(f"unexpected trailing content: {' '.join(toks)}", ln)
    if seen_col_deg != col_deg:
        bad = next(i for i in range(n) if seen_col_deg[i] != col_deg[i])
        raise ParseError(
            f"column {bad + 1} degree is {seen_col_deg[bad]}, declared {col_deg[bad]}"
        )
    if max(col_deg) != max_col or max(row_deg) != max_row:
        raise ParseError(
            f"declared maxima ({max_col}, {max_row}) do not match "
            f"actual ({max(col_deg)}, {max(row_deg)})"
        )
    return TannerCode(q=q, n=n, rows=tuple(rows))


def write_check_matrix(code: TannerCode, path) -> None:
    """Serialize a code in the check-matrix format; 1-based columns."""
    col_deg = [len(code.columns[i]) for i in range(code.n)]
    row_deg = [len(row) for row in code.rows]
    out = [
        f"{code.n} {code.m} {code.q}",
        f"{max(col_deg)} {max(row_deg)}",
    ]
    out.extend(str(d) for d in col_deg)
    out.extend(str(d) for d in row_deg)
    for row in code.rows:
        out.append(" ".join(f"{i + 1}:{v}" for i, v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
