"""Exact LP decoding via a self-contained revised simplex solver.

The decoding LP minimizes the channel cost over a relaxation of the codeword
hull: variables are relaxed indicator vectors f_i (one slot per nonzero
symbol, cost llr[i]) plus one convex-weight vector per check over that
check's local codebook.  Equality rows tie every f_i slot to the matching
codebook marginal and normalize each weight vector to sum 1.  An integral
optimum is a certified ML codeword; a fractional optimum is a decoding
failure and the fractional positions are erased.  The coupling rows are
indexed by the coordinate-ascent decoder's edge ids: symbol a of edge e,
which joins variable i to check j, has row e(q-1) + a - 1.  The duals of
those rows are therefore edge messages, the form of the decoder's
primal-dual pair, and the exact solver builds no second row layout.

The simplex core is a revised method that keeps only the basis inverse.
Columns are held sparse, as padded (row ids, values) pairs: a decoding-LP
column has at most max(d+1, d_v) nonzeros.  A pivot prices every column in
one slot-major pass (a vector add per slot of the store), forms the entering
column's d = B^-1 a from as many columns of the inverse as a has nonzeros,
and updates only the |nnz(d)| x |nnz(row)| inverse entries that can change,
on the rows where d is nonzero and the columns where the new pivot row is.
Entries of d and of the inverse below _DROP_TOL (1e-12) in magnitude are
stored as exact zeros: they are round-off residue of zeros, which would
otherwise fill the inverse and be carried by every later pivot.  On the
benchmark's ldpc80_z4 frames and frames 0 and 3 of its Z_8 twin no written
entry lies in [1e-12, 1e-6), so there the drop takes residue only; over a
solve of many hundred pivots, residue can build up past 1e-12 and is then
kept.
The running duals are updated with the same row, so no BLAS or LAPACK
routine runs and the pivot path does not depend on the thread count.
Column generation only appends the columns of priced-in words to its
master, so one basis inverse, its basic solution and its duals are carried
from round to round.  The inverse is rebuilt only when it has drifted: after
every round, the primal residual B·x_B - b and the dual residual
c_B - y·B are computed from the stored columns, and when either exceeds
_RESIDUAL_TOL the inverse is refactorized by replaying the same
product-form updates from the crash basis's inverse, and the round is run
again.  The crash basis, inverted once per code, is the zero codeword with
every covered indicator already basic: the indicators would otherwise cost
one pivot each to bring in, and a refactorization replays only the basis
columns the crash does not hold.  The first master also holds, per check,
the cheapest words that the crash does not, priced by the same code as
every later round against channel-split duals: each edge takes its
variable's channel costs divided by the variable's degree, so every covered
indicator prices at zero.  These columns only start the master nearer its
optimum, which column generation still certifies over the full codebooks.
Pivoting uses the Dantzig rule priced per nonzero, the most negative
reduced cost divided by the column's nonzero count, so a word column with
d+1 nonzeros does not outrank an indicator on raw cost alone.  It falls
back to Bland's rule after a degenerate stall: Dantzig can cycle on the
degenerate decoding polytope, and pure Bland is far slower there.  The unit
columns that complete a crash basis whose check's codebook columns cannot
fill its block are fixed at zero, so every code decodes by column
generation from the zero codeword.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import BudgetExceeded, TannerCode, enumerate_spc
from .decoder import ERASED, DecodeOutcome, Status, _code_cache, validate_llr

# reduced-cost and pivot-element threshold for the simplex core
_SIMPLEX_TOL = 1e-9
# FTRAN results and basis-inverse entries below this in magnitude are
# round-off residue of exact zeros, and are stored as 0
_DROP_TOL = 1e-12
# the perturbed optimal basis stays optimal for the true rhs when its basic
# values there are at least -_FEAS_TOL (fixed columns at most _FEAS_TOL)
_FEAS_TOL = 1e-7
# LP outputs within this of {0, 1} count as integral
_INTEGRALITY_TOL = 1e-6

# consecutive degenerate pivots before Dantzig pricing falls back to Bland
_REVISED_STALL_LIMIT = 200
# a column-generation round whose primal or (cost-scaled) dual residual is
# above this refactorizes the basis inverse and is run again
_RESIDUAL_TOL = 1e-9


class CycleGuardTripped(RuntimeError):
    """The simplex pivot budget was exhausted."""


class UnboundedRay(RuntimeError):
    """An entering column met no blocking row: the LP has no finite optimum
    along it."""


def _duals(cb, binv):
    """y = cb·binv over the rows of nonzero basic cost, plus a zero slot."""
    y = np.zeros(len(binv) + 1)
    live = np.flatnonzero(cb)
    np.sum(cb[live, None] * binv[live], axis=0, out=y[:-1])
    return y


def _price(y, slots):
    """y·a for every column a of a store; y carries the zero slot.

    slots is the store slot-major, a (width, columns) pair of row ids and
    values: each slot's terms for every column are one row, and the sum
    over the leading axis adds them slot by slot, a vector add per slot.
    """
    rows, vals = slots
    return (vals * y[rows]).sum(axis=0)


def _drop(a):
    """a with every entry below _DROP_TOL in magnitude set to 0, in place."""
    a[np.abs(a) < _DROP_TOL] = 0.0
    return a


def _ftran(binv, rows, vals):
    """d = binv·a for one stored column: a signed sum of columns of binv,
    with every entry below _DROP_TOL in magnitude set to 0."""
    live = vals != 0
    return _drop((binv[:, rows[live]] * vals[live]).sum(axis=1))


def _matvec(binv, b):
    """binv·b as a row-wise ufunc sum."""
    return (binv * b).sum(axis=1)


def _update_inverse(binv, d, r):
    """Update binv in place for the column a, d = binv·a, entering at r.

    Only the |nnz(d)| x |nnz(row)| entries on the rows where d is nonzero
    and the columns where the new row r is nonzero change: everywhere else
    the dense rank-one update would subtract a zero, which at most flips
    the sign of a zero entry.  Every entry written, on the new row r and in
    that block, becomes 0 when its magnitude is below _DROP_TOL: it is
    round-off residue of an exact zero.  The entries are gathered and
    scattered through flat offsets into binv, so binv must be C-contiguous
    (ValueError otherwise: a flat copy would be updated instead).
    """
    if not binv.flags.c_contiguous:
        raise ValueError("the basis inverse must be C-contiguous")
    row = binv[r] / d[r]
    hit = np.flatnonzero(d)
    hit = hit[hit != r]
    nz = np.flatnonzero(row)
    at = (hit * len(binv))[:, None] + nz
    flat = binv.reshape(-1)
    flat[at] = _drop(flat[at] - d[hit, None] * row[nz])
    binv[r] = _drop(row)


def _invert(cols, basis, m, start=None):
    """Inverse of the basis columns, by product-form updates.

    Column generation calls it to refactorize from the crash basis when a
    round's residuals show that the carried inverse has drifted; the crash
    set-up calls it from I, block by block.

    The updates run from I, or from start = (held, inverse): a basis, held[r]
    the column of row r, and its inverse.  A basis column that start holds
    keeps its row; every other one enters, through _update_inverse, at the
    row not yet taken where its d is largest in magnitude (partial
    pivoting); a column listed twice enters the second time.  The rows are
    then put back in basis order.  Raises ValueError when a column has no
    entry above _SIMPLEX_TOL in magnitude left on the free rows, that is,
    the basis is singular: a column listed twice has exact zeros there, up
    to rounding.
    """
    rows, vals = cols
    held, inverse = start or ((), None)
    binv = np.eye(m) if inverse is None else inverse.copy()
    at = {s: r for r, s in enumerate(held)}
    order = np.array([at.pop(s, -1) for s in basis], dtype=np.intp)
    free = np.ones(m, dtype=bool)
    free[order[order >= 0]] = False
    for k in np.flatnonzero(order < 0):
        s = basis[k]
        d = _ftran(binv, rows[s], vals[s])
        mag = np.where(free, np.abs(d), -1.0)
        r = int(np.argmax(mag))
        if mag[r] <= _SIMPLEX_TOL:
            raise ValueError("basis is singular")
        _update_inverse(binv, d, r)
        free[r] = False
        order[k] = r
    return binv[order]


def _revised_phase2(cols, b, c, basis, binv, fixed, spent=0, xb=None,
                    y=None):
    """Simplex pivots from a feasible basis, keeping only the basis inverse.

    The constraint matrix is a padded column store: one line of (row ids,
    values) per column, its nonzero entries first and the remaining slots
    pointing at row len(b), the zero dual slot that _duals appends, with
    value 0.  No step calls BLAS or LAPACK, so the pivot path is the same
    whatever the thread count.  Each pivot prices every column with one
    gather-sum over the duals, slot-major (see _price: the store's
    transpose, built once per call since columns change only between calls),
    forms the entering column's d as a signed sum of as many columns of binv
    as it has nonzeros, and updates the |nnz(d)| x |nnz(row)| entries of
    binv on the rows where d is nonzero and the columns where the new row r
    is (see _update_inverse); entries of d and binv below _DROP_TOL in
    magnitude become 0.  The mask of fixed basic columns is kept pivot by
    pivot.  The basic values start from xb and the duals from y, the values
    a previous call returned for this basis and binv; either one left out is
    computed afresh (binv·b clipped at 0, and _duals).  Both are copied, so
    the arrays passed in are never written.  The duals are running ones: a
    pivot that enters s at row r adds z[s] times the new row r of binv.
    When they price no column in, they are computed afresh and every column
    is priced again, so drift in the running duals cannot end a call early.
    binv is never rebuilt here: the caller checks the residuals of what a
    call returns and refactorizes (see _invert and _column_generation).
    Among the columns whose reduced cost z_j is below -_SIMPLEX_TOL, the
    entering one has the most negative z_j / nnz(a_j), nnz the stored
    column's nonzero count (counted once per call, as the slot-major store
    is built), until more than _REVISED_STALL_LIMIT consecutive degenerate
    pivots; then it is the first of them (Bland).  binv, a C-contiguous
    array, is updated in place.  A column of the boolean mask fixed stays at
    zero: it is never priced in, and while basic it blocks the ratio test at
    ratio 0 wherever |d| > _SIMPLEX_TOL.  spent counts pivots the caller
    made before this call; CycleGuardTripped fires once spent plus this
    call's pivots exceed _MAX_PIVOTS, and an entering column with no
    blocking row raises UnboundedRay.  Returns (x, y, pivots, basis, binv):
    y the fresh duals that confirmed optimality, pivots counting this call
    only.
    """
    tol = _SIMPLEX_TOL
    rows, vals = cols
    # the store slot-major for pricing; columns change only between calls
    slots = (np.ascontiguousarray(rows.T), np.ascontiguousarray(vals.T))
    # each column's nonzero count, at least 1, for pricing per nonzero
    nnz = np.maximum(np.count_nonzero(vals, axis=1), 1)
    basis = np.array(basis, dtype=np.intp)
    held = fixed[basis]
    xb = (np.clip(_matvec(binv, b), 0.0, None) if xb is None
          else np.array(xb, dtype=np.float64))
    y = _duals(c[basis], binv) if y is None else np.array(y, dtype=np.float64)
    # set when the running duals priced no column in and y was recomputed
    confirmed = False
    pivots = 0
    bland = False
    stall = 0
    while True:
        z = c - _price(y, slots)
        z[fixed] = 0.0
        if bland:
            negative = np.flatnonzero(z < -tol)
            s = int(negative[0]) if negative.size else -1
        else:
            s = int(np.argmin(np.where(z < -tol, z / nnz, 0.0)))
            if z[s] >= -tol:
                s = -1
        if s < 0:
            if confirmed:
                break
            y = _duals(c[basis], binv)
            confirmed = True
            continue
        confirmed = False
        d = _ftran(binv, rows[s], vals[s])
        candidates = np.flatnonzero((d > tol) | (held & (d < -tol)))
        if candidates.size == 0:
            raise UnboundedRay(f"column {s} enters along an unbounded ray")
        ratios = np.where(held[candidates], 0.0,
                          xb[candidates] / d[candidates])
        best = ratios.min()
        ties = candidates[ratios <= best + 1e-12 * (1.0 + abs(best))]
        # lowest-index leaving variable: anti-cycling with Bland entering
        r = int(ties[np.argmin(basis[ties])])
        if best <= tol:
            stall += 1
            bland = bland or stall > _REVISED_STALL_LIMIT
        else:
            stall = 0
        step = 0.0 if held[r] else xb[r] / d[r]
        xb -= step * d
        xb[r] = step
        np.clip(xb, 0.0, None, out=xb)
        _update_inverse(binv, d, r)
        y[:-1] += z[s] * binv[r]
        basis[r] = s
        held[r] = fixed[s]
        pivots += 1
        if spent + pivots > _MAX_PIVOTS:
            raise CycleGuardTripped(f"exceeded {_MAX_PIVOTS} pivots")
    x = np.zeros(len(c))
    x[basis] = xb
    return x, y, pivots, basis.tolist(), binv


def _residuals(cols, b, c, basis, xb, y):
    """(primal, dual) residuals of a basic solution and its duals.

    primal is max |B·xb - b| and dual is max |c_B - y·B| / (1 + max |c|),
    B the basis columns of the padded store cols; y carries the zero slot
    that the padding rows read.  Both go through the store's nonzeros (a
    bincount and a gather), not through the basis inverse, so they measure
    how far the inverse that produced xb and y has drifted from B^-1.
    """
    rows, vals = (a[basis] for a in cols)
    bx = np.bincount(rows.ravel(), (vals * xb[:, None]).ravel(),
                     minlength=len(b) + 1)[:-1]
    yb = (y[rows] * vals).sum(axis=1)
    return (float(np.abs(bx - b).max()),
            float(np.abs(c[basis] - yb).max() / (1.0 + np.abs(c).max())))


# ---- the decoding LP ----


def _crash_words(code: TannerCode, books) -> tuple:
    """Per-check words and unit columns that form a feasible zero-vertex basis.

    Weight columns only touch their own check's rows, so selecting per check
    an independent set of codebook columns (the zero word first) yields a
    block-diagonal basis whose basic solution puts weight 1 on each zero
    word.  Check j's block holds rows t(q-1) + b - 1 for symbol b at slot t,
    then its normalization row: a word's column is -1 on the row of each
    nonzero symbol and +1 on the last.  Columns are taken greedily in
    codebook order whenever they are independent of those already taken:
    one Gaussian elimination per block reduces every later column against
    each accepted one, and a column is accepted when its residual exceeds
    _SIMPLEX_TOL somewhere.  Where the words cannot fill a block (non-unit
    coefficients), the pass goes on over the block's unit vectors in row
    order; those it takes are unit columns, fixed at zero.  The block and
    codebook depend only on the check's coefficient row, so each distinct
    row is solved once.  Returns (words, units): per check the word ids and
    the block rows of the unit columns.
    """
    q = code.q
    keys = [tuple(vals.tolist()) for vals in code.row_vals]
    solved = {}
    for key, book in zip(keys, books):
        if key in solved:
            continue
        count, d = book.words.shape
        size = d * (q - 1) + 1
        block = np.zeros((size, count))
        block[-1] = 1.0
        w, t = np.nonzero(book.words)
        block[t * (q - 1) + book.words[w, t] - 1, w] = -1.0
        residual = np.hstack([block, np.eye(size)])
        chosen = []
        col = 0
        while len(chosen) < size:
            free = np.abs(residual[:, col:]).max(axis=0) > _SIMPLEX_TOL
            col += int(np.argmax(free))
            chosen.append(col)
            pivot = residual[:, col].copy()
            p = int(np.argmax(np.abs(pivot)))
            # zero row p in every later column; the accepted ones stay zero
            residual[:, col:] -= np.outer(pivot / pivot[p], residual[p, col:])
            col += 1
        solved[key] = ([k for k in chosen if k < count],
                       [k - count for k in chosen if k >= count])
    return [solved[key][0] for key in keys], [solved[key][1] for key in keys]


def _crash_basis(setup):
    """The crash basis, as the column basic at each row, and its inverse.

    The crash words and unit columns (see _crash_words) form a
    block-diagonal basis.  Its inverse is assembled from one inverse per
    distinct block: _invert runs on the block's own rows plus one spare row
    that no column touches.  The spare row's column carries the signed zero
    that every column outside the block holds when the whole basis is
    inverted from I, and the same partial pivoting picks the same rows, so
    the assembly equals that inversion bit for bit.  Every covered
    indicator then enters, in column order, at the row of the
    latest-ordered crash column still basic whose |d| exceeds
    _SIMPLEX_TOL, never at a zero word's row.  Such a row exists: covered
    indicators touch disjoint coupling rows and zero words only
    normalization rows, so no indicator lies in the span of the other
    indicators and the zero words.  Exchanging out the latest column of
    each fundamental circuit gives the rank-greedy basis over the
    indicators, then the crash words check by check, then the unit
    columns.  The zero words stay basic, so the basic solution is still the
    zero codeword.
    """
    rows, signs = setup.crash_store
    q = setup.q
    basis = np.arange(setup.n_ind, setup.n_ind + setup.n_rows)
    words = np.cumsum([0] + [len(ws) for ws in setup.crash_words])
    units = words[-1] + np.cumsum([0] + [len(us) for us in setup.crash_units])
    binv = np.empty((setup.n_rows, setup.n_rows))
    solved = {}
    for j, edges in enumerate(setup.check_edges):
        # check j's block rows, ascending, and its columns' basis positions
        edges = edges[edges < setup.n_coupling // (q - 1)]
        block = np.append((edges[:, None] * (q - 1) + np.arange(q - 1)).ravel(),
                          setup.n_coupling + j)
        at = np.r_[words[j]:words[j + 1], units[j]:units[j + 1]]
        # the block's columns on local rows; padding goes to the spare row
        local = (np.searchsorted(block, rows[setup.n_ind + at]),
                 signs[setup.n_ind + at])
        key = tuple(a.tobytes() for a in local)
        if key not in solved:
            solved[key] = _invert(local, np.arange(len(at)), len(block) + 1)
        inverse = solved[key]
        binv[at] = inverse[:, -1:]
        binv[at[:, None], block] = inverse[:, :-1]
    zero_words = words[:-1]
    open_rows = np.ones(setup.n_rows, dtype=bool)
    open_rows[zero_words] = False
    for k in np.flatnonzero(setup.ind_rows[:, 0] < setup.n_rows):
        d = _ftran(binv, rows[k], signs[k])
        hit = np.flatnonzero(open_rows & (np.abs(d) > _SIMPLEX_TOL))
        r = int(hit[np.argmax(basis[hit])])
        _update_inverse(binv, d, r)
        basis[r] = k
        open_rows[r] = False
    return basis.tolist(), binv


class _ExactSetup:
    """Per-code constraint system, reused across frames (only costs change).

    Rows follow the decoder's edge tables (see decoder._CodeCache): edge e,
    check-major, has the coupling rows e(q-1) + a - 1 for symbols a = 1..q-1,
    and check j's normalization row is n_coupling + j, after all of them.
    So y[:n_coupling].reshape(n_edges, q-1) is an array of edge messages.
    Columns are the n * (q-1) indicators, then local-word weights.  Columns
    are kept as a padded store (see _revised_phase2) of row ids and signs,
    width slots each; padding points at row n_rows.  crash_store holds the
    indicators, every check's crash words, then the unit columns (see
    _crash_words), which crash_fixed marks.  crash_basis lists the crash
    store column basic at each row, every covered indicator among them (see
    _crash_basis), and crash_binv is its inverse; b_pert is the rhs b
    perturbed so that the crash solution stays feasible, and crash_xb is
    that solution, where every frame's first master starts.  uncovered lists
    the variables that no check covers, whose indicator columns touch no
    row.  word_index and crash_held serve the pricing of every check's
    words at once (see _add_cheapest_words), and word_index % q gives back
    the words' symbols.  A check whose codebook bound q^(d-1) exceeds
    _CODEBOOK_BUDGET words raises BudgetExceeded.
    """

    def __init__(self, code: TannerCode):
        for j, row in enumerate(code.rows):
            size = code.q ** (len(row) - 1)
            if size > _CODEBOOK_BUDGET:
                raise BudgetExceeded(f"check {j}: codebook bound {size} "
                                     f"exceeds budget {_CODEBOOK_BUDGET}")
        books = [enumerate_spc(code, j) for j in range(code.m)]
        cache = _code_cache(code)
        self.check_edges = cache.check_edges
        # each edge's variable and that variable's degree, for the
        # channel-split duals that seed column generation
        self.edge_var = cache.edge_var
        self.edge_var_degree = np.bincount(cache.edge_var,
                                           minlength=code.n)[cache.edge_var]
        q = self.q = code.q
        self.n_ind = code.n * (q - 1)
        self.n_coupling = cache.n_edges * (q - 1)
        self.n_rows = self.n_coupling + code.m
        self.uncovered = np.flatnonzero([not js for js in code.columns])
        self.b = np.zeros(self.n_rows)
        self.b[self.n_coupling:] = 1.0
        self.width = max(cache.var_edges.shape[1], self.check_edges.shape[1] + 1)
        # indicator columns: +1 on the coupling row of the matching symbol at
        # every edge of the variable, in edge order; var_edges pads with
        # n_edges
        var_edges = cache.var_edges[:, None, :]
        self.ind_rows = np.full((self.n_ind, self.width), self.n_rows)
        self.ind_rows[:, :var_edges.shape[2]] = np.where(
            var_edges < cache.n_edges,
            var_edges * (q - 1) + np.arange(q - 1)[:, None], self.n_rows,
        ).reshape(self.n_ind, -1)
        self.ind_signs = (self.ind_rows < self.n_rows).astype(np.float64)
        # every check's codebook padded to one (m, most words, widest check)
        # array: zero symbols past a check's degree, zero words past its
        # codebook; word_index holds the flat offsets of each word's
        # symbols into an (n_edges + 1, q) array of edge messages whose last
        # row, the padding edge's, is zero
        count = max(map(len, books))
        words = np.zeros((code.m, count, self.check_edges.shape[1]),
                         dtype=np.intp)
        self.check_degree = cache.degree
        self.crash_words, self.crash_units = _crash_words(code, books)
        # the words a first master holds: the crash words, and the padding
        # past each codebook so that it is never priced in
        self.crash_held = np.ones((code.m, count), dtype=bool)
        for j, book in enumerate(books):
            words[j, :len(book), :book.words.shape[1]] = book.words
            self.crash_held[j, :len(book)] = False
            self.crash_held[j, self.crash_words[j]] = True
        self.word_index = self.check_edges[:, None, :] * q + words
        # a unit column's block row k is slot k // (q-1), symbol k % (q-1) + 1;
        # none is a normalization row, which the zero word's column is
        units = np.full((sum(map(len, self.crash_units)), self.width),
                        self.n_rows)
        units[:, 0] = [self.check_edges[j, k // (q - 1)] * (q - 1) + k % (q - 1)
                       for j, ks in enumerate(self.crash_units) for k in ks]
        self.crash_store = tuple(np.concatenate(arrays) for arrays in zip(
            self.store(self.crash_words), (units, (units < self.n_rows) * 1.0)
        ))
        n_crash = self.n_ind + self.n_rows
        self.crash_fixed = np.arange(n_crash) >= n_crash - len(units)
        self.crash_basis, self.crash_binv = _crash_basis(self)
        # fixed rhs perturbation: breaks the heavy degeneracy of the
        # decoding polytope so the masters pivot without stalling, while
        # keeping every decode a deterministic function of the input
        u = np.random.default_rng(2_718_281).uniform(1e-7, 2e-7, self.n_rows)
        # perturbing by B0·u, B0 the crash basis, keeps the crash solution
        # feasible: its basic values move by exactly +u, and by 0 on the
        # fixed unit columns
        u[self.crash_fixed[self.crash_basis]] = 0.0
        rows, signs = (a[self.crash_basis] for a in self.crash_store)
        self.b_pert = self.b + np.bincount(
            rows.ravel(), (signs * u[:, None]).ravel(),
            minlength=self.n_rows + 1,
        )[:-1]
        # every frame's first basic solution
        self.crash_xb = np.clip(_matvec(self.crash_binv, self.b_pert), 0.0,
                                None)

    def word_store(self, checks, words):
        """Stored columns of local words, words[k] of check checks[k], each
        zero-padded to the widest check: -1 on the coupling row of each
        nonzero symbol, +1 on the check's normalization row."""
        count, d = words.shape
        rows = np.full((count, self.width), self.n_rows)
        signs = np.zeros((count, self.width))
        hit = words != 0
        rows[:, :d] = np.where(
            hit, self.check_edges[checks, :d] * (self.q - 1) + words - 1,
            self.n_rows,
        )
        signs[:, :d] = np.where(hit, -1.0, 0.0)
        at = (np.arange(count), self.check_degree[checks])
        rows[at] = self.n_coupling + checks
        signs[at] = 1.0
        return rows, signs

    def store(self, word_ids):
        """Stored indicator columns, then per check j the words word_ids[j]."""
        checks = np.repeat(np.arange(len(word_ids)),
                           [len(ws) for ws in word_ids])
        ids = np.concatenate([np.asarray(ws, np.intp) for ws in word_ids])
        words = self.word_store(checks, self.word_index[checks, ids] % self.q)
        return tuple(np.concatenate(arrays)
                     for arrays in zip((self.ind_rows, self.ind_signs), words))


@lru_cache(maxsize=4)
def _exact_setup(code: TannerCode) -> _ExactSetup:
    return _ExactSetup(code)


# safety valves of the exact decoder, read when used rather than bound as
# defaults: no check may have more local words than _CODEBOOK_BUDGET, no
# decode may take more than _MAX_PIVOTS pivots, and column generation
# stops after _MAX_CG_ROUNDS rounds
_CODEBOOK_BUDGET = 4096
_MAX_PIVOTS = 200_000
_MAX_CG_ROUNDS = 400
_CG_ADDS_PER_CHECK = 25
_PRICING_TOL = 1e-9


def _add_cheapest_words(setup: _ExactSetup, held, y, below):
    """Each check's cheapest words that the master does not hold yet.

    Every local word of every check is priced at once against the duals y:
    the coupling duals, read as edge messages, are gathered through the
    words' flat offsets (see _ExactSetup), and each check's normalization
    dual is subtracted.  Of each check's words that held, an (m, words)
    mask, does not mark and that price below `below`, the
    _CG_ADDS_PER_CHECK cheapest (ties in codebook order) are marked in
    held.  Returns their stored columns, check by check and cheapest
    first, as one (rows, signs) pair.
    """
    q = setup.q
    # the coupling duals as edge messages; symbol 0 and the padding edge
    # price at zero
    messages = np.zeros((setup.n_coupling // (q - 1) + 1, q))
    messages[:-1, 1:] = y[:setup.n_coupling].reshape(-1, q - 1)
    scores = (messages.ravel()[setup.word_index].sum(axis=2)
              - y[setup.n_coupling:setup.n_rows, None])
    scores[held | (scores >= below)] = np.inf
    order = np.argsort(scores, axis=1, kind="stable")[:, :_CG_ADDS_PER_CHECK]
    checks, rank = np.nonzero(
        np.take_along_axis(scores, order, axis=1) < np.inf)
    picked = order[checks, rank]
    held[checks, picked] = True
    return setup.word_store(checks, setup.word_index[checks, picked] % q)


def _column_generation(setup: _ExactSetup, c_ind):
    """Exact LP optimum via restricted masters over growing word sets.

    The first master holds the crash words plus, per check, the
    _CG_ADDS_PER_CHECK cheapest words under the channel-split duals: each
    edge's coupling duals are its variable's channel costs divided by the
    variable's degree, so every covered indicator prices at zero, and the
    normalization duals are zero.  Each round then solves the decoding LP
    restricted to the working local words and prices every excluded word
    against the restricted duals (see _add_cheapest_words).  Of each
    check's words that price below -_PRICING_TOL, the _CG_ADDS_PER_CHECK
    most negative join the working set: their columns are built from their
    symbols and appended to the master, so every earlier column keeps its
    place, and the basis, its inverse, the basic solution and the duals
    carry over to the next round unchanged; the first round starts from the
    set-up's crash_xb.  After every round, the primal and dual residuals of
    its solution and duals (see _residuals) are checked before any word is
    priced: above _RESIDUAL_TOL, the inverse is refactorized from the crash
    basis (see _invert) and the round is run again from a fresh basic
    solution and fresh duals.  A round with no word to add certifies the
    restricted optimum as the optimum of the full LP (the crash basis's
    unit columns stay in the master, fixed at zero).  More than _MAX_PIVOTS
    pivots in all raise CycleGuardTripped, and so do more than
    _MAX_CG_ROUNDS rounds, re-run ones included.  Returns (indicator part
    of x, value, total pivots).
    """
    q = setup.q
    rows, signs = setup.crash_store
    fixed = setup.crash_fixed
    c = np.zeros(len(rows))
    c[:setup.n_ind] = c_ind
    # per check, which of its local words the master already holds
    held = setup.crash_held.copy()
    # the seed: each check's cheapest words under the channel-split duals,
    # whatever their sign
    split = np.zeros(setup.n_rows)
    split[:setup.n_coupling] = (
        c_ind.reshape(-1, q - 1)[setup.edge_var]
        / setup.edge_var_degree[:, None]
    ).ravel()
    new_rows, new_signs = _add_cheapest_words(setup, held, split, np.inf)
    # start at the zero-codeword vertex provided by the crash selection,
    # and refactor from it
    start = (setup.crash_basis, setup.crash_binv)
    basis = setup.crash_basis
    binv = setup.crash_binv.copy()
    b = setup.b_pert
    xb, y = setup.crash_xb, None
    total_pivots = 0
    for _ in range(_MAX_CG_ROUNDS):
        if len(new_rows):
            rows = np.concatenate([rows, new_rows])
            signs = np.concatenate([signs, new_signs])
            c = np.concatenate([c, np.zeros(len(new_rows))])
            fixed = np.concatenate([fixed, np.zeros(len(new_rows), bool)])
        x, y, pivots, basis, binv = _revised_phase2(
            (rows, signs), b, c, basis, binv, fixed, total_pivots, xb, y,
        )
        total_pivots += pivots
        xb = x[basis]
        if max(_residuals((rows, signs), b, c, basis, xb, y)) > _RESIDUAL_TOL:
            # the inverse has drifted: rebuild it, and run the round again
            # from a fresh basic solution and fresh duals
            binv = _invert((rows, signs), basis, len(b), start)
            xb = y = None
            new_rows = ()
            continue
        new_rows, new_signs = _add_cheapest_words(setup, held, y,
                                                  -_PRICING_TOL)
        if len(new_rows):
            continue
        if b is setup.b:
            return x[:setup.n_ind], float((c * x).sum()), total_pivots
        # reduced costs do not depend on the rhs, so the basis stays
        # optimal for the true rhs as long as it stays feasible there,
        # fixed columns at zero included
        xb_true = _matvec(binv, setup.b)
        if (xb_true.min() >= -_FEAS_TOL
                and xb_true[fixed[basis]].max(initial=0.0) <= _FEAS_TOL):
            x_true = np.zeros(len(c))
            x_true[basis] = np.clip(xb_true, 0.0, None)
            return (x_true[:setup.n_ind], float((c * x_true).sum()),
                    total_pivots)
        # rare: re-run unperturbed from the crash vertex
        b = setup.b
        basis = setup.crash_basis
        binv = setup.crash_binv.copy()
        xb = y = None
    raise CycleGuardTripped(
        f"column generation did not settle in {_MAX_CG_ROUNDS} rounds"
    )


def lp_decode_exact(code: TannerCode, llr) -> DecodeOutcome:
    """Solve the decoding LP exactly and read off the optimum.

    A check whose codebook bound q^(d-1) exceeds _CODEBOOK_BUDGET (4096)
    words raises BudgetExceeded, more than _MAX_PIVOTS (200 000) simplex
    pivots in all raise CycleGuardTripped, and an entering column with no
    blocking row raises UnboundedRay.  An integral optimum
    (every indicator within 1e-6 of 0 or 1, row sums at most 1) decodes to
    a codeword with CODEWORD_FOUND.  A fractional optimum is a decoding
    failure: fractional positions are ERASED and the status is
    MAX_ITERATIONS.  iterations_used reports simplex pivots and the
    objective trace holds the optimal value.  A variable that no check
    covers takes its cheapest symbol, 0 when no llr of it is negative.
    LLRs of the wrong shape or with a non-finite entry are refused (see
    validate_llr).
    """
    lam = validate_llr(code, llr)
    setup = _exact_setup(code)
    # an uncovered variable's indicators touch no row, so a negative llr
    # would price them in along an unbounded ray; alone they form the
    # simplex {f >= 0, sum f <= 1}, whose optimum is decided here, and the
    # master sees them at zero cost
    free = setup.uncovered
    cost = lam.copy()
    cost[free] = 0.0
    f_flat, value, pivots = _column_generation(setup, cost.ravel())
    f = f_flat.reshape(code.n, code.q - 1)
    if free.size:
        best = lam[free].argmin(axis=1)
        low = lam[free, best]
        take = low < 0.0
        f[free[take], best[take]] = 1.0
        value += float(low[take].sum())
    near = np.minimum(np.abs(f), np.abs(f - 1.0))
    integral_rows = (
        (near.max(axis=1) <= _INTEGRALITY_TOL)
        & (f.sum(axis=1) <= 1.0 + _INTEGRALITY_TOL)
    )
    # an integral row's symbol is its first slot above 0.5, else 0
    ones = f > 0.5
    symbols = np.where(integral_rows,
                       np.where(ones.any(axis=1), ones.argmax(axis=1) + 1, 0),
                       ERASED)
    status = (
        Status.CODEWORD_FOUND if bool(integral_rows.all())
        else Status.MAX_ITERATIONS
    )
    return DecodeOutcome(
        symbols=symbols,
        status=status,
        iterations_used=pivots,
        dual_objective_trace=(value,),
    )
