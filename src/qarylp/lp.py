"""Exact LP decoding via a self-contained dense simplex solver.

The decoding LP minimizes the channel cost over a relaxation of the codeword
hull: variables are relaxed indicator vectors f_i (one slot per nonzero
symbol, cost llr[i]) plus one convex-weight vector per check over that
check's local codebook.  Equality rows tie every f_i slot to the matching
codebook marginal and normalize each weight vector to sum 1.  An integral
optimum is a certified ML codeword; a fractional optimum is a decoding
failure and the fractional positions are erased.

Two equivalent polytope descriptions are provided: the marginal form above
(f plus per-check weights) and a factor form that additionally carries one
convex-weight vector per variable over the q constant words.  Conversions in
both directions preserve the cost exactly, and each form has a constraint
checker that reports the worst violation per constraint family.

The simplex core is a dense two-phase tableau method.  Bland's rule is the
default (termination guaranteed); a Dantzig rule that falls back to Bland
after a degenerate stall is available for speed on the larger decoding LPs.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import TannerCode, enumerate_spc
from .decoder import ERASED, DecodeOutcome, Status, validate_llr

# reduced-cost and pivot-element threshold for the simplex core
_SIMPLEX_TOL = 1e-9
# phase-1 objective above this declares the program infeasible
_FEAS_TOL = 1e-7
# LP outputs within this of {0, 1} count as integral
_INTEGRALITY_TOL = 1e-6
# conversion inputs may violate their polytope by at most this much
_INPUT_TOL = 1e-8

_PIVOT_RULES = ("bland", "dantzig", "dantzig_bland")
# consecutive degenerate pivots before dantzig_bland falls back to Bland
_STALL_LIMIT = 60


class BudgetExceeded(ValueError):
    """A check's local codebook is larger than the configured budget."""


class TooLarge(ValueError):
    """The code is too large for exhaustive ML search."""


class InfeasibleInput(ValueError):
    """A conversion input does not lie in its polytope."""


class CycleGuardTripped(RuntimeError):
    """The simplex pivot budget was exhausted."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


# ---- linear programs ----


@dataclass(frozen=True)
class LinearProgram:
    """min c @ x subject to A @ x = b and x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    names: tuple

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2 or c.shape != (A.shape[1],) or b.shape != (A.shape[0],):
            raise ValueError(
                f"inconsistent shapes: c {c.shape}, A {A.shape}, b {b.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))
                and np.all(np.isfinite(c))):
            raise ValueError("LP data must be finite")
        names = tuple(self.names)
        if len(names) != A.shape[1] or len(set(names)) != len(names):
            raise ValueError("names must be unique and match the column count")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "names", names)


@dataclass
class SimplexResult:
    status: SolveStatus
    value: float
    x: np.ndarray
    pivots: int
    basis: list


def _pivot(T, zrow, basis, r, s):
    T[r] /= T[r, s]
    col = T[:, s].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    zrow -= zrow[s] * T[r]
    basis[r] = s
    # shed tiny negative drift on the rhs so ratio tests stay sane
    rhs = T[:, -1]
    rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0


def _iterate(T, zrow, basis, rule, tol, max_pivots, pivots):
    """Run pivots until optimal or unbounded; returns (status, pivots)."""
    bland = rule == "bland"
    stall = 0
    while True:
        z = zrow[:-1]
        if bland:
            negative = np.flatnonzero(z < -tol)
            if negative.size == 0:
                return SolveStatus.OPTIMAL, pivots
            s = int(negative[0])
        else:
            s = int(np.argmin(z))
            if z[s] >= -tol:
                return SolveStatus.OPTIMAL, pivots
        col = T[:, s]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            return SolveStatus.UNBOUNDED, pivots
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        # lowest-index leaving variable: anti-cycling with Bland entering
        r = int(ties[np.argmin(np.asarray(basis)[ties])])
        if best <= tol:
            stall += 1
            if rule == "dantzig_bland" and stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        _pivot(T, zrow, basis, r, s)
        pivots += 1
        if pivots > max_pivots:
            raise CycleGuardTripped(f"exceeded {max_pivots} pivots")


def _reduced_cost_row(c, T, basis):
    zrow = np.concatenate([c, [0.0]])
    zrow -= c[basis] @ T
    return zrow


def simplex_solve(
    lp: LinearProgram,
    pivot_rule: str = "bland",
    initial_basis=None,
    max_pivots: int = 200_000,
    tol: float = _SIMPLEX_TOL,
) -> SimplexResult:
    """Two-phase dense simplex for min c @ x, A @ x = b, x >= 0.

    With initial_basis (a list of column indices whose basic solution is
    feasible) phase 1 is skipped.  pivot_rule is one of 'bland' (default,
    termination guaranteed), 'dantzig', or 'dantzig_bland' (most-negative
    entering column until a degenerate stall, then Bland).
    """
    if pivot_rule not in _PIVOT_RULES:
        raise ValueError(f"pivot_rule must be one of {_PIVOT_RULES}")
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    pivots = 0

    if initial_basis is not None:
        basis = [int(k) for k in initial_basis]
        if len(basis) != m or len(set(basis)) != m:
            raise ValueError(f"initial basis must hold {m} distinct columns")
        try:
            T = np.linalg.solve(A[:, basis], np.column_stack([A, b]))
        except np.linalg.LinAlgError:
            raise ValueError("initial basis is singular") from None
        if T[:, -1].min() < -_FEAS_TOL:
            raise ValueError("initial basis is not primal feasible")
        np.clip(T[:, -1], 0.0, None, out=T[:, -1])
    else:
        T = np.column_stack([A, np.eye(m), b])
        basis = list(range(n, n + m))
        art_cost = np.concatenate([np.zeros(n), np.ones(m)])
        zrow = _reduced_cost_row(art_cost, T, basis)
        status, pivots = _iterate(T, zrow, basis, pivot_rule, tol,
                                  max_pivots, pivots)
        # phase 1 cannot be unbounded: its objective is bounded below by 0
        if -zrow[-1] > _FEAS_TOL:
            return SimplexResult(SolveStatus.INFEASIBLE, math.nan,
                                 np.full(n, math.nan), pivots, basis)
        drop = []
        for r in range(m):
            if basis[r] >= n:
                candidates = np.flatnonzero(np.abs(T[r, :n]) > tol)
                if candidates.size:
                    _pivot(T, zrow, basis, r, int(candidates[0]))
                    pivots += 1
                else:
                    drop.append(r)  # redundant original row
        if drop:
            keep = [r for r in range(len(basis)) if r not in drop]
            T = T[keep]
            basis = [basis[r] for r in keep]
        T = np.column_stack([T[:, :n], T[:, -1]])

    zrow = _reduced_cost_row(c, T, basis)
    status, pivots = _iterate(T, zrow, basis, pivot_rule, tol,
                              max_pivots, pivots)
    x = np.zeros(n)
    x[basis] = np.clip(T[:, -1], 0.0, None)
    value = float(c @ x) if status is SolveStatus.OPTIMAL else math.nan
    return SimplexResult(status, value, x, pivots, basis)


# ---- the decoding LP ----


@dataclass(frozen=True)
class MarginalPoint:
    """A point of the marginal-form polytope: indicators plus check weights.

    indicators is (n, q-1); check_weights[j] is a vector over the local
    codebook of check j (word order as enumerated by enumerate_spc).
    """

    indicators: np.ndarray
    check_weights: tuple


@dataclass(frozen=True)
class FactorPoint:
    """A point of the factor-form polytope.

    Adds symbol_weights, an (n, q) array of per-variable convex weights over
    the q constant local words; column b holds the weight of repeating
    symbol b.
    """

    indicators: np.ndarray
    symbol_weights: np.ndarray
    check_weights: tuple


def _books(code: TannerCode, budget: int):
    books = []
    for j in range(code.m):
        size = code.q ** (len(code.rows[j]) - 1)
        if size > budget:
            raise BudgetExceeded(
                f"check {j}: codebook bound {size} exceeds budget {budget}"
            )
        books.append(enumerate_spc(code, j))
    return books


def _lp_structure(code: TannerCode, books):
    """Equality system shared by every instance on this code (cost varies)."""
    q, n = code.q, code.n
    n_ind = n * (q - 1)
    w_start = []
    total_w = 0
    for book in books:
        w_start.append(n_ind + total_w)
        total_w += len(book)
    n_cols = n_ind + total_w
    n_coupling = sum(len(row) * (q - 1) for row in code.rows)
    A = np.zeros((n_coupling + code.m, n_cols))
    b = np.zeros(n_coupling + code.m)
    row = 0
    for j, book in enumerate(books):
        words = book.words
        for t, (i, _) in enumerate(code.rows[j]):
            for alpha in range(1, q):
                A[row, i * (q - 1) + alpha - 1] = 1.0
                hits = np.flatnonzero(words[:, t] == alpha)
                A[row, w_start[j] + hits] = -1.0
                row += 1
    for j, book in enumerate(books):
        A[row, w_start[j]:w_start[j] + len(book)] = 1.0
        b[row] = 1.0
        row += 1
    names = [f"ind_{i}_{alpha}" for i in range(n) for alpha in range(1, q)]
    for j, book in enumerate(books):
        names.extend(
            f"w_{j}_" + ".".join(str(int(s)) for s in word)
            for word in book.words
        )
    return A, b, tuple(names), w_start


def build_decoding_lp(code: TannerCode, llr,
                      codebook_budget: int = 4096) -> LinearProgram:
    """The decoding LP: indicator variables costed by llr, then check weights.

    Rows are the indicator/weight coupling equalities (check-major, then
    position, then symbol) followed by one normalization row per check.
    """
    lam = validate_llr(code, llr)
    books = _books(code, codebook_budget)
    A, b, names, _ = _lp_structure(code, books)
    c = np.zeros(A.shape[1])
    c[:code.n * (code.q - 1)] = lam.ravel()
    return LinearProgram(c=c, A=A, b=b, names=names)


def _word_columns(code: TannerCode, j: int, words, coup_start: int,
                  norm_row: int, n_rows: int) -> np.ndarray:
    """Constraint columns of the given local words of check j."""
    q = code.q
    block = np.zeros((n_rows, len(words)))
    for t in range(words.shape[1]):
        vals = words[:, t]
        hit = np.flatnonzero(vals)
        block[coup_start + t * (q - 1) + vals[hit] - 1, hit] = -1.0
    block[norm_row] = 1.0
    return block


def _crash_words(code: TannerCode, books, coup_starts, norm_rows, n_rows):
    """Per-check word sets whose columns form a feasible zero-vertex basis.

    Weight columns only touch their own check's rows, so selecting per check
    an independent set of codebook columns (the zero word first) yields a
    block-diagonal basis whose basic solution puts weight 1 on each zero
    word.  Returns None when some check's local columns cannot fill its
    block (a symbol unreachable on some edge makes a coupling row all zero).
    """
    q = code.q
    chosen_words = []
    for j, book in enumerate(books):
        d = len(code.rows[j])
        rows = list(range(coup_starts[j], coup_starts[j] + d * (q - 1)))
        rows.append(norm_rows[j])
        block = _word_columns(code, j, book.words, coup_starts[j],
                              norm_rows[j], n_rows)[rows]
        need = len(rows)
        chosen = [0]  # zero word: unit column on the normalization row
        basis_mat = block[:, [0]]
        for col in range(1, block.shape[1]):
            if len(chosen) == need:
                break
            trial = np.column_stack([basis_mat, block[:, col]])
            if np.linalg.matrix_rank(trial) > basis_mat.shape[1]:
                chosen.append(col)
                basis_mat = trial
        if len(chosen) < need:
            return None
        chosen_words.append(chosen)
    return chosen_words


# consecutive degenerate pivots before the revised loop falls back to Bland
_REVISED_STALL_LIMIT = 200
# basis-inverse refactorization cadence for the revised loop
_REFACTOR_EVERY = 128


def _revised_phase2(A, b, c, basis, binv, rule, tol, max_pivots):
    """Phase 2 on a feasible basis, keeping only the basis inverse.

    Equivalent to the tableau loop but with one pricing matvec per pivot
    instead of a full tableau update, which is what makes the larger
    decoding LPs affordable.  Returns (status, x, pivots, basis, binv).
    """
    m, n = A.shape
    basis = list(basis)
    binv = binv.copy()
    xb = np.clip(binv @ b, 0.0, None)
    pivots = 0
    bland = rule == "bland"
    stall = 0
    while True:
        cb = c[basis]
        z = c - (cb @ binv) @ A
        if bland:
            negative = np.flatnonzero(z < -tol)
            if negative.size == 0:
                break
            s = int(negative[0])
        else:
            s = int(np.argmin(z))
            if z[s] >= -tol:
                break
        d = binv @ A[:, s]
        rows = np.flatnonzero(d > tol)
        if rows.size == 0:
            return SolveStatus.UNBOUNDED, None, pivots, basis, binv
        ratios = xb[rows] / d[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(ties[np.argmin(np.asarray(basis)[ties])])
        if best <= tol:
            stall += 1
            if rule == "dantzig_bland" and stall > _REVISED_STALL_LIMIT:
                bland = True
        else:
            stall = 0
        step = xb[r] / d[r]
        xb -= step * d
        xb[r] = step
        np.clip(xb, 0.0, None, out=xb)
        row = binv[r] / d[r]
        scale = d.copy()
        scale[r] = 0.0
        binv -= np.outer(scale, row)
        binv[r] = row
        basis[r] = s
        pivots += 1
        if pivots % _REFACTOR_EVERY == 0:
            binv = np.linalg.inv(A[:, basis])
            xb = np.clip(binv @ b, 0.0, None)
        if pivots > max_pivots:
            raise CycleGuardTripped(f"exceeded {max_pivots} pivots")
    x = np.zeros(n)
    x[basis] = xb
    return SolveStatus.OPTIMAL, x, pivots, basis, binv


class _ExactSetup:
    """Per-code solver state reused across frames (only the cost changes)."""

    def __init__(self, code: TannerCode, budget: int):
        self.books = _books(code, budget)
        q = code.q
        self.n_ind = code.n * (q - 1)
        self.n_coupling = sum(len(row) * (q - 1) for row in code.rows)
        self.n_rows = self.n_coupling + code.m
        self.coup_starts = []
        start = 0
        for row in code.rows:
            self.coup_starts.append(start)
            start += len(row) * (q - 1)
        self.norm_rows = [self.n_coupling + j for j in range(code.m)]
        self.b = np.zeros(self.n_rows)
        self.b[self.n_coupling:] = 1.0
        # indicator columns: +1 on every coupling row of the matching symbol
        self.A_ind = np.zeros((self.n_rows, self.n_ind))
        for j, row in enumerate(code.rows):
            for t, (i, _) in enumerate(row):
                for alpha in range(1, q):
                    self.A_ind[
                        self.coup_starts[j] + t * (q - 1) + alpha - 1,
                        i * (q - 1) + alpha - 1,
                    ] = 1.0
        self.crash_words = _crash_words(code, self.books, self.coup_starts,
                                        self.norm_rows, self.n_rows)
        # fixed rhs perturbation: breaks the heavy degeneracy of the
        # decoding polytope so the masters pivot without stalling, while
        # keeping every decode a deterministic function of the input
        self.b_pert = None
        if self.crash_words is not None:
            blocks = [
                _word_columns(code, j, self.books[j].words[np.asarray(ws)],
                              self.coup_starts[j], self.norm_rows[j],
                              self.n_rows)
                for j, ws in enumerate(self.crash_words)
            ]
            B0 = np.concatenate(blocks, axis=1)
            u = np.random.default_rng(2_718_281).uniform(
                1e-7, 2e-7, self.n_rows
            )
            # perturbing by B0 @ u keeps the crash solution feasible: its
            # basic values move by exactly +u
            self.b_pert = self.b + B0 @ u


@lru_cache(maxsize=4)
def _exact_setup(code: TannerCode, budget: int) -> _ExactSetup:
    return _ExactSetup(code, budget)


# column-generation safety valves for the exact decoder
_MAX_CG_ROUNDS = 400
_CG_ADDS_PER_CHECK = 25
_PRICING_TOL = 1e-9


def _column_generation(setup: _ExactSetup, code: TannerCode, c_ind,
                       rule, max_pivots):
    """Exact LP optimum via restricted masters over growing word sets.

    Each round solves the decoding LP restricted to the working local words,
    then prices every excluded word against the restricted duals (one cheap
    gather per check).  Words with negative reduced cost join the working
    set; a round with none certifies the restricted optimum as the optimum
    of the full LP.  Returns (indicator part of x, value, total pivots).
    """
    q = code.q
    working = [list(ws) for ws in setup.crash_words]
    members = [set(ws) for ws in working]
    # basis carried across rounds as (check, word) pairs; starts at the
    # zero-codeword vertex provided by the crash selection
    basis_words = [(j, wid) for j, ws in enumerate(working) for wid in ws]
    basis_inds: list = []
    total_pivots = 0
    perturbed = True
    for _ in range(_MAX_CG_ROUNDS):
        w_offsets = []
        pos = setup.n_ind
        blocks = [setup.A_ind]
        for j, ws in enumerate(working):
            w_offsets.append(pos)
            pos += len(ws)
            blocks.append(_word_columns(
                code, j, setup.books[j].words[np.asarray(ws)],
                setup.coup_starts[j], setup.norm_rows[j], setup.n_rows,
            ))
        A_R = np.concatenate(blocks, axis=1)
        c_R = np.zeros(A_R.shape[1])
        c_R[:setup.n_ind] = c_ind
        local_pos = [
            {wid: k for k, wid in enumerate(ws)} for ws in working
        ]
        basis = list(basis_inds)
        basis.extend(w_offsets[j] + local_pos[j][wid]
                     for j, wid in basis_words)
        binv = np.linalg.inv(A_R[:, basis])
        status, x, pivots, basis, binv = _revised_phase2(
            A_R, setup.b_pert if perturbed else setup.b, c_R, basis, binv,
            rule, _SIMPLEX_TOL, max_pivots - total_pivots,
        )
        total_pivots += pivots
        if status is not SolveStatus.OPTIMAL:
            raise RuntimeError(
                f"restricted decoding LP should be bounded, got {status}"
            )
        y = c_R[basis] @ binv
        added = 0
        for j, book in enumerate(setup.books):
            d = book.words.shape[1]
            slot_duals = y[
                setup.coup_starts[j]:setup.coup_starts[j] + d * (q - 1)
            ].reshape(d, q - 1)
            padded = np.column_stack([np.zeros(d), slot_duals])
            scores = (
                padded[np.arange(d)[None, :], book.words].sum(axis=1)
                - y[setup.norm_rows[j]]
            )
            candidates = np.flatnonzero(scores < -_PRICING_TOL)
            candidates = [int(k) for k in candidates if int(k) not in members[j]]
            candidates.sort(key=lambda k: scores[k])
            for wid in candidates[:_CG_ADDS_PER_CHECK]:
                working[j].append(wid)
                members[j].add(wid)
                added += 1
        if added == 0:
            if not perturbed:
                return x[:setup.n_ind], float(c_R @ x), total_pivots
            # reduced costs do not depend on the rhs, so the basis stays
            # optimal for the true rhs as long as it stays feasible there
            xb_true = binv @ setup.b
            if xb_true.min() >= -_FEAS_TOL:
                x_true = np.zeros(A_R.shape[1])
                x_true[basis] = np.clip(xb_true, 0.0, None)
                return x_true[:setup.n_ind], float(c_R @ x_true), total_pivots
            # rare: re-run unperturbed from the crash vertex
            perturbed = False
            basis_inds = []
            basis_words = [(j, wid) for j, ws in enumerate(setup.crash_words)
                           for wid in ws]
            continue
        basis_inds = [k for k in basis if k < setup.n_ind]
        basis_words = []
        for k in basis:
            if k >= setup.n_ind:
                j = int(np.searchsorted(w_offsets, k, side="right")) - 1
                basis_words.append((j, working[j][k - w_offsets[j]]))
    raise CycleGuardTripped(
        f"column generation did not settle in {_MAX_CG_ROUNDS} rounds"
    )


def lp_decode_exact(
    code: TannerCode,
    llr,
    codebook_budget: int = 4096,
    pivot_rule: str = "dantzig_bland",
    max_pivots: int = 200_000,
) -> DecodeOutcome:
    """Solve the decoding LP exactly and read off the optimum.

    An integral optimum (every indicator within 1e-6 of 0 or 1, row sums at
    most 1) decodes to a codeword with CODEWORD_FOUND.  A fractional optimum
    is a decoding failure: fractional positions are ERASED and the status is
    MAX_ITERATIONS.  iterations_used reports simplex pivots and the
    objective trace holds the optimal value.  LLRs of the wrong shape or
    with a non-finite entry are refused (see validate_llr).
    """
    lam = validate_llr(code, llr)
    setup = _exact_setup(code, codebook_budget)
    if setup.crash_words is not None:
        f_flat, value, pivots = _column_generation(
            setup, code, lam.ravel(), pivot_rule, max_pivots,
        )
        f = f_flat.reshape(code.n, code.q - 1)
    else:
        lp = build_decoding_lp(code, lam, codebook_budget)
        result = simplex_solve(lp, pivot_rule=pivot_rule,
                               max_pivots=max_pivots)
        if result.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(
                f"decoding LP should be bounded and feasible, "
                f"got {result.status}"
            )
        f = result.x[:setup.n_ind].reshape(code.n, code.q - 1)
        value = result.value
        pivots = result.pivots
    near = np.minimum(np.abs(f), np.abs(f - 1.0))
    integral_rows = (
        (near.max(axis=1) <= _INTEGRALITY_TOL)
        & (f.sum(axis=1) <= 1.0 + _INTEGRALITY_TOL)
    )
    symbols = np.empty(code.n, dtype=np.int64)
    for i in range(code.n):
        if not integral_rows[i]:
            symbols[i] = ERASED
            continue
        ones = np.flatnonzero(f[i] > 0.5)
        symbols[i] = int(ones[0]) + 1 if ones.size else 0
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


# ---- polytope checks and conversions ----


def _point_books(code: TannerCode, point):
    if len(point.check_weights) != code.m:
        raise ValueError(
            f"expected {code.m} check weight vectors, got "
            f"{len(point.check_weights)}"
        )
    books = [enumerate_spc(code, j) for j in range(code.m)]
    for j, book in enumerate(books):
        if np.asarray(point.check_weights[j]).shape != (len(book),):
            raise ValueError(
                f"check {j}: weight vector must have length {len(book)}"
            )
    return books


def check_marginal(point: MarginalPoint, code: TannerCode) -> dict:
    """Worst violation of each marginal-form constraint family."""
    f = np.asarray(point.indicators, dtype=np.float64)
    if f.shape != (code.n, code.q - 1):
        raise ValueError(f"indicators shape {f.shape} does not match the code")
    books = _point_books(code, point)
    coupling = 0.0
    nonneg = 0.0
    norm = 0.0
    for j, book in enumerate(books):
        w = np.asarray(point.check_weights[j], dtype=np.float64)
        nonneg = max(nonneg, float(np.maximum(-w, 0.0).max()))
        norm = max(norm, abs(float(w.sum()) - 1.0))
        words = book.words
        for t, (i, _) in enumerate(code.rows[j]):
            for alpha in range(1, code.q):
                marg = float(w[words[:, t] == alpha].sum())
                coupling = max(coupling, abs(f[i, alpha - 1] - marg))
    return {
        "coupling": coupling,
        "check_weight_nonneg": nonneg,
        "check_weight_sum": norm,
    }


def check_factor(point: FactorPoint, code: TannerCode) -> dict:
    """Worst violation of each factor-form constraint family.

    The per-slot aggregation equalities are reported as identically zero:
    the aggregated slot values are materialized from their defining sums, so
    those two families cannot be violated by construction.
    """
    f = np.asarray(point.indicators, dtype=np.float64)
    g = np.asarray(point.symbol_weights, dtype=np.float64)
    if f.shape != (code.n, code.q - 1):
        raise ValueError(f"indicators shape {f.shape} does not match the code")
    if g.shape != (code.n, code.q):
        raise ValueError(
            f"symbol_weights shape {g.shape} does not match ({code.n}, {code.q})"
        )
    books = _point_books(code, point)
    channel_link = float(np.abs(f - g[:, 1:]).max())
    edge_link = 0.0
    w_nonneg = 0.0
    w_norm = 0.0
    for j, book in enumerate(books):
        w = np.asarray(point.check_weights[j], dtype=np.float64)
        w_nonneg = max(w_nonneg, float(np.maximum(-w, 0.0).max()))
        w_norm = max(w_norm, abs(float(w.sum()) - 1.0))
        words = book.words
        for t, (i, _) in enumerate(code.rows[j]):
            for alpha in range(1, code.q):
                marg = float(w[words[:, t] == alpha].sum())
                edge_link = max(edge_link, abs(g[i, alpha] - marg))
    return {
        "channel_link": channel_link,
        "edge_link": edge_link,
        "symbol_weight_aggregation": 0.0,
        "check_weight_aggregation": 0.0,
        "symbol_weight_nonneg": float(np.maximum(-g, 0.0).max()),
        "check_weight_nonneg": w_nonneg,
        "symbol_weight_sum": float(np.abs(g.sum(axis=1) - 1.0).max()),
        "check_weight_sum": w_norm,
    }


def marginal_to_factor(point: MarginalPoint, code: TannerCode) -> FactorPoint:
    """Lift a marginal-form point: symbol weights from the shared marginal.

    The constant-word weight for a nonzero symbol is that symbol's indicator
    entry; the zero word takes the leftover mass.  Check weights carry over
    unchanged, so the cost is preserved exactly.
    """
    report = check_marginal(point, code)
    worst = max(report.values())
    if worst > _INPUT_TOL:
        raise InfeasibleInput(f"marginal point violates {report}")
    f = np.asarray(point.indicators, dtype=np.float64)
    g = np.empty((code.n, code.q))
    g[:, 1:] = f
    g[:, 0] = 1.0 - f.sum(axis=1)
    return FactorPoint(
        indicators=f.copy(),
        symbol_weights=g,
        check_weights=tuple(
            np.asarray(w, dtype=np.float64).copy() for w in point.check_weights
        ),
    )


def factor_to_marginal(point: FactorPoint, code: TannerCode) -> MarginalPoint:
    """Project a factor-form point: drop symbol weights, keep check weights."""
    report = check_factor(point, code)
    worst = max(report.values())
    if worst > _INPUT_TOL:
        raise InfeasibleInput(f"factor point violates {report}")
    return MarginalPoint(
        indicators=np.asarray(point.indicators, dtype=np.float64).copy(),
        check_weights=tuple(
            np.asarray(w, dtype=np.float64).copy() for w in point.check_weights
        ),
    )


def codeword_vertex(code: TannerCode, word) -> MarginalPoint:
    """The marginal-form vertex of a codeword: unit weight on each local word."""
    w = np.asarray(word, dtype=np.int64)
    if not code.is_codeword(w):
        raise InfeasibleInput(f"{w.tolist()} is not a codeword")
    books = [enumerate_spc(code, j) for j in range(code.m)]
    f = np.zeros((code.n, code.q - 1))
    nz = np.flatnonzero(w)
    f[nz, w[nz] - 1] = 1.0
    weights = []
    for j, book in enumerate(books):
        local = w[code.row_cols[j]]
        hit = np.flatnonzero((book.words == local).all(axis=1))
        vec = np.zeros(len(book))
        vec[hit[0]] = 1.0
        weights.append(vec)
    return MarginalPoint(indicators=f, check_weights=tuple(weights))


def lp_cost(llr, point) -> float:
    """Channel cost of a polytope point: sum of llr against the indicators."""
    lam = np.asarray(llr, dtype=np.float64)
    return float((lam * np.asarray(point.indicators)).sum())


# ---- exhaustive ML oracle ----


def ml_bruteforce(code: TannerCode, llr) -> np.ndarray:
    """Exhaustive minimum-cost codeword; ties break lexicographically.

    Only for tiny codes: refuses when the full search space q^n exceeds
    2^20 words.
    """
    q, n = code.q, code.n
    if n * math.log2(q) > 20.0 + 1e-9:
        raise TooLarge(f"q^n = {q}^{n} exceeds the exhaustive search bound")
    lam = validate_llr(code, llr)
    total = q ** n
    ids = np.arange(total)
    words = np.empty((total, n), dtype=np.int64)
    for t in range(n):
        words[:, t] = (ids // q ** (n - 1 - t)) % q
    H = code.dense()
    mask = ~np.any(words @ H.T % q, axis=1)
    codewords = words[mask]
    costs = np.zeros(codewords.shape[0])
    for t in range(n):
        padded = np.concatenate(([0.0], lam[t]))
        costs += padded[codewords[:, t]]
    # np.argmin returns the first minimum, which is the lex-least codeword
    return codewords[int(np.argmin(costs))].copy()


# ---- debug dump ----


def write_lp(lp: LinearProgram, path) -> None:
    """Dump an LP in a plain text layout for cross-checking with other tools."""
    lines = ["min:"]
    terms = [
        f"  {lp.c[k]:+.12g} {lp.names[k]}" for k in range(len(lp.names))
        if lp.c[k] != 0.0
    ]
    lines.extend(terms if terms else ["  0"])
    lines.append("subject to:")
    for r in range(lp.A.shape[0]):
        cols = np.flatnonzero(lp.A[r])
        body = " ".join(f"{lp.A[r, k]:+.12g} {lp.names[k]}" for k in cols)
        lines.append(f"  row_{r}: {body} = {lp.b[r]:.12g}")
    lines.append("bounds:")
    lines.append("  all variables >= 0")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
