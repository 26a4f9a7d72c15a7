"""Exact LP decoding via a self-contained revised simplex solver.

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

The simplex core is a two-phase revised method that keeps only the basis
inverse; phase 1 runs the same loop on artificial columns.  Bland's rule is
the default of simplex_solve (termination guaranteed); the exact decoder
always uses the Dantzig rule that falls back to Bland after a degenerate
stall, which is much faster on the decoding LPs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import BudgetExceeded, TannerCode, enumerate_spc
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
# lp_decode_exact's rule: pure Dantzig can cycle on the degenerate decoding
# polytope, and pure Bland is far slower there
_EXACT_PIVOT_RULE = "dantzig_bland"
# consecutive degenerate pivots before dantzig_bland falls back to Bland
_REVISED_STALL_LIMIT = 200
# basis-inverse refactorization cadence for the revised loop
_REFACTOR_EVERY = 128


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


def _update_inverse(binv, d, r):
    """Update binv in place for the column a, d = binv @ a, entering at r."""
    row = binv[r] / d[r]
    scale = d.copy()
    scale[r] = 0.0
    binv -= np.outer(scale, row)
    binv[r] = row


def _revised_phase2(A, b, c, basis, binv, rule, tol, max_pivots, spent=0):
    """Simplex pivots from a feasible basis, keeping only the basis inverse.

    One pricing matvec per pivot instead of a full tableau update, which is
    what makes the larger decoding LPs affordable.  Both phases of
    simplex_solve and every column-generation master run here.  spent counts
    pivots the caller made before this call; CycleGuardTripped fires once
    spent plus this call's pivots exceed max_pivots.  Returns (status, x,
    pivots, basis, binv), pivots counting this call only; x is the last
    basic solution, also when the program is unbounded.
    """
    m, n = A.shape
    basis = list(basis)
    binv = binv.copy()
    xb = np.clip(binv @ b, 0.0, None)
    pivots = 0
    bland = rule == "bland"
    stall = 0
    status = SolveStatus.OPTIMAL
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
            status = SolveStatus.UNBOUNDED
            break
        ratios = xb[rows] / d[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        # lowest-index leaving variable: anti-cycling with Bland entering
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
        _update_inverse(binv, d, r)
        basis[r] = s
        pivots += 1
        if pivots % _REFACTOR_EVERY == 0:
            binv = np.linalg.inv(A[:, basis])
            xb = np.clip(binv @ b, 0.0, None)
        if spent + pivots > max_pivots:
            raise CycleGuardTripped(f"exceeded {max_pivots} pivots")
    x = np.zeros(n)
    x[basis] = xb
    return status, x, pivots, basis, binv


def simplex_solve(
    lp: LinearProgram,
    pivot_rule: str = "bland",
    initial_basis=None,
    max_pivots: int = 200_000,
    tol: float = _SIMPLEX_TOL,
) -> SimplexResult:
    """Two-phase revised simplex for min c @ x, A @ x = b, x >= 0.

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
            binv = np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError:
            raise ValueError("initial basis is singular") from None
        if (binv @ b).min() < -_FEAS_TOL:
            raise ValueError("initial basis is not primal feasible")
    else:
        # phase 1 on [A | I] from the artificial basis; it cannot be
        # unbounded, since its objective is bounded below by 0
        art_cost = np.concatenate([np.zeros(n), np.ones(m)])
        _, x1, pivots, basis, binv = _revised_phase2(
            np.hstack([A, np.eye(m)]), b, art_cost, range(n, n + m),
            np.eye(m), pivot_rule, tol, max_pivots,
        )
        if x1[n:].sum() > _FEAS_TOL:
            return SimplexResult(SolveStatus.INFEASIBLE, math.nan,
                                 np.full(n, math.nan), pivots, basis)
        # swap artificials left at zero level for structural columns; the
        # artificial of original row k has binv[r, k] = 1, so when binv[r]
        # annihilates every structural column, row k is redundant
        drop = []
        for r in range(m):
            if basis[r] >= n:
                candidates = np.flatnonzero(np.abs(binv[r] @ A) > tol)
                if candidates.size:
                    s = int(candidates[0])
                    _update_inverse(binv, binv @ A[:, s], r)
                    basis[r] = s
                    pivots += 1
                else:
                    drop.append(basis[r] - n)
        if drop:
            keep = [k for k in range(m) if k not in drop]
            A = A[keep]
            b = b[keep]
            basis = [k for k in basis if k < n]
        binv = np.linalg.inv(A[:, basis])

    status, x, phase2_pivots, basis, _ = _revised_phase2(
        A, b, c, basis, binv, pivot_rule, tol, max_pivots, spent=pivots,
    )
    pivots += phase2_pivots
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


@lru_cache(maxsize=16)
def _codebooks(code: TannerCode) -> tuple:
    # every check's local codebook, enumerated once per code
    return tuple(enumerate_spc(code, j) for j in range(code.m))


def _books(code: TannerCode, budget: int) -> tuple:
    for j, row in enumerate(code.rows):
        size = code.q ** (len(row) - 1)
        if size > budget:
            raise BudgetExceeded(
                f"check {j}: codebook bound {size} exceeds budget {budget}"
            )
    return _codebooks(code)


def _crash_words(setup):
    """Per-check word sets whose columns form a feasible zero-vertex basis.

    Weight columns only touch their own check's rows, so selecting per check
    an independent set of codebook columns (the zero word first) yields a
    block-diagonal basis whose basic solution puts weight 1 on each zero
    word.  Returns None when some check's local columns cannot fill its
    block (a symbol unreachable on some edge makes a coupling row all zero).
    """
    chosen_words = []
    for j, book in enumerate(setup.books):
        start = setup.coup_starts[j]
        rows = list(range(start, start + book.words.shape[1] * (setup.q - 1)))
        rows.append(setup.norm_rows[j])
        block = setup.word_columns(j, book.words)[rows]
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


class _ExactSetup:
    """Per-code constraint system, reused across frames (only costs change).

    Rows are the indicator/weight coupling equalities (check-major, then
    position, then symbol) followed by one normalization row per check;
    columns are the n * (q-1) indicators, then local-word weights.
    """

    def __init__(self, code: TannerCode, budget: int):
        self.books = _books(code, budget)
        q = self.q = code.q
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
        self.crash_words = _crash_words(self)
        # fixed rhs perturbation: breaks the heavy degeneracy of the
        # decoding polytope so the masters pivot without stalling, while
        # keeping every decode a deterministic function of the input
        self.b_pert = None
        if self.crash_words is not None:
            B0 = self.columns(self.crash_words)[:, self.n_ind:]
            u = np.random.default_rng(2_718_281).uniform(
                1e-7, 2e-7, self.n_rows
            )
            # perturbing by B0 @ u keeps the crash solution feasible: its
            # basic values move by exactly +u
            self.b_pert = self.b + B0 @ u

    def word_columns(self, j: int, words) -> np.ndarray:
        """Constraint columns of the given local words of check j."""
        block = np.zeros((self.n_rows, len(words)))
        for t in range(words.shape[1]):
            vals = words[:, t]
            hit = np.flatnonzero(vals)
            block[self.coup_starts[j] + t * (self.q - 1) + vals[hit] - 1,
                  hit] = -1.0
        block[self.norm_rows[j]] = 1.0
        return block

    def columns(self, word_ids) -> np.ndarray:
        """The indicator columns, then per check j the words word_ids[j]."""
        return np.concatenate([self.A_ind] + [
            self.word_columns(j, self.books[j].words[np.asarray(ws)])
            for j, ws in enumerate(word_ids)
        ], axis=1)


@lru_cache(maxsize=4)
def _exact_setup(code: TannerCode, budget: int) -> _ExactSetup:
    return _ExactSetup(code, budget)


def build_decoding_lp(code: TannerCode, llr,
                      codebook_budget: int = 4096) -> LinearProgram:
    """The decoding LP: indicator variables costed by llr, then check weights.

    Rows are the indicator/weight coupling equalities (check-major, then
    position, then symbol) followed by one normalization row per check.
    """
    lam = validate_llr(code, llr)
    setup = _exact_setup(code, codebook_budget)
    A = setup.columns([range(len(book)) for book in setup.books])
    c = np.zeros(A.shape[1])
    c[:setup.n_ind] = lam.ravel()
    names = [f"ind_{i}_{alpha}" for i in range(code.n)
             for alpha in range(1, code.q)]
    for j, book in enumerate(setup.books):
        names.extend(
            f"w_{j}_" + ".".join(str(int(s)) for s in word)
            for word in book.words
        )
    # a copy, so that the LP never aliases the cached right-hand side
    return LinearProgram(c=c, A=A, b=setup.b.copy(), names=tuple(names))


# column-generation safety valves for the exact decoder
_MAX_CG_ROUNDS = 400
_CG_ADDS_PER_CHECK = 25
_PRICING_TOL = 1e-9


def _column_generation(setup: _ExactSetup, code: TannerCode, c_ind,
                       max_pivots):
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
        for ws in working:
            w_offsets.append(pos)
            pos += len(ws)
        A_R = setup.columns(working)
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
            _EXACT_PIVOT_RULE, _SIMPLEX_TOL, max_pivots, spent=total_pivots,
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
    max_pivots: int = 200_000,
) -> DecodeOutcome:
    """Solve the decoding LP exactly and read off the optimum.

    Pivoting uses the dantzig_bland rule.  A check whose codebook bound
    q^(d-1) exceeds codebook_budget raises BudgetExceeded, and more than
    max_pivots simplex pivots in all raise CycleGuardTripped.  An integral
    optimum (every indicator within 1e-6 of 0 or 1, row sums at most 1)
    decodes to a codeword with CODEWORD_FOUND.  A fractional optimum is a
    decoding failure: fractional positions are ERASED and the status is
    MAX_ITERATIONS.  iterations_used reports simplex pivots and the
    objective trace holds the optimal value.  LLRs of the wrong shape or
    with a non-finite entry are refused (see validate_llr).
    """
    lam = validate_llr(code, llr)
    setup = _exact_setup(code, codebook_budget)
    if setup.crash_words is not None:
        f_flat, value, pivots = _column_generation(
            setup, code, lam.ravel(), max_pivots,
        )
        f = f_flat.reshape(code.n, code.q - 1)
    else:
        lp = build_decoding_lp(code, lam, codebook_budget)
        result = simplex_solve(lp, pivot_rule=_EXACT_PIVOT_RULE,
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


def _check_weight_gaps(point, code: TannerCode, target):
    """Worst (coupling, negativity, sum) violations of the check weights.

    The coupling gap is the largest |target[i, alpha-1] - marginal| over
    every edge (i, j) and nonzero symbol alpha, where the marginal is the
    weight check j puts on local words with alpha at position i.
    """
    if len(point.check_weights) != code.m:
        raise ValueError(
            f"expected {code.m} check weight vectors, got "
            f"{len(point.check_weights)}"
        )
    coupling = nonneg = norm = 0.0
    for j, book in enumerate(_codebooks(code)):
        words = book.words
        w = np.asarray(point.check_weights[j], dtype=np.float64)
        if w.shape != (len(words),):
            raise ValueError(
                f"check {j}: weight vector must have length {len(words)}"
            )
        nonneg = max(nonneg, float(np.maximum(-w, 0.0).max()))
        norm = max(norm, abs(float(w.sum()) - 1.0))
        for t, (i, _) in enumerate(code.rows[j]):
            for alpha in range(1, code.q):
                marg = float(w[words[:, t] == alpha].sum())
                coupling = max(coupling, abs(target[i, alpha - 1] - marg))
    return coupling, nonneg, norm


def check_marginal(point: MarginalPoint, code: TannerCode) -> dict:
    """Worst violation of each marginal-form constraint family."""
    f = np.asarray(point.indicators, dtype=np.float64)
    if f.shape != (code.n, code.q - 1):
        raise ValueError(f"indicators shape {f.shape} does not match the code")
    coupling, nonneg, norm = _check_weight_gaps(point, code, f)
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
    channel_link = float(np.abs(f - g[:, 1:]).max())
    edge_link, w_nonneg, w_norm = _check_weight_gaps(point, code, g[:, 1:])
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
    f = np.zeros((code.n, code.q - 1))
    nz = np.flatnonzero(w)
    f[nz, w[nz] - 1] = 1.0
    weights = []
    for j, book in enumerate(_codebooks(code)):
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
