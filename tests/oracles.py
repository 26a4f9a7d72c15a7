"""Independent reference implementations used to pin expected test values.

Everything here trades speed for obviousness: exhaustive enumeration,
the exhaustive ML search (ml_bruteforce, refusing with TooLarge past
q^n = 2^20) and the dense parity-check matrix it filters with (dense),
Smith normal forms, finite differences, scalar golden-section search,
edge-by-edge and loop forms of the decoder's sweep and bookkeeping, and the
merged O(q^3) trellis step that the decoder's O(q^2) kernel regroups.  The
per-edge instrumentation (set_message, potentials, the exclusion terms,
local_function and decide) runs the decoder's own kernel on one edge or
one state, so the tests that use it still exercise that kernel.  Where
they call the decoder's private soft-minimum code directly, they ignore
the divide warning of an empty bucket's log 0 under np.errstate, as the
decoder's public entries do.  Production modules must never import from
this file.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from qarylp import decoder as D
from qarylp import lp as L
from qarylp.codes import enumerate_spc


def dense(code):
    """The (m, n) parity-check matrix of a code as a dense integer array."""
    H = np.zeros((code.m, code.n), dtype=np.int64)
    for j, row in enumerate(code.rows):
        for i, v in row:
            H[j, i] = v
    return H


def spc_words_bruteforce(code, j):
    """All local words of check j by filtering the full q^d grid."""
    cols = code.row_cols[j]
    vals = code.row_vals[j]
    q = code.q
    out = []
    for word in itertools.product(range(q), repeat=len(cols)):
        if int(np.dot(word, vals)) % q == 0:
            out.append(word)
    return out


def codewords_bruteforce(code):
    """All codewords of a tiny code by filtering the full q^n grid."""
    q, n = code.q, code.n
    H = dense(code)
    out = []
    for word in itertools.product(range(q), repeat=n):
        if not np.any(np.dot(H, word) % q):
            out.append(word)
    return out


def log_codebook_size_snf(H, q):
    """log_q of the number of solutions of H x = 0 mod q, via Smith form.

    For an integer matrix with Smith diagonal d_1, ..., d_r (nonzero part),
    the solution count mod q is q**(n - r) * prod gcd(d_k, q).
    """
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    M = Matrix(H.tolist())
    D = smith_normal_form(M)
    n = M.shape[1]
    diag = [int(D[k, k]) for k in range(min(D.shape)) if D[k, k] != 0]
    logq = (n - len(diag)) + sum(
        math.log(math.gcd(d, q), q) for d in diag
    )
    return logq


def softmin_bruteforce(values, kappa):
    """Soft minimum by direct summation in extended precision.

    Uses the exact identity softmin(z) = m + softmin(z - m) with m = min(z)
    so the sum stays representable, then evaluates the defining formula
    term by term in longdouble.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(kappa):
        return float(arr.min())
    m = arr.min()
    work = (arr - m).astype(np.longdouble)
    return float(m - np.log(np.exp(-kappa * work).sum()) / kappa)


def softmin_rows_loop(rows, kappa):
    """The decoder's soft minimum of each row, finished row by row in a
    list: shifted by each row's minimum (or by the largest float for a row
    of +inf, which gives +inf).  Each row's exponentials are summed term by
    term in row order, the order of the decoder's reduction over a leading
    axis; numpy's own row sum adds eight or more terms pairwise.  The logs
    of the row totals are one np.log, as in the decoder; an empty row's
    total is logged as 1 and the row is given +inf."""
    if math.isinf(kappa):
        return np.minimum.reduce(rows, axis=1)
    lo = np.minimum.reduce(rows, axis=1, initial=np.finfo(np.float64).max)
    shifted = rows - lo[:, None]
    shifted *= -kappa
    terms = np.exp(shifted, out=shifted)
    total = terms[:, 0].copy()
    for column in terms.T[1:]:
        total += column
    logs = np.log(np.where(total > 0, total, 1.0))
    return np.array([
        low - log / kappa if s else math.inf
        for low, log, s in zip(lo.tolist(), logs.tolist(), total.tolist())
    ])


def softmin_libm(terms, kappa):
    """The decoder's _softmin with each column's log taken by math.log,
    the C library's, one column at a time: the form whose bits the
    decoder's np.log replaced."""
    if math.isinf(kappa):
        return np.minimum.reduce(terms, axis=0)
    lo = np.minimum.reduce(terms, axis=0, initial=np.finfo(np.float64).max)
    shifted = terms - lo
    shifted *= -kappa
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=0)
    empty = total == 0
    total[empty] = 1.0
    logs = np.fromiter(map(math.log, total.ravel().tolist()), np.float64,
                       total.size)
    out = lo - logs.reshape(total.shape) / kappa
    out[empty] = math.inf
    return out


def softmin_masked(terms, kappa):
    """The decoder's _softmin as it was before log 0 gave its empty
    columns +inf: an all-+inf column's total of 0 is logged as 1 and the
    column is then set to +inf, so no divide warning fires."""
    if math.isinf(kappa):
        return np.minimum.reduce(terms, axis=0)
    lo = np.minimum.reduce(terms, axis=0, initial=np.finfo(np.float64).max)
    shifted = terms - lo
    shifted *= -kappa
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=0)
    empty = total == 0
    total[empty] = 1.0
    out = lo - np.log(total, out=total) / kappa
    out[empty] = math.inf
    return out


def central_difference_gradient(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function on R^k."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for t in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[t] += step
        lo[t] -= step
        grad[t] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def golden_section_max(fn, lo, hi, tol=1e-9):
    """Maximize a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def coordinate_grid_max(fn, x0, half_width=6.0, coarse=121):
    """Maximize fn over one coordinate: coarse grid then golden section.

    Returns the maximizing scalar for a 1-d function fn.
    """
    grid = np.linspace(x0 - half_width, x0 + half_width, coarse)
    vals = [fn(g) for g in grid]
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, coarse - 1)]
    return golden_section_max(fn, lo, hi)


def binomial_ci_halfwidth(fer, frames):
    """Normal-approximation 95 percent half-width for a frame-error rate."""
    return 1.96 * math.sqrt(max(fer * (1.0 - fer), 1e-12) / frames)


def lp_vertex_enumeration(c, A, b, tol=1e-9):
    """Optimal value and vertex of min c@x, Ax=b, x>=0 by basis enumeration.

    Only for tiny feasible bounded programs (a handful of columns).  Every
    m-subset of columns is solved; feasible basic solutions are compared on
    cost.  Returns (value, x) or (None, None) when no basis is feasible.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    best_value, best_x = None, None
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(B @ xb - b)) > 1e-7:
            continue
        if xb.min() < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(xb, 0.0, None)
        value = float(c @ x)
        if best_value is None or value < best_value - 1e-12:
            best_value, best_x = value, x
    return best_value, best_x


def codewords_vectorized(code, chunk=1 << 20):
    """All codewords of a small code by chunked filtering of the q^n grid.

    Same answer as codewords_bruteforce, but fast enough for q^n in the
    tens of millions: symbol digits are peeled off integer word ids and
    syndromes are computed by one matrix product per chunk.
    """
    q, n = code.q, code.n
    H = dense(code)
    total = q ** n
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out = []
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = (ids[:, None] // powers) % q
        keep = ~np.any(words @ H.T % q, axis=1)
        out.append(words[keep])
    return np.concatenate(out)


class TooLarge(ValueError):
    """The code is too large for exhaustive ML search."""


def ml_bruteforce(code, llr):
    """Exhaustive minimum-cost codeword; ties break lexicographically.

    Only for tiny codes: refuses with TooLarge when the full search space
    q^n exceeds 2^20 words.  LLRs are checked as the decoders check them.
    """
    q, n = code.q, code.n
    if n * math.log2(q) > 20.0 + 1e-9:
        raise TooLarge(f"q^n = {q}^{n} exceeds the exhaustive search bound")
    lam = D.validate_llr(code, llr)
    total = q ** n
    ids = np.arange(total)
    words = np.empty((total, n), dtype=np.int64)
    for t in range(n):
        words[:, t] = (ids // q ** (n - 1 - t)) % q
    mask = ~np.any(words @ dense(code).T % q, axis=1)
    codewords = words[mask]
    costs = np.zeros(codewords.shape[0])
    for t in range(n):
        padded = np.concatenate(([0.0], lam[t]))
        costs += padded[codewords[:, t]]
    # np.argmin returns the first minimum, which is the lex-least codeword
    return codewords[int(np.argmin(costs))].copy()


def set_message(state: D.DualState, i: int, j: int, values) -> None:
    """Assign the message on edge (i, j), keeping node_sum consistent."""
    e = state.code.edges.index((i, j))
    new = np.asarray(values, dtype=np.float64)
    state.node_sum[i] += new - state.messages[e]
    state.messages[e] = new


def compute_v_terms(state: D.DualState, i: int, j: int, alpha: int):
    """Variable-side exclusion scores for edge (i, j) and symbol alpha.

    V_bar negates the soft minimum over constant local words whose slot for
    check j differs from alpha (full scores, channel slot included); V_eq
    negates the score of the constant-alpha word with the check-j slot left
    out.  Returns (V_bar, V_eq).
    """
    e = state.code.edges.index((i, j))
    scores = np.concatenate(([0.0], -state.node_sum[i]))
    keep = np.arange(state.code.q) != alpha
    v_bar = -D.soft_min(scores[keep], state.kappa)
    v_eq = state.node_sum[i, alpha - 1] - state.messages[e, alpha - 1]
    return v_bar, v_eq


def compute_c_terms(state: D.DualState, j: int, i: int, alpha: int):
    """Check-side exclusion scores for edge (i, j) and symbol alpha.

    C_bar negates the soft minimum over local codewords of check j whose
    slot for variable i differs from alpha; C_eq negates the soft minimum
    over words with that slot equal to alpha, scored with variable i's
    position excluded.  Returns (C_bar, C_eq).
    """
    e = state.code.edges.index((i, j))
    with np.errstate(divide="ignore"):
        ext, _, _ = D._edge_ext(state, i, j)
    # bucket(b) = w(b) + ext(b) covers the words with b in variable i's slot
    bucket = np.concatenate(([0.0], state.messages[e])) + ext
    c_bar = -D.soft_min(bucket[np.arange(state.code.q) != alpha], state.kappa)
    # C_eq = w(alpha) - bucket(alpha): the alpha bucket without that slot
    return c_bar, -ext[alpha]


def local_function(state: D.DualState, i: int, j: int) -> float:
    """Edge-local part of the dual objective: phi_i + theta_j, phi_i from
    node_sum and theta_j from the trellis pass."""
    with np.errstate(divide="ignore"):
        theta = D._trellis(state.messages, state.kappa, state.cache)[j, 0, 0]
    return float(D._variable_potentials(state)[i] + theta)


def potentials(state: D.DualState):
    """(phi, theta): every potential at its bound, as dual_objective
    sums them."""
    with np.errstate(divide="ignore"):
        theta = D._trellis(state.messages, state.kappa, state.cache)[:, 0, 0]
    return D._variable_potentials(state), theta


def refresh_node_sum(state: D.DualState) -> None:
    """node_sum recomputed from the messages, as decode() does before
    each sweep."""
    state.node_sum[:] = D._message_sums(state) - state.llr


def decide(state: D.DualState) -> D.DecodeOutcome:
    """Read the current decision: cheapest repetition word per variable.

    A variable's slot scores are llr minus the sums of its edge messages,
    so the channel slot participates alongside the check slots, and the
    score of the constant word repeating alpha is exactly the term whose
    minimum over words defines phi_i.  The strictly cheapest word (the
    zero word costs 0) selects the symbol.  A tie within
    _DECISION_ZERO_TOL at a nonnegative minimum erases the symbol; a tie
    strictly below zero means several nonzero symbols claim the variable
    at once and raises MalformedDecision.
    """
    symbols = D._decide_symbols(state.llr - D._message_sums(state))
    found = not np.any(symbols == D.ERASED) and state.code.is_codeword(symbols)
    status = D.Status.CODEWORD_FOUND if found else D.Status.MAX_ITERATIONS
    return D.DecodeOutcome(symbols, status, 0, (D.dual_objective(state),))


def decode_reference(code, llr, config):
    """decode() spelled out through the public per-edge path.

    One node_sum refresh per sweep, then update_edge_soft/update_edge_hard
    on every edge in check-major order, then dual_objective() and
    decide().  decode() must return exactly this.
    """
    state = D.init_state(code, llr, config)
    edges = [(i, j) for j in range(code.m) for i, _ in code.rows[j]]
    update = D.update_edge_hard if math.isinf(config.kappa) else D.update_edge_soft
    trace = [D.dual_objective(state)]
    malformed = 0
    outcome = None
    for iteration in range(1, config.max_iterations + 1):
        refresh_node_sum(state)
        for i, j in edges:
            update(state, i, j)
        trace.append(D.dual_objective(state))
        try:
            outcome = decide(state)
        except D.MalformedDecision:
            malformed += 1
            outcome = None
            continue
        if outcome.status is D.Status.CODEWORD_FOUND:
            return D.DecodeOutcome(outcome.symbols, outcome.status, iteration,
                                   tuple(trace), malformed)
    if outcome is None:
        decide(state)
    return D.DecodeOutcome(outcome.symbols, D.Status.MAX_ITERATIONS,
                           config.max_iterations, tuple(trace), malformed)


def variable_edges(code, i):
    """Edge ids of variable i, ascending."""
    return [e for e, (v, _) in enumerate(code.edges) if v == i]


def check_edges(code, j):
    """Edge ids of check j in slot order (edge ids are check-major)."""
    return [code.edges.index((int(i), j)) for i in code.row_cols[j]]


def node_sum_loop(state):
    """node_sum rebuilt from messages one variable at a time."""
    code = state.code
    node_sum = -state.llr
    for i in range(code.n):
        edges = variable_edges(code, i)
        if edges:
            node_sum[i] += state.messages[edges].sum(axis=0)
    return node_sum


def local_word_scores(state, j):
    """(words, scores) of check j: its enumerate_spc words, each scored by
    the sum of messages[e][b - 1] over its nonzero slots b."""
    words = enumerate_spc(state.code, j).words
    scores = np.zeros(len(words))
    for t, e in enumerate(check_edges(state.code, j)):
        scores += np.concatenate(([0.0], state.messages[e]))[words[:, t]]
    return words, scores


def slot_buckets_bruteforce(state, j, t):
    """Soft minimum of the word scores of check j per symbol of slot t,
    +inf for a symbol no local word puts there."""
    words, scores = local_word_scores(state, j)
    return np.array([
        softmin_bruteforce(scores[words[:, t] == b], state.kappa)
        if np.any(words[:, t] == b) else math.inf
        for b in range(state.code.q)
    ])


def merged_kernel_table(q, h_prev, h):
    """Gather table of the merged trellis step into slot t.

    Entry k = s q + b of the grid F(s) + w(b) (prefix F and row w of slot
    t - 1, coefficient h_prev) takes from g = [B(0), ..., B(q-1), 0, +inf]
    (suffix B after slot t, coefficient h): in row s' a 0 if it lands on
    prefix syndrome s', else +inf; in row q + c the B that closes a word
    with c at slot t.
    """
    s, b = np.divmod(np.arange(q * q), q)
    syndrome = (s + h_prev * b) % q
    symbols = np.arange(q)[:, None]
    return np.concatenate([np.where(syndrome == symbols, q, q + 1),
                           (-syndrome - h * symbols) % q])


def merged_slot_ext(state, j, stop):
    """Slot stop's extrinsic row of check j by the merged trellis step.

    Each slot t >= 1 takes one (2q, q^2) soft minimum over every (s, b) of
    the previous prefix and slot: rows 0..q-1 give the new prefix, rows
    q..2q-1 close the words with slot t.  O(q^3) per slot, where the
    decoder's kernel groups the same terms by syndrome in O(q^2).
    """
    q = state.code.q
    vals = state.code.row_vals[j]
    edges = check_edges(state.code, j)
    with np.errstate(divide="ignore"):
        suffix = D._trellis(state.messages, state.kappa, state.cache)[j]
    # each suffix row B_t followed by the 0 and +inf the tables point at
    g = np.column_stack([suffix, np.zeros(len(suffix)),
                         np.full(len(suffix), math.inf)])
    ext = g[1, (-vals[0] * np.arange(q)) % q]
    prefix = np.full(q, math.inf)
    prefix[0] = 0.0
    for t in range(1, stop + 1):
        row = np.concatenate(([0.0], state.messages[edges[t - 1]]))
        terms = g[t + 1][merged_kernel_table(q, vals[t - 1], vals[t])]
        terms += (prefix[:, None] + row[None, :]).reshape(1, -1)
        with np.errstate(divide="ignore"):
            minima = D._softmin(terms.T, state.kappa)
        prefix, ext = minima[:q], minima[q:]
    return ext


def crash_words_rank_greedy(code):
    """Per check, the first codebook columns (in enumerate_spc order) that
    raise the matrix_rank of those taken before, restricted to the check's
    coupling rows (position-major, then symbol) and normalization row; then
    the first unit vectors of that block, in row order, that raise it
    further until the block is full.  Returns (words, units): per check the
    word ids and the block rows of the unit vectors.  Checks with equal
    coefficient rows share one block, so each distinct row is solved once."""
    q = code.q
    solved = {}
    words_out, units_out = [], []
    for j in range(code.m):
        key = tuple(code.row_vals[j].tolist())
        if key not in solved:
            words = enumerate_spc(code, j).words.astype(np.int64)
            d = words.shape[1]
            block = np.zeros((d * (q - 1) + 1, len(words)))
            for w, word in enumerate(words):
                for t, b in enumerate(word):
                    if b:
                        block[t * (q - 1) + b - 1, w] = -1.0
            block[-1] = 1.0
            size = block.shape[0]
            block = np.hstack([block, np.eye(size)])
            chosen = []
            for col in range(block.shape[1]):
                if len(chosen) == size:
                    break
                if np.linalg.matrix_rank(block[:, chosen + [col]]) > len(chosen):
                    chosen.append(col)
            solved[key] = ([k for k in chosen if k < len(words)],
                           [k - len(words) for k in chosen if k >= len(words)])
        words_out.append(solved[key][0])
        units_out.append(solved[key][1])
    return words_out, units_out


def crash_basis_identity_replay(setup):
    """The exact LP's crash basis and inverse, the whole block-diagonal
    crash inverted by _invert from I, then every covered indicator entered
    as _crash_basis enters it.  Returns (basis, binv)."""
    rows, signs = setup.crash_store
    basis = np.arange(setup.n_ind, setup.n_ind + setup.n_rows)
    binv = L._invert(setup.crash_store, basis, setup.n_rows)
    zero_words = np.cumsum([0] + [len(ws) for ws in setup.crash_words[:-1]])
    open_rows = np.ones(setup.n_rows, dtype=bool)
    open_rows[zero_words] = False
    for k in np.flatnonzero(setup.ind_rows[:, 0] < setup.n_rows):
        d = L._ftran(binv, rows[k], signs[k])
        hit = np.flatnonzero(open_rows & (np.abs(d) > L._SIMPLEX_TOL))
        r = int(hit[np.argmax(basis[hit])])
        L._update_inverse(binv, d, r)
        basis[r] = k
        open_rows[r] = False
    return basis.tolist(), binv


def syndrome_loop(code, word):
    """Per-check residuals, one check at a time."""
    w = np.asarray(word, dtype=np.int64)
    return np.array([int(np.dot(w[cols], vals)) % code.q
                     for cols, vals in zip(code.row_cols, code.row_vals)])


def crash_basis_rank_greedy(code):
    """The exact LP's crash basis by a rank greedy over its columns.

    Candidates, in order: the covered indicator columns, then the crash
    words of crash_words_rank_greedy check by check, then its unit vectors,
    each built entry by entry in the row layout of decoding_lp_columns.  A
    candidate is taken when it raises the rank of those taken before,
    tested by its residual after projection onto an orthonormal basis of
    them (two Gram-Schmidt passes; one matrix_rank per candidate is far too
    slow at a thousand rows).  Returns the taken ids in the layout of
    _ExactSetup.crash_store: indicators, crash words, then unit columns.
    """
    q = code.q
    starts = np.cumsum([0] + [len(row) * (q - 1) for row in code.rows])
    m = int(starts[-1]) + code.m
    words, units = crash_words_rank_greedy(code)
    candidates = []
    for i in range(code.n):
        for alpha in range(1, q):
            col = np.zeros(m)
            for j, row in enumerate(code.rows):
                for t, (v, _) in enumerate(row):
                    if v == i:
                        col[starts[j] + t * (q - 1) + alpha - 1] = 1.0
            candidates.append(col)
    for j, ws in enumerate(words):
        book = enumerate_spc(code, j).words
        for w in ws:
            col = np.zeros(m)
            for t, b in enumerate(book[w]):
                if b:
                    col[starts[j] + t * (q - 1) + b - 1] = -1.0
            col[starts[-1] + j] = 1.0
            candidates.append(col)
    for j, us in enumerate(units):
        block = list(range(starts[j], starts[j + 1])) + [int(starts[-1]) + j]
        for u in us:
            col = np.zeros(m)
            col[block[u]] = 1.0
            candidates.append(col)
    basis = np.zeros((m, m))
    taken = []
    for k, col in enumerate(candidates):
        # an uncovered indicator is the zero column and never raises the rank
        residual = col.copy()
        for _ in range(2):
            span = basis[:, :len(taken)]
            residual -= span @ (span.T @ residual)
        norm = np.linalg.norm(residual)
        if norm > 1e-8:
            basis[:, len(taken)] = residual / norm
            taken.append(k)
    return taken


def decide_symbols_loop(state):
    """Per-variable decisions by sorting each variable's word scores alone."""
    n = state.code.n
    scores = state.llr.copy()
    for i in range(n):
        edges = variable_edges(state.code, i)
        if edges:
            scores[i] -= state.messages[edges].sum(axis=0)
    symbols = np.empty(n, dtype=np.int64)
    for i in range(n):
        full = np.concatenate(([0.0], scores[i]))
        order = np.argsort(full, kind="stable")
        best, runner = full[order[0]], full[order[1]]
        if runner - best <= D._DECISION_ZERO_TOL:
            if best < -D._DECISION_ZERO_TOL:
                tied = np.flatnonzero(full - best <= D._DECISION_ZERO_TOL)
                raise D.MalformedDecision(
                    f"variable {i}: slots {tied.tolist()} all claim the "
                    f"decision (scores {scores[i].tolist()})"
                )
            symbols[i] = D.ERASED
            continue
        symbols[i] = int(order[0])
    return symbols


def update_inverse_dense(binv, d, r):
    """Product-form update of binv in place as one dense rank-one outer
    product over every row, d = binv @ a for the column a entering at r;
    then every entry below lp._DROP_TOL in magnitude is set to 0."""
    row = binv[r] / d[r]
    scale = d.copy()
    scale[r] = 0.0
    binv -= np.outer(scale, row)
    binv[r] = row
    binv[np.abs(binv) < L._DROP_TOL] = 0.0


def decoding_lp_columns(code):
    """The decoding LP's constraint matrix, entry by entry.

    Rows: per check, per position, per nonzero symbol a coupling row, then
    one normalization row per check.  Columns: indicator (i, alpha) with +1
    on the coupling row of alpha at every edge of i, then per check its
    local words in spc_words_bruteforce order, with -1 on the coupling row
    of each nonzero symbol and +1 on the check's normalization row.
    """
    q = code.q
    starts = np.cumsum([0] + [len(row) * (q - 1) for row in code.rows])
    n_rows = int(starts[-1]) + code.m
    cols = []
    for i in range(code.n):
        for alpha in range(1, q):
            col = np.zeros(n_rows)
            for j, row in enumerate(code.rows):
                for t, (v, _) in enumerate(row):
                    if v == i:
                        col[starts[j] + t * (q - 1) + alpha - 1] = 1.0
            cols.append(col)
    for j in range(code.m):
        for word in spc_words_bruteforce(code, j):
            col = np.zeros(n_rows)
            for t, s in enumerate(word):
                if s:
                    col[starts[j] + t * (q - 1) + s - 1] = -1.0
            col[starts[-1] + j] = 1.0
            cols.append(col)
    return np.array(cols).T


def decoding_lp(code, llr, A=None):
    """(c, A, b) of the full decoding LP min c@x, A@x = b, x >= 0.

    A is decoding_lp_columns(code); pass the A of an earlier call on the
    same code to skip rebuilding it, since only c depends on llr.  c holds
    llr on the indicator columns and 0 on the local words; b is 0 on the
    coupling rows and 1 on the normalization rows.
    """
    if A is None:
        A = decoding_lp_columns(code)
    lam = np.asarray(llr, dtype=np.float64).ravel()
    c = np.zeros(A.shape[1])
    c[:lam.size] = lam
    b = np.zeros(A.shape[0])
    b[A.shape[0] - code.m:] = 1.0
    return c, A, b


def dense_store(rows, vals, m):
    """The dense (m, len(rows)) matrix of a padded column store; the
    inverse of padded_store."""
    A = np.zeros((m + 1, len(rows)))
    A[rows, np.arange(len(rows))[:, None]] = vals
    return A[:m]


def padded_store(A):
    """A dense matrix as the simplex engine's padded column store.

    Column k becomes one line of (row ids, values): its nonzero entries in
    row order, then padding up to the widest column with row len(A) (the
    zero dual slot) and value 0.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    hits = [np.flatnonzero(A[:, k]) for k in range(n)]
    width = max([1] + [len(h) for h in hits])
    rows = np.full((n, width), m)
    vals = np.zeros((n, width))
    for k, h in enumerate(hits):
        rows[k, :len(h)] = h
        vals[k, :len(h)] = A[h, k]
    return rows, vals


def full_columns(code):
    """The dense constraint matrix of every local word of a code, from the
    exact LP's own column store (_ExactSetup.store)."""
    setup = L._exact_setup(code)
    return dense_store(*setup.store(
        [range(len(enumerate_spc(code, j))) for j in range(code.m)]),
        setup.n_rows)


# the exact LP's variables: indicators (n, q-1) and per check j weights over
# its local codebook in enumerate_spc order; the factor form adds (n, q)
# weights over each variable's constant words, column b repeating symbol b
MarginalPoint = namedtuple("MarginalPoint", "indicators check_weights")
FactorPoint = namedtuple("FactorPoint",
                         "indicators symbol_weights check_weights")


def check_marginal(point, code):
    """Worst violation of each marginal-form constraint family: |A x - b| on
    the exact LP's coupling rows and on its normalization rows, A the
    full_columns of the code, and the most negative check weight."""
    setup = L._exact_setup(code)
    w = np.concatenate(point.check_weights)
    gap = np.abs(full_columns(code) @ np.concatenate(
        [np.ravel(point.indicators), w]) - setup.b)
    return {"coupling": float(gap[:setup.n_coupling].max()),
            "check_weight_nonneg": float(np.maximum(-w, 0.0).max()),
            "check_weight_sum": float(gap[setup.n_coupling:].max())}


def check_factor(point, code):
    """Worst violation of each factor-form constraint family.  The symbol
    weights meet the check weights on the coupling rows (check_marginal);
    the two aggregation families hold by construction and report 0."""
    f, g = point.indicators, point.symbol_weights
    linked = check_marginal(MarginalPoint(g[:, 1:], point.check_weights), code)
    return {"channel_link": float(np.abs(f - g[:, 1:]).max()),
            "edge_link": linked.pop("coupling"),
            "symbol_weight_aggregation": 0.0,
            "check_weight_aggregation": 0.0,
            "symbol_weight_nonneg": float(np.maximum(-g, 0.0).max()),
            "symbol_weight_sum": float(np.abs(g.sum(axis=1) - 1.0).max()),
            **linked}


def marginal_to_factor(point, code):
    """Symbol b's weight is its indicator; the zero word takes the rest."""
    f = np.array(point.indicators, dtype=np.float64)
    g = np.column_stack([1.0 - f.sum(axis=1), f])
    return FactorPoint(f, g, point.check_weights)


def factor_to_marginal(point, code):
    """The factor point without its symbol weights."""
    return MarginalPoint(np.array(point.indicators), point.check_weights)


def codeword_vertex(code, word):
    """One-hot indicators and unit weight on each check's local word."""
    w = np.asarray(word, dtype=np.int64)
    f = np.zeros((code.n, code.q - 1))
    f[np.flatnonzero(w), w[w != 0] - 1] = 1.0
    return MarginalPoint(f, tuple(
        (enumerate_spc(code, j).words == w[cols]).all(axis=1) * 1.0
        for j, cols in enumerate(code.row_cols)))


def lp_cost(llr, point):
    """Channel cost of a point: llr summed against its indicators."""
    return float((np.asarray(llr, dtype=np.float64) * point.indicators).sum())
