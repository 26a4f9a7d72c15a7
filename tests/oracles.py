"""Independent reference implementations used to pin expected test values.

Everything here trades speed for obviousness: exhaustive enumeration,
Smith normal forms, finite differences, scalar golden-section search, and
edge-by-edge and loop forms of the decoder's sweep and bookkeeping.
Production modules must never import from this file.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qarylp import decoder as D
from qarylp.codes import enumerate_spc


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
    H = code.dense()
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
    H = code.dense().astype(np.int64)
    total = q ** n
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out = []
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        words = (ids[:, None] // powers) % q
        keep = ~np.any(words @ H.T % q, axis=1)
        out.append(words[keep])
    return np.concatenate(out)


def decode_reference(code, llr, config):
    """decode() spelled out through the public per-edge path.

    One cache refresh per sweep, then update_edge_soft/update_edge_hard on
    every edge in check-major order, each tightening phi and theta right
    after its edge, then decide().  decode() must return exactly this.
    """
    state = D.init_state(code, llr, config)
    edges = [(i, j) for j in range(code.m) for i, _ in code.rows[j]]
    update = D.update_edge_hard if math.isinf(config.kappa) else D.update_edge_soft
    trace = [D.dual_objective(state)]
    malformed = 0
    outcome = None
    for iteration in range(1, config.max_iterations + 1):
        D._refresh_caches(state)
        for i, j in edges:
            update(state, i, j)
        trace.append(D.dual_objective(state))
        try:
            outcome = D.decide(state)
        except D.MalformedDecision:
            malformed += 1
            outcome = None
            continue
        if outcome.status is D.Status.CODEWORD_FOUND:
            return D.DecodeOutcome(outcome.symbols, outcome.status, iteration,
                                   tuple(trace), malformed)
    if outcome is None:
        D.decide(state)
    return D.DecodeOutcome(outcome.symbols, D.Status.MAX_ITERATIONS,
                           config.max_iterations, tuple(trace), malformed)


def variable_edges(code, i):
    """Edge ids of variable i, ascending."""
    return [e for e, (v, _) in enumerate(code.edges) if v == i]


def check_edges(code, j):
    """Edge ids of check j in slot order (edge ids are check-major)."""
    return [code.edges.index((int(i), j)) for i in code.row_cols[j]]


def refresh_caches_loop(state):
    """node_sum and check_costs rebuilt from messages one variable and one
    check at a time, scoring the words enumerate_spc lists; returns
    (node_sum, list of per-check cost arrays, one entry per local word)."""
    code = state.code
    node_sum = state.chan.copy()
    for i in range(code.n):
        edges = variable_edges(code, i)
        if edges:
            node_sum[i] += state.messages[edges].sum(axis=0)
    check_costs = []
    for j in range(code.m):
        words = enumerate_spc(code, j).words
        costs = np.zeros(len(words))
        for t, e in enumerate(check_edges(code, j)):
            pad = np.concatenate(([0.0], state.messages[e]))
            costs += pad[words[:, t]]
        check_costs.append(costs)
    return node_sum, check_costs


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
