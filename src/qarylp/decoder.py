"""Low-complexity LP decoding by coordinate ascent on a smoothed dual.

The decoder keeps one real (q-1)-vector message per Tanner-graph edge, plus a
frozen channel message -llr_i in a virtual slot of each variable.  Feasible
dual points assign each variable a potential phi_i bounded by the best score
of any constant local word at that variable, and each check a potential
theta_j bounded by the best score of any local codeword of that check; the
dual objective is the sum of all potentials.  Replacing each minimum with the
soft minimum min^kappa{z} = -(1/kappa) log sum_l exp(-kappa z_l) makes the
edge-local part of the objective a smooth concave function of that edge's
message, so each visit jumps straight to the closed-form stationary point,
which is the exact per-edge maximizer.  A sweep over the edges therefore
never decreases the dual objective.  kappa = math.inf applies the same
update with hard minima: still locally maximal, but without the monotone
guarantee.  decode() tightens every potential once per sweep, after the
last edge update: phi_i and theta_j depend only on their own variable's and
check's cached sums, so this equals tightening them after every edge, which
the public per-edge functions still do.  Decisions score each variable's
constant words by the channel cost minus the sum of edge messages and pick
the strictly cheapest word, the zero word costing 0; ties at the minimum
erase the symbol (or, strictly below zero, surface MalformedDecision).
Every code shares one padded layout (see _CodeCache): padding words score
+inf, so they never win a minimum, and a symbol that no local word reaches
gets message -_MESSAGE_CLAMP.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codes import TannerCode, enumerate_spc

# messages are clipped here; a bucket with no local word would otherwise
# push its message to infinity
_MESSAGE_CLAMP = 1e18

# |score| at or below this counts as a zero crossing and erases the symbol
_DECISION_ZERO_TOL = 1e-12

ERASED = -1


class EmptyList(ValueError):
    """soft_min of an empty collection is undefined."""


class DimensionMismatch(ValueError):
    """LLR matrix shape does not match the code."""


class NonFiniteLLR(ValueError):
    """LLR matrix holds a NaN or an infinite entry."""


class MalformedDecision(RuntimeError):
    """More than one symbol slot claims the decision for one variable."""


class Status(enum.Enum):
    CODEWORD_FOUND = "codeword_found"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs for decode(): the sweep budget and the smoothing kappa.

    kappa = math.inf selects hard minima.  Edges are always visited in
    check-major order and decoding stops at the first codeword.
    """

    max_iterations: int = 100
    kappa: float = 100.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0 or math.inf, got {self.kappa}")


@dataclass
class DecodeOutcome:
    """Decision plus bookkeeping from a decode() run."""

    symbols: np.ndarray
    status: Status
    iterations_used: int
    dual_objective_trace: tuple
    malformed_decisions: int = 0


# ---- input checks ----


def validate_llr(code: TannerCode, llr) -> np.ndarray:
    """The LLRs as a float64 (n, q-1) array.

    Raises DimensionMismatch for any other shape and NonFiniteLLR for a NaN
    or infinite entry, which no decoder can cost.
    """
    lam = np.asarray(llr, dtype=np.float64)
    if lam.shape != (code.n, code.q - 1):
        raise DimensionMismatch(
            f"llr shape {lam.shape} does not match ({code.n}, {code.q - 1})"
        )
    if not np.isfinite(lam).all():
        i, a = np.argwhere(~np.isfinite(lam))[0]
        raise NonFiniteLLR(f"llr[{i}, {a}] = {lam[i, a]} is not finite")
    return lam


# ---- per-code static structure ----


def _groups(keys: np.ndarray, n_groups: int, width: int, fill: int) -> np.ndarray:
    # row k lists, ascending, the positions of keys that hold k, padded
    # with fill to width; a stable sort keeps each group's positions in order
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=n_groups)
    ranked = keys[order]
    rank = np.arange(len(keys)) - (np.cumsum(counts) - counts)[ranked]
    out = np.full((n_groups, width), fill, dtype=np.int64)
    out[ranked, rank] = order
    return out


class _CodeCache:
    """Edge indexing, local codewords and bucket indices for one code.

    One dense layout serves every code.  words[j, t, w] is the symbol in
    slot t of local word w of check j, so each slot is one contiguous row;
    check_edges[j, t] is the edge id of slot t of check j; buckets[j, t, b]
    lists, ascending, the words whose slot t holds symbol b, so one gather
    feeds all q bucket minima of an edge.  Short checks, codebooks and
    buckets are padded: a padding slot names edge n_edges and holds
    symbol 0, a padding word holds 0 in every slot and starts at the score
    +inf of base_costs, and a padding bucket entry names a padding word.
    A code whose checks all have q * B local words has no padding.
    """

    def __init__(self, code: TannerCode):
        self.code = code
        q = code.q
        # edge ids are check-major: code.edges lists each check's row in turn
        self.edge_index = {edge: e for e, edge in enumerate(code.edges)}
        self.n_edges = len(code.edges)
        # position of each edge's variable inside its check's column list
        self.edge_slot = np.concatenate([np.arange(len(row)) for row in code.rows])
        edge_vars, edge_checks = np.array(code.edges).T
        # var_edges[i]: edge ids of variable i, ascending, padded with
        # n_edges, which names an extra message row of -0.0 (x + -0.0 == x)
        self.var_edges = _groups(edge_vars, code.n,
                                 max(map(len, code.columns)), self.n_edges)
        width = max(map(len, code.rows))
        self.check_edges = _groups(edge_checks, code.m, width, self.n_edges)
        books = [enumerate_spc(code, j).words for j in range(code.m)]
        sizes = np.array([len(words) for words in books])
        bucket = max(int(np.bincount(words[:, t], minlength=q).max())
                     for words in books for t in range(words.shape[1]))
        n_words = int(sizes.max()) + bool(np.any(sizes != q * bucket))
        self.words = np.zeros((code.m, width, n_words), dtype=np.int64)
        self.buckets = np.zeros((code.m, width, q, bucket), dtype=np.int64)
        self.base_costs = np.where(np.arange(n_words) < sizes[:, None], 0.0,
                                   math.inf)
        for j, words in enumerate(books):
            self.words[j, :words.shape[1], :len(words)] = words.T
            for t in range(words.shape[1]):
                self.buckets[j, t] = _groups(words[:, t], q, bucket, n_words - 1)
        # the check-major sweep as (edge id, variable, check, slot) tuples
        self.schedule = tuple(
            (e, i, j, int(self.edge_slot[e])) for e, (i, j) in enumerate(code.edges)
        )


@lru_cache(maxsize=16)
def _code_cache(code: TannerCode) -> _CodeCache:
    return _CodeCache(code)


# ---- soft minimum ----

# an all-+inf row (an empty bucket) is shifted by this instead of by its own
# minimum, which would give inf - inf
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _softmin_rows(rows: np.ndarray, kappa: float) -> np.ndarray:
    """Soft minimum of every row of a 2-d array; a row of +inf gives +inf.

    Each row is reduced along its own contiguous axis, so its value does
    not depend on the other rows, and math.log is applied per row.
    """
    if math.isinf(kappa):
        return np.minimum.reduce(rows, axis=1)
    lo = np.minimum.reduce(rows, axis=1, initial=_FLOAT_MAX)
    shifted = rows - lo[:, None]
    shifted *= -kappa
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=1)
    # a row's own minimum contributes 1 to its total, so only an all-+inf
    # row totals 0
    return np.array([
        low - math.log(s) / kappa if s else math.inf
        for low, s in zip(lo.tolist(), total.tolist())
    ])


def soft_min(values, kappa: float) -> float:
    """min^kappa{z} = -(1/kappa) log sum_l exp(-kappa z_l); min at kappa=inf.

    Computed in shifted form, so it stays finite for kappa up to 1e3 and
    values of either sign.  Satisfies min - log(L)/kappa <= result <= min
    for a list of length L.  +inf entries add nothing; a -inf entry gives
    -inf.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(1, -1)
    if arr.size == 0:
        raise EmptyList("soft_min of an empty collection")
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0 or math.inf, got {kappa}")
    if arr.min() == -math.inf:
        # shifting by the minimum would give -inf - -inf
        return -math.inf
    return float(_softmin_rows(arr, kappa)[0])


# ---- dual state ----


@dataclass
class DualState:
    """Mutable decoder state for one frame.

    messages[e] is the (q-1)-vector on edge e (check-major edge ids);
    chan[i] = -llr[i] is the fixed channel slot of variable i.  node_sum
    caches chan[i] plus the sum of messages on the variable's edges, and
    check_costs, one (m, W) array in the code's padded word layout, caches
    in row j the score of every local codeword of check j, where a word's
    score is the sum of messages[e][b - 1] over its nonzero slots b;
    padding words score +inf.  Both caches are maintained incrementally
    by every message write.  phi and theta are tightened after each call of
    set_message or a public edge update, and by decode() once per sweep.
    """

    code: TannerCode
    kappa: float
    llr: np.ndarray
    chan: np.ndarray
    messages: np.ndarray
    node_sum: np.ndarray
    check_costs: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    cache: _CodeCache = field(repr=False, default=None)
    # scratch row [0, delta]: pad[b] is the score change of a word whose
    # slot holds symbol b when one edge message moves by delta
    pad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.pad = np.zeros(self.code.q)


def init_state(code: TannerCode, llr, config: DecoderConfig) -> DualState:
    """Fresh state: zero edge messages, channel slots at -llr, tight potentials."""
    lam = validate_llr(code, llr)
    cache = _code_cache(code)
    state = DualState(
        code=code,
        kappa=config.kappa,
        llr=lam,
        chan=-lam,
        messages=np.zeros((cache.n_edges, code.q - 1)),
        node_sum=(-lam).copy(),
        check_costs=cache.base_costs.copy(),
        phi=np.zeros(code.n),
        theta=np.zeros(code.m),
        cache=cache,
    )
    _tighten_potentials(state)
    return state


def _variable_potentials(state: DualState, rows=slice(None)) -> np.ndarray:
    # phi of the variables in rows: the soft minimum over each one's
    # constant words, where the zero word scores 0 and the word repeating
    # symbol b scores -node_sum[i, b-1]
    node_sum = state.node_sum[rows]
    scores = np.zeros((len(node_sum), state.code.q))
    np.negative(node_sum, out=scores[:, 1:])
    return _softmin_rows(scores, state.kappa)


def _tighten_potentials(state: DualState) -> None:
    state.phi[:] = _variable_potentials(state)
    state.theta[:] = _softmin_rows(state.check_costs, state.kappa)


def _edge_potentials(state: DualState, i: int, j: int):
    # phi_i and theta_j recomputed from the caches
    return (_variable_potentials(state, slice(i, i + 1))[0],
            _softmin_rows(state.check_costs[j:j + 1], state.kappa)[0])


def _write_message(state: DualState, e: int, i: int, j: int, t: int,
                   new: np.ndarray) -> None:
    # store edge e's new message and fold the change into both caches
    pad = state.pad
    delta = pad[1:]
    np.subtract(new, state.messages[e], out=delta)
    state.messages[e] = new
    state.node_sum[i] += delta
    state.check_costs[j] += pad[state.cache.words[j, t]]


def set_message(state: DualState, i: int, j: int, values) -> None:
    """Assign the message on edge (i, j), keeping all caches consistent."""
    cache = state.cache
    e = cache.edge_index[(i, j)]
    _write_message(state, e, i, j, int(cache.edge_slot[e]),
                   np.asarray(values, dtype=np.float64))
    update_phi_theta(state, i, j)


def _message_sums(state: DualState) -> np.ndarray:
    # per-variable sums of edge messages, shape (n, q-1), added in edge
    # order; padding slots read a row of -0.0, which changes no sum
    cache = state.cache
    rows = np.full((cache.n_edges + 1, state.code.q - 1), -0.0)
    rows[:-1] = state.messages
    return rows[cache.var_edges].sum(axis=1)


def _refresh_caches(state: DualState) -> None:
    # recompute node_sum and check_costs from messages, shedding float drift
    cache = state.cache
    state.node_sum[:] = state.chan + _message_sums(state)
    # padded[e, b]: score change from edge e for symbol b, 0 for b = 0; the
    # extra last row is edge n_edges, named by padding slots
    padded = np.zeros((cache.n_edges + 1, state.code.q))
    padded[:-1, 1:] = state.messages
    # every word's slot terms are added onto 0.0 (+inf for padding words)
    # in slot order, one (m, W) slot at a time
    costs = state.check_costs
    costs[:] = cache.base_costs
    for t in range(cache.words.shape[1]):
        costs += padded[cache.check_edges[:, t, None], cache.words[:, t]]


# ---- instrumentation terms ----


def compute_v_terms(state: DualState, i: int, j: int, alpha: int):
    """Variable-side exclusion scores for edge (i, j) and symbol alpha.

    V_bar negates the soft minimum over constant local words whose slot for
    check j differs from alpha (full scores, channel slot included); V_eq
    negates the score of the constant-alpha word with the check-j slot left
    out.  Returns (V_bar, V_eq).
    """
    e = state.cache.edge_index[(i, j)]
    scores = np.concatenate(([0.0], -state.node_sum[i]))
    keep = np.arange(state.code.q) != alpha
    v_bar = -soft_min(scores[keep], state.kappa)
    v_eq = state.node_sum[i, alpha - 1] - state.messages[e, alpha - 1]
    return v_bar, v_eq


def compute_c_terms(state: DualState, j: int, i: int, alpha: int):
    """Check-side exclusion scores for edge (i, j) and symbol alpha.

    C_bar negates the soft minimum over local codewords of check j whose
    slot for variable i differs from alpha; C_eq negates the soft minimum
    over words with that slot equal to alpha, scored with variable i's
    position excluded.  Returns (C_bar, C_eq).
    """
    cache = state.cache
    e = cache.edge_index[(i, j)]
    t = cache.edge_slot[e]
    costs = state.check_costs[j]
    # padding words hold symbol 0 and score +inf, so they add nothing
    c_bar = -soft_min(costs[cache.words[j, t] != alpha], state.kappa)
    inc = _softmin_rows(costs[cache.buckets[j, t]], state.kappa)[alpha]
    # every word in the alpha bucket carries messages[e][alpha-1]; removing
    # the position shifts the whole bucket by that constant
    c_eq = state.messages[e, alpha - 1] - inc
    return c_bar, c_eq


def local_function(state: DualState, i: int, j: int) -> float:
    """Edge-local part of the dual objective: both potentials recomputed."""
    phi, theta = _edge_potentials(state, i, j)
    return float(phi + theta)


def update_phi_theta(state: DualState, i: int, j: int) -> DualState:
    """Tighten phi_i and theta_j to their current soft-minimum bounds."""
    state.phi[i], state.theta[j] = _edge_potentials(state, i, j)
    return state


def dual_objective(state: DualState) -> float:
    """sum_i phi_i + sum_j theta_j."""
    return float(state.phi.sum() + state.theta.sum())


# ---- edge updates ----


def _maximize_edge(state: DualState, e: int, i: int, j: int, t: int) -> None:
    # closed-form joint maximizer of the edge-local objective: with
    # bucket(b) = soft minimum of check-j word scores whose slot for
    # variable i equals b (current messages included), the stationary point
    # of phi_i + theta_j in this edge's message w is, per nonzero symbol a,
    #   w(a) <- w(a) - (node_sum(i, a) + bucket(a) - bucket(0)) / 2
    # The a-slots decouple once the shared normalizer bucket(0) is fixed,
    # and the current w(a) cancels from the right side exactly, so a
    # message is never used to update itself.  Edge e sits in slot t of
    # check j.  phi and theta are left to the caller.
    sm = _softmin_rows(state.check_costs[j][state.cache.buckets[j, t]],
                       state.kappa)
    new = state.messages[e] - 0.5 * (state.node_sum[i] + sm[1:] - sm[0])
    np.maximum(new, -_MESSAGE_CLAMP, out=new)
    np.minimum(new, _MESSAGE_CLAMP, out=new)
    _write_message(state, e, i, j, t, new)


def _update_edge(state: DualState, i: int, j: int) -> None:
    e = state.cache.edge_index[(i, j)]
    _maximize_edge(state, e, i, j, int(state.cache.edge_slot[e]))
    update_phi_theta(state, i, j)


def update_edge_soft(state: DualState, i: int, j: int) -> DualState:
    """Maximize the edge-local dual objective over edge (i, j), finite kappa."""
    if math.isinf(state.kappa):
        raise ValueError("update_edge_soft requires finite kappa")
    _update_edge(state, i, j)
    return state


def update_edge_hard(state: DualState, i: int, j: int) -> DualState:
    """Hard-minimum edge update: the closed form with plain minima.

    For q = 2 this lands on the midpoint of the closed interval of
    maximizers; in general it remains locally maximal slot by slot.
    """
    if not math.isinf(state.kappa):
        raise ValueError("update_edge_hard requires kappa = math.inf")
    _update_edge(state, i, j)
    return state


# ---- decisions ----


def _decision_scores(state: DualState) -> np.ndarray:
    # x_hat[i, alpha] = llr[i, alpha] - sum of edge messages: the channel
    # slot joins the per-variable sum like any other slot of the repetition
    # code; recomputed from messages directly so decisions are immune to
    # cache drift
    return state.llr - _message_sums(state)


def _decide_symbols(state: DualState) -> np.ndarray:
    # each variable decides the repetition word with the smallest score,
    # where the zero word scores 0 and the word repeating alpha scores
    # x_hat[i, alpha]; a tie for the smallest score means no unique word
    # claims the decision
    scores = _decision_scores(state)
    full = np.zeros((state.code.n, state.code.q))
    full[:, 1:] = scores
    order = np.argsort(full, axis=1, kind="stable")
    ranked = np.take_along_axis(full, order[:, :2], axis=1)
    best = ranked[:, 0]
    tie = ranked[:, 1] - best <= _DECISION_ZERO_TOL
    malformed = tie & (best < -_DECISION_ZERO_TOL)
    if malformed.any():
        i = int(np.argmax(malformed))
        tied = np.flatnonzero(full[i] - best[i] <= _DECISION_ZERO_TOL)
        raise MalformedDecision(
            f"variable {i}: slots {tied.tolist()} all claim the "
            f"decision (scores {scores[i].tolist()})"
        )
    return np.where(tie, ERASED, order[:, 0])


def decide(state: DualState) -> DecodeOutcome:
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
    symbols = _decide_symbols(state)
    found = not np.any(symbols == ERASED) and state.code.is_codeword(symbols)
    return DecodeOutcome(
        symbols=symbols,
        status=Status.CODEWORD_FOUND if found else Status.MAX_ITERATIONS,
        iterations_used=0,
        dual_objective_trace=(dual_objective(state),),
    )


def decode(code: TannerCode, llr, config: DecoderConfig) -> DecodeOutcome:
    """Run coordinate-ascent sweeps until a codeword is found or the budget ends.

    Each iteration visits every edge in check-major order, applying the
    soft update (finite kappa) or the hard update (kappa = math.inf), then
    tightens every potential, records the dual objective and reads a
    decision.  The result equals running update_edge_soft/update_edge_hard
    edge by edge.  The first erasure-free decision with zero syndrome
    returns CODEWORD_FOUND.  Iterations whose decision is malformed are
    counted and skipped; a malformed final decision propagates
    MalformedDecision.
    """
    state = init_state(code, llr, config)
    trace = [dual_objective(state)]
    malformed = 0
    symbols = None
    for iteration in range(1, config.max_iterations + 1):
        _refresh_caches(state)
        for e, i, j, t in state.cache.schedule:
            _maximize_edge(state, e, i, j, t)
        _tighten_potentials(state)
        trace.append(dual_objective(state))
        try:
            symbols = _decide_symbols(state)
        except MalformedDecision:
            malformed += 1
            symbols = None
            continue
        if not np.any(symbols == ERASED) and code.is_codeword(symbols):
            return DecodeOutcome(
                symbols=symbols,
                status=Status.CODEWORD_FOUND,
                iterations_used=iteration,
                dual_objective_trace=tuple(trace),
                malformed_decisions=malformed,
            )
    if symbols is None:
        # the final sweep's decision was malformed: surface it
        _decide_symbols(state)
    return DecodeOutcome(
        symbols=symbols,
        status=Status.MAX_ITERATIONS,
        iterations_used=config.max_iterations,
        dual_objective_trace=tuple(trace),
        malformed_decisions=malformed,
    )
