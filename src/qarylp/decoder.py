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


_EDGE_ORDERS = ("check_major", "variable_major")


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs for decode(); kappa = math.inf selects hard minima."""

    max_iterations: int = 100
    kappa: float = 100.0
    edge_order: str = "check_major"
    stop_on_codeword: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0 or math.inf, got {self.kappa}")
        if self.edge_order not in _EDGE_ORDERS:
            raise ValueError(
                f"edge_order must be one of {_EDGE_ORDERS}, got {self.edge_order!r}"
            )


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


def _slot_buckets(column: np.ndarray, q: int):
    # indices of the words holding each symbol in one slot, ascending; a
    # stable sort groups them by symbol without reordering within a group
    order = np.argsort(column, kind="stable")
    counts = np.bincount(column, minlength=q)
    if np.all(counts == counts[0]):
        return order.reshape(q, -1)
    return np.split(order, np.cumsum(counts)[:-1])


class _CodeCache:
    """Edge indexing, local codewords, and bucket indices for one code."""

    def __init__(self, code: TannerCode):
        self.code = code
        q = code.q
        # edge ids are check-major: code.edges lists each check's row in turn
        self.edge_index = {edge: e for e, edge in enumerate(code.edges)}
        self.n_edges = len(code.edges)
        self.check_edges = []
        pos = 0
        for row in code.rows:
            self.check_edges.append(np.arange(pos, pos + len(row)))
            pos += len(row)
        # position of each edge's variable inside its check's column list
        self.edge_slot = np.concatenate([np.arange(len(row)) for row in code.rows])
        # var_edges[i]: edge ids of variable i, ascending, padded with
        # n_edges, which names an extra message row of -0.0 (x + -0.0 == x)
        var_lists: list[list[int]] = [[] for _ in range(code.n)]
        for e, (i, _) in enumerate(code.edges):
            var_lists[i].append(e)
        self.var_edges = np.full(
            (code.n, max(map(len, var_lists))), self.n_edges, dtype=np.int64
        )
        for i, lst in enumerate(var_lists):
            self.var_edges[i, :len(lst)] = lst
        # words[j]: local codewords of check j, one per row, column-major so
        # that each slot's column is contiguous
        self.words = [
            np.asfortranarray(enumerate_spc(code, j).words, dtype=np.int64)
            for j in range(code.m)
        ]
        sizes = {words.shape[0] for words in self.words}
        # common codebook size, or None when checks differ
        self.book_size = sizes.pop() if len(sizes) == 1 else None
        # buckets[j][t][beta]: indices of check-j words whose slot t holds
        # beta.  When every beta has equally many words, a slot's buckets
        # are the rows of one (q, L/q) matrix, so one gather feeds all q
        # minima; otherwise they are a list of arrays
        self.buckets = [
            [_slot_buckets(words[:, t], q) for t in range(words.shape[1])]
            for words in self.words
        ]
        # sweep orders as (edge id, variable, check, slot) tuples
        orders = {
            "check_major": range(self.n_edges),
            "variable_major": [self.edge_index[(i, j)] for i in range(code.n)
                               for j in code.columns[i]],
        }
        self.schedules = {
            name: tuple((e, *code.edges[e], int(self.edge_slot[e])) for e in order)
            for name, order in orders.items()
        }


@lru_cache(maxsize=16)
def _code_cache(code: TannerCode) -> _CodeCache:
    return _CodeCache(code)


# ---- soft minimum ----


def _softmin_arr(values: np.ndarray, kappa: float) -> float:
    """Soft minimum of a 1-d array; empty arrays give +inf."""
    if values.size == 0:
        return math.inf
    if math.isinf(kappa):
        return float(values.min())
    lo = float(values.min())
    if math.isinf(lo):
        return lo
    # shifted log-sum-exp; the lo term contributes 1, so the log is >= 0
    return lo - math.log(np.exp(-kappa * (values - lo)).sum()) / kappa


def _softmin_rows(rows: np.ndarray, kappa: float) -> np.ndarray:
    """_softmin_arr of every row of a 2-d array, bit for bit.

    Row-wise min, exp and sum give the same values as on each row alone,
    and math.log is applied per row as _softmin_arr applies it.
    """
    lo = np.minimum.reduce(rows, axis=1)
    if math.isinf(kappa):
        return lo
    shifted = rows - lo[:, None]
    shifted *= -kappa
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=1)
    return np.array([
        low if math.isinf(low) else low - math.log(s) / kappa
        for low, s in zip(lo.tolist(), total.tolist())
    ])


def soft_min(values, kappa: float) -> float:
    """min^kappa{z} = -(1/kappa) log sum_l exp(-kappa z_l); min at kappa=inf.

    Computed in shifted form, so it stays finite for kappa up to 1e3 and
    values of either sign.  Satisfies min - log(L)/kappa <= result <= min
    for a list of length L.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptyList("soft_min of an empty collection")
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0 or math.inf, got {kappa}")
    return _softmin_arr(arr, kappa)


# ---- dual state ----


@dataclass
class DualState:
    """Mutable decoder state for one frame.

    messages[e] is the (q-1)-vector on edge e (check-major edge ids);
    chan[i] = -llr[i] is the fixed channel slot of variable i.  node_sum
    caches chan[i] plus the sum of messages on the variable's edges, and
    check_costs[j] caches the score of every local codeword of check j,
    where a word's score is the sum of messages[e][b - 1] over its nonzero
    slots b.  check_costs is one (m, L) array when every check has L local
    words, else a list of arrays.  Both caches are maintained incrementally
    by every message write.  phi and theta are tightened after each call of
    set_message or a public edge update, and by decode() once per sweep.
    """

    code: TannerCode
    kappa: float
    llr: np.ndarray
    chan: np.ndarray
    messages: np.ndarray
    node_sum: np.ndarray
    check_costs: np.ndarray | list
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
    if cache.book_size is None:
        check_costs = [np.zeros(words.shape[0]) for words in cache.words]
    else:
        check_costs = np.zeros((code.m, cache.book_size))
    state = DualState(
        code=code,
        kappa=config.kappa,
        llr=lam,
        chan=-lam,
        messages=np.zeros((cache.n_edges, code.q - 1)),
        node_sum=(-lam).copy(),
        check_costs=check_costs,
        phi=np.zeros(code.n),
        theta=np.zeros(code.m),
        cache=cache,
    )
    _tighten_potentials(state)
    return state


def _variable_potential(state: DualState, i: int) -> float:
    # constant-word scores at variable i: zero word scores 0, the word that
    # repeats symbol b scores -node_sum[i, b-1]
    scores = np.concatenate(([0.0], -state.node_sum[i]))
    return _softmin_arr(scores, state.kappa)


def _tighten_potentials(state: DualState) -> None:
    # every phi_i and theta_j at once; row i of scores is the concatenation
    # _variable_potential builds for variable i
    scores = np.zeros((state.code.n, state.code.q))
    np.negative(state.node_sum, out=scores[:, 1:])
    state.phi[:] = _softmin_rows(scores, state.kappa)
    costs = state.check_costs
    if isinstance(costs, np.ndarray):
        state.theta[:] = _softmin_rows(costs, state.kappa)
    else:
        state.theta[:] = [_softmin_arr(c, state.kappa) for c in costs]


def _write_message(state: DualState, e: int, i: int, j: int, t: int,
                   new: np.ndarray) -> None:
    # store edge e's new message and fold the change into both caches
    pad = state.pad
    delta = pad[1:]
    np.subtract(new, state.messages[e], out=delta)
    state.messages[e] = new
    state.node_sum[i] += delta
    state.check_costs[j] += pad[state.cache.words[j][:, t]]


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
    # padded[e, b]: score change from edge e for symbol b, 0 for b = 0
    padded = np.zeros((cache.n_edges, state.code.q))
    padded[:, 1:] = state.messages
    for j, words in enumerate(cache.words):
        # row t holds every word's slot-t term; rows are summed onto 0.0 in
        # slot order
        terms = padded[cache.check_edges[j][:, None], words.T]
        np.sum(terms, axis=0, initial=0.0, out=state.check_costs[j])


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
    v_bar = -_softmin_arr(scores[keep], state.kappa)
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
    slot_vals = cache.words[j][:, t]
    c_bar = -_softmin_arr(costs[slot_vals != alpha], state.kappa)
    inc = _softmin_arr(costs[cache.buckets[j][t][alpha]], state.kappa)
    # every word in the alpha bucket carries messages[e][alpha-1]; removing
    # the position shifts the whole bucket by that constant
    c_eq = state.messages[e, alpha - 1] - inc
    return c_bar, c_eq


def local_function(state: DualState, i: int, j: int) -> float:
    """Edge-local part of the dual objective: both potentials recomputed."""
    return _variable_potential(state, i) + _softmin_arr(
        state.check_costs[j], state.kappa
    )


def update_phi_theta(state: DualState, i: int, j: int) -> DualState:
    """Tighten phi_i and theta_j to their current soft-minimum bounds."""
    state.phi[i] = _variable_potential(state, i)
    state.theta[j] = _softmin_arr(state.check_costs[j], state.kappa)
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
    costs = state.check_costs[j]
    buckets = state.cache.buckets[j][t]
    if isinstance(buckets, np.ndarray):
        sm = _softmin_rows(costs[buckets], state.kappa)
    else:
        sm = np.array([_softmin_arr(costs[b], state.kappa) for b in buckets])
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

    Each iteration visits every edge in the configured order, applying the
    soft update (finite kappa) or the hard update (kappa = math.inf), then
    tightens every potential, records the dual objective and reads a
    decision.  The result equals running update_edge_soft/update_edge_hard
    edge by edge.  With stop_on_codeword, an erasure-free decision with
    zero syndrome returns CODEWORD_FOUND immediately.  Iterations whose
    decision is malformed are counted and skipped; a malformed final
    decision propagates MalformedDecision.
    """
    state = init_state(code, llr, config)
    schedule = state.cache.schedules[config.edge_order]
    trace = [dual_objective(state)]
    malformed = 0
    symbols = None
    for iteration in range(1, config.max_iterations + 1):
        _refresh_caches(state)
        for e, i, j, t in schedule:
            _maximize_edge(state, e, i, j, t)
        _tighten_potentials(state)
        trace.append(dual_objective(state))
        try:
            symbols = _decide_symbols(state)
        except MalformedDecision:
            malformed += 1
            symbols = None
            continue
        if (
            config.stop_on_codeword
            and not np.any(symbols == ERASED)
            and code.is_codeword(symbols)
        ):
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
