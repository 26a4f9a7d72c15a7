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
last edge update: phi_i depends only on its variable's node_sum and theta_j
only on its check's messages, so this equals tightening them after every
edge, which the per-edge path update_edge_soft/update_edge_hard still
does.  Decisions score each variable's constant words by the channel cost
minus the sum of edge messages and pick the strictly cheapest word, the
zero word costing 0; ties at the minimum erase the symbol (or, strictly
below zero, surface MalformedDecision).  No local codebook is enumerated: each check is a
trellis over its q partial syndromes (see _CodeCache), and theta_j and an
edge's bucket soft minima come from prefix and suffix soft minima: O(d q^2)
terms per degree-d check for theta and O(q^2) per edge update, whose
prefix step and extrinsic row are one (q, q) soft minimum each (the trellis
check-node processing of Punekar & Flanagan, ISIT 2011).  A symbol that no
local word reaches gets message -_MESSAGE_CLAMP.

A sweep updates the edges in check-major order, but decode() visits the
checks by levels: sets of checks that share no variable, where a check's
level is one more than the highest level of an earlier check sharing a
variable with it.  One kernel, _visit_checks, updates slot t of every
check of a level at once.  A check's visit reads only its own messages,
its suffix soft minima (computed once per sweep and unchanged until the
check's own visit) and the node_sum rows of its own variables; a
variable's checks lie in strictly increasing levels, so those rows have
received exactly the writes, in the same order, that check-major order
would have made.  Every kernel operation is elementwise or row by row,
so the level sweep is bit-identical to the edge-by-edge path of
update_edge_soft/update_edge_hard, which runs the same kernel on one check.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codes import TannerCode

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

    kappa = math.inf selects hard minima.  Sweeps give the result of
    visiting the edges in check-major order, and decoding stops at the
    first codeword.
    """

    max_iterations: int = 100
    kappa: float = 100.0

    def __post_init__(self):
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(
                f"max_iterations must be an integer, got {self.max_iterations!r}"
            )
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


def _levels(code: TannerCode, degree: np.ndarray) -> list:
    # check j's level is one more than the highest level of an earlier
    # check sharing a variable with it; each level lists its checks by
    # descending degree (stable), so the checks still active at a slot
    # are a prefix of the list
    last = np.full(code.n, -1)
    level = np.empty(code.m, dtype=np.int64)
    for j, cols in enumerate(code.row_cols):
        level[j] = last[cols].max() + 1
        last[cols] = level[j]
    out = []
    for k in range(level.max() + 1):
        checks = np.flatnonzero(level == k)
        out.append(checks[np.argsort(-degree[checks], kind="stable")])
    return out


class _CodeCache:
    """Edge indexing, trellis offsets and the level schedule of one code.

    check_edges[j, t] is the edge id of slot t of check j; short checks
    are padded with edge n_edges, whose message row [0, +inf, ...] makes a
    padding slot (coefficient 0) an exact identity section.  Check j's
    _suffix_arrays block is row j of a (count, width + 1, q) array, and
    suffix_index[j, t, r q + b] is the flat offset, inside that block, of
    B_{t+1}(r - h_t b): the suffix syndrome after slot t when the slots
    from t on sum to r and slot t holds b.

    levels splits the checks into sets that share no variable, each
    variable's checks in strictly increasing levels in their original
    order (see _levels; the module docstring says why a level visit is
    bit-identical to check-major order).  plans holds each level's kernel
    steps (see plan).  Every array here holds O(q^2) entries per edge;
    none grows with the local codebook.
    """

    def __init__(self, code: TannerCode):
        q = self.q = code.q
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
        self.check_vars = np.append(edge_vars, -1)[self.check_edges]
        self.degree = np.array([len(row) for row in code.rows])
        coefs = np.append(np.concatenate(code.row_vals), 0)[self.check_edges]
        # a check's suffix block is block_rows rows of q entries
        self.block_rows = width + 1
        r, b = np.divmod(np.arange(q * q), q)
        self.suffix_index = ((r - coefs[:, :, None] * b) % q
                             + q * np.arange(1, width + 1)[:, None])
        self.levels = _levels(code, self.degree)
        self.plans = tuple(self.plan(checks, checks) for checks in self.levels)

    def plan(self, checks: np.ndarray, rows: np.ndarray) -> tuple:
        """Kernel steps of _visit_checks for conflict-free checks.

        checks are sorted by descending degree and their suffix blocks sit
        at rows of the suffix array the kernel is given.  Step t holds, for
        the first k checks, those of degree above t: the edge ids and
        variables of slot t and two arrays of flat gather offsets, both the
        suffix_index offsets reordered and shifted.  ext[i, c, s] is the
        offset of B_{t+1}(-s - h_t c) of the i-th check in the suffix
        array (at slot 0, ext[i, c] that of B_1(-h_0 c)).  For t >= 1,
        prefix[i, s, b] is the offset of F_{t-2}(s - h_{t-1} b) in the
        (k', q) prefix array of the previous step, k' >= k, which holds
        the i-th check in row i; at slot 0 it is None.
        """
        q = self.q
        negate = -np.arange(q) % q
        steps = []
        for t in range(self.degree[checks[0]]):
            k = np.count_nonzero(self.degree[checks] > t)
            c = checks[:k]
            # check i's B_{t+1}(r - h_t b) sits at suffix_index[c_i, t, r q + b]
            # plus the offset of its block
            base = q * self.block_rows * rows[:k]
            if t == 0:
                ext, prefix = self.suffix_index[c, 0, :q] + base[:, None], None
            else:
                suffix = self.suffix_index[c, t].reshape(k, q, q)[:, negate]
                ext = np.ascontiguousarray(suffix.transpose(0, 2, 1)
                                           + base[:, None, None])
                prefix = (self.suffix_index[c, t - 1].reshape(k, q, q)
                          - q * t + q * np.arange(k)[:, None, None])
            steps.append((self.check_edges[c, t], self.check_vars[c, t],
                          ext, prefix))
        return tuple(steps)


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
    not depend on the other rows.  The log is math.log, row by row: np.log
    may differ from it in the last bit, which would move decoded traces.
    """
    if math.isinf(kappa):
        return np.minimum.reduce(rows, axis=1)
    lo = np.minimum.reduce(rows, axis=1, initial=_FLOAT_MAX)
    shifted = rows - lo[:, None]
    shifted *= -kappa
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=1)
    # a row's own minimum contributes 1 to its total, so only an all-+inf
    # row totals 0; it takes log 1 here and +inf below
    empty = total == 0
    total[empty] = 1.0
    out = lo - np.fromiter(map(math.log, total.tolist()), np.float64,
                           len(total)) / kappa
    out[empty] = math.inf
    return out


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
    caches chan[i] plus the sum of messages on the variable's edges, kept
    up to date by every message write.  Nothing is cached per check: its
    values are trellis soft minima of its current messages.  phi_i and
    theta_j are tightened after each update_edge_soft/update_edge_hard
    call on edge (i, j), and every phi and theta by decode() once per
    sweep.
    """

    code: TannerCode
    kappa: float
    llr: np.ndarray
    chan: np.ndarray
    messages: np.ndarray
    node_sum: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    cache: _CodeCache = field(repr=False, default=None)


def init_state(code: TannerCode, llr, config: DecoderConfig) -> DualState:
    """Fresh state: zero edge messages, channel slots at -llr, tight potentials."""
    lam = validate_llr(code, llr)
    cache = _code_cache(code)
    state = DualState(code=code, kappa=config.kappa, llr=lam, chan=-lam,
                      messages=np.zeros((cache.n_edges, code.q - 1)),
                      node_sum=(-lam).copy(), phi=np.zeros(code.n),
                      theta=np.zeros(code.m), cache=cache)
    _tighten_potentials(state)
    return state


def _suffix_arrays(state: DualState, checks=slice(None)) -> np.ndarray:
    # out[k, t, r] = B_t(r) of the k-th given check: the soft minimum of the
    # message sums of slots t, t+1, ... over their symbols of syndrome r;
    # theta is B_0(0).  Each step works elementwise or row by row, so no
    # check's rows depend on the other checks passed.
    cache = state.cache
    q = state.code.q
    rows = np.zeros((cache.n_edges + 1, q))
    rows[:-1, 1:] = state.messages
    rows[-1, 1:] = math.inf
    w = rows[cache.check_edges[checks]]
    count, width = w.shape[:2]
    out = np.zeros((count, width + 1, q))
    out[:, width, 1:] = math.inf
    flat = out.reshape(-1)
    index = (cache.suffix_index[checks]
             + cache.block_rows * q * np.arange(count)[:, None, None])
    for t in range(width - 1, -1, -1):
        # B_t(r) = softmin_b [w_t(b) + B_{t+1}(r - h_t b)]
        terms = (flat[index[:, t]].reshape(count, q, q) + w[:, t, None])
        out[:, t] = _softmin_rows(terms.reshape(-1, q),
                                  state.kappa).reshape(count, q)
    return out


def _variable_potentials(state: DualState, rows=slice(None)) -> np.ndarray:
    # phi of the variables in rows: the soft minimum over each one's
    # constant words, where the zero word scores 0 and the word repeating
    # symbol b scores -node_sum[i, b-1]
    node_sum = state.node_sum[rows]
    scores = np.zeros((len(node_sum), state.code.q))
    np.negative(node_sum, out=scores[:, 1:])
    return _softmin_rows(scores, state.kappa)


def _tighten_potentials(state: DualState) -> np.ndarray:
    # tighten every phi and theta; returns the suffix arrays of all checks
    state.phi[:] = _variable_potentials(state)
    suffix = _suffix_arrays(state)
    state.theta[:] = suffix[:, 0, 0]
    return suffix


def _edge_potentials(state: DualState, i: int, j: int):
    # phi_i and theta_j recomputed from node_sum and check j's messages
    return (_variable_potentials(state, slice(i, i + 1))[0],
            _suffix_arrays(state, [j])[0, 0, 0])


def _message_sums(state: DualState) -> np.ndarray:
    # per-variable sums of edge messages, shape (n, q-1), added in edge
    # order; padding slots read a row of -0.0, which changes no sum
    cache = state.cache
    rows = np.full((cache.n_edges + 1, state.code.q - 1), -0.0)
    rows[:-1] = state.messages
    return rows[cache.var_edges].sum(axis=1)


def _refresh_caches(state: DualState) -> None:
    # recompute node_sum from messages, shedding the float drift of the
    # incremental updates, which a message clamped at +-1e18 makes large
    state.node_sum[:] = state.chan + _message_sums(state)


def _visit_checks(state: DualState, plan: tuple, suffix: np.ndarray,
                  stop=None):
    # the kernel: visit conflict-free checks together, slot by slot, as
    # planned by _CodeCache.plan against suffix (their _suffix_arrays
    # blocks, which hold until this visit writes the checks).  ext[k, c] is
    # the soft minimum over check k's words with c in slot t of their
    # message sums outside slot t: each step first carries the prefix F
    # over slot t - 1, then meets it with the suffix B_{t+1}, two (q, q)
    # soft minima per check.  stop=None (the sweep) updates every slot's
    # message from ext; else nothing is written and slot stop's ext is
    # returned.  Every operation is elementwise or row by row, so each
    # check gets the bits of a visit on its own.
    q = state.code.q
    flat = suffix.reshape(-1)
    for t, (edges, variables, ext_index, prefix_index) in enumerate(plan):
        k = len(edges)
        if t:
            # F_{t-1}(s) = softmin_b [F_{t-2}(s - h_{t-1} b) + w_{t-1}(b)]
            terms = prefix.reshape(-1)[prefix_index]
            terms += row[:k, None, :]
            prefix = _softmin_rows(terms.reshape(-1, q),
                                   state.kappa).reshape(k, q)
            # ext_t(c) = softmin_s [B_{t+1}(-s - h_t c) + F_{t-1}(s)]
            terms = flat[ext_index]
            terms += prefix[:, None, :]
            ext = _softmin_rows(terms.reshape(-1, q),
                                state.kappa).reshape(k, q)
        else:
            ext = flat[ext_index]
            # the prefix before slot 0: syndrome 0 at cost 0
            prefix = np.full((k, q), math.inf)
            prefix[:, 0] = 0.0
        if t == stop:
            return ext
        row = np.zeros((k, q))  # [0, message] of slot t
        row[:, 1:] = (state.messages[edges] if stop is not None
                      else _maximize_edges(state, edges, variables, ext))


def _slot_ext(state: DualState, j: int, t: int) -> np.ndarray:
    # slot t's ext row of check j: its kernel replayed up to the slot
    plan = state.cache.plan(np.array([j]), np.array([0]))
    return _visit_checks(state, plan, _suffix_arrays(state, [j]), stop=t)[0]


def dual_objective(state: DualState) -> float:
    """sum_i phi_i + sum_j theta_j."""
    return float(state.phi.sum() + state.theta.sum())


# ---- edge updates ----


def _maximize_edges(state: DualState, edges, variables,
                    ext: np.ndarray) -> np.ndarray:
    # closed-form joint maximizer of the edge-local objective, edge by
    # edge over edges of distinct variables: with bucket(b) = w(b) +
    # ext(b), the soft minimum of check-j word scores whose slot for
    # variable i equals b, the stationary point of phi_i + theta_j in this
    # edge's message w is, per nonzero symbol a,
    #   w(a) <- w(a) - (node_sum(i, a) + bucket(a) - bucket(0)) / 2
    # with bucket(0) = ext(0) a shared normalizer; the current w(a) cancels
    # from the right side.  Returns the new messages; phi and theta are
    # left to the caller.
    msg = state.messages[edges]
    node_sum = state.node_sum[variables]
    new = msg - 0.5 * (node_sum + (msg + ext[:, 1:]) - ext[:, :1])
    np.maximum(new, -_MESSAGE_CLAMP, out=new)
    np.minimum(new, _MESSAGE_CLAMP, out=new)
    state.node_sum[variables] = node_sum + (new - msg)
    state.messages[edges] = new
    return new


def _update_edge(state: DualState, i: int, j: int) -> None:
    # check j's kernel replayed up to the edge: the sweep's operations
    e = state.cache.edge_index[(i, j)]
    ext = _slot_ext(state, j, int(state.cache.edge_slot[e]))
    _maximize_edges(state, [e], [i], ext[None])
    state.phi[i], state.theta[j] = _edge_potentials(state, i, j)


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


def _decide_symbols(state: DualState) -> np.ndarray:
    # each variable decides the repetition word with the smallest score,
    # where the zero word scores 0 and the word repeating alpha scores
    # x_hat[i, alpha] = llr[i, alpha] - sum of edge messages (the channel
    # slot joins the sum like any other slot of the repetition code, and the
    # sum is taken from messages so decisions are immune to node_sum drift);
    # a tie for the smallest score means no unique word claims the decision
    scores = state.llr - _message_sums(state)
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


def decode(code: TannerCode, llr, config: DecoderConfig) -> DecodeOutcome:
    """Run coordinate-ascent sweeps until a codeword is found or the budget ends.

    Each iteration updates every edge, checks level by level, applying
    the soft update (finite kappa) or the hard update (kappa = math.inf),
    then tightens every potential, records the dual objective and reads a
    decision.  The result equals running update_edge_soft/update_edge_hard
    edge by edge in check-major order.  The first erasure-free decision
    with zero syndrome returns CODEWORD_FOUND.  Iterations whose decision
    is malformed are counted and skipped; a malformed final decision
    propagates MalformedDecision.
    """
    state = init_state(code, llr, config)
    # a check's suffix arrays stay valid until its own visit writes it, so
    # one pass of all checks per sweep serves both the sweep and theta
    suffix = _suffix_arrays(state)
    trace = [dual_objective(state)]
    malformed = 0
    symbols = None
    status = Status.MAX_ITERATIONS
    for iteration in range(1, config.max_iterations + 1):
        _refresh_caches(state)
        for plan in state.cache.plans:
            _visit_checks(state, plan, suffix)
        suffix = _tighten_potentials(state)
        trace.append(dual_objective(state))
        try:
            symbols = _decide_symbols(state)
        except MalformedDecision:
            malformed += 1
            symbols = None
            continue
        if not np.any(symbols == ERASED) and code.is_codeword(symbols):
            status = Status.CODEWORD_FOUND
            break
    if symbols is None:
        # the final sweep's decision was malformed: surface it
        _decide_symbols(state)
    return DecodeOutcome(symbols, status, iteration, tuple(trace), malformed)
