"""Low-complexity LP decoding by coordinate ascent on a smoothed dual.

The decoder keeps one real (q-1)-vector message per Tanner-graph edge; the
channel enters as a frozen message -llr_i in a virtual slot of each
variable.  Feasible dual points assign each variable a potential phi_i
bounded by the best score of any constant local word at that variable, and
each check a potential theta_j bounded by the best score of any local
codeword of that check; the dual objective is the sum of all potentials.
Replacing each minimum with the soft minimum min^kappa{z} = -(1/kappa) log
sum_l exp(-kappa z_l) makes the edge-local part of the objective a smooth
concave function of that edge's message, so each visit jumps straight to the
closed-form stationary point, which is the exact per-edge maximizer.  A
sweep over the edges therefore never decreases the dual objective.  kappa =
math.inf applies the same update with hard minima: still locally maximal,
but without the monotone guarantee.  The messages are the only free
variables: every potential sits at its bound, a closed-form (soft) minimum
of the messages, so none is stored; the dual objective computes them where
it is read.  Decisions score each variable's constant words by the channel
cost minus the sum of edge messages and pick the strictly cheapest word,
the zero word costing 0; ties at the minimum erase the symbol (or, strictly
below zero, surface MalformedDecision).  No local codebook is enumerated:
each check is a trellis over its q partial syndromes (see _CodeCache and
_trellis), and theta_j and an edge's bucket soft minima come from prefix
and suffix soft minima: O(d q^2) terms per degree-d check for theta and
O(q^2) per edge update, whose prefix step and extrinsic row are one (q, q)
soft minimum each (the trellis check-node processing of Punekar &
Flanagan, ISIT 2011).  A symbol that no local word reaches gets message
-_MESSAGE_CLAMP.  Such an empty bucket is a soft minimum over no terms: its
column of +inf totals 0 after the shift, log 0 = -inf makes it +inf, and
the public entries ignore numpy's divide (and exp underflow) warnings
while they run.

A sweep updates the edges in check-major order, but decode() visits them
in waves: an edge's wave is one more than the later of the waves of its
check's previous slot and of its variable's previous edge, so a wave's
edges lie in distinct checks and distinct variables.  One kernel,
_visit_waves, updates every edge of a wave at once, each at its own slot.
An edge's update reads only its check's previous-slot message and running
prefix (both written in an earlier wave), its suffix soft minima (computed
once per sweep and unchanged until the check's own slots are visited) and
its variable's node_sum row; the earlier edges of that variable lie in
earlier waves, so the row has received exactly the writes, in the same
order, that check-major order would have made.  Every kernel operation
is elementwise or a reduction over a leading axis of terms, column by
column, so the wave sweep is bit-identical to the edge-by-edge path of
update_edge_soft/update_edge_hard, which replays the sweep's own steps up
to the edge's wave, writing nothing, and updates that one edge.  The
kernel and the passes over all checks gather and scatter through flat
offsets that _CodeCache computes once per code.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import TannerCode, _check_integer

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


def _check_kappa_type(kappa) -> None:
    # bool is a Real, but True is no smoothing
    if isinstance(kappa, bool) or not isinstance(kappa, numbers.Real):
        raise ValueError(f"kappa must be a number, got {kappa!r}")


def _check_kappa(kappa) -> None:
    """Refuse a kappa that is no number, or not > 0 (math.inf is hard
    minima), with ValueError."""
    _check_kappa_type(kappa)
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0 or math.inf, got {kappa}")


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
        _check_integer("max_iterations", self.max_iterations, 1)
        _check_kappa(self.kappa)


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


def _waves(code: TannerCode) -> np.ndarray:
    # the wave of every edge, check-major: one more than the later of the
    # waves of its check's previous slot and of its variable's previous
    # edge, so slot t of a check gets t + max over t' <= t of
    # (the wave of variable i_t' so far + 1 - t')
    last = np.full(code.n, -1)
    out = []
    for cols in code.row_cols:
        t = np.arange(len(cols))
        wave = np.maximum.accumulate(last[cols] + 1 - t) + t
        last[cols] = wave
        out.append(wave)
    return np.concatenate(out)


class _Step(NamedTuple):
    """One kernel step of _visit_waves: flat offsets for a wave of k edges.

    ext and prefix are (q, k, q) offsets into the suffix array and the
    prefix buffer (see _CodeCache.plan); messages and node_sum are (k, q-1)
    offsets of the edges' rows of DualState.messages and of their
    variables' rows of DualState.node_sum; carry is (k', q) offsets of the
    prefix rows of the first k' edges' checks, whose prefix is carried on.
    """

    ext: np.ndarray
    prefix: np.ndarray
    messages: np.ndarray
    node_sum: np.ndarray
    carry: np.ndarray


class _CodeCache:
    """Edge indexing, trellis offsets and the wave schedule of one code.

    Edge ids are check-major: edge e is code.edges[e].  check_edges[j, t]
    is the edge id of slot t of check j; short checks are padded with edge
    n_edges, whose slot costs 0 for symbol 0 and +inf for the others, which
    makes a padding slot (coefficient 0) an exact identity section.  Check
    j's _trellis block is row j of an (m, width + 1, q) array; trellis
    holds the flat offsets that this pass gathers through, and
    message_sums those of each variable's edge messages, (n, column width,
    q-1), where a padding slot names one row of -0.0 past the messages.

    steps holds the kernel steps of a sweep, one _Step per wave (see _waves
    and plan): a wave's edges lie in distinct checks and distinct
    variables, and each edge comes after its check's previous slot and its
    variable's previous edge in check-major order (the module docstring says
    why a wave sweep is bit-identical to check-major order).  The per-edge
    updates replay these same steps.  Every array here holds O(q^2) entries
    per edge; none grows with the local codebook.
    """

    def __init__(self, code: TannerCode):
        q = self.q = code.q
        self.n_edges = len(code.edges)
        # position of each edge's variable inside its check's column list
        self.edge_slot = np.concatenate([np.arange(len(row)) for row in code.rows])
        self.edge_var, self.edge_check = np.array(code.edges).T
        self.edge_coef = np.concatenate(code.row_vals)
        # var_edges[i]: edge ids of variable i, ascending, padded with
        # n_edges, whose message_sums offsets name a row of -0.0 past the
        # messages (x + -0.0 == x)
        self.var_edges = _groups(self.edge_var, code.n,
                                 max(map(len, code.columns)), self.n_edges)
        self.message_sums = (self.var_edges[:, :, None] * (q - 1)
                             + np.arange(q - 1))
        width = max(map(len, code.rows))
        self.check_edges = _groups(self.edge_check, code.m, width, self.n_edges)
        self.degree = np.array([len(row) for row in code.rows])
        # a check's suffix block is block_rows rows of q entries
        self.block_rows = width + 1
        # trellis = (index, weights): index[t, b, j, r] is the offset, in
        # the (m, width + 1, q) output, of B_{t+1}(r - h_t b) of check j,
        # the suffix syndrome after slot t when the slots from t on sum to
        # r and slot t holds b; weights[t, b, j] that of the slot's cost of
        # b in the messages, flattened and followed by a 0 (symbol 0, and
        # every symbol's offset past the messages) and a +inf (a padding
        # slot's nonzero symbols)
        coefs = np.append(self.edge_coef, 0)[self.check_edges]
        r = np.arange(q)
        index = ((r - coefs.T[:, None, :, None] * r[:, None, None]) % q
                 + q * (np.arange(1, width + 1)[:, None, None, None]
                        + self.block_rows * np.arange(code.m)[:, None]))
        zero = self.n_edges * (q - 1)
        b = r[:, None]
        slots = self.check_edges.T[:, None, :]
        weights = np.where(b == 0, zero,
                           np.where(slots < self.n_edges,
                                    slots * (q - 1) + b - 1, zero + 1))
        self.trellis = index, weights
        wave = _waves(code)
        waves = np.split(np.argsort(wave, kind="stable"),
                         np.cumsum(np.bincount(wave))[:-1])
        self.steps = self.plan(waves)

    def plan(self, waves) -> tuple:
        """Kernel steps of _visit_waves, one _Step per wave of edges.

        Each wave lists edges of distinct checks and distinct variables;
        check j owns row j of the suffix array and of the prefix buffer.
        A step orders the wave's edges with those before their check's last
        slot first, and carries the prefix of those first edges' checks on.
        For the i-th edge, at slot t of its check with coefficient h_t:
        ext[s, i, c] is the offset of B_{t+1}(-s - h_t c) in the suffix
        array, and prefix[b, i, s] that of F_{t-1}(s - h_t b) in the prefix
        buffer.
        """
        q = self.q
        a = np.arange(q)
        steps = []
        for edges in waves:
            checks = self.edge_check[edges]
            later = self.edge_slot[edges] < self.degree[checks] - 1
            edges = np.concatenate([edges[later], edges[~later]])
            t = self.edge_slot[edges, None]
            h = self.edge_coef[edges, None]
            row = self.edge_check[edges, None]
            ext = ((row * self.block_rows + t + 1) * q
                   + (-a[:, None, None] - h * a) % q)
            prefix = row * q + (a - h * a[:, None, None]) % q
            steps.append(_Step(ext, prefix, edges[:, None] * (q - 1) + a[:-1],
                               self.edge_var[edges, None] * (q - 1) + a[:-1],
                               row[:later.sum()] * q + a))
        return tuple(steps)


@lru_cache(maxsize=16)
def _code_cache(code: TannerCode) -> _CodeCache:
    return _CodeCache(code)


# ---- soft minimum ----

# an all-+inf column (an empty bucket) is shifted by this instead of by its
# own minimum, which would give inf - inf
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _softmin(terms: np.ndarray, kappa: float) -> np.ndarray:
    """Soft minimum over axis 0 of an array of 2 or more dimensions.

    A column of +inf (an empty bucket) gives +inf: shifted by the largest
    float, its terms all exponentiate to 0, its total logs to -inf and
    lo - (-inf)/kappa is +inf.  That log 0 is a numpy divide-by-zero, and
    terms far above a column's minimum underflow in exp; the public
    entries that reach here (decode, dual_objective, soft_min and the edge
    updates) ignore both under one np.errstate each, entered once per call
    rather than once per soft minimum, so neither reaches the caller's
    error settings.  Private callers set it themselves.  In a C-ordered
    array of two or more columns numpy adds each column's terms one by one
    in axis order, so a column's value does not depend on the other
    columns; a lone column may be summed pairwise.

    The exponentials and the log are numpy's, one call each over the
    whole array.  Their last bits follow numpy's SIMD code on the host,
    not the C library: np.exp differs from libm's exp in the last bit on
    a few percent of inputs on AVX-512 hosts, and np.log from math.log
    by at most one ulp on a fraction of a percent of totals in [1, 4].
    A log's ulp is divided by kappa before it meets the column minimum,
    so at kappa = 100 it rarely survives into the result.
    """
    if math.isinf(kappa):
        return np.minimum.reduce(terms, axis=0)
    lo = np.minimum.reduce(terms, axis=0, initial=_FLOAT_MAX)
    shifted = terms - lo
    shifted *= -kappa
    total = np.add.reduce(np.exp(shifted, out=shifted), axis=0)
    # a column's own minimum contributes 1 to its total, so only an all-+inf
    # column totals 0
    return lo - np.log(total, out=total) / kappa


def soft_min(values, kappa: float) -> float:
    """min^kappa{z} = -(1/kappa) log sum_l exp(-kappa z_l); min at kappa=inf.

    Computed in shifted form, so it stays finite for kappa up to 1e3 and
    values of either sign.  Satisfies min - log(L)/kappa <= result <= min
    for a list of length L.  +inf entries add nothing; a -inf entry gives
    -inf.  A NaN entry, or a kappa that DecoderConfig refuses, raises
    ValueError.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if arr.size == 0:
        raise EmptyList("soft_min of an empty collection")
    _check_kappa(kappa)
    lo = arr.min()
    if math.isnan(lo):
        raise ValueError("soft_min of a collection holding NaN")
    if lo == -math.inf:
        # shifting by the minimum would give -inf - -inf
        return -math.inf
    with np.errstate(divide="ignore", under="ignore"):
        return float(_softmin(arr, kappa)[0])


# ---- dual state ----


@dataclass
class DualState:
    """Mutable decoder state for one frame.

    messages[e] is the (q-1)-vector on edge e (check-major edge ids), the
    dual's only free variables.  node_sum[i] caches the sum of the messages
    on variable i's edges minus llr[i] (its channel slot), kept up to date
    by every message write.  No potential is stored: phi_i and theta_j are
    soft minima of these (see dual_objective).  Both arrays are C-ordered,
    as init_state makes them: the sweep writes through flat views.
    """

    code: TannerCode
    kappa: float
    llr: np.ndarray
    messages: np.ndarray
    node_sum: np.ndarray
    cache: _CodeCache = field(repr=False, default=None)


def init_state(code: TannerCode, llr, config: DecoderConfig) -> DualState:
    """Fresh state: zero edge messages, so node_sum is -llr."""
    lam = validate_llr(code, llr)
    cache = _code_cache(code)
    return DualState(code=code, kappa=config.kappa, llr=lam,
                     messages=np.zeros((cache.n_edges, code.q - 1)),
                     node_sum=-lam, cache=cache)


# appended to the flattened messages: a slot's cost of symbol 0 and a
# padding slot's cost of the others (see _CodeCache.trellis)
_SLOT_TAIL = np.array([0.0, math.inf])


def _trellis(costs: np.ndarray, kappa: float, cache: _CodeCache) -> np.ndarray:
    # out[j, t, r] = B_t(r) of check j: the soft minimum, over the symbols
    # of slots t, t+1, ... of syndrome r, of their summed costs, costs[e,
    # b-1] for symbol b != 0 on edge e and 0 for symbol 0.  B_0(0) is the
    # check's (soft) minimum over its local words, theta_j when the costs
    # are the messages.  Each step works elementwise or row by row, so no
    # check's rows depend on the other checks.
    index, weights = cache.trellis
    width, q, count = weights.shape
    w = np.concatenate((costs.reshape(-1), _SLOT_TAIL))[weights]
    out = np.zeros((count, width + 1, q))
    out[:, width, 1:] = math.inf
    flat = out.reshape(-1)
    for t in range(width - 1, -1, -1):
        # B_t(r) = softmin_b [w_t(b) + B_{t+1}(r - h_t b)], terms (b, check, r)
        terms = flat[index[t]]
        terms += w[t][:, :, None]
        out[:, t] = _softmin(terms, kappa)
    return out


def _variable_potentials(state: DualState) -> np.ndarray:
    # every phi: the soft minimum over each variable's constant words,
    # where the zero word scores 0 and the word repeating symbol b scores
    # -node_sum[i, b-1]
    scores = np.zeros((state.code.q, state.code.n))
    np.negative(state.node_sum.T, out=scores[1:])
    return _softmin(scores, state.kappa)


def _objective(state: DualState, suffix: np.ndarray) -> float:
    # sum_i phi_i + sum_j theta_j, theta_j read off suffix, the _trellis
    # pass of every check on the messages
    return float(_variable_potentials(state).sum() + suffix[:, 0, 0].sum())


def _message_sums(state: DualState) -> np.ndarray:
    # per-variable sums of edge messages, shape (n, q-1), added in edge
    # order; padding slots read a row of -0.0, which changes no sum
    padded = np.concatenate((state.messages.reshape(-1),
                             np.full(state.code.q - 1, -0.0)))
    return padded[state.cache.message_sums].sum(axis=1)


def _flat_view(array: np.ndarray) -> np.ndarray:
    # reshape would copy an array that is not C-ordered, and the kernel's
    # writes would be lost
    if not array.flags.c_contiguous:
        raise ValueError("decoder state arrays must be C-ordered")
    return array.reshape(-1)


def _visit_waves(state: DualState, steps: tuple, suffix: np.ndarray,
                 stop=None):
    # the kernel: one step per wave of edges, as planned by _CodeCache.plan
    # against suffix (the _trellis blocks of their checks, which hold
    # until the sweep reaches the checks) and a prefix buffer with a row
    # per block, F_{-1} (syndrome 0 at cost 0) before slot 0.  ext[i, c]
    # is the soft minimum over edge i's check words with c in slot t of
    # their message sums outside slot t: the step meets the check's prefix
    # F_{t-1} with its suffix B_{t+1}, writes the message, then carries the
    # prefix over slot t, two (q, q) soft minima per edge.  Terms are laid
    # out (reduced symbol, edge, kept symbol) and every minimum is taken
    # over axis 0, so each edge gets the bits of a visit on its own.
    # stop=None (the sweep) updates every edge's message from ext; else
    # nothing is written and step stop's ext is returned.  Every gather and
    # scatter goes through flat offsets into 1-D views.
    q = state.code.q
    flat = suffix.reshape(-1)
    prefix = np.full(len(suffix) * q, math.inf)
    prefix[::q] = 0.0
    messages = _flat_view(state.messages)
    node_sum = _flat_view(state.node_sum)
    for wave, step in enumerate(steps):
        # F_{t-1}(s - h_t b), laid out (b, edge, s)
        shifted = prefix[step.prefix]
        # ext_t(c) = softmin_s [B_{t+1}(-s - h_t c) + F_{t-1}(s)]
        terms = flat[step.ext]
        terms += shifted[0].T[:, :, None]
        ext = _softmin(terms, state.kappa)
        if wave == stop:
            return ext
        new = (messages[step.messages] if stop is not None
               else _maximize_edges(messages, node_sum, step.messages,
                                    step.node_sum, ext))
        carry = len(step.carry)
        if carry:
            # F_t(s) = softmin_b [F_{t-1}(s - h_t b) + w_t(b)], w_t(0) = 0
            shifted = shifted[:, :carry]
            shifted[1:] += new[:carry].T[:, :, None]
            prefix[step.carry] = _softmin(shifted, state.kappa)


def _edge_ext(state: DualState, i: int, j: int) -> tuple:
    # (ext, step, k): edge (i, j) is row k of step, the kernel step of its
    # wave, and ext that row's ext, from the sweep's own steps replayed up
    # to the wave with nothing written.  The row reads only its check's
    # prefix over the earlier slots, advanced one slot per earlier wave
    # from the current messages, and that check's suffix row; no kernel
    # column depends on another edge, so these are the bits that
    # check-major order gives the edge.
    edges = state.code.edges
    if (i, j) not in edges:
        raise ValueError(f"({i}, {j}) is not an edge of the code")
    offset = edges.index((i, j)) * (state.code.q - 1)
    cache = state.cache
    suffix = _trellis(state.messages, state.kappa, cache)
    for wave, step in enumerate(cache.steps):
        k = np.flatnonzero(step.messages[:, 0] == offset)
        if k.size:
            ext = _visit_waves(state, cache.steps, suffix, stop=wave)
            return ext[k[0]], step, k[0]


def dual_objective(state: DualState) -> float:
    """sum_i phi_i + sum_j theta_j, every potential at its bound.

    phi_i is the soft minimum over variable i's constant words and theta_j
    that over check j's local words.  Any messages give a lower bound on
    the LP optimum, the tightest one at kappa = math.inf.
    """
    with np.errstate(divide="ignore", under="ignore"):
        return _objective(state, _trellis(state.messages, state.kappa,
                                          state.cache))


# ---- edge updates ----


def _maximize_edges(messages: np.ndarray, node_sum: np.ndarray,
                    message_index: np.ndarray, node_index: np.ndarray,
                    ext: np.ndarray) -> np.ndarray:
    # closed-form joint maximizer of the edge-local objective, edge by
    # edge over edges of distinct variables; message_index and node_index
    # are the flat offsets of their rows in the flat views messages and
    # node_sum.  With bucket(b) = w(b) + ext(b), the soft minimum of
    # check-j word scores whose slot for variable i equals b, the
    # stationary point of phi_i + theta_j in this edge's message w is, per
    # nonzero symbol a,
    #   w(a) <- w(a) - (node_sum(i, a) + bucket(a) - bucket(0)) / 2
    # with bucket(0) = ext(0) a shared normalizer; the current w(a) cancels
    # from the right side.  Returns the new messages.
    msg = messages[message_index]
    total = node_sum[node_index]
    new = msg - 0.5 * (total + (msg + ext[:, 1:]) - ext[:, :1])
    np.maximum(new, -_MESSAGE_CLAMP, out=new)
    np.minimum(new, _MESSAGE_CLAMP, out=new)
    node_sum[node_index] = total + (new - msg)
    messages[message_index] = new
    return new


def _update_edge(state: DualState, i: int, j: int) -> DualState:
    # the sweep's operations on the edge, through its step's own offsets
    with np.errstate(divide="ignore", under="ignore"):
        ext, step, k = _edge_ext(state, i, j)
    _maximize_edges(_flat_view(state.messages), _flat_view(state.node_sum),
                    step.messages[k, None], step.node_sum[k, None], ext[None])
    return state


def update_edge_soft(state: DualState, i: int, j: int) -> DualState:
    """Maximize the edge-local dual objective over edge (i, j), finite kappa."""
    if math.isinf(state.kappa):
        raise ValueError("update_edge_soft requires finite kappa")
    return _update_edge(state, i, j)


def update_edge_hard(state: DualState, i: int, j: int) -> DualState:
    """Hard-minimum edge update: the closed form with plain minima.

    For q = 2 this lands on the midpoint of the closed interval of
    maximizers; in general it remains locally maximal slot by slot.
    """
    if not math.isinf(state.kappa):
        raise ValueError("update_edge_hard requires kappa = math.inf")
    return _update_edge(state, i, j)


# ---- decisions ----


def _decide_symbols(scores: np.ndarray) -> np.ndarray:
    # each variable decides the repetition word with the smallest score,
    # where the zero word scores 0 and the word repeating alpha scores
    # scores[i, alpha-1] = llr[i, alpha-1] - sum of edge messages (the
    # channel slot joins the sum like any other slot of the repetition code,
    # and the sum is taken from messages so decisions are immune to node_sum
    # drift); a tie for the smallest score means no unique word claims the
    # decision: some other word scores within _DECISION_ZERO_TOL of the
    # best, which (float subtraction being monotone) holds exactly when the
    # runner-up of a stable sort does, and the sort's first entry is argmin's
    full = np.zeros((len(scores), scores.shape[1] + 1))
    full[:, 1:] = scores
    choice = np.argmin(full, axis=1)
    best = np.min(full, axis=1)
    near = full - best[:, None] <= _DECISION_ZERO_TOL
    tie = np.count_nonzero(near, axis=1) > 1
    malformed = tie & (best < -_DECISION_ZERO_TOL)
    if malformed.any():
        i = int(np.argmax(malformed))
        tied = np.flatnonzero(full[i] - best[i] <= _DECISION_ZERO_TOL)
        raise MalformedDecision(
            f"variable {i}: slots {tied.tolist()} all claim the "
            f"decision (scores {scores[i].tolist()})"
        )
    return np.where(tie, ERASED, choice)


def decode(code: TannerCode, llr, config: DecoderConfig) -> DecodeOutcome:
    """Run coordinate-ascent sweeps until a codeword is found or the budget ends.

    Each iteration updates every edge, wave by wave, applying the soft
    update (finite kappa) or the hard update (kappa = math.inf), then
    records the dual objective and reads a decision.  The result equals
    running update_edge_soft/update_edge_hard edge by edge in check-major
    order.  The first erasure-free decision with zero syndrome returns
    CODEWORD_FOUND.  Iterations whose decision is malformed are counted and
    skipped; a malformed final decision propagates MalformedDecision.
    """
    with np.errstate(divide="ignore", under="ignore"):
        state = init_state(code, llr, config)
        # a check's suffix arrays stay valid until its own visit writes it,
        # so one pass of all checks per sweep serves both the sweep and theta
        suffix = _trellis(state.messages, config.kappa, state.cache)
        trace = [_objective(state, suffix)]
        sums = _message_sums(state)
        malformed = 0
        symbols = None
        status = Status.MAX_ITERATIONS
        for iteration in range(1, config.max_iterations + 1):
            # node_sum from the messages, shedding the float drift of the
            # incremental updates, which a message clamped at +-1e18 makes
            # large
            state.node_sum[:] = sums - state.llr
            _visit_waves(state, state.cache.steps, suffix)
            suffix = _trellis(state.messages, config.kappa, state.cache)
            trace.append(_objective(state, suffix))
            # one message sum per sweep: no message changes before the next
            # sweep reads it for node_sum
            sums = _message_sums(state)
            try:
                symbols = _decide_symbols(state.llr - sums)
            except MalformedDecision:
                malformed += 1
                symbols = None
                continue
            if not np.any(symbols == ERASED) and code.is_codeword(symbols):
                status = Status.CODEWORD_FOUND
                break
        if symbols is None:
            # the final sweep's decision was malformed: surface it
            _decide_symbols(state.llr - sums)
    return DecodeOutcome(symbols, status, iteration, tuple(trace), malformed)
