import copy
import math
import time

import numpy as np
import pytest

from qarylp import decoder as D
from qarylp.channel import awgn_sample, compute_llr, ebno_to_sigma, modulate, psk, qpsk
from qarylp.codes import (
    BudgetExceeded,
    TannerCode,
    enumerate_spc,
    ldpc80_z4,
    random_regular_code,
)
from qarylp.decoder import (
    ERASED,
    DecoderConfig,
    DimensionMismatch,
    EmptyList,
    MalformedDecision,
    NonFiniteLLR,
    Status,
    compute_c_terms,
    compute_v_terms,
    decide,
    decode,
    dual_objective,
    init_state,
    local_function,
    set_message,
    soft_min,
    update_edge_hard,
    update_edge_soft,
    update_phi_theta,
)

from oracles import (
    central_difference_gradient,
    check_edges,
    coordinate_grid_max,
    decide_symbols_loop,
    decode_reference,
    refresh_caches_loop,
    softmin_bruteforce,
    variable_edges,
)


# ---- helpers ----


def random_state(kappa, rng, n=12, m=6, degree=3, q=4):
    """A consistent DualState with random LLRs and random edge messages."""
    code = random_regular_code(n=n, m=m, row_degree=degree, q=q, rng=rng)
    llr = rng.normal(0.0, 2.0, size=(n, q - 1))
    state = init_state(code, llr, DecoderConfig(kappa=kappa))
    for i, j in code.edges:
        set_message(state, i, j, rng.normal(0.0, 1.5, size=q - 1))
    return code, state


def h_of(state, i, j, values):
    """Edge-local objective with the (i, j) message replaced by values."""
    probe = copy.deepcopy(state)
    set_message(probe, i, j, values)
    return local_function(probe, i, j)


def two_check_code():
    # variable 0 sits in both checks, variables 1 and 2 in one each
    return TannerCode(q=4, n=3, rows=(((0, 1), (1, 1)), ((0, 1), (2, 1))))


def ragged_code():
    # check 0 is b0 + 2 b1 + 2 b2 = 0 mod 4, so slot 0 holds only even
    # symbols and its buckets differ in size; checks of degree 2, 3 and 4
    # give codebooks of 4, 16 and 64 words
    return TannerCode(q=4, n=6, rows=(
        ((0, 1), (1, 2), (2, 2)),
        ((1, 1), (3, 3), (4, 1)),
        ((2, 1), (5, 1)),
        ((0, 3), (3, 1), (4, 2), (5, 1)),
    ))


def awgn_frames(code, ebno_db, count, seed):
    """LLRs of the all-zero word over PSK and AWGN, one seeded frame each."""
    cmap = psk(code.q)
    sigma = ebno_to_sigma(ebno_db, (code.n - code.m) / code.n, math.log2(code.q))
    y0 = modulate(np.zeros(code.n, dtype=np.int64), cmap)
    return [
        compute_llr(awgn_sample(y0, sigma, np.random.default_rng((seed, f))),
                    cmap, sigma)
        for f in range(count)
    ]


# ---- soft_min ----


def test_soft_min_single_element():
    for kappa in (0.5, 1.0, 100.0, math.inf):
        assert soft_min([3.7], kappa) == pytest.approx(3.7, abs=1e-12)


def test_soft_min_known_values():
    assert soft_min([0.0, 0.0], 1.0) == pytest.approx(-math.log(2.0), abs=1e-12)
    val = soft_min([1.0, 2.0], 100.0)
    assert val == pytest.approx(1.0, abs=1e-6)
    assert val <= 1.0
    assert soft_min([4.0, -2.0, 7.5], math.inf) == -2.0


def test_soft_min_sandwich_and_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        length = int(rng.integers(1, 41))
        values = rng.normal(0.0, 5.0, size=length)
        for kappa in (0.5, 3.0, 1e3):
            sm = soft_min(values, kappa)
            assert values.min() - math.log(length) / kappa - 1e-12 <= sm
            assert sm <= values.min() + 1e-12
            assert sm == pytest.approx(softmin_bruteforce(values, kappa), abs=1e-10)


def test_soft_min_extreme_inputs():
    rng = np.random.default_rng(4)
    values = rng.uniform(-1e6, 1e6, size=300)
    for kappa in (0.5, 1e3):
        sm = soft_min(values, kappa)
        assert math.isfinite(sm)
        assert sm <= values.min()
    # +inf entries (the decoder's padding words) add nothing; -inf wins
    for kappa in (1.0, 1e300, math.inf):
        assert soft_min([math.inf, 2.0], kappa) == 2.0
        assert soft_min([math.inf, math.inf], kappa) == math.inf
        assert soft_min([-math.inf, 2.0], kappa) == -math.inf


def test_soft_min_rejects_bad_input():
    with pytest.raises(EmptyList):
        soft_min([], 1.0)
    with pytest.raises(ValueError):
        soft_min([1.0], 0.0)
    with pytest.raises(ValueError):
        soft_min([1.0], -2.0)


# ---- config ----


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(max_iterations=0)
    with pytest.raises(ValueError):
        DecoderConfig(kappa=0.0)
    with pytest.raises(ValueError):
        DecoderConfig(kappa=-1.0)
    DecoderConfig(kappa=math.inf)  # allowed


# ---- init_state ----


def test_init_state_channel_slots():
    code = two_check_code()
    llr = np.arange(9, dtype=float).reshape(3, 3)
    state = init_state(code, llr, DecoderConfig(kappa=2.0))
    np.testing.assert_array_equal(state.chan, -llr)
    assert not state.messages.any()

    again = init_state(code, llr, DecoderConfig(kappa=2.0))
    np.testing.assert_array_equal(again.phi, state.phi)
    np.testing.assert_array_equal(again.theta, state.theta)


def test_init_state_dimension_mismatch():
    code = two_check_code()
    with pytest.raises(DimensionMismatch):
        init_state(code, np.zeros((3, 2)), DecoderConfig())
    with pytest.raises(DimensionMismatch):
        init_state(code, np.zeros((4, 3)), DecoderConfig())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decode_refuses_non_finite_llr(bad):
    code = ldpc80_z4()
    llr = np.ones((code.n, code.q - 1))
    llr[5, 1] = bad
    for kappa in (100.0, math.inf):
        start = time.perf_counter()
        with pytest.raises(NonFiniteLLR, match=r"llr\[5, 1\]"):
            decode(code, llr, DecoderConfig(kappa=kappa))
        assert time.perf_counter() - start < 1.0


def test_decode_refuses_oversized_check():
    # one degree-12 check over Z_8 has 8^11 local words
    code = TannerCode(q=8, n=12, rows=(tuple((i, 1) for i in range(12)),))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="check 0"):
        decode(code, np.ones((12, 7)), DecoderConfig())
    assert time.perf_counter() - start < 1.0


def test_init_state_zero_llr_dual_values():
    code = ldpc80_z4()
    hard = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=math.inf))
    assert dual_objective(hard) == pytest.approx(0.0, abs=1e-12)

    soft = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=1.0))
    expected = -80.0 * math.log(4.0) - 32.0 * math.log(256.0)
    assert dual_objective(soft) == pytest.approx(expected, abs=1e-9)
    assert soft.phi[0] == pytest.approx(-math.log(4.0), abs=1e-12)
    assert soft.theta[0] == pytest.approx(-math.log(256.0), abs=1e-12)


# ---- V and C terms ----


def test_v_terms_symmetric_state():
    code = ldpc80_z4()
    state = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=1.0))
    v_bar, v_eq = compute_v_terms(state, 0, 0, 1)
    assert v_bar == pytest.approx(math.log(3.0), abs=1e-12)
    assert v_eq == pytest.approx(0.0, abs=1e-12)

    hard = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=math.inf))
    assert compute_v_terms(hard, 0, 0, 2) == (0.0, 0.0)


def test_c_terms_symmetric_state():
    code = ldpc80_z4()
    state = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=1.0))
    for alpha in (1, 2, 3):
        c_bar, c_eq = compute_c_terms(state, 0, 0, alpha)
        assert c_bar == pytest.approx(math.log(192.0), abs=1e-12)
        assert c_eq == pytest.approx(math.log(64.0), abs=1e-12)

    hard = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=math.inf))
    assert compute_c_terms(hard, 0, 0, 1) == (0.0, 0.0)


def test_v_terms_match_bruteforce():
    rng = np.random.default_rng(21)
    for kappa in (1.0, 10.0, math.inf):
        code, state = random_state(kappa, rng)
        for i, j in [code.edges[k] for k in rng.integers(0, len(code.edges), 4)]:
            e = state.cache.edge_index[(i, j)]
            slots = list(code.columns[i])
            # full score of the constant-b word, channel slot included
            def full(b):
                total = state.chan[i, b - 1]
                for j2 in slots:
                    total += state.messages[state.cache.edge_index[(i, j2)], b - 1]
                return -total
            for alpha in range(1, code.q):
                scores = [0.0 if b == 0 else full(b)
                          for b in range(code.q) if b != alpha]
                want_bar = -soft_min(scores, kappa)
                want_eq = -(full(alpha) + state.messages[e, alpha - 1])
                v_bar, v_eq = compute_v_terms(state, i, j, alpha)
                assert v_bar == pytest.approx(want_bar, abs=1e-9)
                assert v_eq == pytest.approx(want_eq, abs=1e-9)


def test_c_terms_match_bruteforce():
    rng = np.random.default_rng(22)
    for kappa in (1.0, 10.0, math.inf):
        code, state = random_state(kappa, rng)
        for i, j in [code.edges[k] for k in rng.integers(0, len(code.edges), 4)]:
            e = code.edges.index((i, j))
            words = enumerate_spc(code, j).words
            eids = check_edges(code, j)
            costs = []
            for word in words:
                total = 0.0
                for t, b in enumerate(word):
                    if b:
                        total += state.messages[eids[t], b - 1]
                costs.append(total)
            costs = np.array(costs)
            t_i = eids.index(e)
            for alpha in range(1, code.q):
                mask = words[:, t_i] == alpha
                want_bar = -soft_min(costs[~mask], kappa)
                want_eq = -soft_min(costs[mask] - state.messages[e, alpha - 1], kappa)
                c_bar, c_eq = compute_c_terms(state, j, i, alpha)
                assert c_bar == pytest.approx(want_bar, abs=1e-9)
                assert c_eq == pytest.approx(want_eq, abs=1e-9)


def test_local_function_values_and_locality():
    code = ldpc80_z4()
    state = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=1.0))
    expected = -math.log(4.0) - math.log(256.0)
    assert local_function(state, 0, 0) == pytest.approx(expected, abs=1e-12)

    hard = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=math.inf))
    assert local_function(hard, 0, 0) == 0.0

    # changing a message on an edge that touches neither variable 0 nor
    # check 0 leaves the local value alone
    before = local_function(state, 0, 0)
    set_message(state, 20, 12, np.array([5.0, -3.0, 2.0]))
    assert local_function(state, 0, 0) == before


# ---- edge updates ----


def test_update_soft_symmetric_fixed_point():
    code = ldpc80_z4()
    state = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=1.0))
    update_edge_soft(state, 0, 0)
    np.testing.assert_allclose(state.messages[0], 0.0, atol=1e-12)


def test_update_hard_symmetric_fixed_point():
    code = ldpc80_z4()
    state = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=math.inf))
    update_edge_hard(state, 0, 0)
    np.testing.assert_allclose(state.messages[0], 0.0, atol=1e-12)


def test_update_binary_pair_exact():
    # q=2 single check over two variables, both LLRs +2: first update gives
    # 1.0, the second 0.5, and the decision recovers the zero word.  The
    # per-slot word sets here are singletons, so every kappa agrees.
    code = TannerCode(q=2, n=2, rows=(((0, 1), (1, 1)),))
    llr = np.array([[2.0], [2.0]])
    for kappa in (1.0, 50.0, math.inf):
        state = init_state(code, llr, DecoderConfig(kappa=kappa))
        update = update_edge_hard if math.isinf(kappa) else update_edge_soft
        update(state, 0, 0)
        update(state, 1, 0)
        np.testing.assert_allclose(state.messages.ravel(), [1.0, 0.5], atol=1e-9)
        assert decide(state).symbols.tolist() == [0, 0]


def test_update_quaternary_pair_exact():
    # single check b0 + 3 b1 = 0 mod 4 (words (b, b)); LLRs favor symbol 2
    code = TannerCode(q=4, n=2, rows=(((0, 1), (1, 3)),))
    llr = np.array([[2.0, -4.0, 2.0], [2.0, -4.0, 2.0]])
    for kappa in (1.0, math.inf):
        state = init_state(code, llr, DecoderConfig(kappa=kappa))
        update = update_edge_hard if math.isinf(kappa) else update_edge_soft
        update(state, 0, 0)
        np.testing.assert_allclose(state.messages[0], [1.0, -2.0, 1.0], atol=1e-9)
        update(state, 1, 0)
        np.testing.assert_allclose(state.messages[1], [0.5, -1.0, 0.5], atol=1e-9)
        out = decide(state)
        assert out.symbols.tolist() == [2, 2]
        assert out.status is Status.CODEWORD_FOUND


def test_update_soft_stationary():
    rng = np.random.default_rng(31)
    for kappa in (1.0, 10.0, 100.0):
        for _ in range(2):
            code, state = random_state(kappa, rng)
            i, j = code.edges[int(rng.integers(len(code.edges)))]
            update_edge_soft(state, i, j)
            e = state.cache.edge_index[(i, j)]
            u = state.messages[e].copy()
            grad = central_difference_gradient(
                lambda v: h_of(state, i, j, v), u, step=1e-5)
            assert np.abs(grad).max() < 1e-6


def test_update_soft_matches_numerical_argmax():
    rng = np.random.default_rng(32)
    for kappa in (1.0, 10.0, 100.0):
        code, state = random_state(kappa, rng)
        i, j = code.edges[int(rng.integers(len(code.edges)))]
        update_edge_soft(state, i, j)
        e = state.cache.edge_index[(i, j)]
        u = state.messages[e].copy()
        h_star = h_of(state, i, j, u)
        for a in range(code.q - 1):
            def slice_fn(x, a=a):
                v = u.copy()
                v[a] = x
                return h_of(state, i, j, v)
            x_oracle = coordinate_grid_max(slice_fn, u[a])
            # the oracle never finds a better value; where the slice has a
            # unique peak the argmax also matches (large kappa saturates
            # soft minima, leaving flat plateaus of equal maximizers)
            assert slice_fn(x_oracle) - h_star <= 1e-9
            if abs(x_oracle - u[a]) > 1e-4:
                assert slice_fn(x_oracle) == pytest.approx(h_star, abs=1e-9)


def test_update_soft_monotone_per_edge():
    rng = np.random.default_rng(33)
    code, state = random_state(10.0, rng)
    previous = dual_objective(state)
    for _ in range(5):
        for i, j in code.edges:
            update_edge_soft(state, i, j)
            current = dual_objective(state)
            assert current >= previous - 1e-9
            previous = current


def test_update_self_exclusion():
    # the replacement value must not depend on the edge's own current message
    rng = np.random.default_rng(34)
    for kappa in (1.0, math.inf):
        code, state = random_state(kappa, rng)
        i, j = code.edges[int(rng.integers(len(code.edges)))]
        e = state.cache.edge_index[(i, j)]
        twin = copy.deepcopy(state)
        set_message(twin, i, j, twin.messages[e] + np.array([5.0, -7.0, 3.0]))
        update = update_edge_hard if math.isinf(kappa) else update_edge_soft
        update(state, i, j)
        update(twin, i, j)
        np.testing.assert_allclose(twin.messages[e], state.messages[e], atol=1e-9)


def test_update_hard_local_max_probe():
    rng = np.random.default_rng(35)
    for _ in range(4):
        code, state = random_state(math.inf, rng)
        i, j = code.edges[int(rng.integers(len(code.edges)))]
        update_edge_hard(state, i, j)
        e = state.cache.edge_index[(i, j)]
        u = state.messages[e].copy()
        h0 = h_of(state, i, j, u)
        for a in range(code.q - 1):
            for eps in (1e-3, -1e-3):
                v = u.copy()
                v[a] += eps
                assert h_of(state, i, j, v) <= h0 + 1e-9


def test_update_kappa_dispatch_guards():
    rng = np.random.default_rng(36)
    code, soft_state = random_state(1.0, rng)
    with pytest.raises(ValueError):
        update_edge_hard(soft_state, *code.edges[0])
    code, hard_state = random_state(math.inf, rng)
    with pytest.raises(ValueError):
        update_edge_soft(hard_state, *code.edges[0])


def test_update_clamps_unreachable_symbol():
    # check b0 + 2 b1 = 0 mod 4: no local word puts an odd symbol on
    # variable 0, so those slots hit empty word sets and get clamped
    code = TannerCode(q=4, n=2, rows=(((0, 1), (1, 2)),))
    state = init_state(code, np.zeros((2, 3)), DecoderConfig(kappa=1.0))
    update_edge_soft(state, 0, 0)
    msg = state.messages[0]
    assert np.all(np.isfinite(msg))
    assert np.all(np.abs(msg) <= 1e18)
    assert msg[0] == -1e18 and msg[2] == -1e18
    assert abs(msg[1]) < 1e3
    assert math.isfinite(dual_objective(state))


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_padded_edge_updates_match_closed_form(kappa):
    # one update per edge of a ragged code, in check-major order; each new
    # message is the closed form with bucket soft minima taken over the
    # check's enumerate_spc words, not over the decoder's padded layout
    code = ragged_code()
    update = update_edge_hard if math.isinf(kappa) else update_edge_soft
    rng = np.random.default_rng(44)
    empty = 0
    for _ in range(3):
        llr = rng.normal(0.3, 1.5, size=(code.n, code.q - 1))
        state = init_state(code, llr, DecoderConfig(kappa=kappa))
        for e, (i, j) in enumerate(code.edges):
            words = enumerate_spc(code, j).words
            slots = check_edges(code, j)
            costs = np.zeros(len(words))
            for t, edge in enumerate(slots):
                costs += np.concatenate(([0.0], state.messages[edge]))[words[:, t]]
            column = words[:, slots.index(e)]
            bucket = np.array([
                softmin_bruteforce(costs[column == b], kappa)
                if np.any(column == b) else math.inf
                for b in range(code.q)
            ])
            mine = variable_edges(code, i)
            node_sum = state.chan[i] + state.messages[mine].sum(axis=0)
            want = np.clip(
                state.messages[e] - 0.5 * (node_sum + bucket[1:] - bucket[0]),
                -1e18, 1e18)
            update(state, i, j)
            # rtol covers the ulps of messages near 5e17 that follow a clamp
            np.testing.assert_allclose(state.messages[e], want, rtol=1e-15, atol=1e-9)
            for b in np.flatnonzero(bucket[1:] == math.inf):
                assert state.messages[e, b] == -1e18
                empty += 1
    assert empty == 6  # symbols 1 and 3 never sit in slot 0 of check 0


def test_update_phi_theta_tightness():
    rng = np.random.default_rng(37)
    code, state = random_state(5.0, rng)
    i, j = code.edges[1]
    update_phi_theta(state, i, j)
    scores = np.concatenate(([0.0], -state.node_sum[i]))
    assert state.phi[i] == pytest.approx(soft_min(scores, 5.0), abs=1e-12)
    assert state.theta[j] == pytest.approx(
        soft_min(state.check_costs[j], 5.0), abs=1e-12)


def test_set_message_keeps_caches_consistent():
    rng = np.random.default_rng(38)
    code, state = random_state(2.0, rng)
    fresh = copy.deepcopy(state)
    D._refresh_caches(fresh)
    np.testing.assert_allclose(fresh.node_sum, state.node_sum, atol=1e-9)
    for j in range(code.m):
        np.testing.assert_allclose(
            fresh.check_costs[j], state.check_costs[j], atol=1e-9)


# ---- decisions ----


def test_decide_sign_rule_examples():
    # zero llr, so the scores are minus the per-variable message sums
    code = two_check_code()
    state = init_state(code, np.zeros((3, 3)), DecoderConfig(kappa=1.0))
    # variable 0 scores -((-1,-2,-3) + (-1,0,-1)) = (2,2,4), all positive
    set_message(state, 0, 0, [-1.0, -2.0, -3.0])
    set_message(state, 0, 1, [-1.0, 0.0, -1.0])
    # variable 1 scores (-1,2,3): exactly one negative slot selects symbol 1
    set_message(state, 1, 0, [1.0, -2.0, -3.0])
    # variable 2 scores (0,2,3): the zero slot erases the symbol
    set_message(state, 2, 1, [0.0, -2.0, -3.0])
    out = decide(state)
    assert out.symbols.tolist() == [0, 1, ERASED]
    assert out.status is Status.MAX_ITERATIONS


def test_decide_malformed():
    code = two_check_code()
    state = init_state(code, np.zeros((3, 3)), DecoderConfig(kappa=1.0))
    set_message(state, 0, 0, [-1.0, -1.0, -1.0])
    set_message(state, 0, 1, [-1.0, -1.0, -1.0])
    set_message(state, 1, 0, [-1.0, -2.0, -3.0])
    # variable 2 scores (-3,-3,1): slots 1 and 2 tie strictly below zero,
    # so neither word uniquely claims the decision
    set_message(state, 2, 1, [3.0, 3.0, -1.0])
    with pytest.raises(MalformedDecision, match="variable 2") as got:
        decide(state)
    with pytest.raises(MalformedDecision) as want:
        decide_symbols_loop(state)
    assert str(got.value) == str(want.value)


def test_decide_resolves_competing_negative_slots():
    # several negative scores are routine at a converged optimum whose
    # symbol is nonzero; the cheapest word wins as long as it is strict
    code = two_check_code()
    state = init_state(code, np.zeros((3, 3)), DecoderConfig(kappa=1.0))
    set_message(state, 0, 0, [1.0, 2.5, 1.5])
    set_message(state, 0, 1, [0.2, 0.0, -0.2])
    set_message(state, 1, 0, [-1.0, -1.0, -1.0])
    set_message(state, 2, 1, [-1.0, -1.0, -1.0])
    out = decide(state)
    # variable 0 scores -(1.2, 2.5, 1.3): all negative, slot 2 is cheapest
    assert out.symbols.tolist() == [2, 0, 0]


def test_decide_zero_tolerance():
    code = two_check_code()
    state = init_state(code, np.zeros((3, 3)), DecoderConfig(kappa=1.0))
    for i, j in code.edges:
        set_message(state, i, j, [-1.0, -1.0, -1.0])
    set_message(state, 1, 0, [-1e-13, -1.0, -1.0])
    out = decide(state)
    assert out.symbols[1] == ERASED
    set_message(state, 1, 0, [-1e-11, -1.0, -1.0])
    assert decide(state).symbols[1] == 0


def test_decide_codeword_status():
    code = two_check_code()
    state = init_state(code, np.zeros((3, 3)), DecoderConfig(kappa=1.0))
    for i, j in code.edges:
        set_message(state, i, j, [-1.0, -1.0, -1.0])
    out = decide(state)
    assert out.symbols.tolist() == [0, 0, 0]
    assert out.status is Status.CODEWORD_FOUND


# ---- decode ----


def _noiseless_llr(code, sigma=0.3):
    cmap = qpsk()
    y = modulate(np.zeros(code.n, dtype=int), cmap)
    return compute_llr(y, cmap, sigma)


def test_decode_noiseless():
    code = ldpc80_z4()
    llr = _noiseless_llr(code)
    for kappa in (100.0, math.inf):
        out = decode(code, llr, DecoderConfig(max_iterations=100, kappa=kappa))
        assert out.status is Status.CODEWORD_FOUND
        assert not out.symbols.any()
        assert out.iterations_used == 1
        assert out.malformed_decisions == 0
        assert len(out.dual_objective_trace) == out.iterations_used + 1


def test_decode_trace_monotone():
    rng = np.random.default_rng(64)
    code = random_regular_code(n=12, m=6, row_degree=3, q=4, rng=rng)
    llr = rng.normal(0.5, 1.0, size=(12, 3))
    out = decode(code, llr, DecoderConfig(max_iterations=50, kappa=10.0))
    trace = np.array(out.dual_objective_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert out.status is Status.MAX_ITERATIONS
    assert out.iterations_used == 50
    assert out.malformed_decisions == 0


def test_decode_all_erased_on_symmetric_input():
    code = ldpc80_z4()
    out = decode(code, np.zeros((80, 3)),
                 DecoderConfig(max_iterations=2, kappa=math.inf))
    assert np.all(out.symbols == ERASED)
    assert out.status is Status.MAX_ITERATIONS


def test_decode_counts_and_propagates_malformed(monkeypatch):
    # malformed sweeps are counted and skipped; only a malformed final
    # decision surfaces.  The condition needs an exact sub-zero score tie,
    # so it is injected here rather than searched for.
    import qarylp.decoder as decoder_module

    code = ldpc80_z4()
    llr = _noiseless_llr(code)
    real = decoder_module._decide_symbols
    calls = {"n": 0}

    def flaky(state):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise MalformedDecision("variable 0: synthetic tie")
        return real(state)

    monkeypatch.setattr(decoder_module, "_decide_symbols", flaky)
    out = decode(code, llr, DecoderConfig(max_iterations=5, kappa=100.0))
    assert out.status is Status.CODEWORD_FOUND
    assert out.iterations_used == 3
    assert out.malformed_decisions == 2

    monkeypatch.setattr(
        decoder_module, "_decide_symbols",
        lambda state: (_ for _ in ()).throw(MalformedDecision("variable 0")),
    )
    with pytest.raises(MalformedDecision):
        decode(code, llr, DecoderConfig(max_iterations=2, kappa=100.0))


# ---- the fused sweep against the public per-edge path ----


def test_slot_bucket_rows_match_per_bucket_softmin():
    # a slot's buckets as one index matrix: each row lists the bucket's
    # words, then padding words scored +inf, and the row-wise soft minima
    # equal the per-bucket ones over the enumerate_spc words: bit for bit
    # on rows without padding, within 1e-12 on padded rows, +inf for a
    # bucket no word reaches
    rng = np.random.default_rng(40)
    codes = ((ldpc80_z4(), False), (random_regular_code(12, 4, 3, 8, rng), False),
             (ragged_code(), True))
    for code, padded in codes:
        cache = D._code_cache(code)
        # equal codebooks with even buckets get no padding at all
        assert np.isinf(cache.base_costs).any() == padded
        for j in (0, code.m - 1):
            words = enumerate_spc(code, j).words
            costs = rng.normal(0.0, 1.0, size=len(words)) * 10.0 ** rng.integers(
                -6, 7, size=len(words))
            row = np.full(cache.base_costs.shape[1], np.inf)
            row[:len(words)] = costs
            for t in range(words.shape[1]):
                mat = cache.buckets[j, t]
                if not padded:
                    assert mat.shape == (code.q, len(words) // code.q)
                for kappa in (1.0, 100.0, math.inf):
                    rows = D._softmin_rows(row[mat], kappa)
                    for beta in range(code.q):
                        members = np.flatnonzero(words[:, t] == beta)
                        np.testing.assert_array_equal(mat[beta, :len(members)], members)
                        assert np.all(mat[beta, len(members):] >= len(words))
                        if not len(members):
                            assert rows[beta] == math.inf
                            continue
                        if len(members) == mat.shape[1]:
                            assert rows[beta] == soft_min(costs[members], kappa)
                        else:
                            assert rows[beta] == pytest.approx(
                                soft_min(costs[members], kappa), rel=0, abs=1e-12)
                        assert rows[beta] == pytest.approx(softmin_bruteforce(
                            costs[members], kappa), rel=1e-12, abs=1e-12)


def test_vectorized_bookkeeping_matches_loops():
    rng = np.random.default_rng(41)
    for code in (random_regular_code(12, 6, 3, 4, rng), ragged_code()):
        for _ in range(4):
            llr = rng.normal(0.0, 2.0, size=(code.n, code.q - 1))
            state = init_state(code, llr, DecoderConfig(kappa=2.0))
            for i, j in code.edges:
                set_message(state, i, j, rng.normal(0.0, 1.5, size=code.q - 1))
            node_sum, check_costs = refresh_caches_loop(state)
            D._refresh_caches(state)
            np.testing.assert_array_equal(state.node_sum, node_sum)
            for j, costs in enumerate(check_costs):
                np.testing.assert_array_equal(state.check_costs[j, :len(costs)], costs)
                assert np.all(state.check_costs[j, len(costs):] == math.inf)
            np.testing.assert_array_equal(
                D._decide_symbols(state), decide_symbols_loop(state))


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_decode_matches_public_per_edge_path(kappa):
    ldpc = ldpc80_z4()
    ragged = ragged_code()
    # unequal codebooks and uneven buckets, so the sweep reads padding
    books = [enumerate_spc(ragged, j).words for j in range(ragged.m)]
    assert len({len(words) for words in books}) > 1
    assert any(np.ptp(np.bincount(words[:, t], minlength=ragged.q))
               for words in books for t in range(words.shape[1]))
    rng = np.random.default_rng(42)
    cases = [(ldpc, llr) for llr in awgn_frames(ldpc, 3.0, 2, seed=43)]
    cases += [(ragged, rng.normal(0.3, 1.5, size=(ragged.n, ragged.q - 1)))
              for _ in range(3)]
    config = DecoderConfig(max_iterations=15, kappa=kappa)
    for code, llr in cases:
        got = decode(code, llr, config)
        want = decode_reference(code, llr, config)
        assert np.array_equal(got.symbols, want.symbols)
        assert got.status == want.status
        assert got.iterations_used == want.iterations_used
        assert got.dual_objective_trace == want.dual_objective_trace
        assert got.malformed_decisions == want.malformed_decisions
