import copy
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qarylp import decoder as D
from qarylp.channel import awgn_sample, compute_llr, ebno_to_sigma, modulate, psk
from qarylp.codes import (
    TannerCode,
    enumerate_spc,
    ldpc80_z4,
    random_regular_code,
    read_check_matrix,
)
from qarylp.decoder import (
    ERASED,
    DecoderConfig,
    DimensionMismatch,
    EmptyList,
    MalformedDecision,
    NonFiniteLLR,
    Status,
    decode,
    dual_objective,
    init_state,
    soft_min,
    update_edge_hard,
    update_edge_soft,
)

from oracles import (
    central_difference_gradient,
    check_edges,
    compute_c_terms,
    compute_v_terms,
    coordinate_grid_max,
    decide,
    decide_symbols_loop,
    decode_reference,
    local_function,
    local_word_scores,
    merged_slot_ext,
    node_sum_loop,
    potentials,
    refresh_node_sum,
    set_message,
    slot_buckets_bruteforce,
    softmin_bruteforce,
    softmin_libm,
    softmin_masked,
    softmin_rows_loop,
    variable_edges,
)

Z8_CODE = Path(__file__).resolve().parents[1] / "perfbench" / "codes" / "ldpc80_z8.txt"


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


def zero_divisor_codes():
    # Z_6 with coefficients 2 and 3 and Z_8 with 4, zero divisors: some
    # slots reach only some symbols, so buckets are uneven or empty
    return (
        TannerCode(q=6, n=5, rows=(
            ((0, 2), (1, 3), (2, 1)),
            ((1, 1), (2, 2), (3, 3), (4, 1)),
            ((0, 3), (4, 2)),
        )),
        TannerCode(q=8, n=5, rows=(
            ((0, 4), (1, 1), (2, 2)),
            ((0, 1), (2, 1), (3, 2), (4, 4)),
            ((1, 4), (3, 4), (4, 1)),
        )),
    )


def trellis_buckets(state, j, t):
    """Slot t's bucket row of check j from the decoder's trellis: the
    sweep's wave steps replayed up to the slot's wave, nothing written."""
    e = check_edges(state.code, j)[t]
    with np.errstate(divide="ignore"):
        ext, _, _ = D._edge_ext(state, *state.code.edges[e])
    return np.concatenate(([0.0], state.messages[e])) + ext


def mixed_degree_code():
    # checks 0 and 1 share no variable, so their slots share waves;
    # check 2 meets both
    return TannerCode(q=4, n=7, rows=(
        ((0, 1), (1, 2)),
        ((2, 1), (3, 3), (4, 2)),
        ((0, 3), (2, 1), (5, 2), (6, 1)),
    ))


def star_code(m=5):
    # every check holds variable 0, so each check's first slot waits for
    # the previous check's
    return TannerCode(q=4, n=m + 1,
                      rows=tuple(((0, 1), (j + 1, 3)) for j in range(m)))


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


@pytest.mark.parametrize("kappa", [1.0, 100.0, 1e3])
def test_softmin_rows_matches_list_form(kappa):
    # the vectorized log step gives the list form's bits, all-+inf rows
    # (empty buckets) included; the decoder's digests rest on it.  The
    # decoder reduces over a leading axis, so it is given the rows as
    # columns
    rng = np.random.default_rng(18)
    # enough rows that a log differing in the last bit on a fraction of a
    # percent of its inputs would show
    rows = rng.normal(0.0, 3.0, size=(20000, 8)) / kappa
    rows[rng.random(rows.shape) < 0.3] = math.inf
    rows[::7] = math.inf
    # the public entries silence log 0's divide warning, as here
    with np.errstate(divide="ignore"):
        got = D._softmin(np.ascontiguousarray(rows.T), kappa)
    want = softmin_rows_loop(rows.copy(), kappa)
    assert np.isinf(got[::7]).all()
    assert np.array_equal(got, want)


def test_np_log_within_one_ulp_of_math_log():
    # the soft minimum takes its logs with np.log, which may differ from the
    # C library's math.log; the move rests on the two never differing by
    # more than one ulp on column totals, which lie in [1, number of terms]
    totals = np.random.default_rng(64).uniform(1.0, 64.0, 100_000)
    got = np.log(totals)
    want = np.array([math.log(t) for t in totals.tolist()])
    # both logs are >= 0 here, so their bit patterns order like their values
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1


@pytest.mark.parametrize("kappa", [1.0, 100.0])
def test_np_log_decodes_as_math_log(monkeypatch, kappa):
    # np.log in the soft minimum moves trace last bits only: against
    # math.log column by column, every frame keeps its symbols, status,
    # sweeps and malformed count, and its trace agrees to 1e-13
    config = DecoderConfig(max_iterations=30, kappa=kappa)
    for code, ebno in ((ldpc80_z4(), 3.0), (read_check_matrix(Z8_CODE), 6.0)):
        frames = awgn_frames(code, ebno, 20, seed=18)
        new = [decode(code, llr, config) for llr in frames]
        with monkeypatch.context() as patch:
            patch.setattr(D, "_softmin", softmin_libm)
            old = [decode(code, llr, config) for llr in frames]
        for a, b in zip(new, old):
            np.testing.assert_array_equal(a.symbols, b.symbols)
            assert a.status is b.status
            assert a.iterations_used == b.iterations_used
            assert a.malformed_decisions == b.malformed_decisions
            np.testing.assert_allclose(a.dual_objective_trace,
                                       b.dual_objective_trace,
                                       rtol=1e-13, atol=0)


@pytest.mark.parametrize("kappa", [1e-3, 1.0, 100.0, 1e3, math.inf])
def test_softmin_matches_masked_form(kappa):
    # an empty column reaches +inf through log 0 = -inf with the same bits
    # as the masked form, which logged 1 and then wrote +inf
    rng = np.random.default_rng(21)
    rows = rng.normal(0.0, 3.0, size=(20000, 8))
    if math.isfinite(kappa):
        rows /= kappa
    rows[rng.random(rows.shape) < 0.3] = math.inf
    rows[::7] = math.inf
    terms = np.ascontiguousarray(rows.T)
    with np.errstate(divide="ignore"):
        got = D._softmin(terms.copy(), kappa)
    want = softmin_masked(terms.copy(), kappa)
    assert np.isinf(got[::7]).all()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_masked_softmin_decodes_the_same(monkeypatch, kappa):
    # decode with the masked soft minimum patched in returns the same
    # symbols, status, sweeps, malformed count and trace bits.
    # decode_reference shares _softmin, so it cannot show such a change
    rng = np.random.default_rng(22)
    z6 = random_regular_code(18, 6, 4, 6, rng, unit_entries=False)
    assert any(math.gcd(int(h), 6) > 1 for h in np.concatenate(z6.row_vals))
    cases = [(z6, rng.normal(0.3, 1.5, size=(z6.n, z6.q - 1)))
             for _ in range(4)]
    small = zero_divisor_codes()[0]
    cases += [(small, rng.normal(0.3, 1.5, size=(small.n, small.q - 1)))
              for _ in range(4)]
    if kappa != math.inf:
        ldpc = ldpc80_z4()
        cases += [(ldpc, llr) for llr in awgn_frames(ldpc, 3.0, 12, seed=21)]
    if kappa != 1.0:
        z8 = read_check_matrix(Z8_CODE)
        cases += [(z8, llr) for llr in awgn_frames(z8, 6.0, 8, seed=21)]
    config = DecoderConfig(max_iterations=30, kappa=kappa)
    new = [decode(code, llr, config) for code, llr in cases]
    with monkeypatch.context() as patch:
        patch.setattr(D, "_softmin", softmin_masked)
        old = [decode(code, llr, config) for code, llr in cases]
    for a, b in zip(new, old):
        assert np.array_equal(a.symbols, b.symbols)
        assert a.status is b.status
        assert a.iterations_used == b.iterations_used
        assert a.malformed_decisions == b.malformed_decisions
        assert a.dual_objective_trace == b.dual_objective_trace


def test_public_entries_keep_the_callers_error_settings():
    # the Z_6 code has empty buckets, so a trellis pass takes log 0; the
    # public entries raise nothing under a caller's errstate(all="raise")
    # and leave its settings as they were
    code = zero_divisor_codes()[0]
    llr = np.random.default_rng(23).normal(0.3, 1.5, size=(code.n, code.q - 1))
    state = init_state(code, llr, DecoderConfig(kappa=100.0))
    with np.errstate(all="raise"):
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            D._trellis(state.messages, state.kappa, state.cache)
        decode(code, llr, DecoderConfig(max_iterations=5, kappa=100.0))
        dual_objective(state)
        update_edge_soft(state, *code.edges[0])
        hard = init_state(code, llr, DecoderConfig(kappa=math.inf))
        update_edge_hard(hard, *code.edges[0])
        assert soft_min([math.inf, math.inf], 1.0) == math.inf
        assert np.geterr() == before


def test_soft_min_rejects_bad_input():
    with pytest.raises(EmptyList):
        soft_min([], 1.0)
    with pytest.raises(ValueError):
        soft_min([1.0], 0.0)
    with pytest.raises(ValueError):
        soft_min([1.0], -2.0)
    for kappa in (100.0, math.inf):
        with pytest.raises(ValueError, match="NaN"):
            soft_min([math.nan, 1.0], kappa)
        with pytest.raises(ValueError, match="NaN"):
            soft_min([1.0, -math.inf, math.nan], kappa)


# ---- config ----


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(max_iterations=0)
    with pytest.raises(ValueError):
        DecoderConfig(kappa=0.0)
    with pytest.raises(ValueError):
        DecoderConfig(kappa=-1.0)
    DecoderConfig(kappa=math.inf)  # allowed


# bool is an Integral, but True is no sweep budget
@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])
def test_config_refuses_non_integer_max_iterations(bad):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        DecoderConfig(max_iterations=bad)


def test_config_refuses_bool_kappa():
    # soft_min refuses the same kappas through the same check
    for bad in (True, "3", None):
        with pytest.raises(ValueError, match="kappa must be a number"):
            DecoderConfig(kappa=bad)
        with pytest.raises(ValueError, match="kappa must be a number"):
            soft_min([1.0, 2.0], bad)


# ---- init_state ----


def test_init_state_channel_slots():
    code = two_check_code()
    llr = np.arange(9, dtype=float).reshape(3, 3)
    state = init_state(code, llr, DecoderConfig(kappa=2.0))
    # with no message yet, node_sum is the channel slot alone
    np.testing.assert_array_equal(state.node_sum, -llr)
    assert not state.messages.any()

    again = init_state(code, llr, DecoderConfig(kappa=2.0))
    for mine, theirs in zip(potentials(again), potentials(state)):
        np.testing.assert_array_equal(mine, theirs)


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


def test_decode_degree_12_z8_check():
    # one degree-12 check over Z_8 has 8^11 local words, more than
    # enumerate_spc lists; the trellis decoder enumerates none of them
    code = TannerCode(q=8, n=12, rows=(tuple((i, 1) for i in range(12)),))
    cmap = psk(8)
    llr = compute_llr(modulate(np.zeros(12, dtype=np.int64), cmap), cmap, 0.5)
    start = time.perf_counter()
    for kappa in (100.0, math.inf):
        out = decode(code, llr, DecoderConfig(kappa=kappa))
        assert out.status is Status.CODEWORD_FOUND
        assert not out.symbols.any()
    assert time.perf_counter() - start < 1.0


def test_init_state_zero_llr_dual_values():
    code = ldpc80_z4()
    hard = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=math.inf))
    assert dual_objective(hard) == pytest.approx(0.0, abs=1e-12)

    soft = init_state(code, np.zeros((80, 3)), DecoderConfig(kappa=1.0))
    expected = -80.0 * math.log(4.0) - 32.0 * math.log(256.0)
    assert dual_objective(soft) == pytest.approx(expected, abs=1e-9)
    phi, theta = potentials(soft)
    assert phi[0] == pytest.approx(-math.log(4.0), abs=1e-12)
    assert theta[0] == pytest.approx(-math.log(256.0), abs=1e-12)


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
            e = code.edges.index((i, j))
            slots = list(code.columns[i])
            # full score of the constant-b word, channel slot included
            def full(b):
                total = -state.llr[i, b - 1]
                for j2 in slots:
                    total += state.messages[code.edges.index((i, j2)), b - 1]
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
            e = code.edges.index((i, j))
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
        e = code.edges.index((i, j))
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
        e = code.edges.index((i, j))
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
        e = code.edges.index((i, j))
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


@pytest.mark.parametrize("kappa", [100.0, math.inf])
def test_update_refuses_a_pair_that_is_no_edge(kappa):
    # variable 0 is not in check 5: the update names the pair and writes
    # nothing
    code = ldpc80_z4()
    assert (0, 5) not in code.edges
    rng = np.random.default_rng(37)
    state = init_state(code, rng.normal(0.0, 1.5, size=(code.n, code.q - 1)),
                       DecoderConfig(kappa=kappa))
    state.messages[:] = rng.normal(0.0, 2.0, size=state.messages.shape)
    refresh_node_sum(state)
    messages, node_sum = state.messages.copy(), state.node_sum.copy()
    update = update_edge_hard if math.isinf(kappa) else update_edge_soft
    with pytest.raises(ValueError, match=r"^\(0, 5\) is not an edge"):
        update(state, 0, 5)
    assert np.array_equal(state.messages, messages)
    assert np.array_equal(state.node_sum, node_sum)


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
            node_sum = -state.llr[i] + state.messages[mine].sum(axis=0)
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
    # after an edge update, the potentials that dual_objective sums sit at
    # their bounds: phi_i at the soft minimum of variable i's constant-word
    # scores and theta_j at that of check j's local-word scores
    rng = np.random.default_rng(37)
    code, state = random_state(5.0, rng)
    i, j = code.edges[1]
    update_edge_soft(state, i, j)
    phi, theta = potentials(state)
    assert dual_objective(state) == float(phi.sum() + theta.sum())
    scores = np.concatenate(([0.0], -state.node_sum[i]))
    assert phi[i] == pytest.approx(soft_min(scores, 5.0), abs=1e-12)
    _, word_scores = local_word_scores(state, j)
    assert theta[j] == pytest.approx(
        softmin_bruteforce(word_scores, 5.0), rel=1e-12, abs=1e-12)


def test_set_message_keeps_caches_consistent():
    rng = np.random.default_rng(38)
    code, state = random_state(2.0, rng)
    fresh = copy.deepcopy(state)
    refresh_node_sum(fresh)
    np.testing.assert_allclose(fresh.node_sum, state.node_sum, atol=1e-9)
    # every theta, derived from the messages set, is tight
    _, theta = potentials(state)
    for j in range(code.m):
        _, scores = local_word_scores(state, j)
        assert theta[j] == pytest.approx(
            softmin_bruteforce(scores, 2.0), rel=1e-12, abs=1e-12)


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


@pytest.mark.parametrize("q", [4, 8])
def test_decide_symbols_matches_argsort_form(q):
    # argmin, min and a count of the scores within _DECISION_ZERO_TOL of
    # the best give the symbols, erasures and MalformedDecision of a stable
    # sort's first and second entries, on scores with exact ties, ties
    # inside and just outside the tolerance, and ties below zero
    rng = np.random.default_rng(40 + q)
    code = random_regular_code(12, 6, 3, q, rng)
    # zero messages, so each variable's scores are its llr row
    state = init_state(code, np.zeros((code.n, q - 1)),
                       DecoderConfig(kappa=math.inf))
    tol = D._DECISION_ZERO_TOL
    near_zero = [0.0, -0.0, 0.4 * tol, -0.4 * tol, tol, -tol, 3 * tol,
                 -3 * tol]
    below_zero = [-1.0, -1.0 + 0.4 * tol, -1.0 + tol, -1.0 + 3 * tol]
    outcomes = {"malformed": 0, "erased": 0, "decided": 0}
    for trial in range(400):
        scores = rng.normal(0.0, 1.0, size=(code.n, q - 1))
        # every other trial also holds ties below zero, hence malformed
        for values, share in ((near_zero, 0.3),
                              (below_zero, 0.15 * (trial % 2))):
            pick = rng.random(scores.shape) < share
            scores[pick] = rng.choice(values, size=pick.sum())
        state.llr = scores
        slot_scores = state.llr - D._message_sums(state)
        try:
            want = decide_symbols_loop(state)
        except MalformedDecision as err:
            with pytest.raises(MalformedDecision) as got:
                D._decide_symbols(slot_scores)
            assert str(got.value) == str(err)
            outcomes["malformed"] += 1
            continue
        np.testing.assert_array_equal(D._decide_symbols(slot_scores), want)
        outcomes["erased"] += int(np.sum(want == ERASED))
        outcomes["decided"] += int(np.sum(want > 0))
    assert min(outcomes.values()) > 50, outcomes


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
    cmap = psk(4)
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
    # a slot's bucket row from the trellis (its message plus the extrinsic
    # row of check j's replayed kernel) against per-bucket soft minima over
    # the enumerate_spc word scores, with messages spread over 13 decades;
    # a bucket no word reaches is +inf
    rng = np.random.default_rng(40)
    z32 = random_regular_code(12, 4, 3, 32, rng, unit_entries=False)
    assert any(math.gcd(int(h), 32) > 1 for h in np.concatenate(z32.row_vals))
    codes = (ldpc80_z4(), random_regular_code(12, 4, 3, 8, rng), ragged_code(),
             random_regular_code(12, 4, 3, 16, rng), z32)
    for code in codes:
        for kappa in (1.0, 100.0, math.inf):
            state = init_state(code, np.zeros((code.n, code.q - 1)),
                               DecoderConfig(kappa=kappa))
            shape = state.messages.shape
            state.messages[:] = (rng.normal(size=shape)
                                 * 10.0 ** rng.integers(-6, 7, size=shape))
            for j in (0, code.m - 1):
                # the summation order differs, so allow rounding at the
                # scale of the largest message sum
                scale = np.abs(state.messages[check_edges(code, j)]).sum()
                for t in range(len(code.rows[j])):
                    np.testing.assert_allclose(
                        trellis_buckets(state, j, t),
                        slot_buckets_bruteforce(state, j, t),
                        rtol=1e-12, atol=1e-15 * scale)


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_slot_ext_matches_merged_step(kappa):
    # every slot's extrinsic row against the merged (2q, q^2) step, which
    # takes each soft minimum over every (prefix syndrome, symbol) pair at
    # once: the same terms grouped by syndrome, so the same bits under
    # hard minima and the last bits otherwise
    rng = np.random.default_rng(50)
    z8 = random_regular_code(16, 6, 4, 8, rng, unit_entries=False)
    assert any(math.gcd(int(h), 8) > 1 for h in np.concatenate(z8.row_vals))
    codes = (ldpc80_z4(), read_check_matrix(Z8_CODE), *zero_divisor_codes(), z8)
    for code in codes:
        state = init_state(code, rng.normal(0.3, 1.5, size=(code.n, code.q - 1)),
                           DecoderConfig(kappa=kappa))
        state.messages[:] = rng.normal(0.0, 2.0, size=state.messages.shape)
        for j in range(code.m):
            for t in range(len(code.rows[j])):
                with np.errstate(divide="ignore"):
                    got, _, _ = D._edge_ext(state, int(code.row_cols[j][t]), j)
                want = merged_slot_ext(state, j, t)
                if math.isinf(kappa):
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def cache_nbytes(value):
    """Bytes of the arrays in value, searched through lists and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(map(cache_nbytes, value))
    return 0


def test_code_cache_is_quadratic_in_q():
    # a kernel step gathers O(q^2) offsets per edge: at q = 64 the
    # decoder's per-code arrays, wave steps included, stay under 4 MiB
    code = random_regular_code(24, 6, 4, 64, np.random.default_rng(1))
    cache = D._code_cache(code)
    total = sum(map(cache_nbytes, vars(cache).values()))
    assert 0 < total < 4 << 20


@pytest.mark.parametrize("q", [16, 32])
@pytest.mark.parametrize("unit_entries", [True, False])
def test_large_ring_sweeps_ascend(q, unit_entries):
    # 20 full sweeps at kappa = 100 never lower the smoothed dual; every
    # variable sits in three checks, so no sweep reaches a codeword
    rng = np.random.default_rng(51 + q)
    code = random_regular_code(16, 12, 4, q, rng, unit_entries=unit_entries)
    llr = rng.normal(0.0, 1.0, size=(code.n, q - 1))
    out = decode(code, llr, DecoderConfig(max_iterations=20, kappa=100.0))
    assert out.status is Status.MAX_ITERATIONS
    assert out.iterations_used == 20
    trace = np.array(out.dual_objective_trace)
    assert np.all(np.diff(trace) >= -1e-9 * max(1.0, np.abs(trace).max()))


def test_vectorized_bookkeeping_matches_loops():
    rng = np.random.default_rng(41)
    for code in (random_regular_code(12, 6, 3, 4, rng), ragged_code()):
        for _ in range(4):
            llr = rng.normal(0.0, 2.0, size=(code.n, code.q - 1))
            state = init_state(code, llr, DecoderConfig(kappa=2.0))
            for i, j in code.edges:
                set_message(state, i, j, rng.normal(0.0, 1.5, size=code.q - 1))
            node_sum = node_sum_loop(state)
            refresh_node_sum(state)
            np.testing.assert_array_equal(state.node_sum, node_sum)
            # the all-checks suffix pass gives every check's theta
            with np.errstate(divide="ignore"):
                suffix = D._trellis(state.messages, 2.0, state.cache)
            for j in range(code.m):
                _, scores = local_word_scores(state, j)
                assert suffix[j, 0, 0] == pytest.approx(
                    softmin_bruteforce(scores, 2.0), rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(
                decide(state).symbols, decide_symbols_loop(state))


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_suffix_pass_matches_per_check_pass(kappa):
    # one pass vectorized over all checks gives each check the bits of the
    # pass of a code holding that check alone, and its padding slots after
    # the last are identity sections; decode() and the per-edge replay
    # rely on it
    rng = np.random.default_rng(45)
    codes = (ldpc80_z4(), ragged_code(), *zero_divisor_codes(),
             random_regular_code(32, 4, 8, 16, rng))
    for code in codes:
        state = init_state(code, np.zeros((code.n, code.q - 1)),
                           DecoderConfig(kappa=kappa))
        state.messages[:] = rng.normal(0.0, 2.0, size=state.messages.shape)
        with np.errstate(divide="ignore"):
            whole = D._trellis(state.messages, kappa, state.cache)
            for j in range(code.m):
                single = TannerCode(q=code.q, n=code.n, rows=(code.rows[j],))
                alone = D._trellis(state.messages[check_edges(code, j)],
                                   kappa, D._CodeCache(single))[0]
                degree = len(code.rows[j])
                assert np.array_equal(whole[j, :degree + 1], alone)
                assert np.all(whole[j, degree:] == alone[-1])


def schedule_codes():
    rng = np.random.default_rng(48)
    codes = [ragged_code(), mixed_degree_code(), star_code(), ldpc80_z4(),
             read_check_matrix(Z8_CODE)]
    return codes + [
        random_regular_code(n, m, d, q, rng, unit_entries=False)
        for n, m, d, q in ((12, 6, 3, 4), (24, 8, 6, 6), (10, 9, 4, 8),
                           (30, 10, 5, 4), (8, 12, 2, 3), (12, 4, 3, 32))]


def step_ids(step, q):
    """(edges, variables, carried prefix rows) of a kernel step, read off
    its flat offsets into messages, node_sum and the prefix buffer."""
    return (step.messages[:, 0] // (q - 1), step.node_sum[:, 0] // (q - 1),
            step.carry[:, 0] // q)


def test_wave_plan_is_a_conflict_free_check_major_schedule():
    # every edge in exactly one wave; no two edges of a wave share a check
    # or a variable; each edge's wave comes after those of its check's
    # previous slot and of its variable's previous edge in check-major
    # order; the edges whose check has a later slot come first, and their
    # checks' prefixes are the ones carried on
    for code in schedule_codes():
        cache = D._code_cache(code)
        wave = np.full(cache.n_edges, -1)
        for k, step in enumerate(cache.steps):
            edges, variables, carry = step_ids(step, code.q)
            assert np.all(wave[edges] == -1)
            wave[edges] = k
            checks = [code.edges[e][1] for e in edges]
            assert len(set(checks)) == len(checks)
            assert variables.tolist() == [code.edges[e][0] for e in edges]
            assert len(set(variables.tolist())) == len(variables)
            later = [int(cache.edge_slot[e]) < len(code.rows[j]) - 1
                     for e, j in zip(edges, checks)]
            assert later == sorted(later, reverse=True)
            assert carry.tolist() == checks[:sum(later)]
        assert np.all(wave >= 0)
        for j in range(code.m):
            assert np.all(np.diff(wave[check_edges(code, j)]) > 0)
        for i in range(code.n):
            assert np.all(np.diff(wave[variable_edges(code, i)]) > 0)
    # slot 0 of check j waits for slot 0 of check j - 1
    assert len(D._code_cache(star_code()).steps) == 6
    steps = D._code_cache(mixed_degree_code()).steps
    # each wave lists last slots (edges 1 and 4) after the others
    assert [step_ids(step, 4)[0].tolist() for step in steps] == [
        [0, 2], [3, 5, 1], [6, 4], [7], [8]]
    # the bench graph (over Z_4 and Z_8): 13 kernel steps per sweep
    for code in (ldpc80_z4(), read_check_matrix(Z8_CODE)):
        assert len(D._code_cache(code).steps) == 13
    # the wave count grows slowly with n: 20 at n = 48
    big = random_regular_code(3072, 1536, 6, 4, np.random.default_rng(1))
    assert len(D._CodeCache(big).steps) <= 30


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_wave_visit_matches_check_by_check(kappa):
    # one sweep, wave by wave, against the same sweep replaying the checks
    # one at a time in check-major order, each slot a wave of its own:
    # messages and node_sum equal bit for bit
    rng = np.random.default_rng(49)
    codes = (ldpc80_z4(), ragged_code(), mixed_degree_code(),
             *zero_divisor_codes(), star_code(),
             random_regular_code(24, 8, 6, 6, rng, unit_entries=False),
             read_check_matrix(Z8_CODE))
    for code in codes:
        llr = rng.normal(0.3, 1.5, size=(code.n, code.q - 1))
        state = init_state(code, llr, DecoderConfig(kappa=kappa))
        state.messages[:] = rng.normal(0.0, 2.0, size=state.messages.shape)
        refresh_node_sum(state)
        alone = copy.deepcopy(state)
        cache = state.cache
        with np.errstate(divide="ignore"):
            suffix = D._trellis(state.messages, kappa, cache)
            D._visit_waves(state, cache.steps, suffix)
            for j in range(code.m):
                slots = cache.check_edges[j, :len(code.rows[j]), None]
                D._visit_waves(alone, cache.plan(slots), suffix)
        assert np.array_equal(state.messages, alone.messages)
        assert np.array_equal(state.node_sum, alone.node_sum)


def test_decode_ignores_check_orders_that_keep_shared_variables():
    # the wave schedule rests on this: reordering the checks, so that any
    # two checks sharing a variable keep their relative order, changes no
    # edge update.  One sweep gives the same messages bit for bit, matched
    # by (variable, check); decode gives the same symbols, status and
    # iterations, and the trace only moves by theta's summation order
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(shape=st.sampled_from([(12, 6, 3, 4, True),
                                             (24, 8, 6, 6, False),
                                             (10, 9, 4, 8, False),
                                             (30, 10, 5, 4, True),
                                             (16, 6, 4, 16, True)]),
                      kappa=st.sampled_from([1.0, 100.0, math.inf]),
                      seed=st.integers(0, 2**32 - 1))
    def check(shape, kappa, seed):
        n, m, d, q, unit = shape
        rng = np.random.default_rng(seed)
        code = random_regular_code(n, m, d, q, rng, unit_entries=unit)
        cols = [set(c.tolist()) for c in code.row_cols]
        # a random order in which every check follows the earlier checks
        # it shares a variable with
        order = []
        for _ in range(m):
            ready = [j for j in range(m) if j not in order and all(
                k in order for k in range(j) if cols[j] & cols[k])]
            order.append(ready[rng.integers(len(ready))])
        moved = TannerCode(q=q, n=n, rows=tuple(code.rows[j] for j in order))
        position = np.argsort(order)
        same = [moved.edges.index((i, position[j])) for i, j in code.edges]
        llr = rng.normal(0.3, 1.5, size=(n, q - 1))
        config = DecoderConfig(max_iterations=12, kappa=kappa)
        messages = rng.normal(0.0, 2.0, size=(len(code.edges), q - 1))
        swept = []
        for c, rows in ((code, messages), (moved, np.empty_like(messages))):
            state = init_state(c, llr, config)
            rows[same] = messages
            state.messages[:] = rows
            refresh_node_sum(state)
            with np.errstate(divide="ignore"):
                D._visit_waves(state, state.cache.steps,
                               D._trellis(state.messages, kappa, state.cache))
            swept.append(state.messages)
        assert np.array_equal(swept[0], swept[1][same])
        base, out = decode(code, llr, config), decode(moved, llr, config)
        assert np.array_equal(out.symbols, base.symbols)
        assert out.status == base.status
        assert out.iterations_used == base.iterations_used
        assert out.malformed_decisions == base.malformed_decisions
        np.testing.assert_allclose(out.dual_objective_trace,
                                   base.dual_objective_trace, rtol=1e-12)

    check()


@pytest.mark.parametrize("kappa", [1.0, 100.0, math.inf])
def test_trellis_matches_codebook_oracle(kappa):
    # buckets, theta and the C terms from the trellis against soft minima
    # over enumerate_spc words; then one update per edge, where a symbol
    # that no local word puts in the edge's slot gets exactly -1e18
    rng = np.random.default_rng(46)
    update = update_edge_hard if math.isinf(kappa) else update_edge_soft
    empty = 0
    for code in (ragged_code(), *zero_divisor_codes()):
        llr = rng.normal(0.3, 1.5, size=(code.n, code.q - 1))
        state = init_state(code, llr, DecoderConfig(kappa=kappa))
        for i, j in code.edges:
            set_message(state, i, j, rng.normal(0.0, 1.5, size=code.q - 1))
        _, theta = potentials(state)
        for j in range(code.m):
            words, scores = local_word_scores(state, j)
            assert theta[j] == pytest.approx(
                softmin_bruteforce(scores, kappa), rel=1e-12, abs=1e-12)
            for t, e in enumerate(check_edges(code, j)):
                want = slot_buckets_bruteforce(state, j, t)
                np.testing.assert_allclose(trellis_buckets(state, j, t), want,
                                           rtol=1e-12, atol=1e-12)
                for alpha in range(1, code.q):
                    c_bar, c_eq = compute_c_terms(state, j, code.edges[e][0], alpha)
                    mask = words[:, t] == alpha
                    assert c_bar == pytest.approx(
                        -softmin_bruteforce(scores[~mask], kappa), rel=1e-12, abs=1e-12)
                    if mask.any():
                        assert c_eq == pytest.approx(-softmin_bruteforce(
                            scores[mask] - state.messages[e, alpha - 1], kappa),
                            rel=1e-12, abs=1e-12)
                    else:
                        assert c_eq == -math.inf
        for e, (i, j) in enumerate(code.edges):
            want = slot_buckets_bruteforce(state, j, check_edges(code, j).index(e))
            update(state, i, j)
            for b in np.flatnonzero(want[1:] == math.inf):
                assert state.messages[e, b] == -1e18
                empty += 1
    # unreachable nonzero symbols per slot: ragged check 0 slot 0 misses 2;
    # Z_6 check 2 misses 3 in slot 0 and 4 in slot 1; Z_8 check 0 misses
    # 4 in slot 1 and check 2 misses 6 in slot 2
    assert empty == 2 + 3 + 4 + 4 + 6


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
    # the Z_8 bench code and a Z_6 code with zero-divisor coefficients
    z8 = read_check_matrix(Z8_CODE)
    cases += [(z8, llr) for llr in awgn_frames(z8, 6.0, 2, seed=44)]
    z6 = random_regular_code(18, 6, 4, 6, rng, unit_entries=False)
    assert any(math.gcd(int(h), 6) > 1 for h in np.concatenate(z6.row_vals))
    cases += [(z6, rng.normal(0.3, 1.5, size=(z6.n, z6.q - 1)))
              for _ in range(2)]
    # no check covers variable 4, so its var_edges row is all padding and
    # its decision is its cheapest symbol
    uncovered = TannerCode(q=4, n=5, rows=(((0, 1), (1, 3), (2, 1)),
                                           ((1, 1), (2, 1), (3, 3))))
    assert not uncovered.columns[4]
    for _ in range(3):
        llr = rng.normal(0.3, 1.5, size=(uncovered.n, uncovered.q - 1))
        llr[4] = -np.abs(llr[4])
        cases.append((uncovered, llr))
    config = DecoderConfig(max_iterations=15, kappa=kappa)
    for code, llr in cases:
        got = decode(code, llr, config)
        want = decode_reference(code, llr, config)
        if code is uncovered:
            assert got.symbols[4] == np.argmin(llr[4]) + 1
        assert np.array_equal(got.symbols, want.symbols)
        assert got.status == want.status
        assert got.iterations_used == want.iterations_used
        assert got.dual_objective_trace == want.dual_objective_trace
        assert got.malformed_decisions == want.malformed_decisions
