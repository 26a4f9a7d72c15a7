import math
import time

import numpy as np
import pytest

from oracles import codewords_bruteforce, lp_vertex_enumeration
from qarylp.channel import awgn_sample, compute_llr, modulate, psk
from qarylp.codes import TannerCode, ldpc80_z4, random_regular_code
from qarylp.decoder import (
    ERASED,
    DecoderConfig,
    NonFiniteLLR,
    Status,
    dual_objective,
    init_state,
    update_edge_soft,
)
from qarylp.lp import (
    BudgetExceeded,
    CycleGuardTripped,
    FactorPoint,
    InfeasibleInput,
    LinearProgram,
    MarginalPoint,
    SolveStatus,
    TooLarge,
    build_decoding_lp,
    check_factor,
    check_marginal,
    codeword_vertex,
    factor_to_marginal,
    lp_cost,
    lp_decode_exact,
    marginal_to_factor,
    ml_bruteforce,
    simplex_solve,
)


def single_check_code():
    return TannerCode(q=4, n=2, rows=(((0, 1), (1, 1)),))


def four_cycle_code():
    # two checks on the same pair of variables: codewords (0,0) and (2,2)
    return TannerCode(q=4, n=2, rows=(((0, 1), (1, 1)), ((0, 1), (1, 3))))


def word_cost(llr, word):
    lam = np.asarray(llr)
    w = np.asarray(word)
    nz = np.flatnonzero(w)
    return float(lam[nz, w[nz] - 1].sum())


# ---- LinearProgram validation ----


def test_linear_program_shape_mismatch():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], A=[[1.0, 2.0]], b=[1.0], names=("a", "b"))
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0, 2.0],
                      names=("a", "b"))


def test_linear_program_duplicate_names():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0], names=("a", "a"))


def test_linear_program_nonfinite():
    with pytest.raises(ValueError):
        LinearProgram(c=[math.inf, 2.0], A=[[1.0, 2.0]], b=[1.0],
                      names=("a", "b"))


# ---- simplex core ----


def test_simplex_textbook_optimum():
    # max 3x + 2y s.t. x + y <= 4, x <= 2 with slacks; optimum (2, 2)
    lp = LinearProgram(
        c=[-3.0, -2.0, 0.0, 0.0],
        A=[[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]],
        b=[4.0, 2.0],
        names=("x", "y", "s1", "s2"),
    )
    res = simplex_solve(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == pytest.approx(-10.0, abs=1e-9)
    assert res.x[:2] == pytest.approx([2.0, 2.0], abs=1e-9)


def test_simplex_infeasible():
    lp = LinearProgram(c=[1.0], A=[[1.0]], b=[-1.0], names=("x",))
    res = simplex_solve(lp)
    assert res.status is SolveStatus.INFEASIBLE
    assert math.isnan(res.value)


def test_simplex_unbounded():
    lp = LinearProgram(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[0.0],
                       names=("x", "y"))
    res = simplex_solve(lp)
    assert res.status is SolveStatus.UNBOUNDED


def test_simplex_degenerate_terminates():
    # Beale's degenerate program; Bland and the hybrid rule must both finish
    lp = LinearProgram(
        c=[0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0],
        A=[
            [1.0, 0.0, 0.0, 0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ],
        b=[0.0, 0.0, 1.0],
        names=tuple(f"x{k}" for k in range(7)),
    )
    expected, _ = lp_vertex_enumeration(lp.c, lp.A, lp.b)
    for rule in ("bland", "dantzig_bland"):
        res = simplex_solve(lp, pivot_rule=rule)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == pytest.approx(expected, abs=1e-9)


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        A1 = rng.normal(size=(k, n))
        x0 = rng.uniform(0.0, 2.0, size=n)
        # appending a fixed coordinate sum keeps the feasible set bounded
        A = np.vstack([A1, np.ones(n)])
        b = np.concatenate([A1 @ x0, [x0.sum()]])
        c = rng.normal(size=n)
        expected, _ = lp_vertex_enumeration(c, A, b)
        lp = LinearProgram(c=c, A=A, b=b,
                           names=tuple(f"x{t}" for t in range(n)))
        res = simplex_solve(lp)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == pytest.approx(expected, abs=1e-7)
        assert np.max(np.abs(A @ res.x - b)) < 1e-7
        assert res.x.min() > -1e-9


def test_simplex_warm_start_reuses_basis():
    lp = LinearProgram(
        c=[-3.0, -2.0, 0.0, 0.0],
        A=[[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]],
        b=[4.0, 2.0],
        names=("x", "y", "s1", "s2"),
    )
    cold = simplex_solve(lp)
    warm = simplex_solve(lp, initial_basis=cold.basis)
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.value == pytest.approx(cold.value, abs=1e-12)
    assert warm.pivots == 0


def test_simplex_warm_start_rejects_bad_basis():
    lp = LinearProgram(
        c=[0.0, 0.0, 1.0],
        A=[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
        b=[1.0, 2.0],
        names=("x", "y", "z"),
    )
    with pytest.raises(ValueError):
        simplex_solve(lp, initial_basis=[0, 1])  # singular block
    with pytest.raises(ValueError):
        simplex_solve(lp, initial_basis=[0])  # wrong size


def test_simplex_drops_redundant_rows():
    lp = LinearProgram(
        c=[1.0, 0.0],
        A=[[1.0, 1.0], [1.0, 1.0]],
        b=[1.0, 1.0],
        names=("x", "y"),
    )
    res = simplex_solve(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.x == pytest.approx([0.0, 1.0], abs=1e-9)


def test_simplex_rejects_unknown_rule():
    lp = LinearProgram(c=[1.0], A=[[1.0]], b=[1.0], names=("x",))
    with pytest.raises(ValueError):
        simplex_solve(lp, pivot_rule="steepest")


def test_simplex_cycle_guard():
    lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 2.0]], b=[3.0],
                       names=("x", "y"))
    with pytest.raises(CycleGuardTripped):
        simplex_solve(lp, max_pivots=0)


# ---- decoding LP construction ----


def test_decoding_lp_single_check_counts():
    code = single_check_code()
    lp = build_decoding_lp(code, np.zeros((2, 3)))
    # 6 indicator columns + 4 local words; 6 coupling rows + 1 normalization
    assert lp.A.shape == (7, 10)
    assert lp.names[:6] == (
        "ind_0_1", "ind_0_2", "ind_0_3", "ind_1_1", "ind_1_2", "ind_1_3",
    )
    assert all(name.startswith("w_0_") for name in lp.names[6:])
    # each coupling row ties one indicator (+1) to exactly one local word
    for r in range(6):
        row = lp.A[r]
        assert row[r] == 1.0
        assert np.count_nonzero(row[6:]) == 1
        assert lp.b[r] == 0.0
    assert np.all(lp.A[6, 6:] == 1.0) and lp.b[6] == 1.0


def test_decoding_lp_ldpc80_counts():
    lp = build_decoding_lp(ldpc80_z4(), np.zeros((80, 3)))
    assert lp.A.shape == (512, 8432)


def test_decoding_lp_cost_layout():
    code = single_check_code()
    lam = np.arange(6, dtype=np.float64).reshape(2, 3) - 2.5
    lp = build_decoding_lp(code, lam)
    assert np.array_equal(lp.c[:6], lam.ravel())
    assert np.all(lp.c[6:] == 0.0)


def test_decoding_lp_budget():
    code = single_check_code()
    with pytest.raises(BudgetExceeded):
        build_decoding_lp(code, np.zeros((2, 3)), codebook_budget=3)


def test_decoding_lp_llr_shape():
    with pytest.raises(ValueError):
        build_decoding_lp(single_check_code(), np.zeros((2, 4)))


# ---- exact decoding ----


def test_exact_decode_matches_ml_costs():
    rng = np.random.default_rng(11)
    codes = [
        TannerCode(q=4, n=3, rows=(((0, 1), (1, 1)), ((0, 1), (2, 1)))),
        random_regular_code(n=6, m=3, row_degree=3, q=4,
                            rng=np.random.default_rng(3)),
        # non-unit coefficients leave no crash basis: simplex_solve decodes
        random_regular_code(n=6, m=3, row_degree=3, q=4,
                            rng=np.random.default_rng(3),
                            unit_entries=False),
    ]
    for code in codes:
        integral = 0
        for _ in range(40):
            lam = rng.normal(size=(code.n, code.q - 1))
            out = lp_decode_exact(code, lam)
            best = ml_bruteforce(code, lam)
            if out.status is Status.CODEWORD_FOUND:
                integral += 1
                assert code.is_codeword(out.symbols)
                assert word_cost(lam, out.symbols) == pytest.approx(
                    word_cost(lam, best), abs=1e-8
                )
                assert out.dual_objective_trace[0] == pytest.approx(
                    word_cost(lam, best), abs=1e-8
                )
            else:
                assert np.any(out.symbols == ERASED)
                # a fractional optimum must undercut every codeword
                assert out.dual_objective_trace[0] < word_cost(lam, best) + 1e-9
        assert integral > 0


def test_exact_decode_fractional_four_cycle():
    code = four_cycle_code()
    lam = np.array([[-1.0, 3.0, -1.0], [-1.0, 3.0, -1.0]])
    out = lp_decode_exact(code, lam)
    assert out.status is Status.MAX_ITERATIONS
    assert np.all(out.symbols == ERASED)
    assert out.dual_objective_trace[0] == pytest.approx(-2.0, abs=1e-9)
    assert np.array_equal(ml_bruteforce(code, lam), [0, 0])


def test_exact_decode_integral_four_cycle():
    code = four_cycle_code()
    lam = np.array([[5.0, -3.0, 5.0], [5.0, -3.0, 5.0]])
    out = lp_decode_exact(code, lam)
    assert out.status is Status.CODEWORD_FOUND
    assert np.array_equal(out.symbols, [2, 2])
    assert out.dual_objective_trace[0] == pytest.approx(-6.0, abs=1e-9)


def test_exact_decode_noiseless_ldpc80():
    code = ldpc80_z4()
    lam = np.tile([2.0, 4.0, 2.0], (80, 1))
    out = lp_decode_exact(code, lam)
    assert out.status is Status.CODEWORD_FOUND
    assert not np.any(out.symbols)
    assert out.dual_objective_trace[0] == pytest.approx(0.0, abs=1e-9)


def test_exact_decode_cycle_guard_names_callers_budget():
    # column generation spends one budget over several masters; the guard
    # must name that budget, not what was left of it in the last round
    rng = np.random.default_rng(1)
    lam = np.tile([2.0, 4.0, 2.0], (80, 1)) + rng.normal(0.0, 2.5, size=(80, 3))
    with pytest.raises(CycleGuardTripped, match=r"^exceeded 150 pivots$"):
        lp_decode_exact(ldpc80_z4(), lam, max_pivots=150)


def test_exact_decode_codeword_translation_symmetry():
    # under PSK the decoding LP is symmetric in the transmitted codeword:
    # rotating the received noise onto codeword c translates the decision
    # by c, erasures included
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sigma = 0.8

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(shape=st.sampled_from([(4, 8, 4, 4), (8, 6, 3, 3)]),
                      seed=st.integers(0, 2**32 - 1))
    def check(shape, seed):
        q, n, m, d = shape
        rng = np.random.default_rng(seed)
        code = random_regular_code(n=n, m=m, row_degree=d, q=q, rng=rng)
        c = ml_bruteforce(code, rng.normal(size=(n, q - 1)))
        cmap = psk(q)
        y0 = awgn_sample(modulate(np.zeros(n, dtype=np.int64), cmap), sigma, rng)
        y1 = y0 * np.exp(2j * np.pi * c / q)
        base = lp_decode_exact(code, compute_llr(y0, cmap, sigma)).symbols
        moved = lp_decode_exact(code, compute_llr(y1, cmap, sigma)).symbols
        want = np.where(base == ERASED, ERASED, (base + c) % q)
        assert np.array_equal(moved, want)

    check()


def test_exact_decode_llr_shape():
    with pytest.raises(ValueError):
        lp_decode_exact(single_check_code(), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lp_paths_refuse_non_finite_llr(bad):
    code = ldpc80_z4()
    llr = np.ones((code.n, code.q - 1))
    llr[5, 1] = bad
    start = time.perf_counter()
    with pytest.raises(NonFiniteLLR, match=r"llr\[5, 1\]"):
        lp_decode_exact(code, llr)
    with pytest.raises(NonFiniteLLR):
        build_decoding_lp(code, llr)
    tiny = np.array([[1.0, bad, 3.0], [0.5, 0.5, 0.5]])
    with pytest.raises(NonFiniteLLR):
        ml_bruteforce(single_check_code(), tiny)
    assert time.perf_counter() - start < 1.0


# ---- polytope points ----


def test_codeword_vertices_are_feasible():
    code = four_cycle_code()
    lam = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])
    for word in codewords_bruteforce(code):
        point = codeword_vertex(code, word)
        report = check_marginal(point, code)
        assert max(report.values()) == 0.0
        assert lp_cost(lam, point) == pytest.approx(word_cost(lam, word))


def test_codeword_vertex_rejects_noncodeword():
    with pytest.raises(InfeasibleInput):
        codeword_vertex(four_cycle_code(), [1, 2])


def test_check_marginal_flags_violations():
    code = single_check_code()
    point = codeword_vertex(code, [0, 0])
    report = check_marginal(point, code)
    assert set(report) == {"coupling", "check_weight_nonneg",
                           "check_weight_sum"}
    w = point.check_weights[0].copy()
    w[0] -= 0.25
    broken = MarginalPoint(indicators=point.indicators,
                           check_weights=(w,))
    report = check_marginal(broken, code)
    assert report["check_weight_sum"] == pytest.approx(0.25)
    assert report["coupling"] == 0.0  # the zero word is in no coupling row
    w2 = point.check_weights[0].copy()
    w2[1] = -0.1
    w2[2] = 0.1
    broken2 = MarginalPoint(indicators=point.indicators,
                            check_weights=(w2,))
    report2 = check_marginal(broken2, code)
    assert report2["check_weight_nonneg"] == pytest.approx(0.1)
    assert report2["coupling"] == pytest.approx(0.1)


def test_factor_checker_reports_eight_families():
    code = single_check_code()
    point = marginal_to_factor(codeword_vertex(code, [1, 3]), code)
    report = check_factor(point, code)
    assert set(report) == {
        "channel_link", "edge_link",
        "symbol_weight_aggregation", "check_weight_aggregation",
        "symbol_weight_nonneg", "check_weight_nonneg",
        "symbol_weight_sum", "check_weight_sum",
    }
    assert max(report.values()) == 0.0


def test_convex_combinations_convert_exactly():
    rng = np.random.default_rng(23)
    code = four_cycle_code()
    words = codewords_bruteforce(code)
    vertices = [codeword_vertex(code, w) for w in words]
    lam = rng.normal(size=(2, 3))
    for _ in range(50):
        theta = rng.dirichlet(np.ones(len(vertices)))
        f = sum(t * v.indicators for t, v in zip(theta, vertices))
        weights = tuple(
            sum(t * v.check_weights[j] for t, v in zip(theta, vertices))
            for j in range(code.m)
        )
        mixed = MarginalPoint(indicators=f, check_weights=weights)
        assert max(check_marginal(mixed, code).values()) < 1e-12
        lifted = marginal_to_factor(mixed, code)
        assert max(check_factor(lifted, code).values()) < 1e-12
        back = factor_to_marginal(lifted, code)
        assert np.array_equal(back.indicators, mixed.indicators)
        for j in range(code.m):
            assert np.array_equal(back.check_weights[j],
                                  mixed.check_weights[j])
        assert lp_cost(lam, lifted) == lp_cost(lam, mixed)


def test_conversions_reject_infeasible_points():
    code = single_check_code()
    point = codeword_vertex(code, [2, 2])
    bad_w = point.check_weights[0] * 1.5
    with pytest.raises(InfeasibleInput):
        marginal_to_factor(
            MarginalPoint(indicators=point.indicators * 1.5,
                          check_weights=(bad_w,)),
            code,
        )
    lifted = marginal_to_factor(point, code)
    g = lifted.symbol_weights.copy()
    g[0, 0] = -0.2
    g[0, 2] += 0.2
    with pytest.raises(InfeasibleInput):
        factor_to_marginal(
            FactorPoint(indicators=lifted.indicators, symbol_weights=g,
                        check_weights=lifted.check_weights),
            code,
        )


# ---- ML oracle ----


def test_ml_bruteforce_known_instance():
    code = TannerCode(q=4, n=2, rows=(((0, 1), (1, 3)),))
    lam = np.array([[1.0, -2.0, 3.0], [0.5, 0.5, 0.5]])
    # codewords are the constant words; costs 0, 1.5, -1.5, 3.5
    assert np.array_equal(ml_bruteforce(code, lam), [2, 2])


def test_ml_bruteforce_lex_tiebreak():
    code = four_cycle_code()
    assert np.array_equal(ml_bruteforce(code, np.zeros((2, 3))), [0, 0])


def test_ml_bruteforce_too_large():
    with pytest.raises(TooLarge):
        ml_bruteforce(ldpc80_z4(), np.zeros((80, 3)))


def test_exact_decode_agrees_with_reference_solver():
    # column generation must reproduce the optimum of the full LP
    code = random_regular_code(n=12, m=6, row_degree=3, q=4,
                               rng=np.random.default_rng(9))
    rng = np.random.default_rng(55)
    for _ in range(10):
        lam = rng.normal(size=(12, 3)) * 1.5
        out = lp_decode_exact(code, lam)
        ref = simplex_solve(build_decoding_lp(code, lam),
                            pivot_rule="dantzig_bland")
        assert ref.status is SolveStatus.OPTIMAL
        assert out.dual_objective_trace[0] == pytest.approx(ref.value,
                                                            abs=1e-7)


def test_simplex_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    lps = []
    for _ in range(20):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        A1 = rng.normal(size=(k, n))
        x0 = rng.uniform(0.0, 2.0, size=n)
        b1 = A1 @ x0
        # a coordinate-sum row bounds the set; the last row repeats the first
        A = np.vstack([A1, np.ones(n), A1[:1]])
        b = np.concatenate([b1, [x0.sum()], b1[:1]])
        lps.append(LinearProgram(c=rng.normal(size=n), A=A, b=b,
                                 names=tuple(f"x{t}" for t in range(n))))
    for unit in (True, False):
        code = random_regular_code(n=8, m=4, row_degree=3, q=4,
                                   rng=np.random.default_rng(13),
                                   unit_entries=unit)
        lps.extend(build_decoding_lp(code, rng.normal(size=(8, 3)))
                   for _ in range(3))
    for lp in lps:
        ref = optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None),
                               method="highs")
        assert ref.status == 0
        for rule in ("bland", "dantzig_bland"):
            res = simplex_solve(lp, pivot_rule=rule)
            assert res.status is SolveStatus.OPTIMAL
            assert res.value == pytest.approx(ref.fun, abs=1e-7)


# ---- weak duality against the iterative decoder ----


def test_weak_duality_bounds_lp_value():
    rng = np.random.default_rng(77)
    code = random_regular_code(n=12, m=6, row_degree=3, q=4,
                               rng=np.random.default_rng(9))
    for kappa in (1.0, 100.0):
        lam = rng.normal(size=(12, 3)) * 2.0
        lp = build_decoding_lp(code, lam)
        res = simplex_solve(lp, pivot_rule="dantzig_bland")
        assert res.status is SolveStatus.OPTIMAL
        config = DecoderConfig(kappa=kappa)
        state = init_state(code, lam, config)
        assert dual_objective(state) <= res.value + 1e-6
        for _ in range(3):
            for i, j in code.edges:
                update_edge_soft(state, i, j)
                assert dual_objective(state) <= res.value + 1e-6

