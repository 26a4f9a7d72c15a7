import math
import time
from pathlib import Path

import numpy as np
import pytest

import qarylp.decoder
import qarylp.lp
from oracles import (
    MarginalPoint,
    check_edges,
    check_factor,
    check_marginal,
    codeword_vertex,
    codewords_bruteforce,
    crash_basis_identity_replay,
    crash_basis_rank_greedy,
    crash_words_rank_greedy,
    decoding_lp,
    decoding_lp_columns,
    dense_store,
    factor_to_marginal,
    full_columns,
    lp_cost,
    TooLarge,
    lp_vertex_enumeration,
    marginal_to_factor,
    ml_bruteforce,
    padded_store,
    spc_words_bruteforce,
    update_inverse_dense,
    variable_edges,
)
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
    NonFiniteLLR,
    Status,
    dual_objective,
    init_state,
    update_edge_hard,
    update_edge_soft,
)
from qarylp.lp import (
    BudgetExceeded,
    CycleGuardTripped,
    UnboundedRay,
    lp_decode_exact,
)
from qarylp.simulate import SimConfig, run_point


Z8_CODE = (Path(__file__).resolve().parents[1]
           / "perfbench" / "codes" / "ldpc80_z8.txt")


def single_check_code():
    return TannerCode(q=4, n=2, rows=(((0, 1), (1, 1)),))


def four_cycle_code():
    # two checks on the same pair of variables: codewords (0,0) and (2,2)
    return TannerCode(q=4, n=2, rows=(((0, 1), (1, 1)), ((0, 1), (1, 3))))


def mixed_degree_codes():
    """Codes whose checks differ in degree, so that the decoder's padded
    check_edges rows reach the LP: the shapes of ragged_code() (non-unit
    Z_4, degrees 3, 3, 2, 4) and mixed_degree_code() (degrees 2, 3, 4) of
    tests/test_decoder.py, a Z_6 code with zero-divisor coefficients
    (degrees 3, 4, 2), and a code whose variables 2 and 5 no check covers."""
    return [
        TannerCode(q=4, n=6, rows=(((0, 1), (1, 2), (2, 2)),
                                   ((1, 1), (3, 3), (4, 1)),
                                   ((2, 1), (5, 1)),
                                   ((0, 3), (3, 1), (4, 2), (5, 1)))),
        TannerCode(q=4, n=7, rows=(((0, 1), (1, 2)),
                                   ((2, 1), (3, 3), (4, 2)),
                                   ((0, 3), (2, 1), (5, 2), (6, 1)))),
        TannerCode(q=6, n=5, rows=(((0, 2), (1, 3), (2, 1)),
                                   ((1, 1), (2, 2), (3, 3), (4, 1)),
                                   ((0, 3), (4, 2)))),
        TannerCode(q=4, n=6, rows=(((0, 1), (1, 2), (3, 1)),
                                   ((1, 1), (3, 3), (4, 1)))),
    ]


def ldpc80_frames(count, seed, ebno=3.0):
    """LLRs of all-zero ldpc80_z4 frames at ebno dB Eb/N0 (design rate 0.6)."""
    cmap = psk(4)
    sigma = ebno_to_sigma(ebno, 0.6, 2.0)
    rng = np.random.default_rng(seed)
    tx = modulate(np.zeros(80, dtype=np.int64), cmap)
    return [compute_llr(awgn_sample(tx, sigma, rng), cmap, sigma)
            for _ in range(count)]


def word_cost(llr, word):
    lam = np.asarray(llr)
    w = np.asarray(word)
    nz = np.flatnonzero(w)
    return float(lam[nz, w[nz] - 1].sum())


def run_engine(c, A, b, basis, max_pivots=10_000, fixed=()):
    """_revised_phase2 on a dense program from a feasible basis, with the
    columns listed in fixed held at zero and _MAX_PIVOTS set to
    max_pivots: (x, y, pivots, basis, binv)."""
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    mask = np.zeros(len(c), dtype=bool)
    mask[list(fixed)] = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qarylp.lp, "_MAX_PIVOTS", max_pivots)
        return qarylp.lp._revised_phase2(
            padded_store(A), np.asarray(b, dtype=np.float64), c, basis,
            np.linalg.inv(A[:, basis]), mask)


# the textbook program max 3x + 2y s.t. x + y <= 4, x <= 2, with slacks
TEXTBOOK = (
    [-3.0, -2.0, 0.0, 0.0],
    [[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]],
    [4.0, 2.0],
)


# ---- the simplex engine on small programs ----


def test_simplex_textbook_optimum():
    c, A, b = TEXTBOOK
    x, y, pivots, basis, _ = run_engine(c, A, b, [2, 3])
    assert pivots > 0
    assert np.dot(c, x) == pytest.approx(-10.0, abs=1e-9)
    assert x[:2] == pytest.approx([2.0, 2.0], abs=1e-9)
    assert sorted(basis) == [0, 1]
    # the duals of the optimal basis, then the zero slot of the padding row
    assert y == pytest.approx([-2.0, -1.0, 0.0], abs=1e-12)


def test_simplex_warm_start_reuses_basis():
    # column generation carries the basis and its inverse from one master
    # to the next: started at an optimal basis, the engine makes no pivot
    c, A, b = TEXTBOOK
    x, _, _, basis, binv = run_engine(c, A, b, [2, 3])
    again, _, pivots, warm, _ = qarylp.lp._revised_phase2(
        padded_store(A), np.asarray(b), np.asarray(c), basis, binv.copy(),
        np.zeros(4, dtype=bool))
    assert pivots == 0
    assert warm == basis
    assert np.array_equal(again, x)


def test_simplex_unbounded():
    # min -x s.t. x - y = 0: x enters along the ray x = y -> inf
    with pytest.raises(UnboundedRay, match="unbounded"):
        run_engine([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0])


def test_simplex_degenerate_terminates():
    # Beale's degenerate program, on which pure Dantzig pricing cycles.
    # Priced per nonzero it ends at the optimum in a few pivots; with every
    # column (c and A) multiplied by its nonzero count, the per-nonzero
    # rule makes Dantzig's choices on the original, so the engine must fall
    # back to Bland after _REVISED_STALL_LIMIT degenerate pivots and still
    # end at the optimum, which the scaling does not move
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
    A = np.array([
        [1.0, 0.0, 0.0, 0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    b = [0.0, 0.0, 1.0]
    expected, _ = lp_vertex_enumeration(c, A, b)
    assert expected == pytest.approx(-0.05, abs=1e-12)
    x, _, _, _, _ = run_engine(c, A, b, [0, 1, 2])
    assert np.dot(c, x) == pytest.approx(expected, abs=1e-9)
    assert np.abs(np.dot(A, x) - b).max() < 1e-9
    scale = np.count_nonzero(A, axis=0)
    x, _, pivots, _, _ = run_engine(c * scale, A * scale, b, [0, 1, 2])
    assert pivots > qarylp.lp._REVISED_STALL_LIMIT
    assert np.dot(c * scale, x) == pytest.approx(expected, abs=1e-9)
    assert np.abs(np.dot(A * scale, x) - b).max() < 1e-9


def test_simplex_matches_vertex_enumeration():
    # random bounded programs in slack form [A1 | I] x = b with b > 0, so
    # the slack basis is a feasible start; the last row of A1 sums the
    # structural coordinates, which keeps the feasible set bounded
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        A1 = np.vstack([rng.normal(size=(k - 1, n)), np.ones(n)])
        A = np.hstack([A1, np.eye(k)])
        b = rng.uniform(0.5, 2.0, size=k)
        c = rng.normal(size=n + k)
        expected, _ = lp_vertex_enumeration(c, A, b)
        x, _, _, _, _ = run_engine(c, A, b, list(range(n, n + k)))
        assert np.dot(c, x) == pytest.approx(expected, abs=1e-7)
        assert np.max(np.abs(A @ x - b)) < 1e-7
        assert x.min() >= 0.0


def test_simplex_matches_highs():
    # random slack-form programs too large for vertex enumeration
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(10, 30))
        k = int(rng.integers(3, 10))
        A1 = np.vstack([rng.normal(size=(k - 1, n)), np.ones(n)])
        A = np.hstack([A1, np.eye(k)])
        b = rng.uniform(0.5, 2.0, size=k)
        c = rng.normal(size=n + k)
        ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                               method="highs")
        assert ref.status == 0
        x, _, _, _, _ = run_engine(c, A, b, list(range(n, n + k)))
        assert np.dot(c, x) == pytest.approx(ref.fun, abs=1e-7)


def test_simplex_drops_redundant_rows():
    # a repeated row leaves the structural columns one short of a basis; a
    # unit column fixed at zero completes it, as in a crash basis, and stays
    # basic at zero while the other columns reach the optimum
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]]
    b = [1.0, 1.0]
    for c, want in (([1.0, 0.0, 0.0, 0.0], [0.0, 1.0]),
                    ([0.0, 1.0, 0.0, 0.0], [1.0, 0.0])):
        x, _, _, basis, _ = run_engine(c, A, b, [1, 3], fixed=[2, 3])
        assert x[:2] == pytest.approx(want, abs=1e-12)
        assert x[2:].tolist() == [0.0, 0.0]
        assert 3 in basis


def test_simplex_cycle_guard():
    with pytest.raises(CycleGuardTripped, match=r"^exceeded 0 pivots$"):
        run_engine([1.0, 1.0], [[1.0, 2.0]], [3.0], [0], max_pivots=0)


# ---- the sparse simplex engine ----


def test_update_inverse_matches_dense_form(monkeypatch):
    # every inverse update of six 3 dB ldpc80_z4 decodes (pivots and
    # refactorizations, the per-code set-up excluded) gives the values of
    # the dense rank-one form
    qarylp.lp._exact_setup(ldpc80_z4())
    calls = []
    sparse = qarylp.lp._update_inverse

    def both(binv, d, r):
        want = binv.copy()
        update_inverse_dense(want, d, r)
        sparse(binv, d, r)
        calls.append(np.array_equal(binv, want))

    monkeypatch.setattr(qarylp.lp, "_update_inverse", both)
    for lam in ldpc80_frames(6, seed=21):
        lp_decode_exact(ldpc80_z4(), lam)
    assert len(calls) > 1000
    assert all(calls)


def test_inverse_entries_leave_a_gap_above_the_drop_tolerance(monkeypatch):
    # _DROP_TOL = 1e-12 only drops round-off residue of exact zeros: over
    # the six frames-lp-z4-3db corpus frames and frame 0 of the Z_8 file at
    # 6 dB, no FTRAN result and no inverse entry that an update writes
    # (rows where d is nonzero) has a magnitude in [_DROP_TOL, 1e-6).
    # Without the drop, 1e-12 was the residue's upper end: 7.9M written
    # entries below it on Z_4 and 269M on Z_8, and none in the gap
    update = qarylp.lp._update_inverse
    counts = {"written": 0, "gap": 0}

    def watched(binv, d, r):
        update(binv, d, r)
        for entries in (d, binv[np.flatnonzero(d)]):
            mag = np.abs(entries)
            counts["written"] += mag.size
            counts["gap"] += int(((mag >= qarylp.lp._DROP_TOL)
                                  & (mag < 1e-6)).sum())

    monkeypatch.setattr(qarylp.lp, "_update_inverse", watched)
    z4 = ldpc80_z4()
    for lam in simulate_frames(z4, 3.0, 1, 0, range(6)):
        lp_decode_exact(z4, lam)
    z8 = read_check_matrix(Z8_CODE)
    lp_decode_exact(z8, simulate_frames(z8, 6.0, 1, 0, [0])[0])
    assert counts["written"] > 10**8
    assert counts["gap"] == 0


def test_update_inverse_matches_dense_form_on_random_sparse_inverses():
    # the sparse update against the dense rank-one form on random sparse
    # matrices; the modes force an empty hit (d nonzero only at r), a pivot
    # row with one nonzero, a fully dense pivot row and a pivot row with
    # round-off residue that both forms drop, and m = 1 is drawn
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(m=st.integers(1, 12),
                      density=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
                      mode=st.sampled_from(["random", "empty hit",
                                            "one nonzero", "dense row",
                                            "residue row"]),
                      seed=st.integers(0, 2**32 - 1))
    @hypothesis.example(m=1, density=0.0, mode="random", seed=0)
    @hypothesis.example(m=1, density=1.0, mode="dense row", seed=1)
    def check(m, density, mode, seed):
        rng = np.random.default_rng(seed)
        binv = rng.normal(size=(m, m)) * (rng.random((m, m)) < density)
        d = rng.normal(size=m) * (rng.random(m) < density)
        r = int(rng.integers(m))
        d[r] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        if mode == "empty hit":
            d[np.arange(m) != r] = 0.0
        elif mode == "one nonzero":
            binv[r] = 0.0
            binv[r, rng.integers(m)] = rng.normal() or 1.0
        elif mode == "dense row":
            binv[r] = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0],
                                                                 size=m)
        elif mode == "residue row":
            binv[r, rng.integers(m)] = rng.choice([-1.0, 1.0]) * 1e-14
        want = binv.copy()
        update_inverse_dense(want, d, r)
        qarylp.lp._update_inverse(binv, d, r)
        assert np.array_equal(binv, want)

    check()


def test_update_inverse_refuses_a_strided_inverse():
    # a flat view of a strided array would be a copy, and the update lost
    binv = np.eye(4)[:, ::-1]
    with pytest.raises(ValueError, match="C-contiguous"):
        qarylp.lp._update_inverse(binv, np.ones(4), 0)


def test_invert_matches_linalg_inv():
    setup = qarylp.lp._ExactSetup(ldpc80_z4())
    A = dense_store(*setup.crash_store, setup.n_rows)
    B0 = A[:, setup.crash_basis]
    assert np.abs(setup.crash_binv - np.linalg.inv(B0)).max() < 1e-12
    rng = np.random.default_rng(5)
    for m in (5, 30, 80):
        # a sparse matrix with a dominant diagonal, columns and rows shuffled
        # and padded with spare columns; the basis picks the shuffled ones
        M = np.diag(rng.choice([-4.0, 3.0, 5.0], size=m))
        hit = rng.random((m, m)) < 3.0 / m
        M[hit] += rng.choice([-1.0, 1.0, 2.0], size=int(hit.sum()))
        M = M[rng.permutation(m)]
        n = m + 7
        A = np.zeros((m, n))
        basis = rng.permutation(n)[:m]
        A[:, basis] = M[:, rng.permutation(m)]
        spare = np.setdiff1d(np.arange(n), basis)
        A[:, spare] = rng.normal(size=(m, len(spare)))
        binv = qarylp.lp._invert(padded_store(A), basis, m)
        assert np.abs(binv - np.linalg.inv(A[:, basis])).max() < 1e-12
    singular = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
    cols = padded_store(singular)
    for basis in ([0, 1, 2], [0, 2, 1]):
        with pytest.raises(ValueError, match="singular"):
            qarylp.lp._invert(cols, basis, 3)


def test_invert_from_crash_start_matches_identity(monkeypatch):
    # a refactorization from the crash inverse, replaying only the basis
    # columns the crash does not hold, gives the inverse that a replay of
    # every column from I gives; bases captured mid-decode
    captured = []
    invert = qarylp.lp._invert

    def capture(cols, basis, m, start=None):
        if start is not None:
            captured.append((cols, np.array(basis), m, start))
        return invert(cols, basis, m, start)

    monkeypatch.setattr(qarylp.lp, "_invert", capture)
    for lam in ldpc80_frames(4, seed=21):
        lp_decode_exact(ldpc80_z4(), lam)
    assert len(captured) >= 2
    for cols, basis, m, start in captured:
        held = set(start[0])
        replayed = sum(int(s) not in held for s in basis)
        assert 0 < replayed < m // 2
        got = invert(cols, basis, m, start)
        assert np.abs(got - invert(cols, basis, m)).max() < 1e-12
    cols, basis, m, start = captured[0]
    held = set(start[0])
    kept = next(k for k, s in enumerate(basis) if int(s) in held)
    entering = next(k for k, s in enumerate(basis) if int(s) not in held)
    # a column listed twice makes the basis singular, whether the start
    # holds it or it enters
    for k in (kept, entering):
        singular = basis.copy()
        singular[0 if k else 1] = basis[k]
        with pytest.raises(ValueError, match="singular"):
            invert(cols, singular, m, start)


def test_running_duals_match_fresh_duals(monkeypatch):
    # the duals the pivot loop updates in place still match freshly
    # computed ones when they declare a master optimal; the engine then
    # prices once more with the fresh ones, which must agree and, on these
    # frames, never resume pivoting: _duals runs at the start, after each
    # refactorization and once at the end, and no more
    priced, calls = [], {"_duals": 0, "_invert": 0}
    price, duals = qarylp.lp._price, qarylp.lp._duals

    def record(y, cols):
        priced.append(y.copy())
        return price(y, cols)

    def counted(name):
        inner = getattr(qarylp.lp, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    engine = qarylp.lp._revised_phase2
    returns = []

    def check(cols, b, c, *args, **kwargs):
        priced.clear()
        calls.update(_duals=0, _invert=0)
        x, y, pivots, basis, binv = engine(cols, b, c, *args, **kwargs)
        fresh = duals(c[basis], binv)
        running, last = priced[-2:]
        assert np.array_equal(last, fresh)
        # the engine returns those fresh duals for column generation
        assert np.array_equal(y, fresh)
        assert np.abs(running - fresh).max() <= 1e-9 * (1.0 + np.abs(c).max())
        assert calls["_duals"] == 2 + calls["_invert"]
        returns.append(pivots)
        return x, y, pivots, basis, binv

    monkeypatch.setattr(qarylp.lp, "_price", record)
    for name in calls:
        monkeypatch.setattr(qarylp.lp, name, counted(name))
    monkeypatch.setattr(qarylp.lp, "_revised_phase2", check)
    for ebno in (3.0, 2.0):
        for lam in ldpc80_frames(2, seed=23, ebno=ebno):
            lp_decode_exact(ldpc80_z4(), lam)
    assert len(returns) > 4
    assert sum(returns) > 2 * qarylp.lp._REFACTOR_EVERY


def test_fresh_duals_resume_pivoting(monkeypatch):
    # duals that price every column out end a master only once fresh duals
    # agree: here the duals a call starts from are corrupted that way, and
    # pivoting must resume from the fresh ones and reach the same optimum
    duals = qarylp.lp._duals
    corrupt = []

    def first_corrupted(cb, binv):
        y = duals(cb, binv)
        if corrupt:
            corrupt.pop()(y)
        return y

    def price_out_textbook(y):
        # reduced costs c - yA become 17, 8, 10 and 10
        y[:-1] = -10.0

    monkeypatch.setattr(qarylp.lp, "_duals", first_corrupted)
    c, A, b = TEXTBOOK
    corrupt.append(price_out_textbook)
    x, _, pivots, basis, _ = run_engine(c, A, b, [2, 3])
    assert not corrupt
    assert pivots > 0
    assert np.dot(c, x) == pytest.approx(-10.0, abs=1e-9)
    assert sorted(basis) == [0, 1]

    code = ldpc80_z4()
    setup = qarylp.lp._exact_setup(code)
    degree = max(len(row) for row in code.rows)

    def price_out_decoding_lp(y):
        # indicators price at llr + 100 per edge, words at 100 per zero
        # symbol, plus 100: nothing enters at these duals
        y[:setup.n_coupling] = -100.0
        y[setup.n_coupling:-1] = -100.0 * (degree + 1)

    for lam in ldpc80_frames(2, seed=8):
        want = lp_decode_exact(code, lam)
        corrupt.append(price_out_decoding_lp)
        out = lp_decode_exact(code, lam)
        assert not corrupt
        assert out.dual_objective_trace[0] == pytest.approx(
            want.dual_objective_trace[0], abs=1e-9)
        assert np.array_equal(out.symbols, want.symbols)
        assert out.status is want.status


def test_gather_pricing_matches_dense(monkeypatch):
    # the reduced costs and entering columns of column-generation masters
    # against dense products; every master column must be a column of the
    # full decoding LP.  _price takes the store slot-major, as the pivot
    # loop passes it
    code = ldpc80_z4()
    full = decoding_lp_columns(code)
    known = {col.tobytes() for col in full.T}
    masters = []
    engine = qarylp.lp._revised_phase2

    def capture(cols, b, c, basis, binv, *args, **kwargs):
        masters.append((cols, c.copy(), list(basis), binv.copy()))
        return engine(cols, b, c, basis, binv, *args, **kwargs)

    monkeypatch.setattr(qarylp.lp, "_revised_phase2", capture)
    lp_decode_exact(code, ldpc80_frames(1, seed=4)[0])
    assert len(masters) > 1
    for (rows, signs), c, basis, binv in masters:
        A = np.zeros((full.shape[0] + 1, len(rows)))
        for k in range(len(rows)):
            for r, v in zip(rows[k], signs[k]):
                A[r, k] += v
        assert not A[-1].any()
        A = A[:-1]
        assert all(col.tobytes() in known for col in A.T)
        y = c[basis] @ binv
        got = c - qarylp.lp._price(qarylp.lp._duals(c[basis], binv),
                                   (rows.T.copy(), signs.T.copy()))
        assert np.abs(got - (c - y @ A)).max() < 1e-12
        for s in range(0, len(rows), 97):
            d = qarylp.lp._ftran(binv, rows[s], signs[s])
            assert np.abs(d - binv @ A[:, s]).max() < 1e-12


def test_pricing_appends_the_most_negative_words(monkeypatch):
    # after each master, every word column generation appends prices below
    # -_PRICING_TOL against the full decoding LP, no word it leaves out
    # prices below the worst one appended to its check, and a check given
    # fewer than _CG_ADDS_PER_CHECK words leaves out none below the
    # tolerance; the last master leaves out none below it anywhere
    tol, slack = qarylp.lp._PRICING_TOL, 1e-12
    engine = qarylp.lp._revised_phase2
    masters = []

    def capture(cols, b, c, *args, **kwargs):
        out = engine(cols, b, c, *args, **kwargs)
        masters.append((cols, out[1]))
        return out

    monkeypatch.setattr(qarylp.lp, "_revised_phase2", capture)
    rng = np.random.default_rng(41)
    ragged = mixed_degree_codes()[0]
    cases = [(ldpc80_z4(), lam) for lam in ldpc80_frames(3, seed=31)]
    cases += [(ragged, rng.normal(size=(ragged.n, 3)) * 1.5) for _ in range(6)]
    appended = 0
    for code, lam in cases:
        A = decoding_lp_columns(code)
        n_ind = code.n * (code.q - 1)
        words = A[:, n_ind:]
        index = {col.tobytes(): k for k, col in enumerate(words.T)}
        owner = np.argmax(words[-code.m:], axis=0)
        masters.clear()
        lp_decode_exact(code, lam)
        for (cols, y), (after, _) in zip(masters, masters[1:] + masters[-1:]):
            dense = dense_store(*after, len(A)).T
            held = [index.get(col.tobytes()) for col in dense]
            new = np.array(held[len(cols[0]):], dtype=np.intp)
            held = np.array([k for k in held if k is not None], dtype=np.intp)
            z = -(y[:-1] @ words)
            assert np.all(z[new] < -tol)
            left_out = np.ones(len(z), dtype=bool)
            left_out[held] = False
            for j in range(code.m):
                mine = new[owner[new] == j]
                rest = z[left_out & (owner == j)]
                if mine.size:
                    assert rest.min(initial=np.inf) >= z[mine].max() - slack
                if mine.size < qarylp.lp._CG_ADDS_PER_CHECK:
                    assert rest.min(initial=np.inf) >= -tol - slack
            appended += len(new)
    assert appended > 200


def test_first_master_holds_the_cheapest_split_dual_words(monkeypatch):
    # the first master holds the crash store plus, per check, exactly the
    # _CG_ADDS_PER_CHECK cheapest words the crash does not hold, each word
    # priced at the sum of its symbols' llr over the variable's degree;
    # the oracle enumerates every check's words by brute force
    engine = qarylp.lp._revised_phase2
    masters = []

    def capture(cols, *args, **kwargs):
        masters.append(cols)
        return engine(cols, *args, **kwargs)

    monkeypatch.setattr(qarylp.lp, "_revised_phase2", capture)
    rng = np.random.default_rng(61)
    cases = [(ldpc80_z4(), lam) for lam in ldpc80_frames(2, seed=61)]
    cases += [(code, rng.normal(0.3, 1.5, size=(code.n, code.q - 1)))
              for code in mixed_degree_codes() for _ in range(2)]
    adds = qarylp.lp._CG_ADDS_PER_CHECK
    for code, lam in cases:
        q = code.q
        setup = qarylp.lp._exact_setup(code)
        slot = {e: (j, t) for j in range(code.m)
                for t, e in enumerate(check_edges(code, j))}
        degree = [len(js) for js in code.columns]
        masters.clear()
        lp_decode_exact(code, lam)
        rows, signs = masters[0]
        # each word column as (check, word): its normalization row names
        # the check, its coupling rows e(q-1) + a - 1 the symbols
        words = []
        for k in range(setup.n_ind, len(rows)):
            norm = rows[k][(rows[k] >= setup.n_coupling)
                           & (rows[k] < setup.n_rows)]
            if norm.size == 0:
                continue  # a unit column of the crash
            j = int(norm[0]) - setup.n_coupling
            word = [0] * len(code.rows[j])
            for r, v in zip(rows[k], signs[k]):
                if r < setup.n_coupling and v != 0:
                    owner, t = slot[int(r) // (q - 1)]
                    assert owner == j
                    word[t] = int(r) % (q - 1) + 1
            words.append((k < len(setup.crash_store[0]), j, tuple(word)))
        assert len(set(words)) == len(words)
        for j in range(code.m):
            crash = {w for old, jj, w in words if old and jj == j}
            seeded = {w for old, jj, w in words if not old and jj == j}
            assert not crash & seeded
            cols = code.row_cols[j]

            def cost(word):
                return sum(lam[i, a - 1] / degree[i]
                           for i, a in zip(cols, word) if a)

            rest = sorted((cost(w), w) for w in spc_words_bruteforce(code, j)
                          if w not in crash)
            assert seeded == {w for _, w in rest[:adds]}
            if len(rest) > adds:
                # a strict gap, so the cheapest words are well defined
                assert rest[adds][0] > rest[adds - 1][0] + 1e-12


def test_seeded_exact_decode_matches_highs():
    # the optimum of column generation from the seeded first master is the
    # full decoding LP's optimum, and where HiGHS finds an integral optimum
    # the decoded symbols are that optimum's
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(67)
    cases = [(ldpc80_z4(), lam) for ebno in (2.0, 3.0, 4.0)
             for lam in ldpc80_frames(3, seed=67, ebno=ebno)]
    # mixed degrees over Z_4, and zero-divisor coefficients over Z_6
    cases += [(code, rng.normal(0.3, 1.5, size=(code.n, code.q - 1)))
              for code in mixed_degree_codes()[:3] for _ in range(4)]
    A, integral = {}, 0
    for code, lam in cases:
        c, A[code], b = decoding_lp(code, lam, A.get(code))
        ref = optimize.linprog(c, A_eq=A[code], b_eq=b, bounds=(0, None),
                               method="highs")
        assert ref.status == 0
        out = lp_decode_exact(code, lam)
        assert out.dual_objective_trace[0] == pytest.approx(ref.fun, abs=1e-7)
        f = ref.x[:code.n * (code.q - 1)].reshape(code.n, code.q - 1)
        if np.minimum(np.abs(f), np.abs(f - 1.0)).max() <= 1e-6:
            integral += 1
            ones = f > 0.5
            want = np.where(ones.any(axis=1), ones.argmax(axis=1) + 1, 0)
            assert out.status is Status.CODEWORD_FOUND
            assert np.array_equal(out.symbols, want)
    assert integral > len(cases) // 2


def test_exact_decode_matches_highs_on_ldpc80():
    optimize = pytest.importorskip("scipy.optimize")
    code = ldpc80_z4()
    A = None
    for lam in ldpc80_frames(8, seed=8):
        c, A, b = decoding_lp(code, lam, A)
        ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                               method="highs")
        assert ref.status == 0
        out = lp_decode_exact(code, lam)
        assert out.dual_objective_trace[0] == pytest.approx(ref.fun, abs=1e-7)


# ---- decoding LP construction ----


def test_decoding_lp_single_check_counts():
    code = single_check_code()
    setup = qarylp.lp._ExactSetup(code)
    A = full_columns(code)
    # 6 indicator columns + 4 local words; 6 coupling rows + 1 normalization
    assert A.shape == (7, 10)
    assert setup.n_ind == 6
    # each coupling row ties one indicator (+1) to exactly one local word
    for r in range(6):
        row = A[r]
        assert row[r] == 1.0
        assert np.count_nonzero(row[6:]) == 1
        assert setup.b[r] == 0.0
    assert np.all(A[6, 6:] == 1.0) and setup.b[6] == 1.0


def test_decoding_lp_ldpc80_counts():
    assert full_columns(ldpc80_z4()).shape == (512, 8432)


def test_decoding_lp_cost_layout(monkeypatch):
    # every master costs the indicators by llr, position-major then symbol,
    # and the local words at zero
    code = single_check_code()
    lam = np.arange(6, dtype=np.float64).reshape(2, 3) - 2.5
    costs = []
    engine = qarylp.lp._revised_phase2

    def capture(cols, b, c, *args, **kwargs):
        costs.append(c.copy())
        return engine(cols, b, c, *args, **kwargs)

    monkeypatch.setattr(qarylp.lp, "_revised_phase2", capture)
    lp_decode_exact(code, lam)
    assert costs
    for c in costs:
        assert np.array_equal(c[:6], lam.ravel())
        assert np.all(c[6:] == 0.0)


def test_decoding_lp_llr_shape():
    with pytest.raises(ValueError):
        lp_decode_exact(single_check_code(), np.zeros((2, 4)))


def test_decoding_lp_budget():
    # one degree-8 check over Z_4 has 4^7 = 16 384 local words, above the
    # 4096 the exact decoder enumerates
    code = TannerCode(q=4, n=8, rows=(tuple((i, 1) for i in range(8)),))
    with pytest.raises(BudgetExceeded, match="16384 exceeds budget 4096"):
        lp_decode_exact(code, np.zeros((8, 3)))


def test_decoding_lp_matches_entrywise_build():
    # every word of every check, built by the exact LP's column store from
    # the symbols it reads back out of word_index, on unit, non-unit and
    # mixed-degree codes (padded slots); the Z_8 benchmark code's 131 072
    # word columns would take 1.2 GB dense, so it is left out
    codes = [code for code in crash_codes()
             if sum(len(enumerate_spc(code, j)) for j in range(code.m)) < 10 ** 4]
    codes.append(random_regular_code(n=8, m=4, row_degree=3, q=8,
                                     rng=np.random.default_rng(4),
                                     unit_entries=False))
    for code in codes:
        assert np.array_equal(full_columns(code), decoding_lp_columns(code))


def crash_codes():
    """ldpc80_z4, the Z_8 benchmark code, small unit and non-unit codes and
    the mixed-degree codes."""
    codes = [ldpc80_z4(), read_check_matrix(Z8_CODE), single_check_code(),
             four_cycle_code(),
             TannerCode(q=4, n=3, rows=(((0, 1), (1, 1)), ((0, 1), (2, 1)))),
             TannerCode(q=4, n=2, rows=(((0, 1), (1, 3)),))]
    for n, m, seed in ((6, 3, 3), (12, 6, 9), (8, 4, 13)):
        for unit in (True, False):
            codes.append(random_regular_code(n=n, m=m, row_degree=3, q=4,
                                             rng=np.random.default_rng(seed),
                                             unit_entries=unit))
    for seed in range(3):
        codes.append(random_regular_code(n=8, m=4, row_degree=4, q=4,
                                         rng=np.random.default_rng(seed)))
        codes.append(random_regular_code(n=6, m=3, row_degree=3, q=8,
                                         rng=np.random.default_rng(seed)))
    return codes + mixed_degree_codes()


def test_crash_words_match_rank_greedy():
    # the crash basis takes, per check, the first codebook columns that
    # raise the rank of those taken before, then the first unit vectors of
    # the block that fill it; the elimination must pick the same words and
    # unit rows as matrix_rank does, on every code these tests build
    filled = 0
    for code in crash_codes():
        words, units = crash_words_rank_greedy(code)
        setup = qarylp.lp._ExactSetup(code)
        assert setup.crash_words == words
        assert setup.crash_units == units
        assert setup.crash_fixed.sum() == sum(map(len, units))
        # one elimination per distinct coefficient row, shared by its checks
        rows = {tuple(vals.tolist()) for vals in code.row_vals}
        assert len({id(ws) for ws in setup.crash_words}) == len(rows)
        filled += not any(units)
    assert filled == 11


def test_crash_inverse_matches_identity_replay():
    # the crash inverse assembled from one block inverse per distinct
    # coefficient row equals, byte for byte and signed zeros included, the
    # whole crash inverted from I
    for code in crash_codes():
        setup = qarylp.lp._ExactSetup(code)
        basis, binv = crash_basis_identity_replay(setup)
        assert setup.crash_basis == basis
        assert setup.crash_binv.tobytes() == binv.tobytes()


def test_crash_basis_matches_rank_greedy():
    # with the indicators exchanged in, the crash basis is the rank greedy
    # over the covered indicators, the crash words and the unit columns; it
    # keeps every zero word basic, so its basic solution is the zero
    # codeword and the perturbed rhs stays feasible
    for code in crash_codes():
        setup = qarylp.lp._ExactSetup(code)
        assert set(setup.crash_basis) == set(crash_basis_rank_greedy(code))
        zero_words = setup.n_ind + np.cumsum(
            [0] + [len(ws) for ws in setup.crash_words[:-1]])
        assert set(zero_words) <= set(setup.crash_basis)
        x = np.zeros(len(setup.crash_fixed))
        x[setup.crash_basis] = setup.crash_binv @ setup.b
        vertex = np.zeros_like(x)
        vertex[zero_words] = 1.0
        assert np.abs(x - vertex).max() < 1e-12
        perturbed = setup.crash_binv @ setup.b_pert
        assert perturbed.min() > -1e-12
        fixed = setup.crash_fixed[setup.crash_basis]
        assert np.abs(perturbed[fixed]).max(initial=0.0) < 1e-12


# ---- exact decoding ----


def test_exact_decode_matches_ml_costs():
    rng = np.random.default_rng(11)
    codes = [
        TannerCode(q=4, n=3, rows=(((0, 1), (1, 1)), ((0, 1), (2, 1)))),
        random_regular_code(n=6, m=3, row_degree=3, q=4,
                            rng=np.random.default_rng(3)),
        # non-unit coefficients leave rank-deficient check blocks: the
        # crash basis fills them with unit columns fixed at zero
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


def test_exact_decode_cycle_guard_names_callers_budget(monkeypatch):
    # column generation spends one budget over several masters; the guard
    # must name that budget, not what was left of it in the last round
    monkeypatch.setattr(qarylp.lp, "_MAX_PIVOTS", 150)
    rng = np.random.default_rng(1)
    lam = np.tile([2.0, 4.0, 2.0], (80, 1)) + rng.normal(0.0, 2.5, size=(80, 3))
    with pytest.raises(CycleGuardTripped, match=r"^exceeded 150 pivots$"):
        lp_decode_exact(ldpc80_z4(), lam)


def test_exact_decode_uncovered_variables_match_ml():
    # a variable that no check covers is decided by its cheapest symbol
    # outside the master, where its negative llr would be an unbounded ray
    codes = [TannerCode(q=4, n=3, rows=(((0, 1), (1, 1)),)),
             TannerCode(q=4, n=6, rows=(((0, 1), (1, 2), (3, 1)),
                                        ((1, 1), (3, 3), (4, 1))))]
    lam = np.ones((3, 3))
    lam[2] = [-1.0, 2.0, 1.0]
    out = lp_decode_exact(codes[0], lam)
    assert out.status is Status.CODEWORD_FOUND
    assert np.array_equal(out.symbols, [0, 0, 1])
    assert out.dual_objective_trace[0] == -1.0
    rng = np.random.default_rng(17)
    for code in codes:
        uncovered = qarylp.lp._ExactSetup(code).uncovered
        assert uncovered.size > 0
        integral = 0
        for _ in range(30):
            lam = rng.normal(size=(code.n, code.q - 1))
            out = lp_decode_exact(code, lam)
            best = ml_bruteforce(code, lam)
            assert np.array_equal(out.symbols[uncovered], best[uncovered])
            if out.status is Status.CODEWORD_FOUND:
                integral += 1
                assert np.array_equal(out.symbols, best)
                assert out.dual_objective_trace[0] == pytest.approx(
                    word_cost(lam, best), abs=1e-8)
            else:
                assert out.dual_objective_trace[0] < word_cost(lam, best) + 1e-9
        assert integral > 0


def test_exact_decode_unperturbed_rerun(monkeypatch):
    # when the perturbed optimal basis is infeasible for the true rhs,
    # column generation re-runs unperturbed from the crash vertex; forcing
    # that branch must not move the optimum or the symbols
    code = ldpc80_z4()
    frames = ldpc80_frames(3, seed=8)
    want = [lp_decode_exact(code, lam) for lam in frames]
    monkeypatch.setattr(qarylp.lp, "_FEAS_TOL", -1.0)
    for lam, base in zip(frames, want):
        out = lp_decode_exact(code, lam)
        assert out.iterations_used > base.iterations_used
        assert out.dual_objective_trace[0] == pytest.approx(
            base.dual_objective_trace[0], abs=1e-9)
        assert np.array_equal(out.symbols, base.symbols)
        assert out.status is base.status


def test_exact_decode_round_guard(monkeypatch):
    monkeypatch.setattr(qarylp.lp, "_MAX_CG_ROUNDS", 1)
    with pytest.raises(CycleGuardTripped,
                       match="did not settle in 1 rounds"):
        lp_decode_exact(ldpc80_z4(), ldpc80_frames(1, seed=8)[0])


def test_exact_decode_pivot_count_guard():
    # simulate's seed 1, point 0, frames 0-5 at 3 dB take 2590 pivots in all
    # from the zero-codeword crash with no indicator basic, 1187 from the
    # crash with every covered indicator basic, 994 once the first master
    # also holds each check's cheapest words under the channel-split duals,
    # and 915 once pricing is per nonzero and round-off is dropped from the
    # inverse; 960 is 915 plus the 5% that the benchmark allows on its
    # pivots per frame
    config = SimConfig(decoder="lp", ebno_list=(3.0,), max_frames=6, seed=1)
    point = run_point(config, 3.0)
    assert point.frames_run == 6
    assert round(point.mean_iterations * point.frames_run) <= 960


def simulate_frames(code, ebno, seed, point, frames):
    """LLRs of all-zero frames drawn as run_point draws them, each from
    SeedSequence((seed, point, frame))."""
    cmap = psk(code.q)
    sigma = ebno_to_sigma(ebno, (code.n - code.m) / code.n, math.log2(code.q))
    tx = modulate(np.zeros(code.n, dtype=np.int64), cmap)
    out = []
    for f in frames:
        rng = np.random.default_rng(np.random.SeedSequence((seed, point, f)))
        out.append(compute_llr(awgn_sample(tx, sigma, rng), cmap, sigma))
    return out


def test_exact_decode_pivot_path_is_pinned():
    # the benchmark's exact-LP corpus (simulate's seed 1, point 0, frames
    # 0-5 at 3 dB): pivots per frame and the optimum's bits.  A change that
    # moves the pivot path updates these on purpose, with its argument; a
    # change that only makes pivots cheaper leaves them as they are
    code = ldpc80_z4()
    outs = [lp_decode_exact(code, lam)
            for lam in simulate_frames(code, 3.0, 1, 0, range(6))]
    assert [o.iterations_used for o in outs] == [114, 232, 140, 162, 110, 157]
    optima = [float(o.dual_objective_trace[0]).hex() for o in outs]
    assert optima == ["0x0.0p+0", "0x0.0p+0", "-0x1.1603d0d37c411p+0",
                      "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]


@pytest.mark.parametrize("ebno, pivots, erased", [(3.0, 307, 13),
                                                   (2.0, 691, 25)])
def test_exact_decode_fractional_frame_is_pinned(ebno, pivots, erased):
    # frame 25 of simulate's seed 1, point 0 has a fractional LP optimum at
    # 3 and 2 dB, and took 1063 and 1768 pivots before pricing per nonzero
    # and the drop tolerance.  Pivots, status and erasures are pinned, the
    # optimum is HiGHS's
    optimize = pytest.importorskip("scipy.optimize")
    code = ldpc80_z4()
    lam = simulate_frames(code, ebno, 1, 0, [25])[0]
    out = lp_decode_exact(code, lam)
    assert out.iterations_used == pivots
    assert out.status is Status.MAX_ITERATIONS
    assert int((out.symbols == ERASED).sum()) == erased
    c, A, b = decoding_lp(code, lam)
    ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                           method="highs")
    assert ref.status == 0
    assert out.dual_objective_trace[0] == pytest.approx(ref.fun, abs=1e-7)


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


def test_exact_decode_non_unit_z8_matches_highs(monkeypatch):
    # a degenerate non-unit Z_8 frame: the unperturbed full LP stalls past
    # 20 000 pivots on it, column generation from a crash basis with unit
    # columns needs about 1 300
    optimize = pytest.importorskip("scipy.optimize")
    code = random_regular_code(n=8, m=4, row_degree=4, q=8,
                               rng=np.random.default_rng(301),
                               unit_entries=False)
    lam = np.random.default_rng(1).normal(size=(8, 7)) * 1.5
    assert any(qarylp.lp._ExactSetup(code).crash_units)
    monkeypatch.setattr(qarylp.lp, "_MAX_PIVOTS", 20_000)
    out = lp_decode_exact(code, lam)
    c, A, b = decoding_lp(code, lam)
    ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                           method="highs")
    assert ref.status == 0
    assert out.dual_objective_trace[0] == pytest.approx(ref.fun, abs=1e-7)


def test_exact_decode_permutation_equivariance():
    # relabeling variables and reordering checks leaves the decoding LP the
    # same program: the optimum must not move, and an integral optimum must
    # move its symbols with the variables
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(shape=st.sampled_from([(4, 8, 4, 3, True),
                                             (4, 6, 3, 3, False),
                                             (6, 6, 3, 3, False),
                                             (8, 6, 3, 3, True),
                                             (8, 8, 4, 3, False)]),
                      seed=st.integers(0, 2**32 - 1))
    def check(shape, seed):
        q, n, m, d, unit = shape
        rng = np.random.default_rng(seed)
        code = random_regular_code(n=n, m=m, row_degree=d, q=q, rng=rng,
                                   unit_entries=unit)
        lam = rng.normal(size=(n, q - 1)) * 1.5
        # new variable k is old variable var[k]; checks are reordered
        var = rng.permutation(n)
        new_id = np.argsort(var)
        rows = tuple(tuple((int(new_id[i]), h) for i, h in code.rows[j])
                     for j in rng.permutation(m))
        moved = TannerCode(q=q, n=n, rows=rows)
        base = lp_decode_exact(code, lam)
        out = lp_decode_exact(moved, lam[var])
        assert out.dual_objective_trace[0] == pytest.approx(
            base.dual_objective_trace[0], abs=1e-7)
        if base.status is Status.CODEWORD_FOUND:
            assert np.array_equal(out.symbols, base.symbols[var])

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
    # column generation must reproduce the optimum of the full LP, also on
    # non-unit codes, whose crash bases need unit columns
    optimize = pytest.importorskip("scipy.optimize")
    codes = [random_regular_code(n=12, m=6, row_degree=3, q=4,
                                 rng=np.random.default_rng(9)),
             random_regular_code(n=6, m=3, row_degree=3, q=4,
                                 rng=np.random.default_rng(3),
                                 unit_entries=False),
             random_regular_code(n=6, m=3, row_degree=3, q=6,
                                 rng=np.random.default_rng(7),
                                 unit_entries=False)]
    for code in codes:
        rng = np.random.default_rng(55)
        A = None
        for _ in range(10):
            lam = rng.normal(size=(code.n, code.q - 1)) * 1.5
            out = lp_decode_exact(code, lam)
            c, A, b = decoding_lp(code, lam, A)
            ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                                   method="highs")
            assert ref.status == 0
            assert out.dual_objective_trace[0] == pytest.approx(ref.fun,
                                                                abs=1e-7)


# ---- weak duality against the iterative decoder ----


def test_weak_duality_bounds_lp_value():
    rng = np.random.default_rng(77)
    code = random_regular_code(n=12, m=6, row_degree=3, q=4,
                               rng=np.random.default_rng(9))
    for kappa in (1.0, 100.0):
        lam = rng.normal(size=(12, 3)) * 2.0
        # the same code's optimum is pinned to HiGHS in
        # test_exact_decode_agrees_with_reference_solver
        value = lp_decode_exact(code, lam).dual_objective_trace[0]
        config = DecoderConfig(kappa=kappa)
        state = init_state(code, lam, config)
        assert dual_objective(state) <= value + 1e-6
        for _ in range(3):
            for i, j in code.edges:
                update_edge_soft(state, i, j)
                assert dual_objective(state) <= value + 1e-6


def test_decoder_messages_are_an_lp_dual():
    # the coordinate-ascent messages, in the decoder's edge order, are the
    # coupling duals of the decoding LP once each variable's first edge
    # gives up the excess of its summed messages over its llr; with each
    # normalization dual at its check's cheapest local word, that dual is
    # feasible, and its value lies between the decoder's dual objective
    # and the LP optimum
    rng = np.random.default_rng(43)
    ragged = mixed_degree_codes()[0]
    cases = [(ldpc80_z4(), lam) for lam in ldpc80_frames(3, seed=45)]
    cases += [(ragged, rng.normal(size=(ragged.n, 3)) * 1.5) for _ in range(4)]
    A = {}
    for code, lam in cases:
        q = code.q
        c, A[code], b = decoding_lp(code, lam, A.get(code))
        optimum = lp_decode_exact(code, lam).dual_objective_trace[0]
        for kappa, update in ((100.0, update_edge_soft),
                              (math.inf, update_edge_hard)):
            state = init_state(code, lam, DecoderConfig(kappa=kappa))
            for _ in range(3):
                for i, j in code.edges:
                    update(state, i, j)
            y = state.messages.copy()
            for i in range(code.n):
                edges = variable_edges(code, i)
                excess = y[edges].sum(axis=0) - state.llr[i]
                y[edges[0]] -= np.maximum(excess, 0.0)
            padded = np.hstack([np.zeros((len(y), 1)), y])
            norm = np.array([
                padded[check_edges(code, j), enumerate_spc(code, j).words]
                .sum(axis=1).min()
                for j in range(code.m)
            ])
            duals = np.concatenate([y.ravel(), norm])
            assert (c - duals @ A[code]).min() >= -1e-9
            assert dual_objective(state) <= norm.sum() <= optimum + 1e-9


def test_trellis_prices_the_lp_optimum(monkeypatch):
    # at the exact LP's optimum, the decoder's trellis pass at kappa = inf
    # on the final coupling duals, read as edge messages, minus each
    # check's normalization dual is that check's minimum reduced cost over
    # its enumerate_spc words, and no word prices in: the codebook-free
    # form of the optimality test that column generation runs word by word
    engine = qarylp.lp._revised_phase2
    duals = []

    def capture(*args, **kwargs):
        out = engine(*args, **kwargs)
        duals.append(out[1])
        return out

    monkeypatch.setattr(qarylp.lp, "_revised_phase2", capture)
    rng = np.random.default_rng(47)
    cases = [(ldpc80_z4(), lam) for lam in ldpc80_frames(4, seed=47)]
    # non-unit Z_4, zero-divisor Z_6 and uncovered variables
    cases += [(code, rng.normal(0.3, 1.5, size=(code.n, code.q - 1)))
              for code in mixed_degree_codes() for _ in range(3)]
    for code, lam in cases:
        duals.clear()
        lp_decode_exact(code, lam)
        y = duals[-1]
        cache = qarylp.decoder._code_cache(code)
        n_coupling = cache.n_edges * (code.q - 1)
        messages = y[:n_coupling].reshape(cache.n_edges, code.q - 1)
        norm = y[n_coupling:n_coupling + code.m]
        got = qarylp.decoder._trellis(messages, math.inf, cache)[:, 0, 0] - norm
        padded = np.hstack([np.zeros((cache.n_edges, 1)), messages])
        want = np.array([
            padded[check_edges(code, j), enumerate_spc(code, j).words]
            .sum(axis=1).min()
            for j in range(code.m)
        ]) - norm
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert want.min() >= -qarylp.lp._PRICING_TOL
