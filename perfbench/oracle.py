"""Checks the benchmark makes on decoder outputs, computed apart from qarylp.

Everything here works from the check rows ((column, coefficient) pairs) and
the LLR matrix alone.  Syndromes and word costs are plain integer and float
sums; the decoding LP is rebuilt from a local-word enumeration of its own (a
filter over all q^d tuples, not the completion search of `enumerate_spc`)
and solved with scipy's HiGHS.
"""

from __future__ import annotations

import itertools

import numpy as np

ERASED = -1


def syndrome_is_zero(rows, q: int, word) -> bool:
    """True when every check sum_t c[i_t] * h_t is 0 mod q."""
    w = [int(s) for s in word]
    return all(sum(w[i] * h for i, h in row) % q == 0 for row in rows)


def word_cost(llr, word) -> float:
    """Channel cost of a word: sum of llr[i, c_i - 1] over its nonzero symbols."""
    llr = np.asarray(llr, dtype=np.float64)
    w = np.asarray(word, dtype=np.int64)
    nz = np.flatnonzero(w)
    return float(llr[nz, w[nz] - 1].sum())


def cost_tolerance(llr) -> float:
    """Slack for comparing LP values and dual bounds on one frame."""
    return 1e-9 * (1.0 + float(np.abs(llr).sum()))


def local_words(row, q: int) -> np.ndarray:
    """Every tuple over Z_q of the check's degree that satisfies it."""
    coeffs = np.array([h for _, h in row], dtype=np.int64)
    tuples = np.array(list(itertools.product(range(q), repeat=len(row))),
                      dtype=np.int64)
    return tuples[(tuples @ coeffs) % q == 0]


class HighsDecodingLP:
    """The decoding LP of one code, solved by HiGHS for any LLR matrix.

    Columns: the relaxed indicator f[i, a] for every variable i and nonzero
    symbol a (cost llr[i, a - 1]), then one convex weight per local word of
    every check (cost 0).  Rows: for every check, position and nonzero
    symbol, f[i, a] equals the weight of the local words holding a there;
    the weights of every check sum to 1.
    """

    def __init__(self, rows, n: int, q: int):
        from scipy.sparse import coo_matrix

        self.n, self.q = n, q
        n_ind = n * (q - 1)
        r_idx, c_idx, vals = [], [], []
        row = 0
        col = n_ind
        norm_rows = []
        for check in rows:
            words = local_words(check, q)
            for t, (i, _) in enumerate(check):
                for a in range(1, q):
                    r_idx.append(row)
                    c_idx.append(i * (q - 1) + a - 1)
                    vals.append(1.0)
                    hits = np.flatnonzero(words[:, t] == a)
                    r_idx.extend([row] * hits.size)
                    c_idx.extend((col + hits).tolist())
                    vals.extend([-1.0] * hits.size)
                    row += 1
            norm_rows.append((col, col + len(words)))
            col += len(words)
        n_coupling = row
        for j, (lo, hi) in enumerate(norm_rows):
            r_idx.extend([n_coupling + j] * (hi - lo))
            c_idx.extend(range(lo, hi))
            vals.extend([1.0] * (hi - lo))
        self.n_rows = n_coupling + len(norm_rows)
        self.n_cols = col
        self.A = coo_matrix((vals, (r_idx, c_idx)),
                            shape=(self.n_rows, self.n_cols)).tocsr()
        self.b = np.zeros(self.n_rows)
        self.b[n_coupling:] = 1.0

    def optimum(self, llr) -> float:
        """Optimal value of the decoding LP for this LLR matrix."""
        from scipy.optimize import linprog

        c = np.zeros(self.n_cols)
        c[:self.n * (self.q - 1)] = np.asarray(llr, dtype=np.float64).ravel()
        res = linprog(c, A_eq=self.A, b_eq=self.b, bounds=(0, None),
                      method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS did not solve the decoding LP: {res.message}")
        return float(res.fun)
