"""The loop forms of the integer kernels as they stood before numcore's
elimination and the frame certificate became array operations: the
independent references the tests compare those against.

bareiss_rows is numcore's fraction-free Gauss-Jordan on lists of integer
rows, with the row_update it called; frame_certificate is
GaudinFrame._certify's per-pair body, reading a frame's dicts, with the
_bracket, _scalar and _term helpers it called; int_matmul is numcore's
product before its float64 path (int64 under a bound, else Python ints).
The bodies are verbatim apart from frame_certificate taking the frame as
an argument.
"""

import numpy as np

from gaudinlab.numcore import int_array, int_bound


def int_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B of integer arrays (int64 or Python ints), exactly.

    When max|A| max|B| k < 2^63 bounds every partial sum of the k-term dot
    products, the product runs in int64; otherwise on Python ints.  Either
    way the values are the same.
    """
    if int_bound(A) * int_bound(B) * A.shape[1] < 2**63:
        return A.astype(np.int64) @ B.astype(np.int64)
    return A.astype(object) @ B.astype(object)


def row_update(a: int, v: list, b: int, row: list, d: int = 1) -> list:
    """(a v - b row) / d on integer rows; d must divide every entry exactly."""
    if d == 1:
        return [a * x - b * y for x, y in zip(v, row)]
    return [(a * x - b * y) // d for x, y in zip(v, row)]


def bareiss_rows(M: list):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer rows in place.

    The step at pivot p in column c maps each other row v to
    (p v - v[c] pivot_row) / prev, an exact integer division by the previous
    pivot, so entries stay minors of the matrix.  Each step also scales the
    earlier pivot rows by p / prev, so every pivot row ends with the last
    pivot d in its pivot column, the rows below them are zero, and the rref
    is M / d.  Returns (pivots, d).
    """
    ncols = len(M[0])
    pivots = []
    prev, r = 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            M[r], M[pr] = M[pr], M[r]
        p, prow = M[r][c], M[r]
        for i in range(len(M)):
            # a row with a zero in column c only rescales by p / prev
            if i != r and (M[i][c] or p != prev):
                M[i] = row_update(p, M[i], M[i][c], prow, prev)
        prev = p
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return pivots, prev


def _term(c: int, W: np.ndarray) -> np.ndarray:
    """c I - W for a square integer array W, as an int_array."""
    return int_array(c * np.eye(W.shape[0], dtype=object) - W.astype(object))


def _bracket(A: np.ndarray, *Bs) -> np.ndarray:
    """[A, sum(Bs)] of integer arrays as one int_matmul product."""
    return int_matmul(np.hstack([A] * len(Bs) + list(Bs)),
                      np.vstack(list(Bs) + [-A] * len(Bs)))


def _scalar(c: int, A: np.ndarray) -> np.ndarray:
    """c I of A's size, as an int_array."""
    return int_array(c * np.eye(A.shape[0], dtype=object))


def frame_certificate(self) -> dict:
    """Integer defects of the frame identities behind each of IDENTITIES;
    all zero on a sound frame.

    commutators: the classical Yang-Baxter relations
    [Omega_sr, Omega_sk + Omega_rk] = 0, and [Omega_sr, Omega_kj] = 0 for
    disjoint pairs (Gaudin 1976).  shapovalov_symmetry:
    G Omega_sr = Omega_sr^T G.  z_weighted_identity and g0_identity:
    sum_{s<r} (m_s m_r - Omega_hat_sr) = l lt on Sing.  hamiltonian_sum:
    Omega_{s,r} = Omega_{r,s} on each space.  Each also carries the
    restriction defects, Omega S = S Omega_hat and
    P Omega_hat = Omega_tilde P, through which Sing and the quotient
    inherit it.
    """
    n = len(self.m)
    om, NS, DS, NP, DP, NG = (self.omega, self._NS, self._DS, self._NP, self._DP,
                              self._NG)
    pairs = [(s, r) for s in range(n) for r in range(s + 1, n)]
    yb = shap = restricted = 0
    for s, r in pairs:
        A, K, L = om[s, r], self.omega_sing[s, r], self.omega_L[s, r]
        for k in range(n):
            if k not in (s, r):
                yb = max(yb, int_bound(_bracket(A, om[s, k], om[r, k])))
        for k, j in pairs:
            if k > s and not {k, j} & {s, r}:
                yb = max(yb, int_bound(_bracket(A, om[k, j])))
        shap = max(shap, int_bound(int_matmul(np.hstack([NG, A.T]),
                                           np.vstack([A, -NG]))))
        # N_S K - D_S (Omega N_S) and D_P (N_P K) - L N_P
        OS, PK = int_matmul(A, NS), int_matmul(NP, K)
        restricted = max(
            restricted,
            int_bound(int_matmul(np.hstack([NS, OS]), np.vstack([K, _scalar(-DS, K)]))),
            int_bound(int_matmul(np.hstack([_scalar(DP, L), L]), np.vstack([PK, -NP]))))
    sym = max((int_bound(W[s, r].astype(object) - W[r, s].astype(object))
               for W in (om, self.omega_sing, self.omega_L) for s, r in pairs
               if not np.array_equal(W[s, r], W[r, s])), default=0)
    mm = sum(self.m[s] * self.m[r] for s, r in pairs)
    rule = int_bound(_term(DS * (mm - self.l * self.ltilde),
                        sum(self.omega_sing[p].astype(object) for p in pairs)))
    defects = {"commutators": yb, "hamiltonian_sum": sym, "z_weighted_identity": rule,
               "g0_identity": rule, "shapovalov_symmetry": shap}
    return {name: max(v, restricted) for name, v in defects.items()}
