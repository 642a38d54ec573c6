"""Gaudin Hamiltonians as explicit matrices and the algebra they generate.

The Hamiltonian attached to the s-th marked point is

    H_s = sum_{r != s} (m_s m_r - Omega_{s,r}) / (z_s - z_r),

with Omega the permutation-type invariant built from all four gl(2)
generators per factor.  The monomial model of gl2rep stores the diagonal
generators in shifted form, so Omega is assembled here from the factor
degree diagonals:  t11 = m - deg,  t22 = deg,  which are the untwisted
diagonal actions on each factor.

Matrices are produced on three nested spaces: the full level-l weight
space (H_big), the singular subspace (H_sing), and the Shapovalov
quotient (H_L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .gl2rep import (
    ProblemInstance,
    ShQuotient,
    degree_diagonal,
    generator_matrix,
    sh_quotient,
)
from .numcore import (
    InconsistentSystemError,
    fraction_array,
    identity,
    int_array,
    int_bound,
    int_matmul,
    integer_numerators,
    is_exact_array,
    kernel_basis,
    matmul,
    max_abs,
    primitive,
    rank_of,
    row_update,
    solve_linear,
    zeros_like_domain,
    DEFAULT_TOL,
    Tolerances,
)

__all__ = [
    "GaudinFrame",
    "GaudinSystem",
    "IDENTITIES",
    "build_gaudin",
    "build_gaudins",
    "polynomial_valued_kernel",
    "apply_universal_operator",
    "bethe_algebra_basis",
    "span_closure",
    "stacked_algebra_dims",
    "induced_map_kernel",
    "annihilator_ideal",
]

# The spaces the Hamiltonians act on: level l, Sing, the Shapovalov quotient.
SPACES = ("big", "sing", "L")

# The z-independent identities run_pipeline reports, gated on the frame
# certificate.
IDENTITIES = ("commutators", "hamiltonian_sum", "z_weighted_identity",
              "g0_identity", "shapovalov_symmetry")


def _readonly(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


def _term(c: int, W: np.ndarray) -> np.ndarray:
    """c I - W for a square integer array W, as an int_array."""
    return int_array(c * np.eye(W.shape[0], dtype=object) - W.astype(object))


def _times(c: int, W: np.ndarray) -> np.ndarray:
    """c W for an integer array W, as an int_array."""
    return int_array(c * W.astype(object))


def _sum(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X + Y of integer arrays, exactly: in int64 when max|X| + max|Y| < 2^63
    bounds every sum, else on Python ints."""
    if int_bound(X) + int_bound(Y) < 2**63:
        return X + Y
    return X.astype(object) + Y


@dataclass(frozen=True)
class FrameLane:
    """A frame's singular basis, quotient and E12 in one scalar domain
    (exact or float): what GaudinSystem carries."""

    shq: ShQuotient
    E12: np.ndarray


class GaudinFrame:
    """The part of the Hamiltonians that does not depend on z, for one (m, l).

    Each Omega_{s,r} is built once, as an integer array, from the integer
    generator and degree matrices of the instance given (its z is not read),
    and so are E12 and the Shapovalov quotient, whose integer numerators
    (shq.numerators) the frame reads; the quotient's singular basis is the
    kernel of this E12.  Omega restricts to Sing as
    Omega_hat = (Omega S)[shq.free]: S is the identity on its free rows, so
    Omega S = S Omega_hat.  On the quotient it is Omega_tilde = P Omega_hat C
    (P = shq.sh, C = shq.lift).  Both are kept as integer numerators over one
    denominator per space.  Each of the three is one int_matmul stack over
    the pairs s < r, read as dicts of views keyed by (s, r) and (r, s).

    combination forms the Hamiltonians on the one space asked;
    lane(exact) gives E12 and shq in one scalar domain the first time an
    instance of that domain asks, and keeps them, since all systems built on
    the frame share them: shq forms each of its fields in that domain, from
    the integer numerators, when it is first read.  certificate holds the
    integer defects of the identities every H_s inherits, computed once.
    """

    def __init__(self, inst: ProblemInstance):
        n, l = inst.n, inst.l
        self.m, self.l, self.ltilde = inst.m, l, inst.ltilde

        def gens(a, b, k):
            return [generator_matrix(inst, a, b, s, k) for s in range(n)]

        e12_lo, e12_hi, e21_lo, e21_hi = gens(1, 2, l), gens(1, 2, l + 1), \
            gens(2, 1, l - 1), gens(2, 1, l)
        degs = [degree_diagonal(inst, s, l) for s in range(n)]
        t11 = [self.m[s] * np.eye(degs[s].shape[0], dtype=np.int64) - degs[s]
               for s in range(n)]
        # Omega = t11 (x) t11 + t22 (x) t22 + e12 (x) e21 + e21 (x) e12, one product
        pairs = list(combinations(range(n), 2))
        left = [np.hstack([t11[s], degs[s], e12_hi[s], e21_lo[s]]) for s in range(n)]
        right = [np.vstack([t11[r], degs[r], e21_hi[r], e12_lo[r]]) for r in range(n)]
        omega = int_matmul(np.stack([left[s] for s, _ in pairs]),
                           np.stack([right[r] for _, r in pairs]))
        self.E12 = _readonly(sum(e12_lo[1:], e12_lo[0]))
        self._shq = sh_quotient(inst, self.E12)
        nums = self._shq.numerators
        for N, _ in nums.values():
            _readonly(N)
        (NS, self._DS), (NP, self._DP) = nums["sing"], nums["sh"]
        NC, self._NG = nums["lift"][0], nums["gram"][0]
        self._NS, self._NP = NS, NP
        K = int_matmul(omega, NS)[:, self._shq.free]
        self.omega, self.omega_sing, self.omega_L = (
            {key: _readonly(W)[i] for i, p in enumerate(pairs) for key in (p, p[::-1])}
            for W in (omega, K, int_matmul(int_matmul(NP, K), NC)))
        self._lanes = {}

    def lane(self, exact: bool) -> FrameLane:
        if exact not in self._lanes:
            E12 = fraction_array(self.E12, 1) if exact else self.E12.astype(complex)
            self._lanes[exact] = FrameLane(shq=replace(self._shq, exact=exact),
                                           E12=_readonly(E12))
        return self._lanes[exact]

    def combination(self, insts, space: str) -> list:
        """The frame's H_s at each instance of insts (one lane) on one of
        SPACES, for each s: sum_{r != s} (m_s m_r I - Omega_{s,r}) / (z_s - z_r),
        one tuple per instance, as GaudinSystem holds them.

        The terms m_s m_r I - Omega_{s,r} are formed here, for this space
        only, one per unordered pair.  Exact: integer terms D m_s m_r I - W
        (Omega = W / D on the space), each H_s their integer combination
        over the coefficients' common denominator, as Fraction arrays.
        Float: complex terms m_s m_r I - W / D, summed term by term into one
        S x n x d x d stack, each term for every instance at once; an
        instance's H_s does not depend on the others in the stack.
        """
        W, D = {"big": (self.omega, 1), "sing": (self.omega_sing, self._DS),
                "L": (self.omega_L, self._DP * self._DS)}[space]
        m, n, d, exact = self.m, len(self.m), len(W[0, 1]), insts[0].exact
        T = {}
        for s in range(n):
            for r in range(s + 1, n):
                # one term per unordered pair, shared by (s, r) and (r, s)
                c = m[s] * m[r]
                T[s, r] = T[r, s] = _term(c * D, W[s, r]) if exact else \
                    c * np.eye(d, dtype=complex) - W[s, r].astype(float) / D
        pairs = [[r for r in range(n) if r != s] for s in range(n)]
        if exact:
            def H_s(z, s, others):
                ks, Dz = integer_numerators([1 / (z[s] - z[r]) for r in others])
                cols = np.stack([T[s, r].reshape(-1) for r in others], axis=1)
                return fraction_array(int_matmul(cols, int_array(ks)[:, None]).reshape(d, d),
                                      Dz * D)

            return [tuple(H_s(inst.z, s, others) for s, others in enumerate(pairs))
                    for inst in insts]
        out = np.zeros((len(insts), n, d, d), dtype=complex)
        for s, others in enumerate(pairs):
            coefs = np.array([[1 / (inst.z[s] - inst.z[r]) for r in others] for inst in insts])
            acc = out[:, s]
            for j, r in enumerate(others):
                acc = acc + T[s, r] * coefs[:, j, None, None]
            out[:, s] = acc
        return [tuple(h) for h in out]

    @cached_property
    def certificate(self) -> dict:
        return self._certify()

    def _certify(self) -> dict:
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

        The frame's dicts are stacked when this runs, and each family is one
        int_matmul over its stack: every bracket [A, B] as [A, B] [B; -A],
        G A - A^T G, N_S K - A (D_S N_S) and N_P (D_P K) - L N_P.  A defect
        is the largest entry of its stack in absolute value.
        """
        n = len(self.m)
        om, NS, DS, NP, DP, NG = (self.omega, self._NS, self._DS, self._NP, self._DP,
                                  self._NG)
        pairs = list(combinations(range(n), 2))
        A = np.stack([om[p] for p in pairs])
        K = np.stack([self.omega_sing[p] for p in pairs])
        L = np.stack([self.omega_L[p] for p in pairs])

        def each(N):
            return np.broadcast_to(N, (len(pairs),) + N.shape)

        zero = np.zeros_like(A[0])
        brackets = [(i, om[s, k], om[r, k]) for i, (s, r) in enumerate(pairs)
                    for k in range(n) if k not in (s, r)]
        brackets += [(i, om[k, j], zero) for i, (s, r) in enumerate(pairs)
                     for k, j in pairs if k > s and not {k, j} & {s, r}]
        yb = 0
        if brackets:
            idx, B1, B2 = zip(*brackets)
            Ab, B = A[list(idx)], _sum(np.stack(B1), np.stack(B2))
            yb = int_bound(int_matmul(np.concatenate([Ab, B], axis=2),
                                      np.concatenate([B, -Ab], axis=1)))
        shap = int_bound(int_matmul(np.concatenate([each(NG), A.transpose(0, 2, 1)], axis=2),
                                    np.concatenate([A, each(-NG)], axis=1)))
        restricted = max(
            int_bound(int_matmul(np.concatenate([each(NS), A], axis=2),
                                 np.concatenate([K, each(_times(-DS, NS))], axis=1))),
            int_bound(int_matmul(np.concatenate([each(NP), L], axis=2),
                                 np.concatenate([_times(DP, K), each(-NP)], axis=1))))
        sym = max((int_bound(W[s, r].astype(object) - W[r, s].astype(object))
                   for W in (om, self.omega_sing, self.omega_L) for s, r in pairs
                   if not np.array_equal(W[s, r], W[r, s])), default=0)
        mm = sum(self.m[s] * self.m[r] for s, r in pairs)
        rule = int_bound(_term(DS * (mm - self.l * self.ltilde), K.astype(object).sum(axis=0)))
        defects = {"commutators": yb, "hamiltonian_sum": sym, "z_weighted_identity": rule,
                   "g0_identity": rule, "shapovalov_symmetry": shap}
        return {name: max(v, restricted) for name, v in defects.items()}


@dataclass(frozen=True)
class GaudinSystem:
    """The frame's Hamiltonians at inst's z, on the three nested spaces.

    H_big, H_sing and H_L are frame.combination([inst], space), formed the
    first time each is read and then kept: Fraction arrays on an exact
    instance, complex arrays otherwise; families holds a space's H_s formed
    beforehand (build_gaudins).  shq (singular basis, Gram matrices and
    quotient) and E12 are the frame lane's read-only arrays.
    """

    inst: ProblemInstance
    frame: GaudinFrame
    families: dict = field(default_factory=dict, compare=False, repr=False)

    def _family(self, space: str) -> tuple:
        return self.families.get(space) or self.frame.combination([self.inst], space)[0]

    @cached_property
    def H_big(self) -> tuple:
        return self._family("big")

    @cached_property
    def H_sing(self) -> tuple:
        return self._family("sing")

    @cached_property
    def H_L(self) -> tuple:
        return self._family("L")

    @property
    def shq(self) -> ShQuotient:
        return self.frame.lane(self.inst.exact).shq

    @property
    def E12(self) -> np.ndarray:
        """The raising operator, level l -> level l-1."""
        return self.frame.lane(self.inst.exact).E12

    @property
    def dim_sing_m(self) -> int:
        return len(self.shq.free)

    @property
    def dim_sing_l(self) -> int:
        return self.shq.dim


def build_gaudin(inst: ProblemInstance, frame: GaudinFrame | None = None) -> GaudinSystem:
    """The system of inst on frame (built here if None).

    ValueError if the frame was built for another (m, l).
    """
    if frame is None:
        frame = GaudinFrame(inst)
    elif (frame.m, frame.l) != (inst.m, inst.l):
        raise ValueError(f"frame is for (m, l) = ({frame.m}, {frame.l}), "
                         f"instance has ({inst.m}, {inst.l})")
    return GaudinSystem(inst, frame)


def build_gaudins(insts, frame: GaudinFrame) -> list:
    """The systems of the instances insts (one lane) on frame, each space's
    Hamiltonians formed for every instance at once (GaudinFrame.combination:
    one stack in the float lane), equal to build_gaudin's."""
    systems = [build_gaudin(inst, frame) for inst in insts]
    for space in SPACES:
        for sysd, H in zip(systems, frame.combination(insts, space)):
            sysd.families[space] = H
    return systems


def _universal_operator(sys: GaudinSystem, space: str, deg: int):
    """(H_s on space, M0, M) of the universal operator
    A d^2/dx^2 + B d/dx + sum_s H_s A_s on vector polynomials of degree deg:
    M0 and M are the leading deg + n rows and deg + 1 columns of the
    instance's ZTables.M0 and .M."""
    if space not in ("sing_m", "sing_l"):
        raise ValueError("space must be 'sing_m' or 'sing_l'")
    M0, M = sys.inst.tables.M0[0], sys.inst.tables.M[0]
    rows, cols = deg + sys.inst.n, deg + 1
    return list(sys.H_sing if space == "sing_m" else sys.H_L), M0[:rows, :cols], M[:, :rows, :cols]


def apply_universal_operator(sys: GaudinSystem, space: str, coeffs):
    """Coefficient vectors of  A v'' + B v' + sum_s H_s A_s v  for a vector
    polynomial: D U = U M0^T + sum_s H_s U M[s]^T, as one product, on the
    d x (deg + 1) block U of ascending coefficients (_universal_operator).

    coeffs lists the vector coefficients of v(x) in descending powers
    (v = coeffs[0] x^deg + ... + coeffs[deg]); the result is ascending.
    """
    mats, M0, M = _universal_operator(sys, space, len(coeffs) - 1)
    U = np.stack(coeffs[::-1], axis=1)
    d = U.shape[0]
    HU = matmul(np.vstack(mats), U)
    parts = [U] + [HU[s * d:(s + 1) * d] for s in range(len(mats))]
    return list(matmul(np.hstack(parts), np.vstack([M0.T] + [Ms.T for Ms in M])).T)


def polynomial_valued_kernel(sys: GaudinSystem, space: str, v0, deg: int,
                             tol: Tolerances = DEFAULT_TOL):
    """Vector coefficients v_1..v_deg with D(v0 x^deg + v1 x^{deg-1} + ...) = 0.

    deg must be l or lt = sum(m)+1-l.  For deg = lt the coefficient of x^l
    is pinned to zero, which removes the freedom of adding multiples of the
    degree-l solution.  v_i is solved from the coefficient r = deg - i + n - 2
    of D v, highest power first, with the block M0[r, k] I + sum_s M[s][r, k] H_s
    (k = deg - i; _universal_operator); all of D v is then verified (at
    tol.residual) and raises InconsistentSystemError.
    """
    inst = sys.inst
    l, lt, n = inst.l, inst.ltilde, inst.n
    if deg not in (l, lt):
        raise ValueError(f"deg must be {l} or {lt}")
    mats, M0, M = _universal_operator(sys, space, deg)
    exact = inst.exact
    v0 = v0 if exact else np.asarray(v0, dtype=complex)
    eye = identity(len(v0), exact)

    def block(r, k):
        return eye * M0[r, k] + sum(H * M[s, r, k] for s, H in enumerate(mats))

    # column 0 of M[s] holds A_s: block(k, 0) is the x^k coefficient of sum_s H_s A_s
    scale = max(1.0, max_abs(v0), max(max_abs(block(k, 0)) for k in range(n)))

    def check(coeffs, what):
        resid = max(max_abs(c) for c in coeffs)
        if resid != 0.0 if exact else resid > tol.residual * scale:
            raise InconsistentSystemError(f"{what} {resid:.3e}")

    vs = [v0] + [zeros_like_domain((len(v0),), exact) for _ in range(deg)]
    for i in range(1, deg + 1):
        # v_i, ..., v_deg are still zero, so coefficient r of D v is the right side
        r = deg - i + n - 2
        rhs = apply_universal_operator(sys, space, vs)[r]
        if deg - i == l and deg == lt > l:
            check([rhs], "pinned coefficient equation has residual")
        else:
            vs[i] = solve_linear(block(r, deg - i), -rhs, tol.svd_rel)
    check(apply_universal_operator(sys, space, vs), "trailing kernel equations have residual")
    return vs[1:]


class _ExactReducer:
    """Incremental fraction-free row reduction for span/rank bookkeeping.

    A vector is scaled to integers and reduced by v <- row[p] v - v[p] row
    (both factors divided by their gcd) against each stored row; a new row is
    stored primitive.  Scaling a row never changes the span it adds to.
    """

    def __init__(self):
        self.rows = []   # (pivot index, primitive integer row)

    def add(self, v) -> bool:
        v = integer_numerators(v.tolist())[0]
        for p, row in self.rows:
            f = v[p]
            if f:
                g = math.gcd(f, row[p])
                v = row_update(row[p] // g, v, f // g, row)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        self.rows.append((piv, primitive(v)))
        return True

    def add_level(self, vs) -> list:
        return [self.add(v) for v in vs]


class _FloatReducer:
    """Incremental orthonormal span tracking with a relative gate.

    The orthonormal basis is the first k rows of one complex array, which
    grows by doubling.  A candidate v0 joins the span when its residual v,
    left by classical Gram-Schmidt applied twice (v -= (v Q^H) Q), has
    |v| > tol |v0|; the span then gains v / |v|.
    """

    def __init__(self, tol):
        self.tol = tol
        self.Q = None
        self.k = 0

    def _residual(self, V, lo):
        """V (one vector or rows of vectors) less its components along
        basis rows lo..k-1."""
        Q = self.Q[lo:self.k]
        Qh = Q.conj().T
        for _ in range(2):
            V = V - (V @ Qh) @ Q
        return V

    def add_level(self, vs) -> list:
        """Add the candidates vs in order; True for each one that joins.

        They are projected against the span as one block.  A candidate whose
        residual is already within the gate is rejected there, since a larger
        span can only shrink it; the others are projected, one by one, against
        the rows added since.
        """
        V = np.array(vs, dtype=complex)
        # a candidate with entries past about 1e154 (products of Hamiltonians
        # at marked points about 1e-100 apart) overflows its squared norm to
        # inf; its gate is then inf and it does not join, and the dimension
        # gates downstream fail by name
        with np.errstate(over="ignore"):
            gate = self.tol * np.linalg.norm(V, axis=1)
            k0 = self.k
            if k0:
                V = self._residual(V, 0)
            keep = []
            for v, norm, g in zip(V, np.linalg.norm(V, axis=1), gate):
                if norm > g and self.k > k0:
                    v = self._residual(v, k0)
                    norm = np.linalg.norm(v)
                keep.append(bool(norm > g))
                if keep[-1]:
                    self._append(v / norm)
        return keep

    def _append(self, q):
        if self.Q is None:
            self.Q = np.empty((8, len(q)), dtype=complex)
        elif self.k == len(self.Q):
            self.Q = np.concatenate([self.Q, np.empty_like(self.Q)])
        self.Q[self.k] = q
        self.k += 1


def span_closure(start, mats, act, tol: Tolerances = DEFAULT_TOL, words=None):
    """Basis of the smallest span holding start and closed under v -> act(v, H).

    Breadth first: each level's images act(v, H), for v among the previous
    level's new vectors and H in mats, are reduced against the span in that
    order, and each image the span does not already contain is kept; exact
    when start is, else gated at tol.svd_rel relative.  start itself is
    dropped if zero.  If words is a list, it receives each kept element's
    word: None for start, (i, j) for act(basis[i], mats[j]).
    """
    red = _ExactReducer() if is_exact_array(start) else _FloatReducer(tol.svd_rel)
    basis, level, born = [], [start], [None]
    while level:
        new = red.add_level([w.reshape(-1) for w in level])
        level = [w for w, keep in zip(level, new) if keep]
        if words is not None:
            words += [b for b, keep in zip(born, new) if keep]
            born = [(i, j) for i in range(len(basis), len(basis) + len(level))
                    for j in range(len(mats))]
        basis += level
        level = [act(v, H) for v in level for H in mats]
    return basis


def bethe_algebra_basis(mats, tol: Tolerances = DEFAULT_TOL, words=None):
    """Basis of the unital matrix algebra generated by a commuting family.

    Monomial closure degree by degree with rank checks; terminates because
    the dimension is bounded by (matrix size)^2.  words receives each
    element's word in mats, as span_closure records it.
    """
    if not mats:
        raise ValueError("need at least one generator")
    d = mats[0].shape[0]
    if d == 0:
        return []
    eye = identity(d, is_exact_array(mats[0]))
    return span_closure(eye, mats, matmul, tol, words)


def _acting(algebras):
    """images_of for a stack of matrix algebras F (S x m x d x d): X
    (S x d x c) -> the blocks F_j X (S x m x d x c), one product."""
    S, m, d, _ = algebras.shape
    F = algebras.reshape(S, m * d, d)
    return lambda X: matmul(F, X).reshape(S, m, d, X.shape[-1])


def _word_walk(H, words):
    """images_of for the closure's words (span_closure) at each family of H
    (S x n x d x d, either lane): one batched matmul per word, no matrix."""
    def images_of(X):
        Y = np.empty((len(H), len(words)) + X.shape[1:], dtype=H.dtype)
        for i, word in enumerate(words):
            Y[:, i] = X if word is None else matmul(H[:, word[1]], Y[:, word[0]])
        return Y
    return images_of


def _cyclic_block(images_of, one: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """(V, U, cyclic) for the algebras whose blocks images_of gives (X, S x
    d x c -> f_j X, S x m x d x c), one the lane's identity: V (d x k) with
    rank [f_1 V | ... | f_m V] = d at the first sample, U = images_of(V),
    and cyclic, whether each sample has that rank at k = 1 (a batched rank).
    V is the all-ones column 1, then e_0, e_1, ... (exact on an exact lane,
    else gated at tol.svd_rel); at k = d + 1 f V holds every column of f.

    On a commutative algebra f -> f V is then injective: f V = 0 gives
    f g V = g f V = 0 for every g, and the g V span the space.  So the
    blocks f_j V stand for the f_j in every linear relation (_reduce), a
    wider block serves too, and d commuting f_j with independent f_j 1 are
    a basis of the algebra they generate (stacked_algebra_dims).
    """
    d = len(one)
    cands = np.hstack([one.sum(axis=1, keepdims=True), one])
    for k in range(1, d + 2):
        U = images_of(cands[None, :, :k])
        if k > d:
            break
        # one row per vector f_j V e_c of a sample; past k = 1 only the first
        rows = U.transpose(0, 1, 3, 2).reshape(len(U), -1, d)
        full = rank_of(rows if k == 1 else rows[:1], tol.svd_rel) == d
        cyclic = full if k == 1 else cyclic
        if full[0]:
            break
    return cands[:, :k], U, cyclic


def _annihilators(images_of, X, tol: Tolerances) -> list:
    """For each sample s, a basis of the coefficient vectors a with
    sum_j a_j f_j X[s] = 0, X (S x d x c), images_of(X) the blocks f_j X."""
    Y = images_of(X)
    S, m, d, c = Y.shape
    return kernel_basis(Y.reshape(S, m, d * c).transpose(0, 2, 1), tol.svd_rel)


def _reduce(U, images_of, sh: np.ndarray, tol: Tolerances) -> list:
    """(kernel, annihilator) of each sample's algebra as coefficient bases
    over its elements f_j, from the blocks U[s, j] = f_j V (S x m x d x k;
    an exact lane is the one-sample stack), images_of applying every f_j to
    a block (_acting, _word_walk).  No matrix of the algebra is formed.

    The kernel { f : sh f = 0 } is sh f V = 0: sh intertwines the algebra
    (sh g = g~ sh, certified by the frame), so sh f g V = g~ sh f V.  Its
    annihilator is f g V = 0 (f g is in the algebra) on the blocks
    g V = sum_j c_j U[s, j], each kernel padded with zero vectors."""
    S, m, d, k = U.shape
    PU = matmul(sh, U.transpose(2, 0, 1, 3).reshape(d, S * m * k))
    # column j of sample s is (sh U[s, j]) flattened
    kernels = kernel_basis(PU.reshape(-1, S, m, k).transpose(1, 0, 3, 2)
                           .reshape(S, -1, m), tol.svd_rel)
    C = np.zeros((S, max(map(len, kernels)), m), dtype=U.dtype)
    for s, g in enumerate(kernels):
        C[s, :len(g)] = np.reshape(g, (len(g), m))
    X = matmul(C, U.reshape(S, m, d * k)).reshape(S, -1, d, k).transpose(0, 2, 1, 3)
    return list(zip(kernels, _annihilators(images_of, X.reshape(S, d, -1), tol)))


def _combinations(algebra, combos) -> list:
    """sum_i c[i] algebra[i] for each vector c of combos."""
    if not combos:
        return []
    # row j of the product is the flattened sum_i combos[j][i] algebra[i]
    flat = matmul(np.stack(combos), np.reshape(algebra, (len(algebra), -1)))
    return list(flat.reshape((len(combos),) + algebra[0].shape))


def _adapter_block(algebra, tol: Tolerances):
    """(images_of, V, U): _acting and _cyclic_block on a list of matrices."""
    images_of = _acting(np.stack(algebra)[None])
    one = identity(len(algebra[0]), is_exact_array(algebra[0]))
    return (images_of,) + _cyclic_block(images_of, one, tol)[:2]


def induced_map_kernel(algebra, sh: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Elements of span(algebra) whose composition with sh vanishes, for a
    commutative algebra that sh intertwines: _reduce's kernel as matrices."""
    if len(algebra) == 0:
        return []
    images_of, _, U = _adapter_block(algebra, tol)
    return _combinations(algebra, _reduce(U, images_of, sh, tol)[0][0])


def annihilator_ideal(algebra, kernel, tol: Tolerances = DEFAULT_TOL):
    """Basis of J = { f in span(algebra) : f g = 0 for every g in kernel }.

    The algebra must be commutative and hold kernel; J comes from the
    blocks F [g_1 V | ... | g_c V], V = _cyclic_block (_annihilators), and
    is formed as matrices.
    """
    if len(algebra) == 0 or not kernel:
        return list(algebra)
    images_of, V, _ = _adapter_block(algebra, tol)
    X = _acting(np.stack(kernel)[None])(V[None]).transpose(0, 2, 1, 3).reshape(1, len(V), -1)
    return _combinations(algebra, _annihilators(images_of, X, tol)[0])


def stacked_algebra_dims(families, sh: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> list:
    """(dim B, dim ker, dim Ann) of each family of families, B the algebra
    its H_s generate on Sing, ker the kernel of B's map to the quotient
    (sh) and Ann its annihilator, counted off _reduce's coefficient bases.

    families holds the H_s on Sing of systems of one frame and one lane,
    which share sh.  Each round closes the first open family, recording
    each element's word, and runs _cyclic_block on the words' walk at every
    open family (_word_walk).  The first family, and each whose d words have
    rank d on the all-ones vector (so are a basis of its B), reduce as one
    stack at the first family's block; the rest open the next round.
    """
    if not families or families[0][0].shape[0] == 0:
        return [(0, 0, 0)] * len(families)
    H = np.array(families)
    one = identity(H.shape[-1], is_exact_array(H))
    out, todo = [None] * len(H), np.arange(len(H))
    while todo.size:
        words = []
        bethe_algebra_basis(list(families[todo[0]]), tol, words)
        _, U, keep = _cyclic_block(_word_walk(H[todo], words), one, tol)
        keep &= len(words) == len(one)
        keep[0] = True
        ids = todo[keep]
        for s, (g, J) in zip(ids, _reduce(U[keep], _word_walk(H[ids], words), sh, tol)):
            out[s] = (len(words), len(g), len(J))
        todo = todo[~keep]
    return out
