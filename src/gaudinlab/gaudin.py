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

import numpy as np

from .gl2rep import (
    ProblemInstance,
    ShQuotient,
    degree_int_diagonal,
    generator_int_matrix,
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
    to_float_array,
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


def _bracket(A: np.ndarray, *Bs) -> np.ndarray:
    """[A, sum(Bs)] of integer arrays as one int_matmul product."""
    return int_matmul(np.hstack([A] * len(Bs) + list(Bs)),
                      np.vstack(list(Bs) + [-A] * len(Bs)))


def _scalar(c: int, A: np.ndarray) -> np.ndarray:
    """c I of A's size, as an int_array."""
    return int_array(c * np.eye(A.shape[0], dtype=object))


@dataclass(frozen=True)
class FrameLane:
    """A frame's matrices in one scalar domain (exact or float).

    shq and E12 are what GaudinSystem carries.  terms maps each of SPACES to
    (T, D): T[s, r] is D (m_s m_r I - Omega_{s,r}) on that space, with Omega
    restricted to Sing or the quotient.  Exact T are integer arrays, float T
    complex with D = 1.
    """

    shq: ShQuotient
    E12: np.ndarray
    terms: dict


class GaudinFrame:
    """The part of the Hamiltonians that does not depend on z, for one (m, l).

    Each Omega_{s,r} is built once, as an integer array, from the generator
    and degree matrices of the instance given (its z is not read), and so
    are E12 and the Shapovalov quotient, whose integer numerators
    (shq.numerators) the frame reads.  Omega restricts to Sing as
    Omega_hat = (Omega S)[shq.free]: S is the identity on its free rows, so
    Omega S = S Omega_hat.  On the quotient it is Omega_tilde = P Omega_hat C
    (P = shq.sh, C = shq.lift).  Both are kept as integer numerators over one
    denominator per space.

    lane(exact) gives these in one scalar domain the first time an instance
    of that domain asks, and keeps them; certificate holds the integer
    defects of the identities every H_s inherits, computed once.  Every
    array a lane holds is read-only, since all systems built on the frame
    share it.
    """

    def __init__(self, inst: ProblemInstance):
        n, l = inst.n, inst.l
        self.m, self.l, self.ltilde = inst.m, l, inst.ltilde

        def ints(a, b, k):
            return [generator_int_matrix(inst, a, b, s, k) for s in range(n)]

        e12_lo, e12_hi, e21_lo, e21_hi = ints(1, 2, l), ints(1, 2, l + 1), \
            ints(2, 1, l - 1), ints(2, 1, l)
        degs = [degree_int_diagonal(inst, s, l) for s in range(n)]
        t11 = [self.m[s] * np.eye(degs[s].shape[0], dtype=np.int64) - degs[s]
               for s in range(n)]
        # Omega = t11 (x) t11 + t22 (x) t22 + e12 (x) e21 + e21 (x) e12, one product
        self.omega = {}
        for s in range(n):
            left = np.hstack([t11[s], degs[s], e12_hi[s], e21_lo[s]])
            for r in range(s + 1, n):
                right = np.vstack([t11[r], degs[r], e21_hi[r], e12_lo[r]])
                self.omega[s, r] = self.omega[r, s] = _readonly(int_matmul(left, right))
        self.E12 = _readonly(sum(e12_lo[1:], e12_lo[0]))
        self._shq = sh_quotient(inst)
        nums = self._shq.numerators
        for N, _ in nums.values():
            _readonly(N)
        (NS, self._DS), (NP, self._DP) = nums["sing"], nums["sh"]
        NC, self._NG = nums["lift"][0], nums["gram"][0]
        free = self._shq.free
        self._NS, self._NP = NS, NP
        self.omega_sing, self.omega_L = {}, {}
        for s in range(n):
            for r in range(s + 1, n):
                K = int_matmul(self.omega[s, r], NS)[free]
                self.omega_sing[s, r] = self.omega_sing[r, s] = _readonly(K)
                self.omega_L[s, r] = self.omega_L[r, s] = _readonly(
                    int_matmul(int_matmul(NP, K), NC))
        self._lanes = {}

    def lane(self, exact: bool) -> FrameLane:
        if exact not in self._lanes:
            self._lanes[exact] = self._build_lane(exact)
        return self._lanes[exact]

    def _spaces(self):
        """(Omega numerators by pair, their denominator) for each of SPACES."""
        DS = self._DS
        return {"big": (self.omega, 1), "sing": (self.omega_sing, DS),
                "L": (self.omega_L, self._DP * DS)}

    def _build_lane(self, exact: bool) -> FrameLane:
        m, n = self.m, len(self.m)
        terms = {}
        for space, (W, D) in self._spaces().items():
            T = {}
            for s in range(n):
                for r in range(s + 1, n):
                    # one array per unordered pair, shared by (s, r) and (r, s)
                    if exact:
                        t = _term(m[s] * m[r] * D, W[s, r])
                    else:
                        k = W[s, r].shape[0]
                        t = m[s] * m[r] * np.eye(k, dtype=complex) - W[s, r].astype(float) / D
                    T[s, r] = T[r, s] = _readonly(t)
            terms[space] = (T, D if exact else 1)
        if exact:
            E12, shq = fraction_array(self.E12, 1), self._shq
        else:
            E12 = self.E12.astype(complex)
            shq = replace(self._shq, **{name: to_float_array(getattr(self._shq, name))
                                        for name in self._shq.numerators})
        for M in (E12, *(getattr(shq, name) for name in shq.numerators)):
            _readonly(M)
        return FrameLane(shq=shq, E12=E12, terms=terms)

    def combination(self, insts, space: str) -> list:
        """The frame's H_s at each instance of insts (one lane) on one of
        SPACES, for each s: sum_{r != s} (m_s m_r I - Omega_{s,r}) / (z_s - z_r).

        Exact: for each instance a list of (N, D) with H_s = N / D, N an
        integer array, the coefficients taken over their common denominator.
        Float: one complex S x n x d x d stack, term by term, each term for
        every instance at once; an instance's H_s does not depend on the
        others in the stack.
        """
        T, D0 = self.lane(insts[0].exact).terms[space]
        n = len(self.m)
        pairs = [[r for r in range(n) if r != s] for s in range(n)]
        if insts[0].exact:
            out = []
            for inst in insts:
                out.append([])
                for s, others in enumerate(pairs):
                    ks, D = integer_numerators([1 / (inst.z[s] - inst.z[r]) for r in others])
                    cols = np.stack([T[s, r].reshape(-1) for r in others], axis=1)
                    N = int_matmul(cols, int_array(ks)[:, None])
                    out[-1].append((N.reshape(T[s, others[0]].shape), D * D0))
            return out
        d = T[0, 1].shape[0]
        out = np.zeros((len(insts), n, d, d), dtype=complex)
        for s, others in enumerate(pairs):
            coefs = np.array([[1 / (inst.z[s] - inst.z[r]) for r in others] for inst in insts])
            acc = out[:, s]
            for j, r in enumerate(others):
                acc = acc + T[s, r] * coefs[:, j, None, None]
            out[:, s] = acc
        return out

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
                   for W, _ in self._spaces().values() for s, r in pairs
                   if not np.array_equal(W[s, r], W[r, s])), default=0)
        mm = sum(self.m[s] * self.m[r] for s, r in pairs)
        rule = int_bound(_term(DS * (mm - self.l * self.ltilde),
                            sum(self.omega_sing[p].astype(object) for p in pairs)))
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
        if space in self.families:
            return self.families[space]
        return _families(self.frame, [self.inst], space)[0]

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
        return self.shq.sing.shape[1]

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
        for sysd, H in zip(systems, _families(frame, insts, space)):
            sysd.families[space] = H
    return systems


def _families(frame: GaudinFrame, insts, space: str) -> list:
    """Each instance's H_s on space as a GaudinSystem holds them: Fraction
    arrays on an exact instance, complex arrays otherwise."""
    H = frame.combination(insts, space)
    if insts[0].exact:
        return [tuple(fraction_array(N, D) for N, D in h) for h in H]
    return [tuple(h) for h in H]


def _universal_operator(sys: GaudinSystem, space: str, deg: int):
    """(H_s on space, M0, M) of the universal operator
    A d^2/dx^2 + B d/dx + sum_s H_s A_s on vector polynomials of degree deg:
    M0 and M are the leading deg + n rows and deg + 1 columns of
    inst.dh_blocks."""
    if space not in ("sing_m", "sing_l"):
        raise ValueError("space must be 'sing_m' or 'sing_l'")
    M0, M = sys.inst.dh_blocks
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


def span_closure(start, mats, act, tol: Tolerances = DEFAULT_TOL):
    """Basis of the smallest span holding start and closed under v -> act(v, H).

    Breadth first: each level's images act(v, H), for v among the previous
    level's new vectors and H in mats, are reduced against the span in that
    order, and each image the span does not already contain is kept; exact
    when start is, else gated at tol.svd_rel relative.  start itself is
    dropped if zero.
    """
    red = _ExactReducer() if is_exact_array(start) else _FloatReducer(tol.svd_rel)
    basis, level = [], [start]
    while level:
        level = [w for w, new in zip(level, red.add_level([w.reshape(-1) for w in level]))
                 if new]
        basis += level
        level = [act(v, H) for v in level for H in mats]
    return basis


def bethe_algebra_basis(mats, tol: Tolerances = DEFAULT_TOL):
    """Basis of the unital matrix algebra generated by a commuting family.

    Monomial closure degree by degree with rank checks; terminates because
    the dimension is bounded by (matrix size)^2.
    """
    if not mats:
        raise ValueError("need at least one generator")
    d = mats[0].shape[0]
    if d == 0:
        return []
    eye = identity(d, is_exact_array(mats[0]))
    return span_closure(eye, mats, matmul, tol)


def _side_by_side(mats, V) -> np.ndarray:
    """[M_1 V | ... | M_c V] for square matrices M_i, as one product."""
    c, (d, k) = len(mats), V.shape
    return matmul(np.vstack(mats), V).reshape(c, d, k).transpose(1, 0, 2).reshape(d, c * k)


def _cyclic_block(algebra, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """V (d x k) with rank [F_1 V | ... | F_m V] = d over the algebra basis.

    V is the all-ones column, then the unit columns e_0, e_1, ... until the
    rank is d: exact on an exact algebra, else gated at tol.svd_rel.  The
    identity is in the algebra, so k <= d + 1, and at k = d + 1 (which
    skips the check) f V holds every column of f.  On a commutative algebra
    f -> f V is injective: f V = 0 gives f g V = g f V = 0 for every g, and
    the g V span the space.
    """
    d = algebra[0].shape[0]
    one = identity(d, is_exact_array(algebra[0]))
    cands = np.hstack([one.sum(axis=1, keepdims=True), one])
    for k in range(1, d + 1):
        if rank_of(_side_by_side(algebra, cands[:, :k]), tol.svd_rel) == d:
            return cands[:, :k]
    return cands


def induced_map_kernel(algebra, sh: np.ndarray, tol: Tolerances = DEFAULT_TOL, V=None):
    """Elements of span(algebra) whose composition with sh vanishes.

    These are exactly the operators mapping the singular subspace into the
    radical, i.e. the kernel of the quotient-algebra map.  The algebra must
    be commutative and sh must intertwine it (sh g = g~ sh for some g~,
    which the frame certifies for the Bethe algebra).  Then
    sh f g V = g~ sh f V, and the g V span the space (V = _cyclic_block),
    so sh f = 0 exactly when sh f V = 0: the images reduced are the blocks
    sh F V, not the matrices sh F.  V is computed here unless the caller
    passes the algebra's _cyclic_block.
    """
    if not algebra:
        return []
    V = _cyclic_block(algebra, tol) if V is None else V
    k = V.shape[1]
    # column block j is sh F_j V
    PFV = matmul(sh, _side_by_side(algebra, V))
    return _vanishing_combinations(
        algebra, [PFV[:, j * k:(j + 1) * k].reshape(-1) for j in range(len(algebra))], tol)


def annihilator_ideal(algebra, kernel, tol: Tolerances = DEFAULT_TOL, V=None):
    """Basis of J = { f in span(algebra) : f g = 0 for every g in kernel }.

    The algebra must be commutative and hold kernel.  Then f g is in the
    algebra, so f g = 0 exactly when f g V = 0, V = _cyclic_block: the
    images reduced are F [g_1 V | ... | g_c V], not F [g_1 | ... | g_c].
    V is computed here unless the caller passes it.
    """
    if not algebra:
        return []
    if not kernel:
        return list(algebra)
    KV = _side_by_side(kernel, _cyclic_block(algebra, tol) if V is None else V)
    # row j is F_j KV, flattened
    images = matmul(np.vstack(algebra), KV).reshape(len(algebra), -1)
    return _vanishing_combinations(algebra, list(images), tol)


def _vanishing_combinations(algebra, images, tol):
    """Elements sum_j c_j algebra[j] with sum_j c_j images[j] = 0, as a basis.

    images[j] is the flattened image of algebra[j] under a fixed linear map.
    """
    exact = is_exact_array(algebra[0])
    combos = kernel_basis(np.stack(images, axis=1), 0 if exact else tol.svd_rel)
    if not combos:
        return []
    # row j of the product is the flattened sum_i combos[j][i] algebra[i]
    flat = matmul(np.stack(combos), np.stack([F.reshape(-1) for F in algebra]))
    return [row.reshape(algebra[0].shape) for row in flat]
