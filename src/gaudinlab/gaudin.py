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
from dataclasses import dataclass, fields

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
    integer_numerators,
    is_exact_array,
    kernel_basis,
    matmul,
    max_abs,
    primitive,
    row_update,
    solve_consistent,
    solve_linear,
    to_float_array,
    zeros_like_domain,
    DEFAULT_TOL,
    Tolerances,
)

__all__ = [
    "GaudinFrame",
    "GaudinSystem",
    "build_gaudin",
    "polynomial_valued_kernel",
    "apply_universal_operator",
    "bethe_algebra_basis",
    "span_closure",
    "induced_map_kernel",
    "annihilator_ideal",
]


def _readonly(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class FrameLane:
    """A frame's matrices in one scalar domain (exact or float).

    omega maps each ordered pair (s, r), s != r, to Omega_{s,r} = Omega_{r,s}
    on the level-l space; shq and E12 are what GaudinSystem carries.
    """

    eye: np.ndarray
    omega: dict
    shq: ShQuotient
    E12: np.ndarray


class GaudinFrame:
    """The part of build_gaudin that does not depend on z, for one (m, l).

    The generator and degree matrices and the Shapovalov quotient, which
    carries the singular basis and Gram matrix, are built exactly from the
    instance given; its z is not read.  lane(exact) converts them, and
    builds Omega_{s,r}, in one scalar domain the first time an instance of
    that domain asks, then keeps the result.  Every array a lane holds is
    read-only, since all systems built on the frame share it.
    """

    def __init__(self, inst: ProblemInstance):
        n, l = inst.n, inst.l
        self.m, self.l = inst.m, l
        # e12 on levels l and l+1, e21 on levels l-1 and l, degrees on level l
        self._gens = (
            [generator_matrix(inst, 1, 2, s, l) for s in range(n)],
            [generator_matrix(inst, 1, 2, s, l + 1) for s in range(n)],
            [generator_matrix(inst, 2, 1, s, l - 1) for s in range(n)],
            [generator_matrix(inst, 2, 1, s, l) for s in range(n)],
            [degree_diagonal(inst, s, l) for s in range(n)],
        )
        self._shq = sh_quotient(inst)
        self._lanes = {}

    def lane(self, exact: bool) -> FrameLane:
        if exact not in self._lanes:
            self._lanes[exact] = self._build_lane(exact)
        return self._lanes[exact]

    def _build_lane(self, exact: bool) -> FrameLane:
        m, n = self.m, len(self.m)
        conv = _int_array if exact else to_float_array
        e12_lo, e12_hi, e21_lo, e21_hi, degs = ([conv(M) for M in mats]
                                                for mats in self._gens)
        eye = conv(identity(degs[0].shape[0]))
        t11 = [m[s] * eye - degs[s] for s in range(n)]
        omega = {}
        for s in range(n):
            for r in range(s + 1, n):
                omega[s, r] = omega[r, s] = _readonly(
                    t11[s] @ t11[r] + degs[s] @ degs[r]
                    + e12_hi[s] @ e21_hi[r] + e21_lo[s] @ e12_lo[r])
        e12 = self._gens[0]
        E12 = sum(e12[1:], e12[0])
        shq = self._shq
        if not exact:
            E12 = to_float_array(E12)
            shq = ShQuotient(**{f.name: to_float_array(getattr(shq, f.name))
                                for f in fields(shq)})
        for M in (eye, E12, *(getattr(shq, f.name) for f in fields(shq))):
            _readonly(M)
        return FrameLane(eye=eye, omega=omega, shq=shq, E12=E12)


@dataclass(frozen=True)
class GaudinSystem:
    """Hamiltonians of one instance on the three nested spaces.

    shq (singular basis, Gram matrices and quotient) and E12 are the
    frame's read-only arrays.
    """

    inst: ProblemInstance
    H_big: tuple
    H_sing: tuple
    H_L: tuple
    shq: ShQuotient
    E12: np.ndarray           # raising operator, level l -> level l-1
    frame: GaudinFrame

    @property
    def dim_sing_m(self) -> int:
        return self.shq.sing.shape[1]

    @property
    def dim_sing_l(self) -> int:
        return self.shq.dim


def _int_array(A: np.ndarray) -> np.ndarray:
    """Integer-valued exact matrix as Python ints (cheap exact products)."""
    out = np.empty(A.shape, dtype=object)
    flat = out.reshape(-1)
    for i, v in enumerate(A.reshape(-1)):
        flat[i] = int(v)
    return out


def build_gaudin(inst: ProblemInstance, frame: GaudinFrame | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> GaudinSystem:
    """Hamiltonians at inst's z, assembled from frame (built here if None).

    The float restriction to Sing is gated at tol.residual; past the gate it
    raises InconsistentSystemError naming sing_restriction.  ValueError if
    the frame was built for another (m, l).
    """
    if frame is None:
        frame = GaudinFrame(inst)
    elif (frame.m, frame.l) != (inst.m, inst.l):
        raise ValueError(f"frame is for (m, l) = ({frame.m}, {frame.l}), "
                         f"instance has ({inst.m}, {inst.l})")
    n, exact = inst.n, inst.exact
    lane = frame.lane(exact)
    eye = lane.eye
    d = eye.shape[0]

    H_big = []
    for s in range(n):
        others = [r for r in range(n) if r != s]
        terms = [inst.m[s] * inst.m[r] * eye - lane.omega[s, r] for r in others]
        coefs = [1 / (inst.z[s] - inst.z[r]) for r in others]
        if exact:
            # one integer combination of the lane's integer Omega over the
            # common denominator of the coefficients
            ks, D = integer_numerators(coefs)
            H_big.append(fraction_array(sum((k * T for k, T in zip(ks, terms)), 0 * eye), D))
            continue
        acc = zeros_like_domain((d, d), exact)
        for T, c in zip(terms, coefs):
            acc = acc + T * c
        H_big.append(acc)

    S, P, C = lane.shq.sing, lane.shq.sh, lane.shq.lift
    try:
        H_sing = [solve_consistent(S, matmul(Hb, S), tol.residual) if S.shape[1] else
                  zeros_like_domain((0, 0), exact) for Hb in H_big]
    except InconsistentSystemError as err:
        raise InconsistentSystemError(f"sing_restriction: {err}") from err
    H_L = [matmul(matmul(P, Hs), C) for Hs in H_sing]

    return GaudinSystem(inst=inst, H_big=tuple(H_big), H_sing=tuple(H_sing),
                        H_L=tuple(H_L), shq=lane.shq, E12=lane.E12, frame=frame)


def _space_mats(sys: GaudinSystem, space: str):
    if space == "sing_m":
        return list(sys.H_sing)
    if space == "sing_l":
        return list(sys.H_L)
    raise ValueError("space must be 'sing_m' or 'sing_l'")


def _matrix_numerator_for(inst: ProblemInstance, mats):
    """Coefficients N_k of sum_s mats[s] * prod_{r != s}(x - z_r)."""
    d = mats[0].shape[0]
    exact = inst.exact
    N = [zeros_like_domain((d, d), exact) for _ in range(inst.n)]
    for s, w in enumerate(inst.zpolys[2]):
        for k in range(w.degree + 1):
            if w[k]:
                N[k] = N[k] + mats[s] * w[k]
    return N


def apply_universal_operator(sys: GaudinSystem, space: str, coeffs):
    """Coefficient vectors of  A v'' + B v' + N v  for a vector polynomial.

    coeffs lists the vector coefficients of v(x) in descending powers
    (v = coeffs[0] x^deg + ... + coeffs[deg]); the result is ascending.
    """
    inst = sys.inst
    mats = _space_mats(sys, space)
    d = mats[0].shape[0] if mats[0].size else 0
    exact = inst.exact
    deg = len(coeffs) - 1
    A, B, _ = inst.zpolys
    N = _matrix_numerator_for(inst, mats)
    top = deg + inst.n - 1
    out = [zeros_like_domain((d,), exact) for _ in range(top + 1)]
    for j, vj in enumerate(coeffs):
        pj = deg - j
        for k in range(A.degree + 1):
            if pj >= 2 and A[k]:
                out[k + pj - 2] = out[k + pj - 2] + (pj * (pj - 1) * A[k]) * vj
        for k in range(B.degree + 1):
            if pj >= 1 and B[k]:
                out[k + pj - 1] = out[k + pj - 1] + (pj * B[k]) * vj
        for k in range(len(N)):
            out[k + pj] = out[k + pj] + N[k] @ vj
    return out


def polynomial_valued_kernel(sys: GaudinSystem, space: str, v0, deg: int,
                             tol: Tolerances = DEFAULT_TOL):
    """Vector coefficients v_1..v_deg with D(v0 x^deg + v1 x^{deg-1} + ...) = 0.

    deg must be l or lt = sum(m)+1-l.  For deg = lt the coefficient at
    index lt - l (the x^l term) is pinned to zero, which removes the
    freedom of adding multiples of the degree-l solution.  Solved block
    by block, highest power first; the trailing equations not used by the
    elimination are verified (at tol.residual) and raise InconsistentSystemError.
    """
    inst = sys.inst
    l, lt, n = inst.l, inst.ltilde, inst.n
    if deg not in (l, lt):
        raise ValueError(f"deg must be {l} or {lt}")
    mats = _space_mats(sys, space)
    d = mats[0].shape[0]
    exact = inst.exact
    gate = tol.residual
    v0 = v0 if exact else np.asarray(v0, dtype=complex)
    skip = lt - l if (deg == lt and 1 <= lt - l <= deg) else None

    A, B, _ = inst.zpolys
    N = _matrix_numerator_for(inst, mats)
    scale = max(1.0, max_abs(v0), max((max_abs(Nk) for Nk in N), default=0.0))

    vs = [v0]
    for i in range(1, deg + 1):
        pj_i = deg - i
        rhs = zeros_like_domain((d,), exact)
        for j in range(0, i):
            vj = vs[j]
            pj = deg - j
            kA = n - (i - j)
            if pj >= 2 and 0 <= kA <= A.degree and A[kA]:
                rhs = rhs + (pj * (pj - 1) * A[kA]) * vj
            kB = n - 1 - (i - j)
            if pj >= 1 and 0 <= kB <= B.degree and B[kB]:
                rhs = rhs + (pj * B[kB]) * vj
            kN = n - 2 - (i - j)
            if 0 <= kN < len(N):
                rhs = rhs + N[kN] @ vj
        if i == skip:
            resid = max_abs(rhs)
            if (exact and resid != 0.0) or (not exact and resid > gate * scale):
                raise InconsistentSystemError(
                    f"pinned coefficient equation has residual {resid:.3e}")
            vs.append(zeros_like_domain((d,), exact))
            continue
        blk = zeros_like_domain((d, d), exact) + N[n - 2]
        cscal = pj_i * (pj_i - 1) + pj_i * B[n - 1]
        for r in range(d):
            blk[r, r] = blk[r, r] + cscal
        vs.append(solve_linear(blk, -rhs, tol.svd_rel))

    full = apply_universal_operator(sys, space, vs)
    resid = max((max_abs(c) for c in full), default=0.0)
    if (exact and resid != 0.0) or (not exact and resid > gate * scale):
        raise InconsistentSystemError(
            f"trailing kernel equations have residual {resid:.3e}")
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


class _FloatReducer:
    """Incremental orthonormal span tracking with a relative gate."""

    def __init__(self, tol):
        self.tol = tol
        self.Q = []

    def add(self, v) -> bool:
        v = np.asarray(v, dtype=complex)
        norm0 = np.linalg.norm(v)
        if norm0 == 0:
            return False
        for _ in range(2):
            for q in self.Q:
                v = v - np.vdot(q, v) * q
        norm = np.linalg.norm(v)
        if norm <= self.tol * norm0:
            return False
        self.Q.append(v / norm)
        return True


def span_closure(start, mats, act, tol: Tolerances = DEFAULT_TOL):
    """Basis of the smallest span holding start and closed under v -> act(v, H).

    Breadth first over H in mats, keeping each image that the span does not
    already contain; exact when start is, else gated at tol.svd_rel
    relative.  start itself is dropped if zero.
    """
    red = _ExactReducer() if is_exact_array(start) else _FloatReducer(tol.svd_rel)
    basis = [start] if red.add(start.reshape(-1)) else []
    frontier = list(basis)
    while frontier:
        nxt = []
        for v in frontier:
            for H in mats:
                w = act(v, H)
                if red.add(w.reshape(-1)):
                    basis.append(w)
                    nxt.append(w)
        frontier = nxt
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


def induced_map_kernel(algebra, sh: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Elements of span(algebra) whose composition with sh vanishes.

    These are exactly the operators mapping the singular subspace into the
    radical, i.e. the kernel of the quotient-algebra map.
    """
    if not algebra:
        return []
    return _vanishing_combinations(algebra, [matmul(sh, F).reshape(-1) for F in algebra],
                                   tol)


def annihilator_ideal(algebra, kernel, tol: Tolerances = DEFAULT_TOL):
    """Basis of J = { f in span(algebra) : f g = 0 for every g in kernel }."""
    if not algebra:
        return []
    if not kernel:
        return list(algebra)
    images = [np.concatenate([matmul(F, K).reshape(-1) for K in kernel]) for F in algebra]
    return _vanishing_combinations(algebra, images, tol)


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
