"""Second-order operators with prescribed exponents and polynomial kernels.

Coordinates and conventions:

* h = (h_1,...,h_n) are the residues of the degree-zero term of the monic
  operator  d^2/dx^2 - sum_s m_s/(x-z_s) d/dx + sum_s h_s/(x-z_s);
* p(x,a) = x^l + a_1 x^{l-1} + ... + a_l is the distinguished kernel
  candidate of degree l;
* ptilde(x,atilde) is the second kernel candidate, monic of degree
  lt = sum(m)+1-l with the coefficient of x^l pinned to zero (the
  index lt-l is omitted from atilde);
* q_{-1} = sum h_s, q_0 = sum z_s h_s - l*lt, and for i >= 1 the value
  q_i(a,h) is the coefficient of x^{l+n-2-i} in the cleared-denominator
  polynomial D_h(p(.,a)).

D_h u is linear in u and in h.  DhOperator.matrix is D_h at one h on
ascending coefficient vectors, formed from the instance's h-independent
blocks (ProblemInstance.dh_blocks); a(h), h(a), the second kernel
polynomial and the residuals read their linear systems off it.  apply_Dh
is the polynomial form of the same operator.

All functions are generic over the scalar domain (Fraction or complex),
so exact pipelines stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import cmath
import numpy as np

from .gl2rep import ProblemInstance
from .numcore import (
    DEFAULT_TOL,
    DomainError,
    InconsistentSystemError,
    Tolerances,
    UniPoly,
    as_float,
    exact_sqrt,
    is_exact_scalar,
    scalar_one,
    solve_consistent,
    solve_rows,
    wronskian,
)

__all__ = [
    "SeparatingConditionError",
    "NotAdmissibleError",
    "MalformedPairError",
    "OffPlaneError",
    "DhOperator",
    "SchemePoint",
    "p_of_a",
    "root_on_marked_point",
    "ptilde_of",
    "apply_Dh",
    "dh_matrices",
    "PLANE_PRE_GATE",
    "constraint_plane",
    "q_coefficients",
    "q_values",
    "a_of_h",
    "h_of_a",
    "h_from_numerator",
    "residual_system",
    "ptilde_solve",
    "exponents_at",
    "wronskian_check",
    "operator_from_kernel_pair",
    "schubert_dimension",
]


class SeparatingConditionError(ValueError):
    """A triangular diagonal entry i*(sum(m)-2l+i+1) vanished."""

    def __init__(self, i):
        self.i = i
        super().__init__(f"separating condition fails at i = {i}")


class NotAdmissibleError(ValueError):
    """Both kernel polynomials vanish at some marked point."""


class MalformedPairError(ValueError):
    """Kernel pair fails the Wronskian divisibility required of the cycle."""


class OffPlaneError(ValueError):
    """h fails q_{-1}(h) = 0 or q_0(h) = 0 beyond a check's gate."""


# Relative gate on q_{-1}, q_0 before the triangular solves (scale from
# constraint_plane); it only screens out points far off the plane.
PLANE_PRE_GATE = 1e-6


def p_of_a(a) -> UniPoly:
    """Monic polynomial x^l + a_1 x^{l-1} + ... + a_l."""
    a = list(a)
    l = len(a)
    one = scalar_one(all(map(is_exact_scalar, a)))
    return UniPoly(tuple(reversed(a)) + (one,)) if l else UniPoly.const(one)


def root_on_marked_point(inst: ProblemInstance, a, tol: Tolerances = DEFAULT_TOL):
    """Why the weight formula breaks down at a, or None.

    Names the first marked point z_s that is a root of p = p_of_a(a): p(z_s)
    = 0 exactly when a and z are exact, else within tol.residual of the
    size sum_k |p_k| |z_s|^k of the terms.
    """
    p = p_of_a(a)
    exact = inst.exact and all(map(is_exact_scalar, a))
    for s, zs in enumerate(inst.z):
        v = p(zs)
        if v == 0 or not exact and abs(v) <= tol.residual * sum(
                abs(c) * abs(zs) ** k for k, c in enumerate(p.coeffs)):
            shown = zs.real if isinstance(zs, complex) and not zs.imag else zs
            return f"a Bethe root lies on the marked point z_{s} = {shown}"
    return None


def ptilde_of(inst: ProblemInstance, atilde) -> UniPoly:
    """Monic degree-lt polynomial with zero x^l coefficient.

    atilde lists the coefficients indexed 1..lt with index lt-l skipped,
    matching the omitted coordinate of the second kernel polynomial.
    """
    lt, l = inst.ltilde, inst.l
    if lt <= l:
        raise ValueError("second kernel polynomial needs sum(m) + 1 - l > l")
    atilde = list(atilde)
    if len(atilde) != lt - 1:
        raise ValueError(f"expected {lt - 1} coefficients, got {len(atilde)}")
    one = scalar_one(all(map(is_exact_scalar, atilde)))
    coeffs = [one * 0] * (lt + 1)
    coeffs[lt] = one
    it = iter(atilde)
    for i in range(1, lt + 1):
        if i == lt - l:
            continue
        coeffs[lt - i] = next(it)
    return UniPoly(tuple(coeffs))


@dataclass(frozen=True)
class SchemePoint:
    """One point of the scheme: coordinates, multiplicity, check residuals.

    atilde may be None when no second polynomial kernel element was found;
    residuals maps check names to nonnegative numbers (exact checks store
    exact zeros as 0.0).
    """

    h: tuple
    a: tuple
    atilde: tuple | None
    multiplicity: int
    residuals: dict


@dataclass(frozen=True)
class DhOperator:
    """The cleared-denominator operator  A u'' + B u' + C u  on polynomials."""

    inst: ProblemInstance
    h: tuple

    def __post_init__(self):
        if self.inst.exact and any(isinstance(v, complex) for v in self.h):
            raise DomainError("float h on an exact instance; convert the instance first")

    @property
    def A(self) -> UniPoly:
        return self.inst.zpolys[0]

    @property
    def B(self) -> UniPoly:
        return self.inst.zpolys[1]

    @cached_property
    def C(self) -> UniPoly:
        acc = UniPoly.zero()
        for As, hs in zip(self.inst.zpolys[2], self.h):
            acc = acc + As * hs
        return acc

    @cached_property
    def matrix(self) -> np.ndarray:
        """M0 + sum_s h_s M[s] from inst.dh_blocks: D_h on ascending
        coefficient vectors of degree up to max(l, lt)."""
        return dh_matrices(self.inst, [self.h])[0]

    def image(self, u) -> np.ndarray:
        """Ascending coefficients of D_h u, read off matrix, for the
        ascending coefficients u of a polynomial."""
        d = len(u) - 1
        if d >= self.matrix.shape[1]:
            raise ValueError(f"degree {d} exceeds the blocks' max(l, lt)")
        return self.matrix[:d + self.inst.n, :d + 1] @ np.array(u, dtype=self.matrix.dtype)

    def q_rows(self, deg: int) -> np.ndarray:
        """Rows of matrix giving q_1, ..., q_{deg+n-2} of D_h u, u of degree deg.

        Row i-1 reads the coefficient of x^{deg+n-2-i}; column k multiplies
        the coefficient of x^k in u.
        """
        return self.matrix[:deg + self.inst.n - 2, :deg + 1][::-1]


def dh_matrices(inst: ProblemInstance, H) -> np.ndarray:
    """D_h = M0 + sum_s h_s M[s] (inst.dh_blocks) at each row h of H, stacked.

    The terms are added entry by entry in order of s, so a point's matrix
    does not depend on the stack it is formed in.
    """
    M0, M = inst.dh_blocks
    H = np.array(H, dtype=M0.dtype).reshape(-1, len(M))
    D = np.broadcast_to(M0, (len(H),) + M0.shape)
    for s in range(len(M)):
        D = D + H[:, s, None, None] * M[s]
    return D


def apply_Dh(op: DhOperator, u: UniPoly) -> UniPoly:
    """prod(x-z_s) * [u'' - sum m_s/(x-z_s) u' + sum h_s/(x-z_s) u]."""
    return op.A * u.deriv().deriv() + op.B * u.deriv() + op.C * u


def constraint_plane(inst: ProblemInstance, h):
    """(q_{-1}, q_0, scale) at h, with scale = max(1, max |h_s|, l * lt).

    q_{-1} = sum h_s and q_0 = sum z_s h_s - l * lt; scale is the size the
    float gates on them are relative to.
    """
    h = tuple(h)
    qm1 = sum(h[1:], h[0])
    q0 = sum(z * hs for z, hs in zip(inst.z, h)) - inst.l * inst.ltilde
    scale = max(1.0, max(abs(as_float(v)) for v in h) if h else 0.0,
                float(inst.l * abs(inst.ltilde)))
    return qm1, q0, scale


def _plane_scale(inst: ProblemInstance, h, tol: float) -> float:
    """constraint_plane's scale; OffPlaneError if |q_{-1}| or |q_0| > tol * scale."""
    qm1, q0, scale = constraint_plane(inst, h)
    if abs(as_float(qm1)) > tol * scale or abs(as_float(q0)) > tol * scale:
        raise OffPlaneError(f"h is off the constraint plane: q_-1 = {qm1}, q_0 = {q0}")
    return scale


def q_values(w: UniPoly, deg: int, n: int) -> list:
    """[q_1, ..., q_{deg+n-2}] of w = D_h u for u of degree deg.

    q_i is the coefficient of x^{deg+n-2-i}, as for p in the module notes.
    """
    top = deg + n - 2
    return [w[top - i] for i in range(1, top + 1)]


def q_coefficients(inst: ProblemInstance, a, h):
    """(q_{-1}, q_0, [q_1, ..., q_{l+n-2}]) at the given coordinates."""
    h = tuple(h)
    qm1, q0, _ = constraint_plane(inst, h)
    w = DhOperator(inst, h).image(p_of_a(a).coeffs)
    return qm1, q0, q_values(w.tolist(), inst.l, inst.n)


def _a_of_h_raw(op: DhOperator):
    """Solve q_i(a, h) = 0, i = 1..l, at op's h without precondition checks.

    a_k multiplies the column of x^{l-k} in op.q_rows(l); the monic x^l
    column is the constant term.
    """
    l = op.inst.l
    if l == 0:
        return []
    rows = [r[l - 1::-1] + [-r[l]] for r in op.q_rows(l)[:l].tolist()]
    return [row[0] for row in solve_rows(rows, l)]


def a_of_h(inst: ProblemInstance, h, tol: float = PLANE_PRE_GATE):
    """Unique a with q_1 = ... = q_l = 0, by triangular elimination.

    Requires q_{-1}(h) = q_0(h) = 0 (within tol * scale in float mode) and
    the separating condition; the offending index is reported otherwise.
    """
    for i in range(1, inst.l + 1):
        if i * (sum(inst.m) - 2 * inst.l + i + 1) == 0:
            raise SeparatingConditionError(i)
    _plane_scale(inst, h, tol)
    return _a_of_h_raw(DhOperator(inst, tuple(h)))


def h_of_a(inst: ProblemInstance, a):
    """Recover h from a: numerator coefficients first, then simple fractions.

    The numerator g(x) = g_0 x^{n-2} + ... + g_{n-2} is pinned by
    g_0 = l*lt and the vanishing of the leading coefficients of
    A p'' + B p' + g p; the returned h automatically satisfies
    q_{-1}(h) = q_0(h) = 0.  A p'' + B p' is read off inst.dh_blocks, and
    g_j x^{n-2-j} p contributes the coefficients of p shifted by n-2-j.
    """
    l, n, lt = inst.l, inst.n, inst.ltilde
    a = list(a)
    if len(a) != l:
        raise ValueError(f"expected {l} coordinates, got {len(a)}")
    one = scalar_one(inst.exact and all(map(is_exact_scalar, a)))
    zero = 0 * one
    p = p_of_a(a)
    M0 = inst.dh_blocks[0]
    base = (M0[:l + n, :l + 1] @ np.array(p.coeffs, dtype=M0.dtype)).tolist()
    g0 = one * (l * lt)

    def pc(k):
        return p.coeffs[k] if 0 <= k <= l else zero

    # row i: q_i, the coefficient of x^{l+n-2-i}
    k = n - 2
    rows = [[pc(l - i + j) for j in range(1, k + 1)] + [-(base[l + n - 2 - i] + g0 * pc(l - i))]
            for i in range(1, k + 1)]
    grest = [row[0] for row in solve_rows(rows, k)]
    g = UniPoly(tuple(reversed([g0] + grest)))
    return h_from_numerator(inst, g)


def h_from_numerator(inst: ProblemInstance, g: UniPoly):
    """Partial fractions: h_s = g(z_s) / prod_{r != s}(z_s - z_r)."""
    if g.degree > inst.n - 2:
        raise ValueError("numerator degree exceeds n - 2")
    hs = []
    for s, zs in enumerate(inst.z):
        den = 1
        for r, zr in enumerate(inst.z):
            if r != s:
                den = den * (zs - zr)
        hs.append(g(zs) / den)
    return hs


def residual_system(inst: ProblemInstance, a):
    """q_j(a, h(a)) for j = n-1, ..., l+n-2; all zero iff a is on the scheme."""
    h = h_of_a(inst, a)
    _, _, qs = q_coefficients(inst, a, h)
    return qs[inst.n - 2:]


def ptilde_solve(op: DhOperator, tol: Tolerances = DEFAULT_TOL):
    """Coefficients of the second kernel polynomial of op, or raise.

    Solves the overdetermined linear system 'all coefficients of
    D_h(ptilde) vanish' for the lt-1 unknowns, at tol.residual; inconsistency
    means the operator has no second polynomial kernel element (the point
    lies on the degree-l scheme but not on the all-polynomial one).  The
    system is op.q_rows(lt): atilde_i multiplies the column of x^{lt-i} and
    the monic x^lt column is the constant term.
    """
    inst, h = op.inst, op.h
    l, lt = inst.l, inst.ltilde
    if lt <= l:
        raise ValueError("second kernel polynomial needs sum(m) + 1 - l > l")
    scale = _plane_scale(inst, h, max(tol.residual, PLANE_PRE_GATE))
    Q = op.q_rows(lt)
    rhs = -Q[:, lt]
    if lt == 1:
        resid = max((abs(as_float(v)) for v in rhs), default=0.0)
        if (inst.exact and any(rhs)) or resid > tol.residual * scale:
            raise InconsistentSystemError("no second polynomial kernel element")
        return []
    M = Q[:, [lt - i for i in range(1, lt + 1) if i != lt - l]]
    return list(solve_consistent(M, rhs, tol=tol.residual))


def exponents_at(op: DhOperator, s: int | None):
    """Indicial roots at the marked point z_s (s = 0..n-1) or infinity (None).

    Finite points return (0, m_s + 1)-ordered roots, which do not depend on
    h (ProblemInstance.marked_exponents); infinity returns the pair of
    roots of e^2 + (1 + sum(m)) e + C_{n-2}, descending for display.  As a
    set they are {-l, l - 1 - sum(m)} exactly when C_{n-2} = l * lt.
    """
    inst = op.inst
    if s is not None:
        return inst.marked_exponents[s]
    qm1, _, scale = constraint_plane(inst, op.h)
    if (qm1 != 0) if inst.exact else abs(qm1) > PLANE_PRE_GATE * scale:
        raise OffPlaneError("exponents at infinity need q_{-1}(h) = 0")
    cinf = op.matrix[inst.n - 2, 0]    # column 0 of matrix is D_h 1 = C
    tr = 1 + sum(inst.m)
    disc = tr * tr - 4 * cinf
    if isinstance(cinf, Fraction) or isinstance(cinf, int):
        root = exact_sqrt(Fraction(disc))
        r1 = Fraction(-tr + root, 2)
        r2 = Fraction(-tr - root, 2)
        return (r1, r2)
    root = cmath.sqrt(disc)
    r1, r2 = (-tr + root) / 2, (-tr - root) / 2
    if (r1.real, r1.imag) < (r2.real, r2.imag):
        r1, r2 = r2, r1
    return (r1, r2)


def wronskian_check(inst: ProblemInstance, atilde, a) -> UniPoly:
    """Wr(ptilde, p) - (lt - l) prod (x - z_s)^{m_s}; zero on the cycle."""
    return wronskian(ptilde_of(inst, atilde), p_of_a(a)) - inst.kernel_pair_polys[0]


def operator_from_kernel_pair(inst: ProblemInstance, ptilde: UniPoly, p: UniPoly,
                              tol: Tolerances = DEFAULT_TOL):
    """Monic-free form (b0, b1, b2) of the operator annihilating span(ptilde, p).

    The 3x3 kernel determinant gives  B0 u'' + B1 u' + B2 u  with
    B0 = Wr(ptilde, p); all three are divisible by
    (lt-l) prod (x-z_s)^{m_s-1}, and the quotient triple has
    b0 = prod(x-z_s) and b2 of degree n-2 with leading coefficient lt*l.
    The residues of b2/b0 reproduce the h coordinates of the point.  Float
    vanishing and divisibility are decided at tol.residual relative.
    """
    gate = tol.residual
    scale = max(1.0, ptilde.max_abs(), p.max_abs())
    for s, zs in enumerate(inst.z):
        vt, vp = ptilde(zs), p(zs)
        bad = (vt == 0 and vp == 0) if inst.exact else \
            (abs(as_float(vt)) <= gate * scale and abs(as_float(vp)) <= gate * scale)
        if bad:
            raise NotAdmissibleError(f"both kernel polynomials vanish at z_{s}")
    B0 = wronskian(ptilde, p)
    d2t, d2p = ptilde.deriv().deriv(), p.deriv().deriv()
    B1 = -(d2t * p - ptilde * d2p)
    B2 = d2t * p.deriv() - ptilde.deriv() * d2p
    _, den, extra = inst.kernel_pair_polys
    out = []
    cscale = max(1.0, B0.max_abs(), B1.max_abs(), B2.max_abs()) * max(1.0, extra.max_abs())
    for Bi in (B0, B1, B2):
        qpoly, rem = (Bi * extra).divmod(den)
        if inst.exact:
            if not rem.is_zero():
                raise MalformedPairError("kernel pair fails exact divisibility")
        elif rem.max_abs() > gate * cscale:
            raise MalformedPairError(
                f"kernel pair divisibility residual {rem.max_abs():.3e}")
        out.append(qpoly)
    drift = out[0] - inst.zpolys[0]
    if (inst.exact and not drift.is_zero()) or \
            (not inst.exact and drift.max_abs() > gate * cscale):
        raise MalformedPairError("Wronskian is not the prescribed zero divisor")
    return tuple(out)


def schubert_dimension(m, l: int) -> int:
    """Multiplicity of the irreducible of highest weight sum(m) - 2l in the
    tensor product of the irreducibles V_{m_s}, by iterated two-factor
    decomposition (V_a x V_b = V_{|a-b|} + V_{|a-b|+2} + ... + V_{a+b})."""
    target = sum(m) - 2 * l
    if target < 0:
        return 0
    mult = {0: 1}
    for ms in m:
        nxt = {}
        for w, c in mult.items():
            for t in range(abs(w - ms), w + ms + 1, 2):
                nxt[t] = nxt.get(t, 0) + c
        mult = nxt
    return mult.get(target, 0)
