"""The single-point scheme functions as they stood before the stacked
stages of opscheme (stacked_a_of_h, stacked_h_of_a,
stacked_scheme_residual, stacked_second_kernel, stacked_kernel_pair,
stacked_jacobian) became their one implementation: the independent
reference the tests compare those stages and their P = 1 calls against.

The bodies are verbatim, apart from q_rows and image, which were methods
of DhOperator, the Jacobian's docstring, and a_of_h, whose separating
guard is gone: every ProblemInstance is separating.  q_values,
q_coefficients and image read the q_i off D_h; solve_rows is numcore's
with the plain complex Gauss-Jordan it had before the exact elimination
took rational rows only, which the float reference bodies solve with.

The polynomial form the package used before the z-tables' coefficient
arrays became its only one is kept here verbatim as well: UniPoly with its
arithmetic and wronskian (from numcore), and DhOperator, p_of_a,
ptilde_of, apply_Dh, constraint_plane and _plane_scale (from opscheme),
apply_Dh reading zpolys(op.inst) below where it read the instance's
property of that name.

The z-tables these bodies read (zpolys, dh_blocks, kernel_pair_polys,
kernel_pair_maps, partial_fractions, marked_exponents, w_coeffs) are
ProblemInstance's UniPoly bodies as they stood before gl2rep.z_tables
became their one builder, kept verbatim apart from taking inst as an
argument: the reference the stacked tables are compared against, bit for
bit.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gaudinlab.gl2rep import ProblemInstance
from gaudinlab.numcore import (
    DEFAULT_TOL,
    DomainError,
    zeros_like_domain,
    InconsistentSystemError,
    SingularMatrixError,
    Tolerances,
    _is_rational_rows,
    _rref_inplace as _exact_rref_inplace,
    as_float,
    is_exact_scalar,
    scalar_one,
    solve_consistent,
)
from gaudinlab.opscheme import (
    PLANE_PRE_GATE,
    MalformedPairError,
    NotAdmissibleError,
    OffPlaneError,
    _atilde_columns,
    _plane,
    dh_matrices,
    off_plane,
)


# --- the polynomial form ----------------------------------------------------


class UniPoly:
    """Dense univariate polynomial, coefficients in ascending degree.

    Coefficients live in one scalar domain (Fraction or complex);
    trailing zeros are trimmed so the leading coefficient of a nonzero
    polynomial is nonzero.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors
    @staticmethod
    def zero():
        return UniPoly(())

    @staticmethod
    def const(c):
        return UniPoly((c,))

    @staticmethod
    def monomial(k, c):
        return UniPoly((0 * c,) * k + (c,))

    # -- queries
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # -- arithmetic
    def __add__(self, o):
        if not isinstance(o, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(tuple(self[k] + o[k] for k in range(n)))

    def __sub__(self, o):
        if not isinstance(o, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(tuple(self[k] - o[k] for k in range(n)))

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, o):
        if isinstance(o, UniPoly):
            if self.is_zero() or o.is_zero():
                return UniPoly.zero()
            out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(o.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(tuple(out))
        return UniPoly(tuple(c * o for c in self.coeffs))

    def deriv(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, d: "UniPoly"):
        """Euclidean division; exact over Fractions, naive over floats."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = d.degree
        lead = d.coeffs[-1]
        if len(rem) - 1 < dd:
            return UniPoly.zero(), self
        q = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k] / lead
            q[k - dd] = c
            if c:
                for j in range(dd + 1):
                    rem[k - dd + j] = rem[k - dd + j] - c * d.coeffs[j]
        return UniPoly(tuple(q)), UniPoly(tuple(rem[:dd]))

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(as_float(c)) for c in self.coeffs)

    def to_float(self) -> "UniPoly":
        return UniPoly(tuple(as_float(c) for c in self.coeffs))

    def __eq__(self, o):
        return isinstance(o, UniPoly) and self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*x^{k}" if k else f"({c})")
        return "UniPoly(" + " + ".join(terms) + ")"


def wronskian(f: UniPoly, g: UniPoly) -> UniPoly:
    """f'g - fg'."""
    return f.deriv() * g - f * g.deriv()



@dataclass(frozen=True)
class DhOperator:
    """The cleared-denominator operator  A u'' + B u' + C u  on polynomials."""

    inst: ProblemInstance
    h: tuple

    def __post_init__(self):
        if self.inst.exact and any(isinstance(v, complex) for v in self.h):
            raise DomainError("float h on an exact instance; convert the instance first")

    @cached_property
    def matrix(self) -> np.ndarray:
        """M0 + sum_s h_s M[s] from inst.tables: D_h on ascending
        coefficient vectors of degree up to max(l, lt)."""
        return dh_matrices(self.inst, [self.h])[0]


def p_of_a(a) -> UniPoly:
    """Monic polynomial x^l + a_1 x^{l-1} + ... + a_l."""
    a = list(a)
    l = len(a)
    one = scalar_one(all(map(is_exact_scalar, a)))
    return UniPoly(tuple(reversed(a)) + (one,)) if l else UniPoly.const(one)


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
    coeffs = [one * 0] * lt + [one]
    for k, v in zip(_atilde_columns(lt, l), atilde):
        coeffs[k] = v
    return UniPoly(tuple(coeffs))


def apply_Dh(op: DhOperator, u: UniPoly) -> UniPoly:
    """prod(x-z_s) * [u'' - sum m_s/(x-z_s) u' + sum h_s/(x-z_s) u]."""
    A, B, A_s = zpolys(op.inst)
    C = sum((As * hs for As, hs in zip(A_s, op.h)), UniPoly.zero())
    return A * u.deriv().deriv() + B * u.deriv() + C * u


def constraint_plane(inst: ProblemInstance, H):
    """(q_{-1}, q_0, scale) at each point of the stack H (P x n), each an
    array over the points; one point h (length n) gives three scalars.

    q_{-1} = sum h_s and q_0 = sum z_s h_s - l * lt, summed in order of s;
    scale = max(1, max |h_s|, l * lt) is the size the float gates on them
    are relative to.
    """
    H = np.asarray(H)
    if H.ndim == 1:
        return tuple(v.tolist()[0] for v in constraint_plane(inst, H[None]))
    return _plane(np.array([inst.z], dtype=object if inst.exact else complex), H,
                  inst.l * inst.ltilde)


def _plane_scale(inst: ProblemInstance, h, tol: float) -> float:
    """constraint_plane's scale; OffPlaneError if |q_{-1}| or |q_0| > tol * scale."""
    qm1, q0, scale = constraint_plane(inst, h)
    if err := off_plane(qm1, q0, scale, tol):
        raise OffPlaneError(err)
    return scale


# --- the single-point scheme functions ---------------------------------------

def _rref_inplace(M: list) -> list:
    """Gauss-Jordan on a list of rows in place; returns the pivot columns.

    The pivot is the first nonzero entry at or below the current row, so a
    triangular system keeps its natural pivots.  Rational rows (Fraction or
    int) go through numcore's fraction-free elimination; complex rows are
    reduced directly, each pivot row scaled by 1/pivot.
    """
    if not M:
        return []
    if _is_rational_rows(M):
        return _exact_rref_inplace(M)
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return pivots


def solve_rows(M: list, n: int) -> list:
    """Rows of X from the augmented rows M = [A | B] of a square A (n x n).

    M is reduced in place by _rref_inplace; a rank-deficient A raises
    SingularMatrixError with its rank defect.
    """
    pivots = _rref_inplace(M)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrixError(n - sum(1 for p in pivots if p < n))
    return [row[n:] for row in M]


def image(op: DhOperator, u) -> np.ndarray:
    """Ascending coefficients of D_h u, read off matrix, for the
    ascending coefficients u of a polynomial."""
    d = len(u) - 1
    if d >= op.matrix.shape[1]:
        raise ValueError(f"degree {d} exceeds the blocks' max(l, lt)")
    return op.matrix[:d + op.inst.n, :d + 1] @ np.array(u, dtype=op.matrix.dtype)


def q_values(w: UniPoly, deg: int, n: int) -> list:
    """[q_1, ..., q_{deg+n-2}] of w = D_h u for u of degree deg.

    q_i is the coefficient of x^{deg+n-2-i}, as for p in opscheme's notes.
    """
    top = deg + n - 2
    return [w[top - i] for i in range(1, top + 1)]


def q_coefficients(inst: ProblemInstance, a, h):
    """(q_{-1}, q_0, [q_1, ..., q_{l+n-2}]) at the given coordinates."""
    h = tuple(h)
    qm1, q0, _ = constraint_plane(inst, h)
    w = image(DhOperator(inst, h), p_of_a(a).coeffs)
    return qm1, q0, q_values(w.tolist(), inst.l, inst.n)


def q_rows(op: DhOperator, deg: int) -> np.ndarray:
    """Rows of matrix giving q_1, ..., q_{deg+n-2} of D_h u, u of degree deg.

    Row i-1 reads the coefficient of x^{deg+n-2-i}; column k multiplies
    the coefficient of x^k in u.
    """
    return op.matrix[:deg + op.inst.n - 2, :deg + 1][::-1]


def _a_of_h_raw(op: DhOperator):
    """Solve q_i(a, h) = 0, i = 1..l, at op's h without precondition checks.

    a_k multiplies the column of x^{l-k} in q_rows(op, l); the monic x^l
    column is the constant term.
    """
    l = op.inst.l
    if l == 0:
        return []
    rows = [r[l - 1::-1] + [-r[l]] for r in q_rows(op, l)[:l].tolist()]
    return [row[0] for row in solve_rows(rows, l)]


def a_of_h(inst: ProblemInstance, h, tol: float = PLANE_PRE_GATE):
    """Unique a with q_1 = ... = q_l = 0, by triangular elimination.

    Requires q_{-1}(h) = q_0(h) = 0 (within tol * scale in float mode).
    """
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
    M0 = dh_blocks(inst)[0]
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
    system is q_rows(op, lt): atilde_i multiplies the column of x^{lt-i} and
    the monic x^lt column is the constant term.
    """
    inst, h = op.inst, op.h
    l, lt = inst.l, inst.ltilde
    if lt <= l:
        raise ValueError("second kernel polynomial needs sum(m) + 1 - l > l")
    scale = _plane_scale(inst, h, max(tol.residual, PLANE_PRE_GATE))
    Q = q_rows(op, lt)
    rhs = -Q[:, lt]
    if lt == 1:
        resid = max((abs(as_float(v)) for v in rhs), default=0.0)
        if (inst.exact and any(rhs)) or resid > tol.residual * scale:
            raise InconsistentSystemError("no second polynomial kernel element")
        return []
    M = Q[:, [lt - i for i in range(1, lt + 1) if i != lt - l]]
    return list(solve_consistent(M, rhs, tol=tol.residual))


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
    _, den, extra = kernel_pair_polys(inst)
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
    drift = out[0] - zpolys(inst)[0]
    if (inst.exact and not drift.is_zero()) or \
            (not inst.exact and drift.max_abs() > gate * cscale):
        raise MalformedPairError("Wronskian is not the prescribed zero divisor")
    return tuple(out)


def _jacobian(inst: ProblemInstance, h, a):
    """Rows of d(q_{-1}, q_0, q_{l+1}, ..., q_{l+n-2})/dh at a = a(h), at an
    exact point.

    D_h p is linear in a and in h: dq/da_k is the column of x^{l-k} in the
    operator's q_rows(l) and dq/dh_s is read off M[s] p(a) (inst.dh_blocks).
    a(h) enters by implicit differentiation of q_1 = ... = q_l = 0 through
    the triangular block it is solved from.  The caller passes a = a(h);
    n = 2 never reads it.
    """
    l, n = inst.l, inst.n
    one = scalar_one(all(map(is_exact_scalar, h)))
    rows = [[one] * n, [one * z for z in inst.z]]
    if n > 2:
        Q = q_rows(DhOperator(inst, tuple(h)), l).tolist()
        M = dh_blocks(inst)[1][:, :l + n, :l + 1]
        # dq_dh[i][s] = dq_{i+1}/dh_s: rows of M[s] p(a), q_1 first
        dq_dh = (M @ np.array(p_of_a(a).coeffs, dtype=M.dtype)).T[:l + n - 2][::-1].tolist()
        # q_1..q_l vanish along a(h): (dq/da) da/dh = -dq/dh on those rows;
        # a_k multiplies the column of x^{l-k}
        da_dh = solve_rows([Q[i][l - 1::-1] + [-v for v in dq_dh[i]] for i in range(l)], l)
        for i in range(l, l + n - 2):
            rows.append([dq_dh[i][s] + sum(Q[i][l - 1 - k] * da_dh[k][s] for k in range(l))
                         for s in range(n)])
    return rows


# --- the z-tables, as UniPoly built them ----------------------------------

def zproduct(inst, c, powers) -> UniPoly:
    """c * prod_s (x - z_s)^{powers[s]}; the factors multiply onto c in order
    of s, which fixes the float lane's rounding."""
    one = scalar_one(inst.exact)
    p = UniPoly.const(c)
    for zs, k in zip(inst.z, powers):
        for _ in range(k):
            p = p * UniPoly((-zs, one))
    return p


def zpolys(inst) -> tuple:
    """(A, B, (A_1, ..., A_n)).

    A = prod_s (x - z_s) and A_s = prod_{r != s} (x - z_r); B = -sum_s m_s A_s.
    A and B lead the operator A d^2/dx^2 + B d/dx + C of both sides.
    """
    one = scalar_one(inst.exact)
    A_s = tuple(zproduct(inst, one, [int(r != s) for r in range(inst.n)])
                for s in range(inst.n))
    B = UniPoly.zero()
    for ms, As in zip(inst.m, A_s):
        B = B + As * (-ms)
    return zproduct(inst, one, [1] * inst.n), B, A_s


def dh_blocks(inst) -> tuple:
    """(M0, M): D_h u = (M0 + sum_s h_s M[s]) u.

    On ascending coefficient vectors, column k of M0 holds
    A (x^k)'' + B (x^k)' and column k of M[s] holds A_s x^k, for
    k = 0..max(l, lt); D_h of a polynomial of degree d reads the leading
    (d + n) x (d + 1) block.  Entries are Fractions on an exact instance
    and complex otherwise; the arrays are read-only.
    """
    A, B, A_s = zpolys(inst)
    n, deg = inst.n, max(inst.l, inst.ltilde, 0)
    one = scalar_one(inst.exact)
    M0 = zeros_like_domain((deg + n, deg + 1), inst.exact)
    M = zeros_like_domain((n, deg + n, deg + 1), inst.exact)
    for k in range(deg + 1):
        u = UniPoly.monomial(k, one)
        w = A * u.deriv().deriv() + B * u.deriv()
        M0[:len(w.coeffs), k] = w.coeffs
        for s, As in enumerate(A_s):
            M[s, k:k + len(As.coeffs), k] = As.coeffs
    M0.setflags(write=False)
    M.setflags(write=False)
    return M0, M


def kernel_pair_polys(inst) -> tuple:
    """(W, den, extra).

    W = (lt - l) prod_s (x - z_s)^{m_s} is the Wronskian of a kernel pair
    on the cycle; den = (lt - l) prod_s (x - z_s)^{max(m_s - 1, 0)}
    divides each coefficient of the pair's operator once it is
    multiplied by extra = prod_{m_s = 0} (x - z_s).
    """
    one = scalar_one(inst.exact)
    c = one * (inst.ltilde - inst.l)
    return (zproduct(inst, c, inst.m),
            zproduct(inst, c, [max(ms - 1, 0) for ms in inst.m]),
            zproduct(inst, one, [int(ms == 0) for ms in inst.m]))


def kernel_pair_maps(inst) -> tuple:
    """(quo, rem): b -> (b * extra) divmod den.

    On ascending coefficient vectors of b, of degree up to sum(m) (the
    degree of a kernel pair's Wronskian), quo gives the n + 1
    coefficients of the quotient and rem the deg(den) of the remainder
    (den, extra from kernel_pair_polys).  Needs lt > l.
    """
    _, den, extra = kernel_pair_polys(inst)
    one = scalar_one(inst.exact)
    quo = zeros_like_domain((inst.n + 1, sum(inst.m) + 1), inst.exact)
    rem = zeros_like_domain((den.degree, sum(inst.m) + 1), inst.exact)
    for k in range(sum(inst.m) + 1):
        q, r = (UniPoly.monomial(k, one) * extra).divmod(den)
        quo[:len(q.coeffs), k] = q.coeffs
        rem[:len(r.coeffs), k] = r.coeffs
    return quo, rem


def partial_fractions(inst) -> np.ndarray:
    """n x (n - 1) matrix of g -> (g(z_s) / prod_{r != s}(z_s - z_r))_s on
    ascending coefficients of g (degree up to n - 2)."""
    P = zeros_like_domain((inst.n, max(inst.n - 1, 0)), inst.exact)
    for s, zs in enumerate(inst.z):
        den = scalar_one(inst.exact)
        for r, zr in enumerate(inst.z):
            if r != s:
                den = den * (zs - zr)
        for j in range(inst.n - 1):
            P[s, j] = zs ** j / den
    return P


def marked_exponents(inst) -> tuple:
    """Indicial roots (0, 1 - B(z_s)/A'(z_s)) at each marked point; they do
    not depend on h, and B = -sum m_s A_s makes them (0, m_s + 1)."""
    A, B, _ = zpolys(inst)
    dA = A.deriv()
    out = []
    for zs in inst.z:
        p0 = B(zs) / dA(zs)
        out.append((0 * p0, 1 - p0))
    return tuple(out)



def w_coeffs(inst) -> np.ndarray:
    """Ascending coefficients of W_s(t) = prod_{i != s}(t - z_i), one row per s."""
    return np.array([w.coeffs for w in zpolys(inst)[2]], dtype=complex)
