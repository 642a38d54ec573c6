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
  polynomial D_h(p(.,a)); q_1..q_l are triangular in a with diagonal
  i(sum(m)-2l+i+1), nonzero as every ProblemInstance is separating.

Every polynomial is a sequence of ascending coefficients, the z-tables' own
form.  D_h u is linear in u and in h.  Everything z-dependent is polynomial
data of prod_s (x - z_s), built once per stack of instances (gl2rep.ZTables,
ProblemInstance.tables at one instance).  dh_stack forms D_h on ascending
coefficient vectors at a stack of points from those h-independent blocks
(ZTables.M0 and .M), and dh_matrices is its one-instance call: D_h u is
dh_matrices(inst, [h])[0] @ u.

Each linear system of the scheme has one implementation, a stage over a
stack of P points (stacked_*): a(h), h(a) with the scheme residual, the
second kernel polynomial, the kernel-pair operator and the Jacobian.  A
complex stack is the float lane (batched solve and pseudo-inverse, gates at
tol.residual), an object stack of Fractions the exact lane (_exact_solve
point by point, least squares by the normal equations, gates at literal
zero).  A stage that reads z takes a table stack and each point's sample
index into it (sample, P ints).  Its elementwise work is one operation over
every point, each gathering its own sample's tables.  A group is a run of
consecutive points on one sample.  A 2-D product whose rows are points
rounds by its row count, so each group takes its own product, and a point's
values do not depend on the other groups.  The single-point calls (a_of_h,
h_of_a, residual_system, ptilde_solve, exponents_at, wronskian_check,
operator_from_kernel_pair, h_from_numerator) are the stages' P = 1 calls on
(inst, h) or coefficient sequences, generic over the scalar domain: exact
when the instance and the arguments are, which keeps literal zeros.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import cmath
import numpy as np

from .gl2rep import ProblemInstance, ZTables
from .numcore import (
    DEFAULT_TOL,
    DomainError,
    InconsistentSystemError,
    Tolerances,
    _exact_solve,
    exact_sqrt,
    is_exact_scalar,
    rowmax,
    scalar_one,
)

__all__ = [
    "NotAdmissibleError",
    "MalformedPairError",
    "OffPlaneError",
    "SchemePoint",
    "p_of_a",
    "poly_value",
    "root_on_marked_point",
    "ptilde_of",
    "dh_matrices",
    "dh_stack",
    "PLANE_PRE_GATE",
    "off_plane",
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


class NotAdmissibleError(ValueError):
    """Both kernel polynomials vanish at some marked point."""


class MalformedPairError(ValueError):
    """Kernel pair fails the Wronskian divisibility required of the cycle."""


class OffPlaneError(ValueError):
    """h fails q_{-1}(h) = 0 or q_0(h) = 0 beyond a check's gate."""


# Relative gate on q_{-1}, q_0 before the triangular solves (scale from
# _plane); it only screens out points far off the plane.
PLANE_PRE_GATE = 1e-6


def p_of_a(a) -> tuple:
    """Ascending coefficients of the monic x^l + a_1 x^{l-1} + ... + a_l."""
    a = list(a)
    return tuple(reversed(a)) + (scalar_one(all(map(is_exact_scalar, a))),)


def poly_value(p, x):
    """The polynomial of ascending coefficients p at x, by Horner's rule from 0."""
    return reduce(lambda acc, c: acc * x + c, reversed(p), 0)


def root_on_marked_point(inst: ProblemInstance, a, tol: Tolerances = DEFAULT_TOL):
    """Why the weight formula breaks down at a, or None.

    Names the first marked point z_s that is a root of p = p_of_a(a): p(z_s)
    = 0 exactly when a and z are exact, else within tol.residual of the
    size sum_k |p_k| |z_s|^k of the terms.
    """
    p = p_of_a(a)
    exact = inst.exact and all(map(is_exact_scalar, a))
    for s, zs in enumerate(inst.z):
        v = poly_value(p, zs)
        if v == 0 or not exact and abs(v) <= tol.residual * sum(
                abs(c) * abs(zs) ** k for k, c in enumerate(p)):
            shown = zs.real if isinstance(zs, complex) and not zs.imag else zs
            return f"a Bethe root lies on the marked point z_{s} = {shown}"
    return None


def ptilde_of(inst: ProblemInstance, atilde) -> tuple:
    """Ascending coefficients of the monic degree-lt polynomial with zero x^l
    coefficient.

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
    return tuple(coeffs)


def _atilde_columns(lt: int, l: int) -> list:
    """The power of x that each entry of atilde multiplies: x^{lt-i}, i != lt - l."""
    return [lt - i for i in range(1, lt + 1) if i != lt - l]


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


def dh_matrices(inst: ProblemInstance, H) -> np.ndarray:
    """D_h (dh_stack) at each row h of H on inst's blocks, stacked; D_h of
    the ascending coefficients u of a polynomial of degree d is the leading
    (d + n) x (d + 1) block times u."""
    H = np.array(H, dtype=inst.tables.M0.dtype).reshape(-1, inst.n)
    if inst.exact and any(isinstance(v, complex) for v in H.ravel().tolist()):
        raise DomainError("float h on an exact instance; convert the instance first")
    return dh_stack(inst.tables, np.zeros(len(H), dtype=int), H)


def dh_stack(tables: ZTables, sample, H: np.ndarray) -> np.ndarray:
    """D_h = M0 + sum_s h_s M[s] at each row h of H (P x n), on the blocks of
    its sample of tables (ZTables.M0 and .M).  M[s] holds the coefficient j
    of A_s on its diagonal j, so h_s A_s[j] is added on that diagonal, in
    order of s; elsewhere M[s] is 0, whose terms change no entry of M0.
    Each entry is summed on its own, so a point's matrix does not depend on
    the stack it is formed in."""
    D = tables.M0[sample]
    T = H[:, :, None] * tables.A_s[sample]      # T[:, s, j] = h_s A_s[j]
    k = np.arange(D.shape[2])
    for j in range(tables.n):
        band = D[:, k + j, k]
        for s in range(tables.n):
            band = band + T[:, s, j, None]
        D[:, k + j, k] = band
    return D


def _plane(Z, H, llt):
    """(q_{-1}, q_0, scale) at the points H (P x n) with marked points the
    rows of Z (P x n, or 1 x n for one instance), l * lt = llt, each an array
    over the points.

    q_{-1} = sum h_s and q_0 = sum z_s h_s - l * lt, summed in order of s;
    scale = max(1, max |h_s|, l * lt) is the size the float gates on them
    are relative to.
    """
    qm1 = sum((H[:, s] for s in range(1, H.shape[1])), H[:, 0])
    q0 = sum(Z[:, s] * H[:, s] for s in range(H.shape[1])) - llt
    scale = np.maximum(np.maximum(1.0, np.abs(H).max(axis=1).astype(float)), float(abs(llt)))
    return qm1, q0, scale


def off_plane(qm1, q0, scale, tol: float):
    """The error of a point with |q_{-1}| or |q_0| > tol * scale, else None."""
    if abs(qm1) > tol * scale or abs(q0) > tol * scale:
        return f"h is off the constraint plane: q_-1 = {qm1}, q_0 = {q0}"
    return None


# --- the stacked stages -----------------------------------------------------

def _groups(sample) -> list:
    """(lo, hi, entry) of each group of a stack: a run of consecutive points
    on one sample of the tables."""
    sample = np.asarray(sample)
    cuts = (np.flatnonzero(sample[1:] != sample[:-1]) + 1).tolist()
    return [(lo, hi, int(sample[lo])) for lo, hi in zip([0] + cuts, cuts + [len(sample)])
            if hi > lo]


def _by_group(sample, X: np.ndarray, R) -> np.ndarray:
    """X @ R[entry] on each group's rows of X (R a stack over the samples),
    one product per group."""
    return np.concatenate([X[lo:hi] @ R[e] for lo, hi, e in _groups(sample)])


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with A X = B at each square A of the stack: numpy's batched solve on
    a complex stack, _exact_solve point by point on an exact one."""
    if A.dtype != object:
        return np.linalg.solve(A, B)
    return np.array([_exact_solve(Ai, Bi) for Ai, Bi in zip(A, B)],
                    dtype=object).reshape(B.shape)


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x minimising |A x - b| at each A (of full column rank) of the stack:
    numpy's pinv on a complex stack, the normal equations A^H A x = A^H b
    solved exactly on an exact one, whose residual is then zero exactly when
    the system is consistent.  If the stacked SVD does not converge, each A
    takes its own, and x is NaN (failing its gate) where that does not."""
    if A.dtype != object:
        try:
            Ap = np.linalg.pinv(A)
        except np.linalg.LinAlgError:
            Ap = np.full(A.transpose(0, 2, 1).shape, np.nan, dtype=A.dtype)
            for i, Ai in enumerate(A):
                with suppress(np.linalg.LinAlgError):
                    Ap[i] = np.linalg.pinv(Ai)
        return (Ap @ b[:, :, None])[:, :, 0]
    Ah = A.conj().transpose(0, 2, 1)
    return _solve(Ah @ A, Ah @ b[:, :, None])[:, :, 0]


def p_coefficients(a: np.ndarray) -> np.ndarray:
    """Ascending coefficients of p_of_a at each row of the stack a (P x l)."""
    one = np.full((len(a), 1), scalar_one(a.dtype == object), dtype=a.dtype)
    return np.concatenate([a[:, ::-1], one], axis=1)


def stacked_a_of_h(inst: ProblemInstance, D: np.ndarray) -> np.ndarray:
    """a(h) at each operator of the stack D (dh_matrices), P x l: q_1 = ... =
    q_l = 0, where a_k multiplies the column of x^{l-k} and the monic x^l
    column is the constant term."""
    l, n = inst.l, inst.n
    rows = np.arange(l + n - 3, n - 3, -1)
    return _solve(D[:, rows, :l][:, :, ::-1], -D[:, rows, l, None])[:, :, 0]


def stacked_h_of_a(tables: ZTables, sample, p: np.ndarray):
    """(h, w) at each row of p, the ascending coefficients of p(a), on its
    sample of tables: h = h(a), on the constraint plane, and the scheme
    residual w, the coefficients of x^0, ..., x^{l-1} of D_h p (q_{l+n-2},
    ..., q_{n-1}).  The numerator g = l*lt x^{n-2} + g_1 x^{n-3} + ... is
    pinned by q_1 = ... = q_{n-2} = 0 in A p'' + B p' + g p (A p'' + B p'
    read off M0, g_j x^{n-2-j} p a shift of p), and h is its partial
    fractions (ZTables.partial_fractions)."""
    l, n, lt = tables.l, tables.n, tables.ltilde
    k = np.arange(1, n - 1)
    base = _by_group(sample, p, tables.M0[:, :l + n, :l + 1].transpose(0, 2, 1))
    pad = np.zeros((len(p), n), dtype=p.dtype)
    pz = np.concatenate([pad, p, pad], axis=1)
    g = _solve(pz[:, n + l - k[:, None] + k[None, :]],
               -(base[:, l + n - 2 - k, None] + l * lt * pz[:, n + l - k, None]))
    g = np.concatenate([g[:, ::-1, 0], np.full((len(g), 1), l * lt)], axis=1)
    h = _by_group(sample, g, tables.partial_fractions.transpose(0, 2, 1))
    return h, (dh_stack(tables, sample, h)[:, :l, :l + 1] @ p[:, :, None])[:, :, 0]


def stacked_second_kernel(inst: ProblemInstance, D: np.ndarray, hscale, tol: Tolerances):
    """(atilde, pt, err) at each operator of the stack D: the least-squares
    second kernel polynomial (every coefficient of D_h ptilde vanishes; pt
    its ascending coefficients) and err[i] why point i has none, or None.
    No plane pre-gate; the residual is gated at tol.residual (0 on an exact
    stack) times hscale (_plane's scale) if lt = 1, else times
    max(1, max |M| * max(1, max |atilde|))."""
    l, n, lt = inst.l, inst.n, inst.ltilde
    exact = D.dtype == object
    Q = D[:, lt + n - 3::-1, :]
    cols = _atilde_columns(lt, l)
    Mt, rhs = Q[:, :, cols], -Q[:, :, lt]
    x = _lstsq(Mt, rhs)
    resid = rowmax((Mt @ x[:, :, None])[:, :, 0] - rhs)
    pt = np.zeros((len(D), lt + 1), dtype=D.dtype)
    pt[:, cols] = x
    pt[:, lt] = scalar_one(exact)
    scale = hscale if lt == 1 else \
        np.maximum(1.0, np.abs(Mt).max(axis=(1, 2)) * np.maximum(1.0, rowmax(x)))
    gate = 0 if exact else tol.residual
    err = [None if r <= gate * s else "no second polynomial kernel element" if lt == 1
           else f"least-squares residual {float(r):.3e} exceeds gate" for r, s in zip(resid, scale)]
    return x, pt, err


def _pair_forms(lt: int, l: int) -> np.ndarray:
    """The bilinear maps (ptilde, p) -> (B0, B1, B2) of the kernel-pair
    operator B0 u'' + B1 u' + B2 u, on the products ptilde_i p_j, as int64:
    for x^i and x^j, B0 = Wr = (i - j) x^{i+j-1}, B1 = (j(j-1) - i(i-1))
    x^{i+j-2} and B2 = i j (i - j) x^{i+j-3}.  Row (l + 1) i + j takes
    ptilde_i p_j; column k L + d gives x^d in B_k, L = l + lt."""
    L = l + lt
    i, j = (v.ravel() for v in np.meshgrid(np.arange(lt + 1), np.arange(l + 1), indexing="ij"))
    S = np.zeros(((lt + 1) * (l + 1), 3 * L), dtype=np.int64)
    for k, c in enumerate((i - j, j * (j - 1) - i * (i - 1), i * j * (i - j))):
        d = i + j - 1 - k
        keep = (d >= 0) & (c != 0)
        S[np.nonzero(keep)[0], k * L + d[keep]] = c[keep]
    return S


def _pair_operator(tables: ZTables, sample, pt: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The coefficients of B0, B1, B2 (P x 3 x (l + lt)) of the operator
    B0 u'' + B1 u' + B2 u annihilating span(ptilde, p) at each pair of rows
    of pt and p (_pair_forms), one product per group."""
    forms = _pair_forms(tables.ltilde, tables.l)
    return _by_group(sample, (pt[:, :, None] * p[:, None, :]).reshape(len(p), len(forms)),
                     np.broadcast_to(forms, (len(tables),) + forms.shape)).reshape(len(p), 3, -1)


def stacked_kernel_pair(tables: ZTables, sample, pt: np.ndarray, p: np.ndarray,
                        tol: Tolerances):
    """(b, h, wronsk, err) of the kernel pairs (ascending coefficients pt of
    ptilde, degree up to lt, and p of p, up to l) of the stack, each on its
    sample of tables: b (P x 3 x (n + 1)) the triple of
    operator_from_kernel_pair, h the residues of b2 / b0, wronsk
    max |Wr(ptilde, p) - W| (ZTables.W), err[i] the (key, message) of the
    check failing at point i, or None; gated at tol.residual relative, 0 on
    an exact stack."""
    l, n, lt = tables.l, tables.n, tables.ltilde
    gate = 0 if pt.dtype == object else tol.residual
    B = _pair_operator(tables, sample, pt, p)
    # admissible: no marked point where both polynomials vanish
    zpow = (tables.z[:, :, None] ** np.arange(lt + 1)).transpose(0, 2, 1)
    vscale = np.maximum(1.0, np.maximum(rowmax(pt), rowmax(p)))[:, None]
    vanish = (np.abs(_by_group(sample, pt, zpow)) <= gate * vscale) & \
        (np.abs(_by_group(sample, p, zpow[:, :l + 1])) <= gate * vscale)
    # (B_i * extra) divmod den, then b0 = A and h from b2's partial fractions
    b = B @ tables.quo[sample].transpose(0, 2, 1)
    escale = np.maximum(1.0, rowmax(tables.extra).astype(float))
    cscale = np.maximum(1.0, np.abs(B).max(axis=(1, 2))) * escale[sample]
    h = _by_group(sample, b[:, 2, :n - 1], tables.partial_fractions.transpose(0, 2, 1))
    wronsk = rowmax(B[:, 0] - tables.W[sample])
    rmax = np.abs(B @ tables.rem[sample].transpose(0, 2, 1)).max(axis=2, initial=0.0)
    drift = rowmax(b[:, 0] - tables.A[sample])
    bad = rmax > gate * cscale[:, None]
    err = [("admissible_error", f"both kernel polynomials vanish at z_{int(np.argmax(vanish[i]))}")
           if vz else ("malformed_pair_error", "kernel pair divisibility residual "
                       f"{float(rmax[i, np.argmax(bad[i])]):.3e}")
           if bz else ("malformed_pair_error", "Wronskian is not the prescribed zero divisor")
           if dr else None
           for i, (vz, bz, dr) in enumerate(zip(vanish.any(axis=1).tolist(),
                                                bad.any(axis=1).tolist(),
                                                (drift > gate * cscale).tolist()))]
    return b, h, wronsk, err


def stacked_jacobian(tables: ZTables, sample, H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """d(q_{-1}, q_0, q_{l+1}, ..., q_{l+n-2})/dh at the points H (P x n),
    each on its sample of tables, with a = a(h) the rows of A (P x l), as
    P x n x n.  D_h p is linear in a and h: dq/da_k is the column of x^{l-k}
    of D_h, dq/dh_s is read off M[s] p(a) (ZTables.M), and a(h) enters by
    implicit differentiation of q_1 = ... = q_l = 0.  n = 2 never reads A."""
    l, n = tables.l, tables.n
    J = np.empty((len(H), n, n), dtype=H.dtype)
    J[:, 0] = scalar_one(H.dtype == object)
    J[:, 1] = tables.z[sample]
    if n > 2 and len(H):
        # rows q_1, ..., q_{l+n-2}; column k of Qa multiplies a_{k+1}
        Qa = dh_stack(tables, sample, H)[:, l + n - 3::-1, :l][:, :, ::-1]
        # dq_dh[:, i, s] = dq_{i+1}/dh_s: rows of M[s] p(a), q_1 first
        M, pc = tables.M[:, :, l + n - 3::-1, :l + 1], p_coefficients(A)
        dq_dh = np.concatenate([(M[e] @ pc[lo:hi].T).transpose(2, 1, 0)
                                for lo, hi, e in _groups(sample)])
        da_dh = _solve(Qa[:, :l], -dq_dh[:, :l])
        J[:, 2:] = dq_dh[:, l:] + Qa[:, l:] @ da_dh
    return J


# --- single points: the stages' P = 1 calls ---------------------------------

def _one_point(inst: ProblemInstance, a):
    """(tables, sample, stack p(a)) of one point a, exact when inst and a
    both are; float a on an exact instance reads its float twin."""
    a = list(a)
    if len(a) != inst.l:
        raise ValueError(f"expected {inst.l} coordinates, got {len(a)}")
    exact = inst.exact and all(map(is_exact_scalar, a))
    inst = inst if exact else inst.to_float()
    A = np.array(a, dtype=object if exact else complex).reshape(1, inst.l)
    return inst.tables, [0], p_coefficients(A)


def _point_plane(inst: ProblemInstance, h):
    """_plane's (q_{-1}, q_0, scale) at the one point h, as scalars."""
    H = np.asarray(h)[None]
    return tuple(v.tolist()[0] for v in _plane(inst.tables.z, H, inst.l * inst.ltilde))


def _a_of_h_raw(inst: ProblemInstance, h):
    """a(h) without precondition checks (stacked_a_of_h)."""
    return stacked_a_of_h(inst, dh_matrices(inst, [h]))[0].tolist()


def a_of_h(inst: ProblemInstance, h, tol: float = PLANE_PRE_GATE):
    """Unique a with q_1 = ... = q_l = 0, by triangular elimination.

    Requires q_{-1}(h) = q_0(h) = 0 (within tol * scale in float mode);
    OffPlaneError otherwise.
    """
    if err := off_plane(*_point_plane(inst, h), tol):
        raise OffPlaneError(err)
    return _a_of_h_raw(inst, h)


def h_of_a(inst: ProblemInstance, a):
    """h(a), on the constraint plane (stacked_h_of_a)."""
    return stacked_h_of_a(*_one_point(inst, a))[0][0].tolist()


def h_from_numerator(inst: ProblemInstance, g):
    """Partial fractions of g / prod(x - z_s), g the ascending coefficients
    of the numerator: h_s = g(z_s) / prod_{r != s}(z_s - z_r)."""
    g = list(g)
    if any(g[inst.n - 1:]):
        raise ValueError("numerator degree exceeds n - 2")
    P = inst.tables.partial_fractions[0][:, :len(g)]
    return (P @ np.array(g[:inst.n - 1], dtype=P.dtype)).tolist()


def residual_system(inst: ProblemInstance, a):
    """q_j(a, h(a)) for j = n-1, ..., l+n-2; all zero iff a is on the scheme
    (stacked_h_of_a)."""
    if inst.exact and not all(map(is_exact_scalar, a)):
        raise DomainError("float a on an exact instance; convert the instance first")
    return stacked_h_of_a(*_one_point(inst, a))[1][0, ::-1].tolist()


def ptilde_solve(inst: ProblemInstance, h, tol: Tolerances = DEFAULT_TOL):
    """atilde of the second kernel polynomial of D_h (stacked_second_kernel)
    after the plane pre-gate; InconsistentSystemError means it has none (a
    point of the degree-l scheme off the all-polynomial one)."""
    if inst.ltilde <= inst.l:
        raise ValueError("second kernel polynomial needs sum(m) + 1 - l > l")
    qm1, q0, scale = _point_plane(inst, h)
    if err := off_plane(qm1, q0, scale, max(tol.residual, PLANE_PRE_GATE)):
        raise OffPlaneError(err)
    x, _, (err,) = stacked_second_kernel(inst, dh_matrices(inst, [h]), [scale], tol)
    if err is not None:
        raise InconsistentSystemError(err)
    return list(x[0])


def operator_from_kernel_pair(inst: ProblemInstance, ptilde, p, tol: Tolerances = DEFAULT_TOL):
    """Monic-free form (b0, b1, b2) of the operator annihilating span(ptilde, p)
    (stacked_kernel_pair), each as n + 1 ascending coefficients, from those
    of ptilde and p: B0 u'' + B1 u' + B2 u from the 3x3 kernel determinant,
    B0 = Wr(ptilde, p), each divided by (lt-l) prod (x-z_s)^{m_s-1}; b0 =
    prod(x-z_s), b2 has degree n-2 and leading coefficient lt*l, and the
    residues of b2/b0 are the point's h."""
    lt, l = inst.ltilde, inst.l
    if any(ptilde[lt + 1:]) or any(p[l + 1:]):
        raise MalformedPairError(f"kernel pair degrees exceed (lt, l) = ({lt}, {l})")
    zero = scalar_one(inst.exact) * 0
    pt, pp = (np.array([list(q[:d + 1]) + [zero] * (d + 1 - len(q[:d + 1]))],
                       dtype=object if inst.exact else complex) for q, d in ((ptilde, lt), (p, l)))
    b, _, _, (err,) = stacked_kernel_pair(inst.tables, [0], pt, pp, tol)
    if err is not None:
        raise (NotAdmissibleError if err[0] == "admissible_error" else MalformedPairError)(err[1])
    return tuple(map(tuple, b[0].tolist()))


def exponents_at(inst: ProblemInstance, h, s: int | None):
    """Indicial roots of D_h at the marked point z_s (s = 0..n-1) or
    infinity (None).

    Finite points return (0, m_s + 1)-ordered roots, which do not depend on
    h (ZTables.marked_exponents); infinity returns the pair of roots of
    e^2 + (1 + sum(m)) e + C_{n-2}, descending for display.  As a set they
    are {-l, l - 1 - sum(m)} exactly when C_{n-2} = l * lt.
    """
    if s is not None:
        return tuple(inst.tables.marked_exponents[0, s].tolist())
    qm1, _, scale = _point_plane(inst, h)
    if (qm1 != 0) if inst.exact else abs(qm1) > PLANE_PRE_GATE * scale:
        raise OffPlaneError("exponents at infinity need q_{-1}(h) = 0")
    cinf = dh_matrices(inst, [h])[0, inst.n - 2, 0]    # column 0 is D_h 1 = C
    tr = 1 + sum(inst.m)
    disc = tr * tr - 4 * cinf
    if isinstance(cinf, (Fraction, int)):
        root = exact_sqrt(Fraction(disc))
        return (Fraction(-tr + root, 2), Fraction(-tr - root, 2))
    root = cmath.sqrt(disc)
    r1, r2 = (-tr + root) / 2, (-tr - root) / 2
    if (r1.real, r1.imag) < (r2.real, r2.imag):
        r1, r2 = r2, r1
    return (r1, r2)


def wronskian_check(inst: ProblemInstance, atilde, a) -> tuple:
    """Ascending coefficients of Wr(ptilde, p) - (lt - l) prod (x -
    z_s)^{m_s} (_pair_operator's B0 less ZTables.W); zero on the cycle."""
    exact = inst.exact and all(map(is_exact_scalar, [*atilde, *a]))
    tables = (inst if exact else inst.to_float()).tables
    pt, p = (np.array([q], dtype=object if exact else complex)
             for q in (ptilde_of(inst, atilde), p_of_a(a)))
    return tuple((_pair_operator(tables, [0], pt, p)[0, 0] - tables.W[0]).tolist())


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
