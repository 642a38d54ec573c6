"""Separated coordinates, the universal weight function, and Bethe vectors.

The weight function is the level-l vector

    omega(a) = (-1)^l  prod_{j=1}^{l}  sum_s x^(s) prod_{i != s} (t_j - z_i),

where t_1..t_l are the roots of p(x, a).  The sign normalization makes the
monomial form agree with the separated form (-1)^{l n} u^l prod_j p(y^(j))
under the change of variables below.  The coefficients are symmetric in the
roots, hence polynomial in a: the exact path computes them root-free as
(-1)^l det( sum_s x^(s) W_s(Cp) ) with Cp the companion matrix of p and
W_s(t) = prod_{i != s}(t - z_i); the float path uses numeric roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gaudin import GaudinSystem, span_closure
from .gl2rep import ProblemInstance, WeightVector
from .numcore import (
    DEFAULT_TOL,
    DomainError,
    Tolerances,
    UniPoly,
    as_float,
    identity,
    is_exact_array,
    is_exact_scalar,
    kernel_basis,
    max_abs,
    scalar_one,
    to_float_array,
    zeros_like_domain,
)
from .opscheme import SchemePoint, p_of_a, root_on_marked_point

__all__ = [
    "DegenerateCoordinatesError",
    "VerificationError",
    "BetheVector",
    "change_of_variables",
    "weight_function",
    "separated_form_value",
    "bethe_vector",
]


class DegenerateCoordinatesError(ValueError):
    """The coordinate change is undefined because sum(x) = 0."""


class VerificationError(ValueError):
    """An eigenvector relation exceeded its tolerance; carries the residual."""

    def __init__(self, residual, msg=None):
        self.residual = residual
        super().__init__(msg or f"eigen-relation residual {residual:.3e}")


def change_of_variables(inst: ProblemInstance, x):
    """(u, y) with sum_s x_s/(t-z_s) = u prod_k (t-y_k) / prod_s (t-z_s).

    u = sum(x); the y are the roots (with multiplicity) of the numerator,
    found numerically and sorted by (real, imaginary) for determinism.
    """
    x = [as_float(v) for v in x]
    if len(x) != inst.n:
        raise ValueError("x must have one entry per factor")
    u = sum(x)
    if abs(u) <= 1e-14 * max(1.0, max(abs(v) for v in x) if x else 0.0):
        raise DegenerateCoordinatesError("sum of coordinates vanishes")
    numer = UniPoly.zero()
    for xs, As in zip(x, inst.zpolys[2]):
        numer = numer + As * xs
    if numer.degree <= 0:
        return u, ()
    roots = np.roots(list(reversed(numer.coeffs)))
    y = sorted((complex(r) for r in roots), key=lambda c: (c.real, c.imag))
    return u, tuple(y)


def _companion(p: UniPoly) -> np.ndarray:
    l = p.degree
    C = zeros_like_domain((l, l), True)
    for j in range(l - 1):
        C[j + 1, j] = Fraction(1)
    for i in range(l):
        C[i, l - 1] = -p.coeffs[i]
    return C


def _linear_form_det(forms, k, cols, cache):
    """Cofactor expansion of det of a matrix of linear forms.

    forms[i][j] is a length-n coefficient list; returns a dict mapping
    degree-k multi-indices to coefficients.
    """
    if k == 0:
        return {(): 1}
    key = cols
    if key in cache:
        return cache[key]
    row = len(forms) - k
    acc = {}
    for pos, j in enumerate(cols):
        entry = forms[row][j]
        if not any(entry):
            continue
        sub = _linear_form_det(forms, k - 1, cols[:pos] + cols[pos + 1:], cache)
        sign = 1 if pos % 2 == 0 else -1
        for mu, v in sub.items():
            for s, c in enumerate(entry):
                if c:
                    nu = _bump(mu, s, len(entry))
                    acc[nu] = acc.get(nu, 0) + sign * v * c
    acc = {mu: v for mu, v in acc.items() if v}
    cache[key] = acc
    return acc


def _bump(mu, s, n):
    if mu == ():
        mu = (0,) * n
    return mu[:s] + (mu[s] + 1,) + mu[s + 1:]


def weight_function(inst: ProblemInstance, a) -> WeightVector:
    """The level-l weight vector attached to the coordinates a."""
    l, n = inst.l, inst.n
    a = list(a)
    if len(a) != l:
        raise ValueError(f"expected {l} coordinates, got {len(a)}")
    exact = inst.exact and all(is_exact_scalar(v) for v in a)
    if l == 0:
        return WeightVector.from_dict({(0,) * n: scalar_one(exact)}, 0)
    p = p_of_a([Fraction(v) if exact else complex(v) for v in a])
    sign = 1 if l % 2 == 0 else -1
    if exact:
        C = _companion(p)
        powers = [identity(l)]
        for _ in range(n - 1):
            powers.append(powers[-1] @ C)
        A = [sum((powers[k] * w[k] for k in range(1, w.degree + 1)), powers[0] * w[0])
             for w in inst.zpolys[2]]
        forms = [[[A[s][i, j] for s in range(n)] for j in range(l)]
                 for i in range(l)]
        det = _linear_form_det(forms, l, tuple(range(l)), {})
        return WeightVector.from_dict({mu: sign * v for mu, v in det.items()}, l)
    roots = np.roots(list(reversed(p.to_float().coeffs)))
    coeffs = {(0,) * n: 1 + 0j}
    for t in roots.tolist():
        ws = [complex(W(t)) for W in inst.zpolys[2]]
        nxt = {}
        for mu, v in coeffs.items():
            for s in range(n):
                if ws[s]:
                    nu = _bump(mu, s, n)
                    nxt[nu] = nxt.get(nu, 0j) + v * ws[s]
        coeffs = nxt
    return WeightVector.from_dict({mu: sign * v for mu, v in coeffs.items()}, l)


def separated_form_value(inst: ProblemInstance, a, x):
    """(-1)^{l n} u^l prod_{j=1}^{n-1} p(y^(j), a) at a numeric point x."""
    u, y = change_of_variables(inst, x)
    p = p_of_a([as_float(v) for v in a]).to_float()
    val = (-1) ** (inst.l * inst.n) * u ** inst.l
    for yk in y:
        val *= p(yk)
    return val


@dataclass(frozen=True)
class BetheVector:
    """Weight-function eigenvector at one scheme point.

    omega_L is the image in quotient coordinates; when it vanishes the
    eigenline is recovered from the algebra closure of omega_M and
    via_subspace is set.
    """

    point: SchemePoint
    omega_M: WeightVector
    omega_L: np.ndarray
    eigen_residuals: tuple
    e12_residual: float
    via_subspace: bool = False


def bethe_vector(inst: ProblemInstance, sys: GaudinSystem, point: SchemePoint,
                 tol: Tolerances = DEFAULT_TOL) -> BetheVector:
    """Build and verify the eigenvector attached to a scheme point.

    Eigen relations and the quotient image are gated at tol.residual.  A
    float point (from the eigen-decomposition) needs the float system,
    build_gaudin(inst.to_float(), sys.frame); an exact one raises DomainError.
    A VerificationError names a Bethe root on a marked point when there is
    one (root_on_marked_point).
    """
    try:
        return _bethe_vector(inst, sys, point, tol)
    except VerificationError as err:
        cause = root_on_marked_point(inst, point.a, tol)
        if cause is None:
            raise
        raise VerificationError(err.residual, f"{err}; {cause}") from err


def _bethe_vector(inst: ProblemInstance, sys: GaudinSystem, point: SchemePoint,
                  tol: Tolerances) -> BetheVector:
    point_exact = all(is_exact_scalar(v) for v in point.a) and \
        all(is_exact_scalar(v) for v in point.h)
    if sys.inst.exact and not point_exact:
        raise DomainError("float point on an exact system; pass the float system")
    omega = weight_function(inst, point.a)
    arr = omega.to_array(inst)
    if is_exact_array(arr) and not sys.inst.exact:
        arr = to_float_array(arr)
    nrm = max_abs(arr)
    if nrm == 0:
        raise VerificationError(float("inf"), "weight function vanished")
    resids = []
    for s, Hb in enumerate(sys.H_big):
        dev = Hb @ arr - point.h[s] * arr
        resids.append(max_abs(dev) / (max(max_abs(Hb), 1e-30) * nrm))
    e12r = max_abs(sys.E12 @ arr) / nrm if sys.E12.shape[0] else 0.0
    worst = max(max(resids, default=0.0), e12r)
    if worst > tol.residual:
        raise VerificationError(worst)
    # arr is in Sing (the E12 gate), and S is the identity on its free rows
    coords = arr[sys.shq.free]
    P = sys.shq.sh
    omega_L = P @ coords if sys.dim_sing_l else coords[:0]
    via_subspace = False
    if sys.dim_sing_l and max_abs(omega_L) <= tol.residual * max(1.0, max_abs(coords)):
        omega_L = _eigenline_via_subspace(P, sys.H_sing, sys.H_L, coords, point.h, tol)
        via_subspace = True
    return BetheVector(point=point, omega_M=omega, omega_L=omega_L,
                       eigen_residuals=tuple(resids), e12_residual=e12r,
                       via_subspace=via_subspace)


def _eigenline_via_subspace(P, H_sing, H_L, coords, h, tol: Tolerances):
    """Unique eigenline inside the quotient image of the algebra closure.

    The closure is cut at tol.svd_rel, a float eigenline at tol.residual.
    """
    exact = is_exact_array(coords)
    basis = span_closure(coords, H_sing, lambda v, H: H @ v, tol)
    W = np.stack([P @ v for v in basis], axis=1)
    W = W[:, [j for j in range(W.shape[1]) if max_abs(W[:, j]) > 0]]
    if W.shape[1] == 0:
        raise VerificationError(float("inf"), "algebra closure dies in the quotient")
    if not exact:
        # kernel relative to the operator scale, not to the (possibly tiny)
        # largest singular value of the stacked residual matrix
        for j in range(W.shape[1]):
            W[:, j] = W[:, j] / np.linalg.norm(np.asarray(W[:, j], dtype=complex))
    eye = identity(P.shape[0], exact)
    stacked = np.concatenate([(HL - h[s] * eye) @ W for s, HL in enumerate(H_L)], axis=0)
    if exact:
        ker = kernel_basis(stacked, 0)
    else:
        scale = max(max(max_abs(HL) for HL in H_L),
                    max(abs(complex(v)) for v in h), 1.0)
        u, sv, vh = np.linalg.svd(np.asarray(stacked, dtype=complex))
        nz = int(np.sum(sv > tol.residual * scale))
        ker = [vh[i].conj() for i in range(nz, W.shape[1])]
    if len(ker) != 1:
        raise VerificationError(float(len(ker)),
                                f"expected a unique eigenline, found {len(ker)}")
    return W @ ker[0]
