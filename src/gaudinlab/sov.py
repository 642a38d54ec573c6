"""Separated coordinates, the universal weight function, and Bethe vectors.

The weight function is the level-l vector

    omega(a) = (-1)^l  prod_{j=1}^{l}  sum_s x^(s) prod_{i != s} (t_j - z_i),

where t_1..t_l are the roots of p(x, a).  The sign normalization makes the
monomial form agree with the separated form (-1)^{l n} u^l prod_j p(y^(j))
under the change of variables below.  The coefficients are symmetric in the
roots, hence polynomial in a: the exact path computes them root-free as
(-1)^l det( sum_s x^(s) W_s(Cp) ) with Cp the companion matrix of p and
W_s(t) = prod_{i != s}(t - z_i); the float path uses numeric roots, for
all the points of several spectra at once (stacked_bethe_vectors).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .gaudin import GaudinSystem, span_closure
from .gl2rep import (
    ProblemInstance,
    WeightVector,
    ZTables,
    _weight_basis,
    weight_space_dim,
    z_tables,
)
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
    rowmax,
    scalar_one,
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
    "bethe_vectors",
    "stacked_bethe_vectors",
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
    found numerically and sorted by DEFAULT_TOL.cluster_key for determinism.
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
    y = sorted((complex(r) for r in roots), key=DEFAULT_TOL.cluster_key)
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
    """The level-l weight vector attached to the coordinates a; float
    coordinates take bethe_vectors' stacked code at one point."""
    l, n = inst.l, inst.n
    a = list(a)
    if len(a) != l:
        raise ValueError(f"expected {l} coordinates, got {len(a)}")
    exact = inst.exact and all(is_exact_scalar(v) for v in a)
    if l == 0:
        return WeightVector.from_dict({(0,) * n: scalar_one(exact)}, 0)
    if not exact:
        roots = _roots(np.array([a], dtype=complex))
        W = np.asarray(inst.tables.A_s, dtype=complex)
        return WeightVector.from_array(_float_weights(W, roots)[0], inst, l)
    p = p_of_a([Fraction(v) for v in a])
    C = _companion(p)
    powers = [identity(l)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ C)
    A = [sum((powers[k] * w[k] for k in range(1, w.degree + 1)), powers[0] * w[0])
         for w in inst.zpolys[2]]
    forms = [[[A[s][i, j] for s in range(n)] for j in range(l)]
             for i in range(l)]
    det = _linear_form_det(forms, l, tuple(range(l)), {})
    sign = 1 if l % 2 == 0 else -1
    return WeightVector.from_dict({mu: sign * v for mu, v in det.items()}, l)


def _roots(A: np.ndarray) -> np.ndarray:
    """Roots of p(a) at each row a of A (P x l), as np.roots finds them: the
    eigenvalues of the companion matrices, in one stacked call."""
    P, l = A.shape
    if l == 0:
        return np.zeros((P, 0), dtype=complex)
    C = np.zeros((P, l, l), dtype=complex)
    # np.roots divides by the leading coefficient, which sets the sign of
    # zero imaginary parts; the eigenvalues' last bits depend on it
    C[:, 0, :] = -A / (1 + 0j)
    C[:, np.arange(1, l), np.arange(l - 1)] = 1
    return np.linalg.eigvals(C)


@cache
def _raise_maps(n: int, k: int) -> np.ndarray:
    """Position of mu + e_s in the level-(k+1) basis, for each multi-index mu
    of the level-k basis (rows) and factor s (columns)."""
    basis, _ = _weight_basis(n, k)
    _, pos = _weight_basis(n, k + 1)
    return np.array([[pos[_bump(mu, s, n)] for s in range(n)] for mu in basis],
                    dtype=np.intp).reshape(len(basis), n)


def _float_weights(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The weight vectors at the roots T (P x l) of P points, as the rows of a
    P x dim array, with W the ascending coefficients of each point's W_s
    (ZTables.A_s, P x n x n, or 1 x n x n for one instance): the product
    over roots t of sum_s x^(s) W_s(t), one scatter step mu -> mu + e_s per
    root, times (-1)^l."""
    P, l = T.shape
    n = W.shape[1]
    ws = np.zeros((P, l, n), dtype=complex)
    for j in range(W.shape[2] - 1, -1, -1):     # W_s(t) by Horner, as UniPoly evaluates it
        ws = ws * T[:, :, None] + W[:, None, :, j]
    V = np.ones((P, 1), dtype=complex)
    for k in range(l):
        up = _raise_maps(n, k)
        nxt = np.zeros((P, weight_space_dim(n, k + 1)), dtype=complex)
        for s in range(n):
            nxt[:, up[:, s]] += V * ws[:, k, s, None]
        V = nxt
    return V if l % 2 == 0 else -V


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

    weights holds its level-l monomial coefficients (the basis order of
    WeightVector), and omega_M is formed from them the first time it is
    read.  omega_L is the image in quotient coordinates; when it vanishes
    the eigenline is recovered from the algebra closure of omega_M and
    via_subspace is set.  roots are the Bethe roots, the roots of p(a)
    sorted by the run's Tolerances.cluster_key.
    """

    point: SchemePoint
    weights: np.ndarray
    omega_L: np.ndarray
    eigen_residuals: tuple
    e12_residual: float
    via_subspace: bool = False
    roots: tuple = ()

    @cached_property
    def omega_M(self) -> WeightVector:
        l = len(self.point.a)
        basis = _weight_basis(len(self.point.h), l)[0]
        return WeightVector(tuple((j, c) for j, c in zip(basis, self.weights) if c), l)


def bethe_vector(inst: ProblemInstance, sys: GaudinSystem, point: SchemePoint,
                 tol: Tolerances = DEFAULT_TOL) -> BetheVector:
    """bethe_vectors at one point; raises its VerificationError."""
    (bv,) = bethe_vectors(inst, sys, [point], tol)
    if isinstance(bv, VerificationError):
        raise bv
    return bv


def bethe_vectors(inst: ProblemInstance, sys: GaudinSystem, points,
                  tol: Tolerances = DEFAULT_TOL) -> list:
    """stacked_bethe_vectors at the points of the one system sys: one
    BetheVector, or the VerificationError that rejects it, per point."""
    (out,) = stacked_bethe_vectors([(inst, sys, points)], tol)
    return out


def stacked_bethe_vectors(groups, tol: Tolerances = DEFAULT_TOL,
                          tables: ZTables | None = None) -> list:
    """Build and verify the eigenvector attached to each scheme point of every
    group (inst, sys, points) of groups, systems of one (m, l) and one lane:
    per group, one BetheVector, or the VerificationError that rejects it,
    per point.

    Eigen relations and the quotient image are gated at tol.residual.  A
    float point (from the eigen-decomposition) needs the float system,
    build_gaudin(inst.to_float(), sys.frame); an exact one raises DomainError.
    A float system computes its points in floats, and every group's in one
    pass: the roots of every p(a) (_roots) and the weight vectors
    (_float_weights), each point on its group's W_s (tables, one sample per
    group; z_tables of the groups' instances if None).  An exact system
    takes the exact weight function and the same gates on Fraction arrays.
    Each eigen relation is one product on a group's P x dim stack, and only
    the eigenline fallback (_eigenline_via_subspace) runs per point, so a
    point's vector does not depend on the other groups.  A VerificationError
    names a Bethe root on a marked point when there is one
    (root_on_marked_point).
    """
    groups = [(inst, sys, list(points)) for inst, sys, points in groups]
    if len({sys.inst.exact for _, sys, _ in groups}) > 1:
        raise ValueError("the systems of one call must share a lane")
    for _, sys, points in groups:
        if sys.inst.exact and not all(is_exact_scalar(v) for p in points for v in p.a + p.h):
            raise DomainError("float point on an exact system; pass the float system")
    pts = [p for _, _, points in groups for p in points]
    if not pts:
        return [[] for _ in groups]
    roots = _roots(np.array([p.a for p in pts], dtype=complex).reshape(len(pts), groups[0][0].l))
    # W_s(t) overflows where marked points lie far apart (about 1e60): the
    # point's weight vector is then not finite, and _eigen_gate fails it
    with np.errstate(over="ignore", invalid="ignore"):
        if groups[0][1].inst.exact:
            V = np.stack([weight_function(inst, p.a).to_array(inst)
                          for inst, _, points in groups for p in points])
        else:
            if tables is None:
                tables = z_tables([inst for inst, _, _ in groups])
            # each point at its own instance's W_s
            W = np.asarray(tables.A_s, dtype=complex)
            sample = np.repeat(np.arange(len(groups)), [len(ps) for _, _, ps in groups])
            V = _float_weights(W[sample], roots)
        ends = itertools.accumulate(len(points) for _, _, points in groups)
        return [_group_vectors(inst, sys, points, V[end - len(points):end],
                               roots[end - len(points):end], tol) if points else []
                for (inst, sys, points), end in zip(groups, ends)]


def _group_vectors(inst: ProblemInstance, sys: GaudinSystem, points, V: np.ndarray,
                   roots: np.ndarray, tol: Tolerances) -> list:
    """stacked_bethe_vectors' output at one group's points, from their weight
    vectors V (P x dim) and the roots of their p(a) (P x l)."""
    resids, e12r, errors = _eigen_gate(sys, V, np.array([p.h for p in points], dtype=V.dtype), tol)
    # V is in Sing (the E12 gate), and S is the identity on its free rows
    coords = V[:, sys.shq.free]
    omega_L = coords @ sys.shq.sh.T if sys.dim_sing_l else coords[:, :0]
    dead = rowmax(omega_L).astype(float) <= \
        tol.residual * np.maximum(1.0, rowmax(coords).astype(float))
    out = []
    has_quotient = bool(sys.dim_sing_l)
    for i, p in enumerate(points):
        err, line = errors[i], omega_L[i]
        via_subspace = has_quotient and bool(dead[i])
        if err is None and via_subspace:
            try:
                line = _eigenline_via_subspace(sys.shq.sh, sys.H_sing, sys.H_L,
                                               coords[i], p.h, tol)
            except VerificationError as e:
                err = e
        if err is not None:
            cause = root_on_marked_point(inst, p.a, tol)
            out.append(VerificationError(err.residual, f"{err}; {cause}") if cause else err)
            continue
        out.append(BetheVector(
            point=p, weights=V[i], omega_L=line,
            eigen_residuals=tuple(float(r) for r in resids[i]),
            e12_residual=float(e12r[i]), via_subspace=via_subspace,
            roots=tuple(sorted(roots[i].tolist(), key=tol.cluster_key))))
    return out


def _eigen_gate(sys: GaudinSystem, V: np.ndarray, H: np.ndarray, tol: Tolerances):
    """(eigen residuals, E12 residuals, errors) of the weight vectors V (P x
    dim) as eigenvectors with the joint eigenvalues H (P x n): each relation
    is one product on the stack, relative to |H_s| and the vector's largest
    entry; errors[i] is the VerificationError of row i at tol.residual, or
    None."""
    nrm = rowmax(V).astype(float)
    safe = np.where(nrm > 0, nrm, 1.0)
    resids = np.stack([rowmax(V @ Hb.T - H[:, s, None] * V).astype(float)
                       / (max(max_abs(Hb), 1e-30) * safe)
                       for s, Hb in enumerate(sys.H_big)], axis=1)
    e12r = rowmax(V @ sys.E12.T).astype(float) / safe if sys.E12.shape[0] \
        else np.zeros(len(V))
    worst = np.maximum(resids.max(axis=1, initial=0.0), e12r)
    worst[np.isnan(worst)] = np.inf    # a non-finite vector fails as inf
    errors = [VerificationError(float("inf"), "weight function vanished") if r == 0 else
              VerificationError(float(w)) if w > tol.residual else None
              for r, w in zip(nrm, worst)]
    return resids, e12r, errors


def _eigenline_via_subspace(P, H_sing, H_L, coords, h, tol: Tolerances):
    """Unique eigenline inside the quotient image of the algebra closure.

    The closure is cut at tol.svd_rel, a float eigenline at tol.residual.
    """
    exact = is_exact_array(coords)
    basis = span_closure(coords, H_sing, lambda v, H: H @ v, tol)
    if not basis:
        raise VerificationError(float("inf"), "algebra closure of the weight vector is empty")
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
