"""Joint eigen-decomposition of the commuting family and scheme matching.

The spectrum of the family is read off a seeded random integer combination
of the generators: eigenvalue clusters of the combination give the points,
generalized-eigenspace dimensions give multiplicities, and the h-tuple at a
point is the Rayleigh value of each generator on the cluster's invariant
subspace.  Every point is then pushed through the scheme-side checks and
the residuals are recorded, never just booleans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .gl2rep import ProblemInstance
from .numcore import (
    DEFAULT_TOL,
    InconsistentSystemError,
    Tolerances,
    exact_det,
    is_exact_scalar,
    max_abs,
    scalar_one,
    solve_rows,
    to_float_array,
)
from .opscheme import (
    DhOperator,
    MalformedPairError,
    NotAdmissibleError,
    OffPlaneError,
    SchemePoint,
    _a_of_h_raw,
    constraint_plane,
    exponents_at,
    h_from_numerator,
    operator_from_kernel_pair,
    p_of_a,
    ptilde_of,
    ptilde_solve,
    residual_system,
    wronskian_check,
)

__all__ = [
    "ClusterAmbiguityError",
    "NonSimplePointError",
    "SingularJacobianError",
    "SpectrumReport",
    "joint_spectrum",
    "match_spectrum_to_scheme",
    "grothendieck_weights",
    "diagonalizability_check",
]


class ClusterAmbiguityError(RuntimeError):
    """Two eigenvalue clusters are too close to separate; reseed."""


class NonSimplePointError(ValueError):
    """An operation requiring multiplicity-one points got a fat point."""


class SingularJacobianError(ValueError):
    """The defining equations are not transversal at a claimed simple point."""


@dataclass
class SpectrumReport:
    """Multiplicity-weighted spectrum with per-point scheme residuals."""

    points: list
    total_multiplicity: int
    all_simple: bool
    residual_summary: dict


def joint_spectrum(mats, seed: int, tol: Tolerances = DEFAULT_TOL):
    """[(h, multiplicity, orthonormal invariant basis), ...] of the family.

    mats must commute (checked exactly upstream); exact input is converted
    here, the one sanctioned entry into float mode.  Eigenvalues closer
    than tol.cluster share a cluster.  Raises ClusterAmbiguityError when
    two clusters run closer than 10 * tol.cluster, in which case the
    caller should reseed.
    """
    mats = [to_float_array(M) for M in mats]
    n = len(mats)
    d = mats[0].shape[0]
    if d == 0:
        return []
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 998, size=n)
    T = sum(int(cs) * H for cs, H in zip(c, mats))
    scale = max(1.0, float(np.abs(T).max()))
    Tn = T / scale
    eigs = np.linalg.eigvals(Tn)

    # single-linkage clustering at distance tol.cluster
    order = sorted(range(d), key=lambda i: (eigs[i].real, eigs[i].imag))
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ii in range(d):
        for jj in range(ii + 1, d):
            if abs(eigs[order[ii]] - eigs[order[jj]]) <= tol.cluster:
                ri, rj = find(order[ii]), find(order[jj])
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    clusters = sorted(groups.values(),
                      key=lambda g: (np.mean([eigs[i] for i in g]).real,
                                     np.mean([eigs[i] for i in g]).imag))
    centers = [complex(np.mean([eigs[i] for i in g])) for g in clusters]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol.cluster:
                raise ClusterAmbiguityError(
                    f"cluster centers {centers[i]:.6g} and {centers[j]:.6g} "
                    f"within 10*tol; reseed")

    out = []
    for idx, g in enumerate(clusters):

        def selector(lam, _idx=idx):
            return int(np.argmin([abs(lam - cc) for cc in centers])) == _idx

        _, Z, sdim = scipy.linalg.schur(Tn, output="complex", sort=selector)
        if sdim != len(g):
            raise ClusterAmbiguityError(
                f"invariant subspace dimension {sdim} != cluster size {len(g)}")
        Q = Z[:, :sdim]
        h = tuple(complex(np.trace(Q.conj().T @ H @ Q)) / sdim for H in mats)
        out.append((h, int(sdim), Q))
    assert sum(m for _, m, _ in out) == d
    return out


def _point_residuals(finst: ProblemInstance, h, tol: Tolerances):
    """All scheme-side checks at h on the float instance finst; residuals only."""
    l, n, lt = finst.l, finst.n, finst.ltilde
    h = tuple(complex(v) for v in h)
    res = {}
    qm1, q0, hscale = constraint_plane(finst, h)
    res["q_minus1"] = abs(qm1) / hscale
    res["q_0"] = abs(q0) / hscale
    op = DhOperator(finst, h)
    a = [complex(v) for v in _a_of_h_raw(op)]
    ascale = max(hscale, max((abs(v) for v in a), default=0.0))
    res["scheme"] = max((abs(v) for v in residual_system(finst, a)),
                        default=0.0) / ascale
    dev = 0.0
    for s in range(n):
        e = exponents_at(op, s)
        dev = max(dev, abs(e[0]), abs(e[1] - (finst.m[s] + 1)))
    try:
        einf = exponents_at(op, None)
    except OffPlaneError as err:
        res["exponents"] = float("inf")
        res["exponents_error"] = str(err)
    else:
        dev = max(dev, abs(einf[0] + l), abs(einf[1] - (l - 1 - sum(finst.m))))
        res["exponents"] = dev / max(1.0, float(lt))
    atilde = None
    if lt > l:
        try:
            atilde = [complex(v) for v in ptilde_solve(op, tol=tol)]
        except (InconsistentSystemError, OffPlaneError) as err:
            res["ptilde"] = float("inf")
            res["ptilde_error"] = str(err)
    if atilde is not None:
        pscale = max(ascale, max((abs(v) for v in atilde), default=0.0))
        res["ptilde"] = max_abs(op.image(ptilde_of(finst, atilde).coeffs)) / pscale
        wr = wronskian_check(finst, atilde, a)
        res["wronskian"] = wr.max_abs() / pscale
        try:
            b0, b1, b2 = operator_from_kernel_pair(
                finst, ptilde_of(finst, atilde), p_of_a(a), tol=tol)
            hrec = h_from_numerator(finst, b2)
            res["kernel_pair_roundtrip"] = max(
                abs(hr - hs) for hr, hs in zip(hrec, h)) / hscale
            b2lead = b2.leading() if not b2.is_zero() else 0.0
            res["b2_leading"] = abs(b2lead - lt * l) / max(1.0, lt * l)
        except NotAdmissibleError as err:
            res["kernel_pair_roundtrip"] = float("inf")
            res["admissible_error"] = str(err)
        except MalformedPairError as err:
            res["kernel_pair_roundtrip"] = float("inf")
            res["malformed_pair_error"] = str(err)
    return a, atilde, res


def match_spectrum_to_scheme(inst: ProblemInstance, spectrum,
                             tol: Tolerances = DEFAULT_TOL) -> SpectrumReport:
    """Verify every joint-spectrum point against the scheme equations.

    Per-point failures are recorded as infinite residuals in the report
    rather than aborting the run; the second kernel polynomial and the
    kernel-pair operator are gated at tol.residual.
    """
    finst = inst.to_float() if inst.exact else inst
    points = []
    for h, mult, _Q in spectrum:
        a, atilde, res = _point_residuals(finst, h, tol)
        points.append(SchemePoint(
            h=tuple(complex(v) for v in h), a=tuple(a),
            atilde=tuple(atilde) if atilde is not None else None,
            multiplicity=mult, residuals=res))
    summary = {}
    for p in points:
        for k, v in p.residuals.items():
            if isinstance(v, (int, float)):
                summary[k] = max(summary.get(k, 0.0), float(v))
    return SpectrumReport(points=points,
                          total_multiplicity=sum(p.multiplicity for p in points),
                          all_simple=all(p.multiplicity == 1 for p in points),
                          residual_summary=summary)


def _jacobian(inst: ProblemInstance, h, a):
    """Rows of d(q_{-1}, q_0, q_{l+1}, ..., q_{l+n-2})/dh at a = a(h).

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
        Q = DhOperator(inst, tuple(h)).q_rows(l).tolist()
        M = inst.dh_blocks[1][:, :l + n, :l + 1]
        # dq_dh[i][s] = dq_{i+1}/dh_s: rows of M[s] p(a), q_1 first
        dq_dh = (M @ np.array(p_of_a(a).coeffs, dtype=M.dtype)).T[:l + n - 2][::-1].tolist()
        # q_1..q_l vanish along a(h): (dq/da) da/dh = -dq/dh on those rows;
        # a_k multiplies the column of x^{l-k}
        da_dh = solve_rows([Q[i][l - 1::-1] + [-v for v in dq_dh[i]] for i in range(l)], l)
        for i in range(l, l + n - 2):
            rows.append([dq_dh[i][s] + sum(Q[i][l - 1 - k] * da_dh[k][s] for k in range(l))
                         for s in range(n)])
    return rows


def grothendieck_weights(inst: ProblemInstance, points, tol: Tolerances = DEFAULT_TOL):
    """Inverse Jacobian weights of the n defining polynomials at simple points.

    The induced bilinear form (f, g) = sum_p f(p) g(p) w_p is symmetric and,
    on functions separating the points, nondegenerate.  The overall residue
    normalization is a convention of this routine; only properties invariant
    under a global rescaling of the weights should be relied on.  Every
    point must carry a = a(h), as match_spectrum_to_scheme builds it.  A
    float Jacobian with sv_min <= tol.residual * sv_max is singular.
    """
    finst = inst.to_float() if inst.exact else inst
    weights = []
    for p in points:
        if p.multiplicity != 1:
            raise NonSimplePointError(
                f"point with multiplicity {p.multiplicity}")
        if inst.exact and all(isinstance(v, Fraction) for v in p.h):
            J = exact_det(_jacobian(inst, p.h, p.a))
            if J == 0:
                raise SingularJacobianError("exact Jacobian vanished")
            weights.append(Fraction(1) / J)
            continue
        Jm = np.array(_jacobian(finst, [complex(v) for v in p.h], p.a), dtype=complex)
        sv = np.linalg.svd(Jm, compute_uv=False)
        if sv[0] == 0 or sv[-1] <= tol.residual * sv[0]:
            raise SingularJacobianError(
                f"Jacobian condition {sv[-1]:.3e}/{sv[0]:.3e} is numerically singular")
        weights.append(1 / complex(np.linalg.det(Jm)))
    return weights


def diagonalizability_check(mats, spectrum, tol: Tolerances = DEFAULT_TOL):
    """(all eigenspaces genuine, worst residual) for the commuting family.

    spectrum is the family's joint_spectrum.  True iff every generalized
    eigenspace carries a full basis of true eigenvectors: the restriction
    of each generator to each cluster subspace must be scalar within
    tol.residual * |H|.  A spectrum whose multiplicities do not add up to
    the matrix size gives (False, inf).
    """
    mats = [to_float_array(M) for M in mats]
    if sum(mult for _, mult, _ in spectrum) != mats[0].shape[0]:
        return False, float("inf")
    worst = 0.0
    for h, mult, Q in spectrum:
        for s, H in enumerate(mats):
            dev = H @ Q - h[s] * Q
            worst = max(worst, max_abs(dev) / max(max_abs(H), 1e-30))
    return worst < tol.residual, worst
