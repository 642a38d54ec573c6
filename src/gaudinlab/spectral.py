"""Joint eigen-decomposition of the commuting family and scheme matching.

The spectrum of the family is read off a seeded random integer combination
of the generators: eigenvalue clusters of the combination give the points,
generalized-eigenspace dimensions give multiplicities, and the h-tuple at a
point is the Rayleigh value of each generator on the cluster's invariant
subspace.  Every point is then pushed through the scheme-side checks,
opscheme's stacked stages run once over every spectrum of a command, and
the residuals are recorded, never just booleans; the Grothendieck weights
invert the same stages' Jacobians.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gl2rep import ProblemInstance
from .numcore import DEFAULT_TOL, Tolerances, exact_det, max_abs, rowmax, to_float_array
from .opscheme import (
    PLANE_PRE_GATE,
    SchemePoint,
    dh_matrices,
    p_coefficients,
    per_group,
    root_on_marked_point,
    stacked_a_of_h,
    stacked_h_of_a,
    stacked_jacobian,
    stacked_kernel_pair,
    stacked_second_kernel,
)

__all__ = [
    "ClusterAmbiguityError",
    "NonSimplePointError",
    "SingularJacobianError",
    "SpectrumReport",
    "joint_spectrum",
    "match_spectrum_to_scheme",
    "match_spectra_to_scheme",
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
    here, the one sanctioned entry into float mode.  The combination is
    diagonalised once (np.linalg.eig); eigenvalues closer than tol.cluster
    share a cluster.  A cluster of size 1 takes its unit eigenvector as
    basis, and h is the Rayleigh quotient of each generator on it.  Only a
    spectrum with a larger cluster factors the combination as a complex
    Schur form, and reads each such cluster's basis off it (_schur_bases).
    Raises ClusterAmbiguityError when two clusters run closer than
    10 * tol.cluster, or when a cluster is not one joint eigenvalue (two
    eigenvalues of some Q^H H_s Q / max(1, max|H_s|) lie 10 * tol.cluster or
    more apart), in which case the caller should reseed.  Clusters are
    listed by the real part of their centers on a grid of tol.cluster, then
    by the imaginary part, so a conjugate pair whose real parts agree to
    rounding keeps one order.
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
    eigs, vecs = np.linalg.eig(T / scale)

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
    mean = {r: complex(np.mean([eigs[i] for i in g])) for r, g in groups.items()}
    roots = sorted(groups, key=lambda r: tol.cluster_key(mean[r]))
    clusters = [groups[r] for r in roots]
    centers = [mean[r] for r in roots]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol.cluster:
                raise ClusterAmbiguityError(
                    f"cluster centers {centers[i]:.6g} and {centers[j]:.6g} "
                    f"within 10*tol; reseed")

    # a simple cluster's basis is its unit eigenvector, and every simple h
    # is one stacked Rayleigh quotient
    simple = [g[0] for g in clusters if len(g) == 1]
    Vs = vecs[:, simple]
    hs = dict(zip(simple, np.einsum("ij,sij->js", Vs.conj(), np.stack(mats) @ Vs)))
    if len(simple) < len(clusters):
        schur = _schur_bases(T / scale, centers, clusters, mats, tol)
    out = []
    for idx, g in enumerate(clusters):
        if len(g) == 1:
            out.append((tuple(complex(v) for v in hs[g[0]]), 1, vecs[:, g]))
        else:
            out.append(schur[idx])
    assert sum(m for _, m, _ in out) == d
    return out


def _schur_bases(Tn, centers, clusters, mats, tol):
    """{cluster index: (h, multiplicity, Q)} for each cluster of size > 1 of
    the normalised combination Tn, read off its complex Schur form, which
    LAPACK's ztrsen reorders to bring the cluster's eigenvalues to the top.
    Eigenvectors cannot span a defective cluster, an invariant basis can.
    Raises ClusterAmbiguityError when the cluster is not one joint
    eigenvalue (see joint_spectrum)."""
    import scipy.linalg  # about 28 MB and 0.25 s to import, so loaded only here

    S, Z = scipy.linalg.schur(Tn, output="complex")
    # each eigenvalue on the Schur diagonal belongs to its nearest center
    labels = np.argmin(np.abs(np.diag(S)[:, None] - np.array(centers)[None, :]), axis=1)
    scales = [max(1.0, max_abs(H)) for H in mats]
    out = {}
    for idx, g in enumerate(clusters):
        if len(g) == 1:
            continue
        _, Zs, _, sdim, _, _, _ = scipy.linalg.lapack.ztrsen(labels == idx, S, Z, job="N")
        if sdim != len(g):
            raise ClusterAmbiguityError(
                f"invariant subspace dimension {sdim} != cluster size {len(g)}")
        Q = Zs[:, :sdim]
        blocks = [Q.conj().T @ H @ Q for H in mats]
        for s, B in enumerate(blocks):
            # a cluster of the combination must be one joint eigenvalue
            ev = np.linalg.eigvals(B / scales[s])
            if np.abs(ev[:, None] - ev[None, :]).max() >= 10 * tol.cluster:
                raise ClusterAmbiguityError(
                    f"cluster of size {sdim} splits under generator {s}; reseed")
        out[idx] = (tuple(complex(np.trace(B)) / sdim for B in blocks), int(sdim), Q)
    return out


def _scheme_residuals(groups, tol: Tolerances):
    """Every scheme-side check at the points of every group, in one pass:
    one list per group of one (a, atilde, residuals) per point.

    groups is [(inst, H), ...], instances of one (m, l) with the points H
    (P_g x n) to check there, all complex (float lane) or all Fractions in
    object arrays (exact lane, gated at literal zero).  The checks are
    opscheme's stacked stages on the concatenated stack, and a point's
    values do not depend on the other groups.  A check that fails at a
    point records inf and its *_error for that point only; atilde is None
    where the second kernel polynomial does not exist.
    """
    ends = list(itertools.accumulate(len(H) for _, H in groups))
    if not ends or not ends[-1]:
        return [[] for _ in groups]
    inst = groups[0][0]
    l, n, lt = inst.l, inst.n, inst.ltilde
    parts = [(f, slice(end - len(H), end)) for (f, H), end in zip(groups, ends)]
    H = np.concatenate([H for _, H in groups])

    def operators(f, Hg):
        # q_0 summed in constraint_plane's order, so it keeps its bits;
        # exponents (0, m_s + 1) at the marked points, once per instance
        q0 = sum(z * Hg[:, s] for s, z in enumerate(f.z)) - l * lt
        marked = max((max(abs(e0), abs(e1 - (ms + 1))) for (e0, e1), ms
                      in zip(f.marked_exponents, f.m)), default=0.0)
        return dh_matrices(f, Hg), q0, np.full(len(Hg), marked)

    D, q0, marked = per_group(parts, operators, H)
    qm1 = sum((H[:, s] for s in range(1, n)), H[:, 0])
    hscale = np.maximum(np.maximum(1.0, np.abs(H).max(axis=1).astype(float)),
                        float(l * abs(lt)))
    a = stacked_a_of_h(inst, D)
    p = p_coefficients(a)
    ascale = np.maximum(hscale, rowmax(a))
    _, w = stacked_h_of_a(parts, p)
    scheme = rowmax(w) / ascale
    # at infinity the exponents are the set {-l, l - 1 - sum(m)} iff
    # C_{n-2} = l * lt
    einf = np.abs(D[:, n - 2, 0] - l * lt) / hscale

    cols = [qm1.tolist(), q0.tolist(), hscale.tolist(), scheme.tolist(),
            marked.tolist(), einf.tolist(), a.tolist()]
    if lt > l:
        x, pt, ptilde_err = stacked_second_kernel(inst, D, hscale, tol)
        pscale = np.maximum(ascale, rowmax(x))
        ptilde = rowmax((D @ pt[:, :, None])[:, :, 0]) / pscale
        b, hrec, wronsk, pair_err = stacked_kernel_pair(parts, pt, p, tol)
        roundtrip = rowmax(hrec - H) / hscale
        b2_leading = np.abs(b[:, 2, n - 2] - lt * l) / max(1.0, lt * l)
        cols += [x.tolist(), ptilde_err, ptilde.tolist(), (wronsk / pscale).tolist(),
                 roundtrip.tolist(), b2_leading.tolist(), pair_err]
    pre_gate, plane_gate = (0, 0) if H.dtype == object else \
        (PLANE_PRE_GATE, max(tol.residual, PLANE_PRE_GATE))
    out = []
    for qm, q, hs, sch, mk, ei, ai, *second in zip(*cols):
        res = {"q_minus1": abs(qm) / hs, "q_0": abs(q) / hs, "scheme": sch}
        if abs(qm) > pre_gate * hs:
            res["exponents"] = float("inf")
            res["exponents_error"] = "exponents at infinity need q_{-1}(h) = 0"
        else:
            res["exponents"] = max(mk, ei)
        atilde = None
        if second:
            xi, err, pti, wr, rt, b2, perr = second
            if abs(qm) > plane_gate * hs or abs(q) > plane_gate * hs:
                err = f"h is off the constraint plane: q_-1 = {qm}, q_0 = {q}"
            if err is not None:
                res["ptilde"] = float("inf")
                res["ptilde_error"] = err
            else:
                atilde = tuple(xi)
                res["ptilde"] = pti
                res["wronskian"] = wr
                if perr is None:
                    res["kernel_pair_roundtrip"] = rt
                    res["b2_leading"] = b2
                else:
                    res["kernel_pair_roundtrip"] = float("inf")
                    res[perr[0]] = perr[1]
        out.append((tuple(ai), atilde, res))
    return [out[rows] for _, rows in parts]


def match_spectra_to_scheme(spectra, tol: Tolerances = DEFAULT_TOL) -> list:
    """One SpectrumReport per (inst, spectrum) of spectra, every instance of
    one (m, l), from one stacked pass of the scheme checks.

    The checks run once, stacked over every point of every spectrum
    (_scheme_residuals); a point's residuals are those a pass over its
    spectrum alone gives.  Per-point failures are recorded as infinite
    residuals in the report rather than aborting the run; the second kernel
    polynomial and the kernel-pair operator are gated at tol.residual.
    """
    groups, hss = [], []
    for inst, spectrum in spectra:
        finst = inst.to_float() if inst.exact else inst
        hs = [tuple(complex(v) for v in h) for h, _, _ in spectrum]
        groups.append((finst, np.array(hs, dtype=complex).reshape(len(hs), finst.n)))
        hss.append(hs)
    reports = []
    for (_, spectrum), hs, checked in zip(spectra, hss, _scheme_residuals(groups, tol)):
        points = [SchemePoint(h=h, a=a, atilde=atilde, multiplicity=mult, residuals=res)
                  for h, (_, mult, _), (a, atilde, res) in zip(hs, spectrum, checked)]
        summary = {}
        for p in points:
            for k, v in p.residuals.items():
                if isinstance(v, (int, float)):
                    summary[k] = max(summary.get(k, 0.0), float(v))
        reports.append(SpectrumReport(points=points,
                                      total_multiplicity=sum(p.multiplicity for p in points),
                                      all_simple=all(p.multiplicity == 1 for p in points),
                                      residual_summary=summary))
    return reports


def match_spectrum_to_scheme(inst: ProblemInstance, spectrum,
                             tol: Tolerances = DEFAULT_TOL) -> SpectrumReport:
    """Verify every joint-spectrum point against the scheme equations: the
    one-spectrum call of match_spectra_to_scheme."""
    (report,) = match_spectra_to_scheme([(inst, spectrum)], tol)
    return report


def grothendieck_weights(inst: ProblemInstance, points, tol: Tolerances = DEFAULT_TOL):
    """Inverse Jacobian weights of the n defining polynomials at simple points.

    The induced bilinear form (f, g) = sum_p f(p) g(p) w_p is symmetric and,
    on functions separating the points, nondegenerate.  The overall residue
    normalization is a convention of this routine; only properties invariant
    under a global rescaling of the weights should be relied on.  Every
    point must carry a = a(h), as match_spectrum_to_scheme builds it.  The
    Jacobians are opscheme.stacked_jacobian, one stack of the exact points
    and one of the float points.  A float Jacobian is singular when sv_min <=
    tol.residual * sv_max after _equilibrated, as its rows differ in scale
    by orders of magnitude; the error names a Bethe root on a marked point
    when there is one.
    """
    finst = inst.to_float() if inst.exact else inst
    points = list(points)
    exact = [inst.exact and all(isinstance(v, Fraction) for v in p.h) for p in points]

    def jacobians(f, pts, dtype):
        return stacked_jacobian(f, np.array([p.h for p in pts], dtype=dtype).reshape(len(pts), f.n),
                                np.array([p.a for p in pts], dtype=dtype).reshape(len(pts), f.l))

    J = jacobians(finst, [p for p, e in zip(points, exact) if not e], complex)
    gated = zip(np.linalg.svd(_equilibrated(J), compute_uv=False), np.linalg.det(J))
    ex = [p for p, e in zip(points, exact) if e]
    dets = (exact_det(Jp.tolist()) for Jp in (jacobians(inst, ex, object) if ex else []))
    weights = []
    for p, e in zip(points, exact):
        if p.multiplicity != 1:
            raise NonSimplePointError(
                f"point with multiplicity {p.multiplicity}")
        if e:
            det = next(dets)
            if det == 0:
                raise _singular(inst, p, "exact Jacobian vanished", tol)
            weights.append(Fraction(1) / det)
            continue
        sv, det = next(gated)
        if sv[0] == 0 or sv[-1] <= tol.residual * sv[0]:
            raise _singular(finst, p, "equilibrated Jacobian condition "
                            f"{sv[-1]:.3e}/{sv[0]:.3e} is numerically singular", tol)
        weights.append(1 / complex(det))
    return weights


def _equilibrated(J: np.ndarray) -> np.ndarray:
    """diag(r) J diag(c) with each row, then each column, scaled to largest modulus
    1 (a zero row or column keeps scale 1); each row keeps its largest entry 1 through
    the column scaling, so more sweeps change nothing.  A singular J stays singular.
    J may be a stack of matrices (... x n x n), each scaled on its own."""
    E = np.abs(J)
    r = E.max(axis=-1)
    r[r == 0] = 1.0
    c = (E / r[..., None]).max(axis=-2)
    c[c == 0] = 1.0
    return J / r[..., None] / c[..., None, :]


def _singular(inst: ProblemInstance, point, msg: str, tol: Tolerances):
    cause = root_on_marked_point(inst, point.a, tol)
    return SingularJacobianError(f"{msg}; {cause}" if cause else msg)


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
