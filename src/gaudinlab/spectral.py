"""Joint eigen-decomposition of the commuting family and scheme matching.

The spectrum of the family is read off a seeded random integer combination
of the generators: eigenvalue clusters of the combination give the points,
generalized-eigenspace dimensions give multiplicities, and the h-tuple at a
point is the Rayleigh value of each generator on the cluster's invariant
subspace; every family of a command is decomposed in one pass
(joint_spectra).  Every point is then pushed through the scheme-side
checks, opscheme's stacked stages run once over every spectrum of a
command, and the residuals are recorded, never just booleans; the
Grothendieck weights invert the same stages' Jacobians, also once over
every spectrum.  The spectrum is float in both lanes, so everything past it
runs on the float twin of the instance (ProblemInstance.to_float).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gl2rep import ProblemInstance, ZTables, z_tables
from .numcore import DEFAULT_TOL, DomainError, Tolerances, max_abs, rowmax, to_float_array
from .opscheme import (
    PLANE_PRE_GATE,
    SchemePoint,
    _plane,
    dh_stack,
    off_plane,
    p_coefficients,
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
    "joint_spectra",
    "match_spectrum_to_scheme",
    "match_spectra_to_scheme",
    "grothendieck_weights",
    "stacked_grothendieck_weights",
    "diagonalizability_check",
    "stacked_diagonalizability_checks",
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


def joint_spectra(families, seeds, tol: Tolerances = DEFAULT_TOL) -> list:
    """The joint spectrum of each commuting family of families at its seed of
    seeds, or the ClusterAmbiguityError that rejects that draw: one stacked
    pass over every family.

    A spectrum is [(h, multiplicity, orthonormal invariant basis), ...].
    Each family must commute (checked exactly upstream); exact input is
    converted here, the one sanctioned entry into float mode.  A family's
    seeded random integer combination is diagonalised (np.linalg.eig, one
    batched call per matrix shape); eigenvalues closer than tol.cluster share
    a cluster (single linkage).  A cluster of size 1 takes its unit
    eigenvector as basis, and h is the Rayleigh quotient of each generator
    on it, every family's in one product.  Only a spectrum with a larger
    cluster factors its combination as a complex Schur form, and reads each
    such cluster's basis off it (_schur_bases).  A draw is rejected when two
    clusters run closer than 10 * tol.cluster, or when a cluster is not one
    joint eigenvalue (two eigenvalues of some Q^H H_s Q / max(1, max|H_s|)
    lie 10 * tol.cluster or more apart); the caller should reseed.  Clusters
    are listed by the real part of their centers on a grid of tol.cluster,
    then by the imaginary part, then by first eigenvalue index, so a
    conjugate pair whose real parts agree to rounding keeps one order.  A
    family's spectrum does not depend on the others in the stack.
    """
    out = [[] for _ in families]
    shapes = {}
    for i, mats in enumerate(families):
        M = np.stack([to_float_array(H) for H in mats])
        if M.shape[-1]:
            shapes.setdefault(M.shape, []).append((i, M))
    for rows in shapes.values():
        for i, spectrum in zip((i for i, _ in rows),
                               _same_shape_spectra(np.stack([M for _, M in rows]),
                                                   [seeds[i] for i, _ in rows], tol)):
            out[i] = spectrum
    return out


def _same_shape_spectra(M, seeds, tol: Tolerances) -> list:
    """joint_spectra of the families M (G x n x d x d, d > 0)."""
    G, n, d, _ = M.shape
    c = np.array([np.random.default_rng(seed).integers(1, 998, size=n) for seed in seeds])
    # summed from 0 in order of s, as a family's own sum of c_s H_s: each
    # family keeps its bits here, in the batched eig and in the products
    T = 0
    for s in range(n):
        T = T + c[:, s, None, None] * M[:, s]
    Tn = T / np.maximum(1.0, np.abs(T).max(axis=(1, 2)))[:, None, None]
    eigs, vecs = np.linalg.eig(Tn)

    # single-linkage clusters at distance tol.cluster, each labelled by the
    # first index it holds
    near = np.abs(eigs[:, :, None] - eigs[:, None, :]) <= tol.cluster
    label = np.broadcast_to(np.arange(d), (G, d))
    while True:
        nxt = np.where(near, label[:, None, :], d).min(axis=2)
        if np.array_equal(nxt, label):
            break
        label = nxt
    first = label == np.arange(d)
    size = (label[:, :, None] == np.arange(d)).sum(axis=1)
    centers = eigs.copy()
    for g, j in zip(*np.nonzero(first & (size > 1))):
        centers[g, j] = np.mean(eigs[g][label[g] == j])
    # each family's clusters first, in order; the rest of a row is padding
    order = np.lexsort((centers.imag, np.rint(centers.real / tol.cluster), ~first), axis=-1)
    k = first.sum(axis=1)
    centers = np.take_along_axis(centers, order, axis=1)
    size = np.take_along_axis(size, order, axis=1)
    live = np.arange(d) < k[:, None]
    close = (np.abs(centers[:, :, None] - centers[:, None, :]) < 10 * tol.cluster) & \
        np.triu(live[:, :, None] & live[:, None, :], 1)

    # every simple cluster's basis is its unit eigenvector, and every simple h
    # is one stacked Rayleigh quotient per count of simple clusters
    by_count = {}
    for g in np.flatnonzero(~close.any(axis=(1, 2))):
        cols = order[g, :k[g]][size[g, :k[g]] == 1]
        by_count.setdefault(len(cols), []).append((g, cols))
    simple = {}
    for items in by_count.values():
        gs = [g for g, _ in items]
        V = np.take_along_axis(vecs[gs], np.stack([cols for _, cols in items])[:, None, :], axis=2)
        hs = np.einsum("gij,gsij->gjs", V.conj(), M[gs] @ V[:, None]).tolist()
        bases = V.transpose(0, 2, 1)[..., None]
        simple.update((g, zip(h, Q)) for g, h, Q in zip(gs, hs, bases))

    out = []
    for g in range(G):
        if g not in simple:
            a, b = np.argwhere(close[g])[0]
            out.append(ClusterAmbiguityError(
                f"cluster centers {complex(centers[g, a]):.6g} and "
                f"{complex(centers[g, b]):.6g} within 10*tol; reseed"))
            continue
        ones = ((tuple(h), 1, Q) for h, Q in simple[g])
        if k[g] == d:
            out.append(list(ones))
            continue
        clusters = [np.flatnonzero(label[g] == j).tolist() for j in order[g, :k[g]]]
        try:
            fat = _schur_bases(Tn[g], centers[g, :k[g]].tolist(), clusters, list(M[g]), tol)
        except ClusterAmbiguityError as err:
            out.append(err)
            continue
        out.append([next(ones) if len(cl) == 1 else fat[idx] for idx, cl in enumerate(clusters)])
    return out


def joint_spectrum(mats, seed: int, tol: Tolerances = DEFAULT_TOL):
    """joint_spectra of the one family mats at seed; raises its
    ClusterAmbiguityError."""
    (spectrum,) = joint_spectra([mats], [seed], tol)
    if isinstance(spectrum, ClusterAmbiguityError):
        raise spectrum
    return spectrum


def _schur_bases(Tn, centers, clusters, mats, tol):
    """{cluster index: (h, multiplicity, Q)} for each cluster of size > 1 of
    the normalised combination Tn, read off its complex Schur form, which
    LAPACK's ztrsen reorders to bring the cluster's eigenvalues to the top.
    Eigenvectors cannot span a defective cluster, an invariant basis can.
    Raises ClusterAmbiguityError when the cluster is not one joint
    eigenvalue (see joint_spectra)."""
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


# D_h's entries grow like |z|^n, so z far apart (about 1e100) overflow its
# products; each value is a residual (NaN recorded as inf) or a check's error.
@np.errstate(over="ignore", invalid="ignore")
def _scheme_residuals(groups, tol: Tolerances, tables: ZTables | None = None):
    """Every scheme-side check at the points of every group, in one pass:
    one list per group of one (a, atilde, residuals) per point.

    groups is [(inst, H), ...], float instances of one (m, l) with the
    complex points H (P_g x n) to check there; tables holds one sample per
    group (z_tables of the groups' instances if None).  The checks are
    opscheme's stacked stages on the concatenated stack, each point on its
    group's sample, and a point's values do not depend on the other groups.
    A check that fails at a point records inf and its *_error for that point
    only; atilde is None where the second kernel polynomial does not exist.
    """
    ends = list(itertools.accumulate(len(H) for _, H in groups))
    if not ends or not ends[-1]:
        return [[] for _ in groups]
    if tables is None:
        tables = z_tables([f for f, _ in groups])
    l, n, lt = tables.l, tables.n, tables.ltilde
    sample = np.repeat(np.arange(len(groups)), [len(H) for _, H in groups])
    H = np.concatenate([H for _, H in groups])
    D = dh_stack(tables, sample, H)
    qm1, q0, hscale = _plane(tables.z[sample], H, l * lt)
    # exponents (0, m_s + 1) at the marked points, once per sample
    marked = np.array([max((max(abs(e0), abs(e1 - (ms + 1))) for (e0, e1), ms
                            in zip(row, tables.m)), default=0.0)
                       for row in tables.marked_exponents.tolist()])[sample]
    a = stacked_a_of_h(groups[0][0], D)
    p = p_coefficients(a)
    ascale = np.maximum(hscale, rowmax(a))
    _, w = stacked_h_of_a(tables, sample, p)
    scheme = rowmax(w) / ascale
    # at infinity the exponents are the set {-l, l - 1 - sum(m)} iff
    # C_{n-2} = l * lt
    einf = np.abs(D[:, n - 2, 0] - l * lt) / hscale

    cols = [qm1.tolist(), q0.tolist(), hscale.tolist(), scheme.tolist(),
            marked.tolist(), einf.tolist(), a.tolist()]
    if lt > l:
        x, pt, ptilde_err = stacked_second_kernel(groups[0][0], D, hscale, tol)
        pscale = np.maximum(ascale, rowmax(x))
        ptilde = rowmax((D @ pt[:, :, None])[:, :, 0]) / pscale
        b, hrec, wronsk, pair_err = stacked_kernel_pair(tables, sample, pt, p, tol)
        roundtrip = rowmax(hrec - H) / hscale
        b2_leading = np.abs(b[:, 2, n - 2] - lt * l) / max(1.0, lt * l)
        cols += [x.tolist(), ptilde_err, ptilde.tolist(), (wronsk / pscale).tolist(),
                 roundtrip.tolist(), b2_leading.tolist(), pair_err]
    plane_gate = max(tol.residual, PLANE_PRE_GATE)
    out = []
    for qm, q, hs, sch, mk, ei, ai, *second in zip(*cols):
        res = {"q_minus1": abs(qm) / hs, "q_0": abs(q) / hs, "scheme": sch}
        if abs(qm) > PLANE_PRE_GATE * hs:
            res["exponents"] = float("inf")
            res["exponents_error"] = "exponents at infinity need q_{-1}(h) = 0"
        else:
            res["exponents"] = max(mk, ei)
        atilde = None
        if second:
            xi, err, pti, wr, rt, b2, perr = second
            err = off_plane(qm, q, hs, plane_gate) or err
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
    return [out[end - len(H):end] for (_, H), end in zip(groups, ends)]


def _float_only(insts):
    """Raise DomainError at an exact instance among insts."""
    if any(inst.exact for inst in insts):
        raise DomainError("exact instance; pass its float twin, inst.to_float()")


def match_spectra_to_scheme(spectra, tol: Tolerances = DEFAULT_TOL,
                            tables: ZTables | None = None) -> list:
    """One SpectrumReport per (inst, spectrum) of spectra, every inst a float
    instance of one (m, l) (an exact one raises DomainError), from one
    stacked pass of the scheme checks.

    The checks run once, stacked over every point of every spectrum
    (_scheme_residuals) on tables, one sample per spectrum (z_tables of the
    instances if None); a point's residuals are those a pass over its
    spectrum alone gives.  Per-point failures are recorded as infinite
    residuals in the report rather than aborting the run; the second kernel
    polynomial and the kernel-pair operator are gated at tol.residual.
    """
    _float_only(inst for inst, _ in spectra)
    groups, hss = [], []
    for inst, spectrum in spectra:
        hs = [tuple(complex(v) for v in h) for h, _, _ in spectrum]
        groups.append((inst, np.array(hs, dtype=complex).reshape(len(hs), inst.n)))
        hss.append(hs)
    reports = []
    for (_, spectrum), hs, checked in zip(spectra, hss, _scheme_residuals(groups, tol, tables)):
        # a NaN residual (non-finite data) is recorded as inf, which fails
        points = [SchemePoint(h=h, a=a, atilde=atilde, multiplicity=mult,
                              residuals={k: float("inf") if v != v else v for k, v in res.items()})
                  for h, (_, mult, _), (a, atilde, res) in zip(hs, spectrum, checked)]
        # each numeric residual's largest value over the points, one max over
        # its list, keys in the order they first appear (the order its gates
        # fail in)
        summary = {}
        for k in dict.fromkeys(k for p in points for k in p.residuals):
            vals = [p.residuals[k] for p in points if k in p.residuals]
            if isinstance(vals[0], (int, float)):
                summary[k] = float(max([0.0, *vals]))
        reports.append(SpectrumReport(points=points,
                                      total_multiplicity=sum(p.multiplicity for p in points),
                                      all_simple=all(p.multiplicity == 1 for p in points),
                                      residual_summary=summary))
    return reports


def match_spectrum_to_scheme(inst: ProblemInstance, spectrum,
                             tol: Tolerances = DEFAULT_TOL) -> SpectrumReport:
    """Verify every joint-spectrum point against the scheme equations: the
    one-spectrum call of match_spectra_to_scheme, on inst's float twin."""
    (report,) = match_spectra_to_scheme([(inst.to_float(), spectrum)], tol)
    return report


def grothendieck_weights(inst: ProblemInstance, points, tol: Tolerances = DEFAULT_TOL):
    """stacked_grothendieck_weights at the points of the one instance inst,
    on its float twin; raises its NonSimplePointError or
    SingularJacobianError."""
    (weights,) = stacked_grothendieck_weights([(inst.to_float(), points)], tol)
    if isinstance(weights, Exception):
        raise weights
    return weights


def stacked_grothendieck_weights(groups, tol: Tolerances = DEFAULT_TOL,
                                 tables: ZTables | None = None) -> list:
    """Inverse Jacobian weights of the n defining polynomials at the simple
    points of every group (inst, points) of groups, float instances of one
    (m, l) (an exact one raises DomainError): per group, its list of complex
    weights, or the NonSimplePointError or SingularJacobianError of its
    first point that has one.

    The induced bilinear form (f, g) = sum_p f(p) g(p) w_p is symmetric and,
    on functions separating the points, nondegenerate.  The overall residue
    normalization is a convention of this routine; only properties invariant
    under a global rescaling of the weights should be relied on.  Every
    point must carry a = a(h), as match_spectrum_to_scheme builds it.  The
    Jacobians are opscheme.stacked_jacobian: every group's points in one
    stack on tables (one sample per group, z_tables of the instances if
    None).  Every Jacobian of every group is gated in one pass, one
    equilibrated SVD and one determinant of the stack (_float_gates).  A
    Jacobian is singular when sv_min <= tol.residual * sv_max after
    _equilibrated, as its rows differ in scale by orders of magnitude, when
    that SVD does not converge, or when its determinant underflows to 0;
    the error names a Bethe root on a marked point when there is one.
    """
    if not groups:
        return []
    groups = [(inst, list(points)) for inst, points in groups]
    _float_only(inst for inst, _ in groups)
    if tables is None:
        tables = z_tables([inst for inst, _ in groups])
    pts = [p for _, points in groups for p in points]
    gates = iter(_float_gates(stacked_jacobian(
        tables, np.repeat(np.arange(len(groups)), [len(points) for _, points in groups]),
        np.array([p.h for p in pts], dtype=complex).reshape(len(pts), tables.n),
        np.array([p.a for p in pts], dtype=complex).reshape(len(pts), tables.l))))
    out = []
    for inst, points in groups:
        try:
            out.append(_group_weights(inst, points, [next(gates) for _ in points], tol))
        except (NonSimplePointError, SingularJacobianError) as err:
            out.append(err)
    return out


def _group_weights(inst, points, gates, tol: Tolerances) -> list:
    """One group's weights from its gates, (singular values, determinant)
    per point in order of points; raises at the first point that fails."""
    weights = []
    for p, (sv, det) in zip(points, gates):
        if p.multiplicity != 1:
            raise NonSimplePointError(
                f"point with multiplicity {p.multiplicity}")
        if sv is None:
            raise _singular(inst, p, "Jacobian SVD did not converge", tol)
        if sv[0] == 0 or sv[-1] <= tol.residual * sv[0]:
            raise _singular(inst, p, "equilibrated Jacobian condition "
                            f"{sv[-1]:.3e}/{sv[0]:.3e} is numerically singular", tol)
        if det == 0:
            raise _singular(inst, p, "Jacobian determinant underflows to 0", tol)
        weights.append(1 / complex(det))
    return weights


def _float_gates(J: np.ndarray) -> list:
    """(singular values of _equilibrated(J_i), det J_i) at each matrix J_i of
    the stack J, one SVD and one determinant for the stack; the singular
    values are None at a matrix whose SVD does not converge, which then
    takes its own call so that the others keep theirs."""
    E = _equilibrated(J)
    try:
        sv = list(np.linalg.svd(E, compute_uv=False))
    except np.linalg.LinAlgError:
        sv = []
        for Ei in E:
            try:
                sv.append(np.linalg.svd(Ei, compute_uv=False))
            except np.linalg.LinAlgError:
                sv.append(None)
    return list(zip(sv, np.linalg.det(J)))


def _equilibrated(J: np.ndarray) -> np.ndarray:
    """diag(r) J diag(c) with each row, then each column, scaled to largest modulus
    1 (a zero row or column keeps scale 1); each row keeps its largest entry 1 through
    the column scaling, so more sweeps change nothing.  A singular J stays singular.
    J may be a stack of matrices (... x n x n), each scaled on its own."""
    E = np.abs(J)
    r = E.max(axis=-1)
    r[r == 0] = 1.0
    # a row maximum that underflows makes the scaled J non-finite; its SVD
    # then fails, and the point fails grothendieck_jacobian by name
    with np.errstate(over="ignore", invalid="ignore"):
        c = (E / r[..., None]).max(axis=-2)
        c[c == 0] = 1.0
        return J / r[..., None] / c[..., None, :]


def _singular(inst: ProblemInstance, point, msg: str, tol: Tolerances):
    cause = root_on_marked_point(inst, point.a, tol)
    return SingularJacobianError(f"{msg}; {cause}" if cause else msg)


def diagonalizability_check(mats, spectrum, tol: Tolerances = DEFAULT_TOL):
    """stacked_diagonalizability_checks at the one family mats."""
    (out,) = stacked_diagonalizability_checks([(mats, spectrum)], tol)
    return out


def stacked_diagonalizability_checks(groups, tol: Tolerances = DEFAULT_TOL) -> list:
    """(all eigenspaces genuine, worst residual) for each commuting family
    of groups [(mats, spectrum), ...], spectrum the family's joint_spectrum.

    True iff every generalized eigenspace carries a full basis of true
    eigenvectors: the restriction of each generator to each cluster
    subspace must be scalar within tol.residual * |H|.  A spectrum whose
    multiplicities do not add up to the matrix size gives (False, inf).
    The simple clusters of the families of one shape and one count of
    simple clusters take one product; a larger cluster takes its own.
    """
    out = [(False, float("inf"))] * len(groups)
    worst = {}
    stacks = {}
    for g, (mats, spectrum) in enumerate(groups):
        M = np.stack([to_float_array(H) for H in mats])
        if sum(mult for _, mult, _ in spectrum) != M.shape[-1]:
            continue
        scale = np.maximum(np.abs(M).max(axis=(1, 2), initial=0.0), 1e-30)
        worst[g] = [0.0]
        ones = [(h, Q) for h, mult, Q in spectrum if mult == 1]
        for h, mult, Q in spectrum:
            if mult > 1:
                worst[g].append((_cluster_residuals(M, Q, np.array(h)) / scale).max())
        if ones:
            stacks.setdefault((M.shape, len(ones)), []).append((g, M, ones, scale))
    for items in stacks.values():
        M = np.stack([M for _, M, _, _ in items])[:, None]
        Q = np.array([[Q for _, Q in ones] for _, _, ones, _ in items])[:, :, None]
        h = np.array([[h for h, _ in ones] for _, _, ones, _ in items])
        scale = np.stack([scale for _, _, _, scale in items])[:, None]
        for (g, *_), r in zip(items, _cluster_residuals(M, Q, h) / scale):
            worst[g].append(r.max(initial=0.0))
    for g, rs in worst.items():
        w = float(max(rs))
        out[g] = (w < tol.residual, w)
    return out


def _cluster_residuals(M, Q, h):
    """max |H_s Q - h_s Q| for each generator H_s of M (... x n x d x d) on the
    basis Q (... x 1 x d x mult) with eigenvalues h (... x n)."""
    return np.abs(M @ Q - h[..., None, None] * Q).max(axis=(-2, -1), initial=0.0)
