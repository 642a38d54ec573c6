"""Joint eigen-decomposition of the commuting family and scheme matching.

The spectrum of the family is read off a seeded random integer combination
of the generators: eigenvalue clusters of the combination give the points,
generalized-eigenspace dimensions give multiplicities, and the h-tuple at a
point is the Rayleigh value of each generator on the cluster's invariant
subspace.  Every point is then pushed through the scheme-side checks and
the residuals are recorded, never just booleans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gl2rep import ProblemInstance
from .numcore import (
    DEFAULT_TOL,
    Tolerances,
    exact_det,
    is_exact_scalar,
    max_abs,
    scalar_one,
    solve_rows,
    to_float_array,
)
from .opscheme import (
    PLANE_PRE_GATE,
    DhOperator,
    SchemePoint,
    dh_matrices,
    p_of_a,
    root_on_marked_point,
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


def _pair_forms(lt: int, l: int) -> np.ndarray:
    """The bilinear maps (ptilde, p) -> (B0, B1, B2) of the kernel-pair
    operator B0 u'' + B1 u' + B2 u, on the products ptilde_i p_j.

    For x^i and x^j: B0 = Wr = (i - j) x^{i+j-1}, B1 = (j(j-1) - i(i-1))
    x^{i+j-2} and B2 = i j (i - j) x^{i+j-3}.  Row (l + 1) i + j of the
    result takes ptilde_i p_j, and column k L + d gives the coefficient of
    x^d in B_k, L = l + lt.
    """
    L = l + lt
    i, j = (v.ravel() for v in np.meshgrid(np.arange(lt + 1), np.arange(l + 1), indexing="ij"))
    S = np.zeros(((lt + 1) * (l + 1), 3 * L))
    for k, c in enumerate((i - j, j * (j - 1) - i * (i - 1), i * j * (i - j))):
        d = i + j - 1 - k
        keep = (d >= 0) & (c != 0)
        S[np.nonzero(keep)[0], k * L + d[keep]] = c[keep]
    return S


def _rowmax(x) -> np.ndarray:
    """Largest modulus in each row; 0 for a row of no entries."""
    return np.abs(x).max(axis=1) if x.shape[1] else np.zeros(len(x))


def _per_group(parts, fn, *stacks):
    """fn(finst, *(the group's rows of each stack)) for each (finst, rows)
    of parts, each of fn's outputs concatenated over the groups."""
    outs = [fn(f, *(X[rows] for X in stacks)) for f, rows in parts]
    return [np.concatenate(col) for col in zip(*outs)]


def _scheme_residuals(groups, tol: Tolerances):
    """Every scheme-side check at the points of every group, in one pass.

    groups is [(finst, H), ...]: float instances of one (m, l), each with
    the points H (P_g x n) to check there.  Returns one list per group, of
    one (a, atilde, residuals) per point.

    Each point's systems are read off its D_h (dh_matrices) as in the
    single-point functions of opscheme (a_of_h, residual_system,
    ptilde_solve, wronskian_check, operator_from_kernel_pair,
    h_from_numerator), with the same gates and scales.  Each product that
    reads a group's z (its D_h blocks, partial fractions, kernel-pair maps
    and powers of z) runs per group, and so does the kernel-pair product,
    as the rows of a 2-D product can round differently with their number;
    the solves, the pinv and the gates run once on the concatenated stack.
    So a point's values do not depend on the other groups.  A check that
    fails at a point records inf and its *_error for that point only;
    atilde is None where the second kernel polynomial does not exist.
    """
    ends = list(itertools.accumulate(len(H) for _, H in groups))
    if not ends or not ends[-1]:
        return [[] for _ in groups]
    finst = groups[0][0]
    l, n, lt = finst.l, finst.n, finst.ltilde
    parts = [(f, slice(end - len(H), end)) for (f, H), end in zip(groups, ends)]
    H = np.concatenate([H for _, H in groups])
    P = len(H)

    def operators(f, Hg):
        # q_0 summed in constraint_plane's order, so it keeps its bits;
        # exponents (0, m_s + 1) at the marked points, once per instance
        q0 = sum(z * Hg[:, s] for s, z in enumerate(f.z)) - l * lt
        marked = max((max(abs(e0), abs(e1 - (ms + 1))) for (e0, e1), ms
                      in zip(f.marked_exponents, f.m)), default=0.0)
        return dh_matrices(f, Hg), q0, np.full(len(Hg), marked)

    D, q0, marked = _per_group(parts, operators, H)
    qm1 = sum((H[:, s] for s in range(1, n)), H[:, 0])
    hscale = np.maximum(np.maximum(1.0, np.abs(H).max(axis=1)), float(l * abs(lt)))

    # a(h): q_1 = ... = q_l = 0, where a_k multiplies the column of x^{l-k}
    rows = np.arange(l + n - 3, n - 3, -1)
    a = np.linalg.solve(D[:, rows][:, :, l - 1::-1] if l else np.zeros((P, 0, 0)),
                        -D[:, rows, l, None])[:, :, 0]
    p = np.concatenate([a[:, ::-1], np.ones((P, 1))], axis=1)
    ascale = np.maximum(hscale, _rowmax(a))

    # h(a): numerator g = l*lt x^{n-2} + g_1 x^{n-3} + ..., pinned by the
    # leading coefficients of A p'' + B p' + g p; the scheme residual is
    # q_{n-1}, ..., q_{l+n-2} of D_{h(a)} p, its low l coefficients
    k = np.arange(1, n - 1)
    (base,) = _per_group(parts, lambda f, pg: (pg @ f.dh_blocks[0][:l + n, :l + 1].T,), p)
    pz = np.concatenate([np.zeros((P, n)), p, np.zeros((P, n))], axis=1)
    g = np.linalg.solve(pz[:, n + l - k[:, None] + k[None, :]],
                        -(base[:, l + n - 2 - k, None] + l * lt * pz[:, n + l - k, None]))

    def residual(f, gg, pg):
        ha = np.concatenate([gg[:, ::-1, 0], np.full((len(gg), 1), l * lt)], axis=1) \
            @ f.partial_fractions.T
        return (dh_matrices(f, ha)[:, :l, :l + 1] @ pg[:, :, None],)

    (w,) = _per_group(parts, residual, g, p)
    scheme = _rowmax(w[:, :, 0]) / ascale
    # at infinity the exponents are the set {-l, l - 1 - sum(m)} iff
    # C_{n-2} = l * lt
    einf = np.abs(D[:, n - 2, 0] - l * lt) / hscale

    cols = [qm1.tolist(), q0.tolist(), hscale.tolist(), scheme.tolist(),
            marked.tolist(), einf.tolist(), a.tolist()]
    if lt > l:
        x, pt, ptilde_err = _second_kernel(finst, D, hscale, tol)
        pscale = np.maximum(ascale, _rowmax(x))
        ptilde = _rowmax((D @ pt[:, :, None])[:, :, 0]) / pscale
        wronsk, roundtrip, b2_leading, pair_err = _kernel_pair(parts, H, hscale, pt, p, tol)
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


def _second_kernel(finst: ProblemInstance, D: np.ndarray, hscale, tol: Tolerances):
    """ptilde_solve at stacked operators D, without its plane pre-gate:
    (atilde, pt, err), atilde and pt (ascending coefficients) of each
    point's least-squares second kernel polynomial and err[i] why point i
    has none, or None; hscale is each point's constraint_plane scale."""
    l, n, lt = finst.l, finst.n, finst.ltilde
    # every coefficient of D_h ptilde vanishes; atilde_i multiplies the
    # column of x^{lt-i}, i != lt - l, and the monic x^lt column is the
    # constant term
    Q = D[:, lt + n - 3::-1, :]
    cols = [lt - i for i in range(1, lt + 1) if i != lt - l]
    Mt, rhs = Q[:, :, cols], -Q[:, :, lt]
    x = (np.linalg.pinv(Mt) @ rhs[:, :, None])[:, :, 0]
    resid = _rowmax((Mt @ x[:, :, None])[:, :, 0] - rhs)
    pt = np.zeros((len(D), lt + 1), dtype=complex)
    pt[:, cols] = x
    pt[:, lt] = 1
    if lt == 1:
        err = [None if r <= tol.residual * s else "no second polynomial kernel element"
               for r, s in zip(resid, hscale)]
        return x, pt, err
    scale = np.maximum(1.0, np.abs(Mt).max(axis=(1, 2)) * np.maximum(1.0, _rowmax(x)))
    err = [None if r <= tol.residual * s else f"least-squares residual {r:.3e} exceeds gate"
           for r, s in zip(resid, scale)]
    return x, pt, err


def _kernel_pair(parts, H, hscale, pt, p, tol: Tolerances):
    """wronskian_check, operator_from_kernel_pair and h_from_numerator at
    stacked kernel pairs (ascending coefficients pt, p) of the points H
    (constraint_plane scales hscale), the rows of each (finst, rows) of
    parts at its instance (see _scheme_residuals):
    (max |Wr(ptilde, p) - W|, kernel-pair roundtrip, b2 leading defect,
    err), err[i] the failed check's (key, message) at point i, or None."""
    finst = parts[0][0]
    l, n, lt = finst.l, finst.n, finst.ltilde
    gate, forms = tol.residual, _pair_forms(lt, l)

    def operator(f, Hg, ptg, pg):
        W, _, extra = f.kernel_pair_polys
        # the operator B0 u'' + B1 u' + B2 u annihilating span(ptilde, p)
        B = ((ptg[:, :, None] * pg[:, None, :]).reshape(len(Hg), (lt + 1) * (l + 1))
             @ forms).reshape(len(Hg), 3, l + lt)
        # admissible: no marked point where both polynomials vanish
        zpow = np.array(f.z)[:, None] ** np.arange(lt + 1)
        vscale = np.maximum(1.0, np.maximum(_rowmax(ptg), _rowmax(pg)))[:, None]
        vanish = (np.abs(ptg @ zpow.T) <= gate * vscale) & \
            (np.abs(pg @ zpow[:, :l + 1].T) <= gate * vscale)
        # (B_i * extra) divmod den, then b0 = A and h from b2's partial fractions
        quo, rem = f.kernel_pair_maps
        b = B @ quo.T
        cscale = np.maximum(1.0, np.abs(B).max(axis=(1, 2))) * max(1.0, extra.max_abs())
        return (_rowmax(B[:, 0] - np.array(W.coeffs)), vanish,
                np.abs(B @ rem.T).max(axis=2, initial=0.0), cscale,
                _rowmax(b[:, 0] - np.array(f.zpolys[0].coeffs)),
                b[:, 2, :n - 1] @ f.partial_fractions.T, b[:, 2, n - 2])

    wronsk, vanish, rmax, cscale, drift, hrec, b2 = _per_group(parts, operator, H, pt, p)
    roundtrip = _rowmax(hrec - H) / hscale
    b2_leading = np.abs(b2 - lt * l) / max(1.0, lt * l)
    bad = rmax > gate * cscale[:, None]
    err = []
    for i, (vz, bz, dr) in enumerate(zip(vanish.any(axis=1).tolist(), bad.any(axis=1).tolist(),
                                         (drift > gate * cscale).tolist())):
        if vz:
            err.append(("admissible_error",
                        f"both kernel polynomials vanish at z_{int(np.argmax(vanish[i]))}"))
        elif bz:
            err.append(("malformed_pair_error",
                        f"kernel pair divisibility residual {rmax[i, np.argmax(bad[i])]:.3e}"))
        elif dr:
            err.append(("malformed_pair_error", "Wronskian is not the prescribed zero divisor"))
        else:
            err.append(None)
    return wronsk, roundtrip, b2_leading, err


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


def _jacobian(inst: ProblemInstance, h, a):
    """Rows of d(q_{-1}, q_0, q_{l+1}, ..., q_{l+n-2})/dh at a = a(h), at an
    exact point; _float_jacobians is the same Jacobian at float points.

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


def _float_jacobians(finst: ProblemInstance, H: np.ndarray, A: np.ndarray) -> np.ndarray:
    """_jacobian at the P float points H (P x n) of finst, with a = a(h) the
    rows of A (P x l), stacked as P x n x n: the q rows are read off the
    dh_matrices stack and da/dh comes from one stacked solve."""
    l, n = finst.l, finst.n
    P = len(H)
    J = np.empty((P, n, n), dtype=complex)
    J[:, 0] = 1
    J[:, 1] = finst.z
    if n > 2:
        # rows: q_1, ..., q_{l+n-2} of D_h p (DhOperator.q_rows); column k
        # of Qa multiplies a_{k+1}, the coefficient of x^{l-1-k}
        Qa = dh_matrices(finst, H)[:, l + n - 3::-1, :l][:, :, ::-1]
        p = np.concatenate([A[:, ::-1], np.ones((P, 1))], axis=1)
        # dq_dh[:, i, s] = dq_{i+1}/dh_s: rows of M[s] p(a), q_1 first
        dq_dh = (finst.dh_blocks[1][:, l + n - 3::-1, :l + 1] @ p.T).transpose(2, 1, 0)
        da_dh = np.linalg.solve(Qa[:, :l], -dq_dh[:, :l])
        J[:, 2:] = dq_dh[:, l:] + Qa[:, l:] @ da_dh
    return J


def grothendieck_weights(inst: ProblemInstance, points, tol: Tolerances = DEFAULT_TOL):
    """Inverse Jacobian weights of the n defining polynomials at simple points.

    The induced bilinear form (f, g) = sum_p f(p) g(p) w_p is symmetric and,
    on functions separating the points, nondegenerate.  The overall residue
    normalization is a convention of this routine; only properties invariant
    under a global rescaling of the weights should be relied on.  Every
    point must carry a = a(h), as match_spectrum_to_scheme builds it.  The
    float points' Jacobians are built, gated and inverted as one stack
    (_float_jacobians).  A float Jacobian is singular when sv_min <=
    tol.residual * sv_max after _equilibrated, as its rows differ in scale
    by orders of magnitude; the error names a Bethe root on a marked point
    when there is one.
    """
    finst = inst.to_float() if inst.exact else inst
    points = list(points)
    exact = [inst.exact and all(isinstance(v, Fraction) for v in p.h) for p in points]
    fl = [p for p, e in zip(points, exact) if not e]
    J = _float_jacobians(finst, np.array([p.h for p in fl], dtype=complex).reshape(len(fl), finst.n),
                         np.array([p.a for p in fl], dtype=complex).reshape(len(fl), finst.l))
    gated = zip(np.linalg.svd(_equilibrated(J), compute_uv=False), np.linalg.det(J))
    weights = []
    for p, e in zip(points, exact):
        if p.multiplicity != 1:
            raise NonSimplePointError(
                f"point with multiplicity {p.multiplicity}")
        if e:
            det = exact_det(_jacobian(inst, p.h, p.a))
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
