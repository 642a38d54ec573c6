from fractions import Fraction as F

import numpy as np
import pytest
import scipy.linalg

from gaudinlab import (
    ClusterAmbiguityError,
    NonSimplePointError,
    ProblemInstance,
    SchemePoint,
    SingularJacobianError,
    build_gaudin,
    diagonalizability_check,
    grothendieck_weights,
    h_of_a,
    joint_spectrum,
    match_spectrum_to_scheme,
)
from gaudinlab import gl2rep, opscheme, spectral
from gaudinlab.numcore import InconsistentSystemError, Tolerances, max_abs, to_float_array
from gaudinlab.opscheme import (
    MalformedPairError,
    NotAdmissibleError,
    OffPlaneError,
    _a_of_h_raw,
    exponents_at,
    stacked_jacobian,
)

import scheme_reference
from scheme_reference import DhOperator, constraint_plane, p_of_a, ptilde_of
from conftest import LADDER, oracle_det, pipeline_spectrum, random_dominant_float_instance


def sorted_schur_reference(mats, seed, tol=Tolerances()):
    """joint_spectrum by one sorted Schur factorisation per cluster, with
    the clusters read off np.linalg.eigvals: the earlier algorithm."""
    mats = [to_float_array(M) for M in mats]
    d = mats[0].shape[0]
    c = np.random.default_rng(seed).integers(1, 998, size=len(mats))
    T = sum(int(cs) * H for cs, H in zip(c, mats))
    Tn = T / max(1.0, float(np.abs(T).max()))
    eigs = np.linalg.eigvals(Tn)
    label = list(range(d))
    for i in range(d):
        for j in range(d):
            if abs(eigs[i] - eigs[j]) <= tol.cluster and label[j] != label[i]:
                old = label[j]
                label = [label[i] if v == old else v for v in label]
    groups = {}
    for i in range(d):
        groups.setdefault(label[i], []).append(i)
    clusters = sorted(groups.values(), key=lambda g: (np.mean(eigs[g]).real,
                                                      np.mean(eigs[g]).imag))
    centers = [complex(np.mean(eigs[g])) for g in clusters]
    out = []
    for idx, g in enumerate(clusters):
        def selector(lam, _idx=idx):
            return int(np.argmin([abs(lam - cc) for cc in centers])) == _idx
        _, Z, sdim = scipy.linalg.schur(Tn, output="complex", sort=selector)
        assert sdim == len(g)
        Q = Z[:, :sdim]
        out.append((tuple(complex(np.trace(Q.conj().T @ H @ Q)) / sdim for H in mats),
                    sdim, Q))
    return out


def schur_ztrsen_reference(mats, seed: int, tol: Tolerances = Tolerances()):
    """joint_spectrum as one complex Schur factorisation per spectrum, every
    cluster's basis read off it by ztrsen: the earlier code, kept verbatim
    (only its name, this line and its default tol changed).

    [(h, multiplicity, orthonormal invariant basis), ...] of the family.

    mats must commute (checked exactly upstream); exact input is converted
    here, the one sanctioned entry into float mode.  The combination is
    factored once, as a complex Schur form; eigenvalues on its diagonal
    closer than tol.cluster share a cluster, and each cluster's basis is
    read off that one factorisation reordered by LAPACK's ztrsen.  Raises
    ClusterAmbiguityError when two clusters run closer than
    10 * tol.cluster, or when a cluster is not one joint eigenvalue (two
    eigenvalues of some Q^H H_s Q / max(1, max|H_s|) lie 10 * tol.cluster or
    more apart), in which case the caller should reseed.  Clusters are
    listed by the real part of their centers on a grid of tol.cluster, then
    by the imaginary part, so a conjugate pair whose real parts agree to
    rounding keeps one order.
    """
    import scipy.linalg  # about 0.3 s of start-up, so loaded on first use

    mats = [to_float_array(M) for M in mats]
    n = len(mats)
    d = mats[0].shape[0]
    if d == 0:
        return []
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 998, size=n)
    T = sum(int(cs) * H for cs, H in zip(c, mats))
    scale = max(1.0, float(np.abs(T).max()))
    S, Z = scipy.linalg.schur(T / scale, output="complex")
    eigs = np.diag(S)

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
    roots = sorted(groups, key=lambda r: (round(mean[r].real / tol.cluster), mean[r].imag))
    clusters = [groups[r] for r in roots]
    centers = [mean[r] for r in roots]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol.cluster:
                raise ClusterAmbiguityError(
                    f"cluster centers {centers[i]:.6g} and {centers[j]:.6g} "
                    f"within 10*tol; reseed")

    # each eigenvalue belongs to its nearest center
    labels = np.argmin(np.abs(eigs[:, None] - np.array(centers)[None, :]), axis=1)
    scales = [max(1.0, max_abs(H)) for H in mats]
    out = []
    for idx, g in enumerate(clusters):
        # the selected eigenvalues move to the top of the Schur form
        _, Zs, _, sdim, _, _, _ = scipy.linalg.lapack.ztrsen(labels == idx, S, Z, job="N")
        if sdim != len(g):
            raise ClusterAmbiguityError(
                f"invariant subspace dimension {sdim} != cluster size {len(g)}")
        Q = Zs[:, :sdim]
        blocks = [Q.conj().T @ H @ Q for H in mats]
        for s, B in enumerate(blocks if sdim > 1 else ()):
            # a cluster of the combination must be one joint eigenvalue
            ev = np.linalg.eigvals(B / scales[s])
            if np.abs(ev[:, None] - ev[None, :]).max() >= 10 * tol.cluster:
                raise ClusterAmbiguityError(
                    f"cluster of size {sdim} splits under generator {s}; reseed")
        h = tuple(complex(np.trace(B)) / sdim for B in blocks)
        out.append((h, int(sdim), Q))
    assert sum(m for _, m, _ in out) == d
    return out


def reference_residuals(finst, h, tol):
    """(a, atilde, residuals) at one point from the earlier single-point
    functions (scheme_reference), with the pipeline's gates and scales."""
    l, n, lt = finst.l, finst.n, finst.ltilde
    res = {}
    qm1, q0, hscale = constraint_plane(finst, h)
    res["q_minus1"] = abs(qm1) / hscale
    res["q_0"] = abs(q0) / hscale
    op = DhOperator(finst, h)
    a = [complex(v) for v in scheme_reference._a_of_h_raw(op)]
    ascale = max(hscale, max((abs(v) for v in a), default=0.0))
    res["scheme"] = max((abs(v) for v in scheme_reference.residual_system(finst, a)),
                        default=0.0) / ascale
    try:
        exponents_at(finst, h, None)
    except OffPlaneError as err:
        res["exponents"] = float("inf")
        res["exponents_error"] = str(err)
    else:
        marked = max(max(abs(e[0]), abs(e[1] - (finst.m[s] + 1)))
                     for s, e in enumerate(exponents_at(finst, h, s) for s in range(n)))
        res["exponents"] = max(marked, abs(op.matrix[n - 2, 0] - l * lt) / hscale)
    atilde = None
    if lt > l:
        try:
            atilde = [complex(v) for v in scheme_reference.ptilde_solve(op, tol=tol)]
        except (InconsistentSystemError, OffPlaneError) as err:
            res["ptilde"] = float("inf")
            res["ptilde_error"] = str(err)
    if atilde is not None:
        pscale = max(ascale, max((abs(v) for v in atilde), default=0.0))
        res["ptilde"] = max_abs(scheme_reference.image(op, ptilde_of(finst, atilde).coeffs)) \
            / pscale
        wr = scheme_reference.wronskian(ptilde_of(finst, atilde), p_of_a(a)) - \
            scheme_reference.kernel_pair_polys(finst)[0]
        res["wronskian"] = wr.max_abs() / pscale
        try:
            _, _, b2 = scheme_reference.operator_from_kernel_pair(
                finst, ptilde_of(finst, atilde), p_of_a(a), tol=tol)
            hrec = scheme_reference.h_from_numerator(finst, b2)
            res["kernel_pair_roundtrip"] = max(abs(x - y) for x, y in zip(hrec, h)) / hscale
            b2lead = b2.coeffs[-1] if not b2.is_zero() else 0.0
            res["b2_leading"] = abs(b2lead - lt * l) / max(1.0, lt * l)
        except NotAdmissibleError as err:
            res["kernel_pair_roundtrip"] = float("inf")
            res["admissible_error"] = str(err)
        except MalformedPairError as err:
            res["kernel_pair_roundtrip"] = float("inf")
            res["malformed_pair_error"] = str(err)
    return a, atilde, res


def rel_diff(x, y):
    """Largest difference relative to y's largest entry, at least 1 (an
    exact a = 0 reads as rounding, not as a relative error of one)."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return float(np.abs(x - y).max(initial=0.0)) / max(1.0, float(np.abs(y).max(initial=0.0)))


# joint_spectrum against the Schur references on a simple cluster: h
# relative to its largest entry (rel_diff), and the projector Q Q^H entry by
# entry.  Largest differences measured: 3.6e-13 and 1.4e-13 on the random
# non-normal commuting_families, 2.1e-15 and 1.6e-15 on the ladder rungs.
SIMPLE_H_REL = 1e-12
SIMPLE_PROJECTOR_ABS = 1e-12


# the two exact instances whose seed-202 spectrum draw merges their sing_m
# points (joint_spectrum rejects that draw)
MERGED_AT_SEED_202 = [((1, 3, 0), 1, (2, -2, -4)), ((1, 2, 2), 3, (5, -1, -4))]


class TestJointSpectrum:
    def test_commuting_diagonal_pair(self):
        A = np.diag([1.0, 2.0]).astype(complex)
        B = np.diag([3.0, 4.0]).astype(complex)
        pts = joint_spectrum([A, B], seed=1)
        got = sorted((tuple(round(v.real, 9) for v in h), m) for h, m, _ in pts)
        assert got == [((1.0, 3.0), 1), ((2.0, 4.0), 1)]

    def test_multiplicity_counted(self):
        A = np.diag([1.0, 1.0, 2.0]).astype(complex)
        B = np.diag([5.0, 5.0, 7.0]).astype(complex)
        pts = joint_spectrum([A, B], seed=2)
        ms = sorted(m for _, m, _ in pts)
        assert ms == [1, 2]

    def test_E1_single_point(self, E1):
        s = build_gaudin(E1)
        pts = joint_spectrum(list(s.H_sing), seed=3)
        assert len(pts) == 1 and pts[0][1] == 1
        h = pts[0][0]
        assert abs(h[0] + 2) < 1e-12 and abs(h[1] - 2) < 1e-12

    def test_E2_constraint_identities(self, E2):
        s = build_gaudin(E2)
        pts = joint_spectrum(list(s.H_L), seed=4)
        assert len(pts) == 2
        for h, m, _ in pts:
            assert abs(sum(h)) < 1e-10
            assert abs(sum(z * v for z, v in zip([0, 1, 2], h)) - 3) < 1e-10

    def test_cluster_ambiguity(self):
        # eigenvalue gap of 5*tol at unit scale: distinct but inseparable
        A = np.diag([1.0, 1.0 + 5e-7]).astype(complex)
        with pytest.raises(ClusterAmbiguityError):
            joint_spectrum([A], seed=0, tol=Tolerances(cluster=1e-7))

    def test_empty_space(self):
        pts = joint_spectrum([np.zeros((0, 0), dtype=complex)], seed=0)
        assert pts == []

    def test_invariant_subspace_residual(self, rng):
        for _ in range(3):
            inst = random_dominant_float_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            for h, m, Q in joint_spectrum(list(s.H_L), seed=11):
                assert Q.shape[1] == m
                for k, H in enumerate(s.H_L):
                    resid = max_abs(H @ Q - Q @ (Q.conj().T @ H @ Q))
                    assert resid <= 1e-8 * max(1.0, max_abs(H))

    def test_conjugate_pair_order_ignores_last_bits(self):
        # a conjugate pair whose real parts differ by one ulp either way is
        # listed in one order: by the imaginary part
        x = 0.5
        orders = []
        for lo, hi in ((np.nextafter(x, 0), np.nextafter(x, 1)),
                       (np.nextafter(x, 1), np.nextafter(x, 0))):
            H = np.diag([2.0, complex(lo, 1.0), complex(hi, -1.0), -1.0])
            orders.append([round(h[0].imag) for h, _, _ in joint_spectrum([H], seed=0)])
        assert orders[0] == orders[1] == [0, -1, 1, 0]

    def test_one_schur_factorisation_per_call(self, monkeypatch, E2):
        # none on an all-simple spectrum, exactly one when a cluster has
        # size > 1
        real_schur = scipy.linalg.schur
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("sort"))
            return real_schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
        s = build_gaudin(ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0]))
        for mats in (s.H_sing, s.H_L, build_gaudin(E2).H_L):
            spectrum = joint_spectrum(list(mats), seed=0)
            assert len(spectrum) > 1 and {m for _, m, _ in spectrum} == {1}
        assert calls == []
        for mats in self.commuting_families():
            before = len(calls)
            fat = max(m for _, m, _ in joint_spectrum(mats, seed=0)) > 1
            assert len(calls) == before + fat
        # five of the six families have a cluster of size > 1
        assert calls == [None] * 5

    @staticmethod
    def commuting_families():
        rng = np.random.default_rng(7)
        for d, n in ((5, 2), (7, 3), (9, 4)):
            V = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            # a repeated eigenvalue tuple makes a non-simple cluster
            vals = rng.integers(-9, 10, size=(d, n)).astype(complex)
            vals[1] = vals[0]
            yield [V @ np.diag(vals[:, s]) @ np.linalg.inv(V) for s in range(n)]
        # one joint eigenvalue of multiplicity four
        V = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        vals = rng.integers(-9, 10, size=(7, 3)).astype(complex)
        vals[1:4] = vals[0]
        yield [V @ np.diag(vals[:, s]) @ np.linalg.inv(V) for s in range(3)]
        H = build_gaudin(ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])).H_sing
        # reflection-even combinations: three clusters of multiplicity two
        yield [(H[0] + H[3]) @ (H[0] + H[3]), (H[1] + H[2]) @ (H[1] + H[2])]
        yield list(H)

    @staticmethod
    def assert_equals_reference(mats, seed, reference=schur_ztrsen_reference):
        """A cluster of size > 1 is read off the reference's Schur form, so
        it is the same to the bit; a simple cluster's unit eigenvector and
        Rayleigh quotient agree with it to rounding (SIMPLE_H_REL,
        SIMPLE_PROJECTOR_ABS)."""
        got = joint_spectrum(mats, seed=seed)
        ref = reference(mats, seed=seed)
        assert [m for _, m, _ in got] == [m for _, m, _ in ref]
        for (h, m, Q), (hr, _, Qr) in zip(got, ref):
            P, Pr = Q @ Q.conj().T, Qr @ Qr.conj().T
            if m > 1:
                assert h == hr
                assert np.array_equal(P, Pr)
            else:
                assert rel_diff(h, hr) <= SIMPLE_H_REL
                assert np.abs(P - Pr).max() <= SIMPLE_PROJECTOR_ABS
        return [m for _, m, _ in got]

    def test_equals_sorted_schur_reference(self):
        multiplicities = []
        for mats in self.commuting_families():
            for seed in (0, 202):
                multiplicities += self.assert_equals_reference(mats, seed,
                                                               sorted_schur_reference)
        assert max(multiplicities) == 4 and 2 in multiplicities

    def test_equals_schur_ztrsen_reference(self):
        multiplicities = []
        for mats in self.commuting_families():
            for seed in (0, 202):
                multiplicities += self.assert_equals_reference(mats, seed)
        for m, l, z in LADDER:
            s = build_gaudin(ProblemInstance(m, l, z))
            for mats in (list(s.H_sing), list(s.H_L)):
                multiplicities += self.assert_equals_reference(mats, 0)
        assert max(multiplicities) == 4 and 2 in multiplicities

    @pytest.mark.parametrize("m, l, z", MERGED_AT_SEED_202)
    def test_cluster_must_be_a_joint_eigenvalue(self, m, l, z):
        # the seed-202 combination takes one value on every sing_m point, as
        # the generators do not: that draw is rejected, and the next one
        # separates every point
        mats = list(build_gaudin(ProblemInstance(m, l, z)).H_sing)
        assert [mult for _, mult, _ in sorted_schur_reference(mats, seed=202)] == [len(mats[0])]
        with pytest.raises(ClusterAmbiguityError, match="splits under generator"):
            joint_spectrum(mats, seed=202)
        assert self.assert_equals_reference(mats, seed=203) == [1] * len(mats[0])
        assert self.assert_equals_reference(mats, seed=0) == [1] * len(mats[0])

    @pytest.mark.parametrize("gap, ambiguous", [(9.9, True), (10.5, False)])
    def test_ambiguity_threshold_is_ten_cluster_tolerances(self, gap, ambiguous):
        # the largest entry is 1, so the gap is the normalised combination's
        tol = Tolerances(cluster=1e-7)
        A = np.diag([0.5, 0.5 + gap * 1e-7, 1.0]).astype(complex)
        if ambiguous:
            with pytest.raises(ClusterAmbiguityError):
                joint_spectrum([A], seed=0, tol=tol)
        else:
            assert [m for _, m, _ in joint_spectrum([A], seed=0, tol=tol)] == [1, 1, 1]


def stacked_cases():
    for m, l, z in LADDER:
        yield ProblemInstance(m, l, [float(v) for v in z]), 0
    rng = np.random.default_rng(20240817)
    for k in range(8):
        yield random_dominant_float_instance(rng, max_level_dim=20, real=k % 2 == 0), k
    for m, l, z in MERGED_AT_SEED_202:
        yield ProblemInstance(m, l, z), 202
    # l = 0 (p = 1), lt = 1 (ptilde = x), and a point without ptilde
    for m, l in (([2, 1], 0), ([0, 0], 0), ([2, 0, 1], 1)):
        yield ProblemInstance(m, l, [0.0, 1.0, 3.0][:len(m)]), 0


STACKED_CASES = list(stacked_cases())


class TestStackedPointChecks:
    @pytest.mark.parametrize("case", range(len(STACKED_CASES)))
    def test_equals_per_point_reference(self, case):
        inst, seed = STACKED_CASES[case]
        tol = Tolerances()
        finst = inst.to_float()
        s = build_gaudin(inst)
        for mats in (s.H_L, s.H_sing):
            spec = pipeline_spectrum(list(mats), seed) if mats[0].shape[0] else []
            rep = match_spectrum_to_scheme(inst, spec, tol=tol)
            assert len(rep.points) == len(spec)
            for pt, (h, mult, _) in zip(rep.points, spec):
                a, atilde, res = reference_residuals(finst, h, tol)
                assert pt.multiplicity == mult
                assert list(pt.residuals) == list(res)
                assert rel_diff(pt.a, a) <= 1e-12
                assert (pt.atilde is None) == (atilde is None)
                if atilde is not None:
                    assert rel_diff(pt.atilde, atilde) <= 1e-12
                for k, v in res.items():
                    if isinstance(v, str):
                        continue
                    if v == float("inf"):
                        assert pt.residuals[k] == v
                    else:
                        assert abs(pt.residuals[k] - v) <= 1e-3 * tol.residual, (k, v)


    @pytest.mark.parametrize("gate, key", [(1.0, "admissible_error"),
                                           (2e-15, "malformed_pair_error")])
    def test_kernel_pair_failures_equal_reference(self, gate, key):
        # at (3^4),4: a gate of 1 finds both kernel polynomials vanishing at
        # z_0 = 0 (|p(0)| is one of p's coefficients), and at 2e-15 every
        # divisibility defect (2.8e-14 and up) fails while every
        # second-kernel least squares (2.7e-16 and below) passes
        tol = Tolerances(residual=gate)
        m, l, z = LADDER[3]
        inst = ProblemInstance(m, l, [float(v) for v in z])
        spec = joint_spectrum(list(build_gaudin(inst).H_L), seed=0)
        for pt, (h, _, _) in zip(match_spectrum_to_scheme(inst, spec, tol=tol).points, spec):
            _, _, res = reference_residuals(inst, h, tol)
            assert list(pt.residuals) == list(res)
            assert pt.residuals["kernel_pair_roundtrip"] == float("inf")
            # the divisibility message ends in the residual, which may round apart
            assert pt.residuals[key].split()[:4] == res[key].split()[:4]
            if key == "admissible_error":
                assert pt.residuals[key] == res[key] == "both kernel polynomials vanish at z_0"


class TestMatchSpectrum:
    def test_E1_fully_verified(self, E1):
        s = build_gaudin(E1)
        rep = match_spectrum_to_scheme(E1, joint_spectrum(list(s.H_sing), seed=0))
        assert rep.total_multiplicity == 1 and rep.all_simple
        assert max(v for v in rep.residual_summary.values()
                   if isinstance(v, float)) < 1e-10

    def test_E3_kernel_pair(self, E3):
        s = build_gaudin(E3)
        rep = match_spectrum_to_scheme(E3, joint_spectrum(list(s.H_sing), seed=0))
        (pt,) = rep.points
        assert abs(pt.a[0] + 1) < 1e-9 and abs(pt.a[1] - F(1, 3)) < 1e-9
        # atilde all ~0: the second kernel polynomial is x^3
        assert max(abs(v) for v in pt.atilde) < 1e-9

    def test_E2_float_pipeline(self, E2):
        s = build_gaudin(E2)
        rep = match_spectrum_to_scheme(E2, joint_spectrum(list(s.H_L), seed=0))
        assert len(rep.points) == 2
        for p in rep.points:
            for k, v in p.residuals.items():
                if isinstance(v, float):
                    assert v < 1e-8, (k, v)

    def test_operator_blocks_built_once_and_apply_Dh_unused(self, monkeypatch):
        # the point checks read D_h off the instance's blocks: one block
        # build per instance, no single-point call in the pipeline and one
        # stacked a(h) solve per spectrum
        inst = ProblemInstance([2] * 4, 3, [0.0, 1.0, 3.0, 7.0])
        s = build_gaudin(inst)
        spectra = [joint_spectrum(list(H), seed=0) for H in (s.H_L, s.H_sing)]
        single = ("_a_of_h_raw", "residual_system", "ptilde_solve",
                  "exponents_at", "wronskian_check", "operator_from_kernel_pair",
                  "h_from_numerator")
        calls = dict.fromkeys(single, 0)
        solves = []
        builds = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_blocks(insts):
            builds.append(list(insts))
            return real_blocks(insts)

        def counted_solve(A, b):
            solves.append(A.shape)
            return real_solve(A, b)

        for name in single:
            monkeypatch.setattr(opscheme, name, counting(name, getattr(opscheme, name)))
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        real_blocks = gl2rep._build_tables
        monkeypatch.setattr(gl2rep, "_build_tables", counted_blocks)
        reports = [match_spectrum_to_scheme(inst, spec) for spec in spectra]
        assert calls == dict.fromkeys(single, 0)
        assert builds == [[inst]]
        # per spectrum: a(h) (l x l) and the numerator of h(a), each stacked
        # over every point
        assert solves == [shape for r in reports for shape in
                          ((len(r.points), inst.l, inst.l), (len(r.points), 2, 2))]

    def test_off_plane_point_recorded(self):
        # in a stack of points, one far off the constraint plane and one
        # Sing M point with no second kernel polynomial record inf for
        # themselves only, instead of raising out of the spectrum
        inst = ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])
        s = build_gaudin(inst)
        spec_l = joint_spectrum(list(s.H_L), seed=0)
        lone = [h for h, _, _ in joint_spectrum(list(s.H_sing), seed=0)
                if min(max(abs(x - y) for x, y in zip(h, hl)) for hl, _, _ in spec_l) > 1e-6]
        off = (spec_l[0][0][0] + 0.5,) + spec_l[0][0][1:]
        stack = [spec_l[0], (off, 1, None), (lone[0], 1, None), spec_l[1]]
        rep = match_spectrum_to_scheme(inst, stack)
        good, p_off, p_lone, good2 = rep.points
        assert p_off.residuals["exponents"] == p_off.residuals["ptilde"] == float("inf")
        assert "q_{-1}" in p_off.residuals["exponents_error"]
        assert "off the constraint plane" in p_off.residuals["ptilde_error"]
        assert p_lone.residuals["ptilde"] == float("inf") and p_lone.atilde is None
        assert "least-squares residual" in p_lone.residuals["ptilde_error"]
        assert p_lone.residuals["exponents"] < 1e-8 and p_lone.residuals["scheme"] < 1e-8
        alone = match_spectrum_to_scheme(inst, spec_l).points
        for p, ref in ((good, alone[0]), (good2, alone[1])):
            assert p == ref
            assert max(p.residuals.values()) < 1e-8

    def test_exponents_read_no_root(self):
        # 2l > |m| + 1 and 2l = |m| + 1: the exponents at infinity are
        # {-l, l - 1 - |m|} as a set, and a double root reads no square root
        for m, l, z in (((0,) * 4, 2, (-2, 4, F(-2, 3), 3)), ((1, 0), 3, (0, 1)),
                        ((1, 1, 0, 1), 2, (F(7, 2), F(-7, 3), -2, 1))):
            inst = ProblemInstance(m, l, z)
            s = build_gaudin(inst)
            rep = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_sing), seed=0))
            assert rep.points
            assert max(p.residuals["exponents"] for p in rep.points) < 1e-12

    def test_total_multiplicity_equals_dim(self, rng):
        for _ in range(4):
            inst = random_dominant_float_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            rep = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_L), seed=5))
            assert rep.total_multiplicity == s.dim_sing_l
            repm = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_sing), seed=5))
            assert repm.total_multiplicity == s.dim_sing_m


class TestTraceIdentity:
    def test_sampled(self, rng):
        for _ in range(4):
            inst = random_dominant_float_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            pts = joint_spectrum(list(s.H_sing), seed=6)
            for k, H in enumerate(s.H_sing):
                tr = sum(complex(H[i, i]) for i in range(s.dim_sing_m))
                acc = sum(m * h[k] for h, m, _ in pts)
                assert abs(acc - tr) <= 1e-8 * s.dim_sing_m * max(1.0, max_abs(H))


# exact points with n = 4, where a(h) comes from a multi-row triangular solve
MULTIROW_POINTS = [
    ((1,) * 4, 2, (0, 1, 2, 3), (1, 2)),
    ((2,) * 4, 3, (0, 1, 3, 7), (1, -1, F(1, 2))),
]


def exact_weight(inst, pt):
    """The inverse-Jacobian weight at the exact point pt of the exact
    instance inst: 1 / det of the exact stacked_jacobian, the determinant
    by Laplace expansion."""
    J = stacked_jacobian(inst.tables, [0], np.array([pt.h], dtype=object),
                         np.array([pt.a], dtype=object).reshape(1, inst.l))[0]
    return 1 / oracle_det(J.tolist())


class TestGrothendieck:
    def test_E1_weight_exact_vs_numeric(self, E1):
        pt = SchemePoint(h=(F(-2), F(2)), a=(F(-1, 2),), atilde=None,
                         multiplicity=1, residuals={})
        w_exact = exact_weight(E1, pt)
        assert w_exact == 1            # det [[1,1],[z1,z2]] = z2 - z1 = 1
        # the one-group call takes the float twin, also from exact input
        (w,) = grothendieck_weights(E1, [pt])
        assert type(w) is complex and abs(w - 1) < 1e-12
        ptf = SchemePoint(h=(-2 + 0j, 2 + 0j), a=(-0.5 + 0j,), atilde=None,
                          multiplicity=1, residuals={})
        (w_float,) = grothendieck_weights(E1.to_float(), [ptf])
        assert abs(w_float - 1) < 1e-6

    @staticmethod
    def exact_and_float_weight(m, l, z, a):
        inst = ProblemInstance(m, l, z)
        h = tuple(h_of_a(inst, [F(v) for v in a]))
        # these h are off the scheme, where a(h) need not be a; a point
        # carries a = a(h), as match_spectrum_to_scheme builds it
        a = _a_of_h_raw(inst, h)
        pt = SchemePoint(h=h, a=tuple(a), atilde=None, multiplicity=1, residuals={})
        w_exact = exact_weight(inst, pt)
        ptf = SchemePoint(h=tuple(complex(v) for v in h), a=tuple(complex(v) for v in a),
                          atilde=None, multiplicity=1, residuals={})
        (w_float,) = grothendieck_weights(inst.to_float(), [ptf])
        return complex(w_exact), w_float

    @pytest.mark.parametrize("m, l, z, a", MULTIROW_POINTS)
    def test_dual_weight_through_multirow_solve(self, m, l, z, a):
        # n = 4: the exact weight differentiates a(h) through the l-row solve
        w_exact, w_float = self.exact_and_float_weight(m, l, z, a)
        assert abs(w_float - w_exact) <= 1e-6 * abs(w_exact)

    @pytest.mark.parametrize("m, l, z, a", MULTIROW_POINTS)
    def test_float_weight_matches_exact_to_rounding(self, m, l, z, a):
        # the float lane uses the same closed-form Jacobian as the exact lane,
        # so only rounding separates them (a central difference gave 4.6e-10)
        w_exact, w_float = self.exact_and_float_weight(m, l, z, a)
        assert abs(w_float - w_exact) <= 1e-12 * abs(w_exact)

    @pytest.mark.parametrize("m, l, z", [
        ((1,) * 4, 2, (0, 1, 2, 3)),
        ((2,) * 4, 3, (0, 1, 3, 7)),
    ])
    def test_jacobian_matches_central_difference(self, m, l, z):
        # an independent check of the closed form: central differences of
        # (q_-1, q_0, q_{l+1}, ..., q_{l+n-2}) with a = a(h) solved at each h
        inst = ProblemInstance(m, l, z).to_float()

        def equations(h):
            a = _a_of_h_raw(inst, tuple(h))
            qm1, q0, qs = scheme_reference.q_coefficients(inst, a, h)
            return np.array([qm1, q0] + qs[l:], dtype=complex)

        s = build_gaudin(inst)
        points = [h for h, _, _ in joint_spectrum(list(s.H_L), seed=0)]
        assert points
        for h in points:
            h = np.array(h, dtype=complex)
            a = np.array(_a_of_h_raw(inst, tuple(h)), dtype=complex)
            J = stacked_jacobian(inst.tables, [0], h[None], a[None])[0]
            step = 1e-6 * max(1.0, np.abs(h).max())
            fd = np.empty_like(J)
            for v in range(inst.n):
                e = np.zeros(inst.n, dtype=complex)
                e[v] = step
                fd[:, v] = (equations(h + e) - equations(h - e)) / (2 * step)
            assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()

    def test_form_symmetry_and_nondegeneracy(self, rng):
        for _ in range(3):
            inst = random_dominant_float_instance(rng, max_level_dim=18)
            s = build_gaudin(inst)
            rep = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_L), seed=8))
            if not rep.all_simple or not rep.points:
                continue
            ws = grothendieck_weights(inst, rep.points)
            funcs = [[1.0] * len(rep.points)] + \
                [[p.h[k] for p in rep.points] for k in range(inst.n)]
            # associate symmetrically so float symmetry is exact
            gram = np.array([[sum(w * (a * b) for w, a, b in zip(ws, f1, f2))
                              for f2 in funcs] for f1 in funcs])
            assert np.abs(gram - gram.T).max() == 0.0
            # restricted to a point-separating subset the form is nondegenerate:
            # evaluation vectors of the chosen functions have full point rank
            E = np.array(funcs, dtype=complex)
            ranks = np.linalg.matrix_rank(E)
            if ranks == len(rep.points):
                sub = E.T * np.sqrt(np.asarray(ws, dtype=complex))[:, None]
                assert np.linalg.matrix_rank(sub) == len(rep.points)

    @staticmethod
    def weights_at_jacobian(monkeypatch, J):
        """grothendieck_weights at one point of E2's float twin, whose
        Jacobian is replaced by J."""
        monkeypatch.setattr(spectral, "stacked_jacobian",
                            lambda tables, sample, H, A: np.array([J], dtype=complex))
        pt = SchemePoint(h=(1 + 0j, 0j, -1 + 0j), a=(0.5 + 0j,), atilde=None,
                         multiplicity=1, residuals={})
        return grothendieck_weights(ProblemInstance([1, 1, 1], 1, [0, 1, 2]).to_float(), [pt])

    def test_rows_far_apart_in_scale_pass(self, monkeypatch):
        # a well-conditioned Jacobian with rows scaled by 1e4, 1 and 1e-4:
        # its raw sv_min / sv_max is below the gate, the equilibrated one is not
        J = np.diag([1e4, 1.0, 1e-4]) @ np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, 2]])
        sv = np.linalg.svd(J, compute_uv=False)
        assert sv[-1] <= Tolerances().residual * sv[0]
        (w,) = self.weights_at_jacobian(monkeypatch, J.tolist())
        assert w == 1 / complex(np.linalg.det(J))

    def test_exactly_singular_still_raises(self, monkeypatch):
        # the second row is 1e8 times the first: no diagonal scaling separates them
        J = [[1.0, 2.0, 3.0], [1e8, 2e8, 3e8], [0.0, 1.0, 5.0]]
        with pytest.raises(SingularJacobianError, match="equilibrated Jacobian condition"):
            self.weights_at_jacobian(monkeypatch, J)

    def test_one_sweep_is_ten(self, rng):
        # after one row-then-column max-scaling every row and column has
        # largest modulus 1, so ten sweeps give the same singular values
        def ten_sweeps(J):
            E, r, c = np.abs(J), np.ones(len(J)), np.ones(len(J))
            for _ in range(10):
                f = E.max(axis=1)
                f[f == 0] = 1
                r, E = r / f, E / f[:, None]
                g = E.max(axis=0)
                g[g == 0] = 1
                c, E = c / g, E / g
            return r[:, None] * J * c

        for _ in range(50):
            J = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) \
                * 10.0 ** rng.uniform(-8, 8, size=(5, 1)) * 10.0 ** rng.uniform(-4, 4, size=5)
            J[rng.random((5, 5)) < 0.2] = 0
            E = np.abs(spectral._equilibrated(J))
            maxima = np.concatenate([E.max(axis=1), E.max(axis=0)])
            assert np.all((maxima == 0) | (np.abs(maxima - 1) <= 1e-15))
            want = np.linalg.svd(ten_sweeps(J), compute_uv=False)
            got = np.linalg.svd(spectral._equilibrated(J), compute_uv=False)
            assert np.abs(got - want).max() <= 1e-14 * want[0]

    def test_multiplicity_two_rejected(self, E1):
        pt = SchemePoint(h=(F(-2), F(2)), a=(F(-1, 2),), atilde=None,
                         multiplicity=2, residuals={})
        with pytest.raises(NonSimplePointError):
            grothendieck_weights(E1, [pt])

    def test_multiplication_self_adjoint(self, E2):
        # the weighted Gram with an extra h_s(p) factor stays symmetric:
        # multiplication operators are self-adjoint for the point pairing
        s = build_gaudin(E2)
        rep = match_spectrum_to_scheme(E2, joint_spectrum(list(s.H_L), seed=0))
        ws = grothendieck_weights(E2, rep.points)
        funcs = [[1.0] * len(rep.points)] + \
            [[p.h[k] for p in rep.points] for k in range(E2.n)]
        for k in range(E2.n):
            hvals = [p.h[k] for p in rep.points]
            M = np.array([[sum(w * hv * (a * b) for w, hv, a, b in
                               zip(ws, hvals, f1, f2))
                           for f2 in funcs] for f1 in funcs])
            assert np.abs(M - M.T).max() == 0.0


class TestSchemePointsViaRootSearch:
    def test_direct_cp_points_appear_in_quotient_spectrum(self, rng):
        # l = 1: find all scheme points by interpolating the single residual
        # polynomial and root-finding, keep those admitting the second
        # kernel polynomial, and match each against the quotient spectrum.
        from gaudinlab import ptilde_solve, residual_system
        from gaudinlab.numcore import InconsistentSystemError
        from scheme_reference import UniPoly
        from gaudinlab.opscheme import h_of_a
        from conftest import random_dominant_float_instance
        found_any = False
        for _ in range(6):
            inst = random_dominant_float_instance(rng, max_level_dim=18)
            if inst.l != 1:
                continue
            found_any = True
            s = build_gaudin(inst)
            spec = None
            for attempt in range(8):
                try:
                    spec = joint_spectrum(list(s.H_L), seed=3 + attempt)
                    break
                except ClusterAmbiguityError:
                    continue
            assert spec is not None
            spectrum_h = [h for h, _, _ in spec]
            nodes = [complex(k) for k in range(inst.n + 2)]
            vals = [residual_system(inst, [t])[0] for t in nodes]
            poly = UniPoly.zero()
            for i, ti in enumerate(nodes):
                li = UniPoly.const(1 + 0j)
                for j, tj in enumerate(nodes):
                    if i != j:
                        li = li * UniPoly((-tj, 1 + 0j)) * (1 / (ti - tj))
                poly = poly + li * vals[i]
            roots = np.roots([c for c in reversed(poly.coeffs)])
            for r in roots:
                h = tuple(h_of_a(inst, [complex(r)]))
                try:
                    ptilde_solve(inst, h)
                except InconsistentSystemError:
                    continue   # on the degree-l scheme but not the full one
                dists = [max(abs(a - b) for a, b in zip(h, hs))
                         for hs in spectrum_h]
                assert min(dists) < 1e-7, (inst.m, inst.l, h)
        assert found_any

    def test_dominant_point_outside_full_scheme(self):
        # m = (1,3), l = 2: the quotient is zero-dimensional, so the single
        # degree-l scheme point admits no second polynomial kernel element
        from gaudinlab import ptilde_solve, residual_system, a_of_h
        from gaudinlab.numcore import InconsistentSystemError
        inst = ProblemInstance([1, 3], 2, [0, 1])
        s = build_gaudin(inst)
        assert (s.dim_sing_m, s.dim_sing_l) == (1, 0)
        h = (s.H_sing[0][0, 0], s.H_sing[1][0, 0])
        a = a_of_h(inst, h)
        assert all(v == 0 for v in residual_system(inst, a))
        with pytest.raises(InconsistentSystemError):
            ptilde_solve(inst, h)


class TestDiagonalizability:
    def test_E1(self, E1):
        s = build_gaudin(E1)
        ok, worst = diagonalizability_check(list(s.H_sing),
                                            joint_spectrum(list(s.H_sing), seed=0))
        assert ok and worst < 1e-12

    def test_nilpotent_false(self):
        N = np.array([[0, 1], [0, 0]], dtype=complex)
        ok, worst = diagonalizability_check([N], joint_spectrum([N], seed=0))
        assert not ok and worst > 0.5

    def test_incomplete_spectrum_fails(self, E2):
        s = build_gaudin(E2)
        mats = list(s.H_L)
        spec = joint_spectrum(mats, seed=0)
        assert len(spec) == 2
        assert diagonalizability_check(mats, spec[1:]) == (False, float("inf"))
        assert diagonalizability_check(mats, []) == (False, float("inf"))

    def test_empty_family_passes(self):
        Z = np.zeros((0, 0), dtype=complex)
        assert diagonalizability_check([Z], []) == (True, 0.0)

    def test_real_z_simple(self, E2):
        s = build_gaudin(E2)
        ok, _ = diagonalizability_check(list(s.H_L), joint_spectrum(list(s.H_L), seed=0))
        assert ok

    def test_real_z_sampled(self, rng):
        for _ in range(3):
            inst = random_dominant_float_instance(rng, max_level_dim=20, real=True)
            s = build_gaudin(inst)
            ok, worst = diagonalizability_check(list(s.H_L),
                                                joint_spectrum(list(s.H_L), seed=0))
            assert ok, worst
