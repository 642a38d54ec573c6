from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab import (
    ClusterAmbiguityError,
    NonSimplePointError,
    ProblemInstance,
    SchemePoint,
    build_gaudin,
    diagonalizability_check,
    grothendieck_weights,
    h_of_a,
    joint_spectrum,
    match_spectrum_to_scheme,
)
from gaudinlab import opscheme, spectral
from gaudinlab.numcore import Tolerances, max_abs
from gaudinlab.opscheme import DhOperator, _a_of_h_raw, q_coefficients
from gaudinlab.spectral import _jacobian, _point_residuals

from conftest import random_dominant_float_instance


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
        # the per-point checks read D_h off the instance's blocks: no probing
        # through apply_Dh, one block build per instance, one a(h) per point
        from functools import cached_property
        inst = ProblemInstance([2] * 4, 3, [0.0, 1.0, 3.0, 7.0])
        s = build_gaudin(inst)
        spectra = [joint_spectrum(list(H), seed=0) for H in (s.H_L, s.H_sing)]
        calls = {"apply_Dh": 0, "a_of_h": 0}
        builds = []

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def counted_blocks(instance):
            builds.append(instance)
            return real_blocks(instance)

        monkeypatch.setattr(opscheme, "apply_Dh", counting("apply_Dh", opscheme.apply_Dh))
        monkeypatch.setattr(spectral, "_a_of_h_raw", counting("a_of_h", _a_of_h_raw))
        real_blocks = ProblemInstance.dh_blocks.func
        counted = cached_property(counted_blocks)
        counted.__set_name__(ProblemInstance, "dh_blocks")
        monkeypatch.setattr(ProblemInstance, "dh_blocks", counted)
        reports = [match_spectrum_to_scheme(inst, spec) for spec in spectra]
        assert calls["apply_Dh"] == 0
        assert builds == [inst]
        assert calls["a_of_h"] == sum(len(r.points) for r in reports) > 0

    def test_off_plane_point_recorded(self, E2):
        # a point far off the constraint plane records its failed checks
        # instead of raising out of the spectrum
        finst = E2.to_float()
        _, _, res = _point_residuals(finst, (1.0, 0.5, -1.0), Tolerances())
        assert res["exponents"] == res["ptilde"] == float("inf")
        assert "q_{-1}" in res["exponents_error"]
        assert "off the constraint plane" in res["ptilde_error"]

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


class TestGrothendieck:
    def test_E1_weight_exact_vs_numeric(self, E1):
        pt = SchemePoint(h=(F(-2), F(2)), a=(F(-1, 2),), atilde=None,
                         multiplicity=1, residuals={})
        (w_exact,) = grothendieck_weights(E1, [pt])
        assert w_exact == 1            # det [[1,1],[z1,z2]] = z2 - z1 = 1
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
        a = _a_of_h_raw(DhOperator(inst, h))
        pt = SchemePoint(h=h, a=tuple(a), atilde=None, multiplicity=1, residuals={})
        (w_exact,) = grothendieck_weights(inst, [pt])
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
            a = _a_of_h_raw(DhOperator(inst, tuple(h)))
            qm1, q0, qs = q_coefficients(inst, a, h)
            return np.array([qm1, q0] + qs[l:], dtype=complex)

        s = build_gaudin(inst)
        points = [h for h, _, _ in joint_spectrum(list(s.H_L), seed=0)]
        assert points
        for h in points:
            h = np.array(h, dtype=complex)
            J = np.array(_jacobian(inst, list(h), _a_of_h_raw(DhOperator(inst, tuple(h)))),
                         dtype=complex)
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
        from gaudinlab.numcore import InconsistentSystemError, UniPoly
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
                    ptilde_solve(DhOperator(inst, h))
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
            ptilde_solve(DhOperator(inst, h))


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
