from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab import (
    DegenerateCoordinatesError,
    DomainError,
    ProblemInstance,
    SchemePoint,
    VerificationError,
    bethe_vector,
    bethe_vectors,
    build_gaudin,
    change_of_variables,
    joint_spectrum,
    match_spectrum_to_scheme,
    separated_form_value,
    weight_function,
)
from gaudinlab.numcore import Tolerances, max_abs

from conftest import random_dominant_float_instance, random_exact_instance


def evaluate_monomial_form(wv, x):
    acc = 0j
    for j, c in wv.coeffs:
        term = complex(c)
        for s, js in enumerate(j):
            term *= x[s] ** js
        acc += term
    return acc


class TestChangeOfVariables:
    def test_examples(self, E1):
        u, y = change_of_variables(E1, [1, 1])
        assert u == 2 and len(y) == 1 and abs(y[0] - 0.5) < 1e-12
        u, y = change_of_variables(E1, [1, 0])
        assert u == 1 and abs(y[0] - 1.0) < 1e-12

    def test_degenerate(self, E1):
        with pytest.raises(DegenerateCoordinatesError):
            change_of_variables(E1, [1, -1])

    def test_defining_relation(self, rng, E2):
        # sum x_s/(t - z_s) = u prod(t - y_k) / prod(t - z_s) at random t
        for _ in range(5):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            u, y = change_of_variables(E2, x)
            t = complex(rng.normal(), rng.normal())
            lhs = sum(xs / (t - z) for xs, z in zip(x, [0, 1, 2]))
            rhs = u * np.prod([t - yk for yk in y]) / np.prod(
                [t - z for z in [0, 1, 2]])
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_sorted_deterministic(self, E2, rng):
        x = [3.0, 1.0, 2.0]
        u1, y1 = change_of_variables(E2, x)
        u2, y2 = change_of_variables(E2, list(x))
        assert y1 == y2

    def test_conjugate_pair_order_ignores_last_bits(self, E2, monkeypatch):
        # numerator roots whose real parts differ by one ulp either way are
        # listed in one order: by the imaginary part
        x = 0.5
        orders = []
        for lo, hi in ((np.nextafter(x, 0), np.nextafter(x, 1)),
                       (np.nextafter(x, 1), np.nextafter(x, 0))):
            monkeypatch.setattr(np, "roots", lambda c: np.array([complex(lo, 1.0),
                                                                 complex(hi, -1.0)]))
            _, y = change_of_variables(E2, [3.0, 1.0, 2.0])
            orders.append([v.imag for v in y])
        assert orders[0] == orders[1] == [-1.0, 1.0]


class TestWeightFunction:
    def test_E1_coefficients(self, E1):
        wv = weight_function(E1, [F(-1, 2)])
        assert dict(wv.coeffs) == {(1, 0): F(1, 2), (0, 1): F(-1, 2)}

    def test_l0_constant(self):
        inst = ProblemInstance([1, 1], 0, [0, 1])
        wv = weight_function(inst, [])
        assert dict(wv.coeffs) == {(0, 0): F(1)}

    def test_symmetric_under_root_relabeling(self, E3):
        # coefficients depend on the root multiset only: the float path
        # consumes roots in whatever order numpy returns them, so agreement
        # with the exact root-free path certifies symmetry
        we = weight_function(E3, [F(-1), F(1, 3)])
        wf = weight_function(E3.to_float(), [-1 + 0j, 1 / 3 + 0j])
        d = {j: complex(c) for j, c in we.coeffs}
        for j, c in wf.coeffs:
            assert abs(c - d[j]) < 1e-12

    def test_polynomial_in_a_nonzero(self, rng):
        # nonvanishing at scheme points and at 100 random coordinate draws
        inst = random_exact_instance(rng, max_level_dim=18)
        for _ in range(100):
            a = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
                 for _ in range(inst.l)]
            assert weight_function(inst, a).coeffs

    def test_monomial_vs_separated_form(self, rng):
        # the executable coordinate-change identity, 50 points per instance
        for inst, a in [
            (ProblemInstance([1, 1], 1, [0, 1]), [F(-1, 2)]),
            (ProblemInstance([2, 2], 2, [0, 1]), [F(-1), F(1, 3)]),
            (ProblemInstance([1, 1, 1], 2, [0, 1, 2]), [F(1, 3), F(-2)]),
        ]:
            wv = weight_function(inst, a)
            for _ in range(50):
                x = rng.normal(size=inst.n) + 1j * rng.normal(size=inst.n)
                mono = evaluate_monomial_form(wv, x)
                sep = separated_form_value(inst, a, x)
                assert abs(mono - sep) <= 1e-10 * max(1.0, abs(sep))


class TestBetheVector:
    def test_E1_exact(self, E1):
        # the closed-form point, given exactly, on the float twin's system:
        # its weight vector (1/2, -1/2) and its relations are exact in floats
        finst = E1.to_float()
        pt = SchemePoint(h=(F(-2), F(2)), a=(F(-1, 2),), atilde=(F(0),),
                         multiplicity=1, residuals={})
        bv = bethe_vector(finst, build_gaudin(finst), pt)
        assert bv.weights.tolist() == [0.5, -0.5]
        assert bv.eigen_residuals == (0.0, 0.0) and bv.e12_residual == 0.0
        assert max_abs(bv.omega_L) > 0
        assert not bv.via_subspace
        with pytest.raises(DomainError):
            bethe_vector(E1, build_gaudin(E1), pt)

    def test_l0_highest_weight(self):
        inst = ProblemInstance([2, 1], 0, [0, 1]).to_float()
        s = build_gaudin(inst)
        pt = SchemePoint(h=(F(0), F(0)), a=(), atilde=None,
                         multiplicity=1, residuals={})
        bv = bethe_vector(inst, s, pt)
        assert bv.weights.tolist() == [1]
        assert bv.e12_residual == 0.0

    def test_E2_spans_quotient(self, E2):
        s = build_gaudin(E2)
        rep = match_spectrum_to_scheme(E2, joint_spectrum(list(s.H_L), seed=0))
        finst = E2.to_float()
        fs = build_gaudin(finst)
        vecs = [bethe_vector(finst, fs, p).omega_L for p in rep.points]
        W = np.stack([np.asarray(v, dtype=complex) for v in vecs], axis=1)
        sv = np.linalg.svd(W, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]

    def test_float_point_on_exact_system_rejected(self, E2):
        s = build_gaudin(E2)
        rep = match_spectrum_to_scheme(E2, joint_spectrum(list(s.H_L), seed=0))
        with pytest.raises(DomainError):
            bethe_vector(E2, s, rep.points[0])

    def test_wrong_point_rejected(self, E1):
        finst = E1.to_float()
        pt = SchemePoint(h=(F(-2), F(2)), a=(F(1),), atilde=None,
                         multiplicity=1, residuals={})
        with pytest.raises(VerificationError):
            bethe_vector(finst, build_gaudin(finst), pt)

    def test_eigen_relations_sampled(self, rng):
        for _ in range(3):
            inst = random_dominant_float_instance(rng, max_level_dim=18)
            s = build_gaudin(inst)
            rep = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_L), seed=2))
            for p in rep.points:
                bv = bethe_vector(inst, s, p)
                assert max(bv.eigen_residuals) < 1e-8
                assert bv.e12_residual < 1e-8

    def test_quotient_killed_points_have_no_eigenline(self):
        # weight vectors at points outside the all-polynomial scheme still
        # satisfy the eigen relations upstairs, but their image dies and the
        # algebra closure contains no eigenline with those eigenvalues
        inst = ProblemInstance([1, 1, 1, 1], 2, ["0", "1", "1/2", "-3"])
        s = build_gaudin(inst)
        rep = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_sing), seed=7))
        finst = inst.to_float()
        fs = build_gaudin(finst)
        killed = [p for p in rep.points if p.atilde is None]
        kept = [p for p in rep.points if p.atilde is not None]
        assert len(killed) == 4 and len(kept) == 2
        for p in killed:
            with pytest.raises(VerificationError):
                bethe_vector(finst, fs, p)
        for p in kept:
            bv = bethe_vector(finst, fs, p)
            assert max_abs(np.asarray(bv.omega_L, dtype=complex)) > 0.1
            assert not bv.via_subspace

    def test_eigenline_extraction_from_closure(self):
        # drive the invariant-subspace recipe directly: the algebra closure
        # of a surviving point's eigenvector maps onto a unique eigenline
        from gaudinlab.numcore import kernel_basis
        from gaudinlab.sov import _eigenline_via_subspace
        inst = ProblemInstance([1, 1, 1, 1], 2, ["0", "1", "1/2", "-3"])
        fs = build_gaudin(inst.to_float())
        rep = match_spectrum_to_scheme(inst, joint_spectrum(list(fs.H_sing), seed=7))
        p = next(q for q in rep.points if q.atilde is not None)
        d = fs.dim_sing_m
        stacked = np.concatenate(
            [np.asarray(H, dtype=complex) - p.h[s] * np.eye(d)
             for s, H in enumerate(fs.H_sing)], axis=0)
        (coords,) = kernel_basis(stacked)
        line = _eigenline_via_subspace(fs.shq.sh, list(fs.H_sing),
                                       list(fs.H_L), coords, p.h,
                                       Tolerances(residual=1e-8))
        line = np.asarray(line, dtype=complex)
        for s, HL in enumerate(fs.H_L):
            dev = np.asarray(HL, dtype=complex) @ line - p.h[s] * line
            assert np.abs(dev).max() < 1e-8 * max(1.0, np.abs(line).max())


class TestBetheRootOrder:
    def test_conjugate_pair_order_ignores_last_bits(self, monkeypatch):
        # at (1^4),2, z = 0..3, one quotient point has the Bethe roots
        # 3/2 +- 0.43i, which np.roots returns with real parts a few ulps
        # apart; with the pair's real parts one ulp either side of 3/2, in
        # either direction, the roots are listed in one order
        import gaudinlab.sov as sov
        inst = ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])
        s = build_gaudin(inst)
        points = match_spectrum_to_scheme(inst, joint_spectrum(list(s.H_L), seed=0)).points
        real = sov._roots
        orders = []
        for step in (-1.0, 1.0):
            def nudged(A):
                R = real(A)
                pair = np.abs(R.real - 1.5) < 1e-9
                R[pair] = np.nextafter(1.5, 1.5 + step * np.sign(R[pair].imag)) + 1j * R[pair].imag
                return R

            monkeypatch.setattr(sov, "_roots", nudged)
            bvs = bethe_vectors(inst, s, points)
            roots = [r for bv in bvs for r in bv.roots if abs(r.real - 1.5) < 1e-9]
            assert len(roots) == 2 and roots[0].real != roots[1].real
            orders.append([np.sign(r.imag) for r in roots])
        assert orders[0] == orders[1] == [-1.0, 1.0]

    def test_double_root_is_refined(self):
        # (1,0,1,2),2 at z = -1, 1/2, 5, 8 has one Bethe vector, whose roots
        # are those of (x - 5)^2; the companion eigenvalues give 5 +- 9.5e-8i
        from gaudinlab.cli import cmd_spectrum
        report, _ = cmd_spectrum({"m": [1, 0, 1, 2], "l": 2, "z": ["-1", "1/2", "5", "8"],
                                  "seed": 0})
        (bv,) = report["bethe_vectors"]
        assert bv["bethe_roots"] == [[5.0, 0.0], [5.0, 0.0]]

    def test_multiple_roots_keep_what_fails_the_residual(self):
        from gaudinlab.sov import _multiple_roots
        tol = Tolerances()
        # x^2 - 1: simple roots stay as found
        assert _multiple_roots([0.0, -1.0], [-1.0, 1.0 + 1e-12], tol) == [-1.0, 1.0 + 1e-12]
        # a close pair merges where p' vanishes, on p's own scale
        assert _multiple_roots([-2.0, 1.0], [1 + 1e-8j, 1 - 1e-8j], tol) == [1.0, 1.0]
        # the pair 3, 3 + 1e-7 is not near a root of x^2 - 1: p(0) = -1
        # fails the residual, so the roots are kept
        assert _multiple_roots([0.0, -1.0], [3.0, 3.0 + 1e-7], tol) == [3.0, 3.0 + 1e-7]
