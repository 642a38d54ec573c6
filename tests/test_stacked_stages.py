"""The pipeline's stacked stages against the per-point code they replaced:
sov.bethe_vectors (roots, weight vectors, eigen gate and quotient image),
the float branch of spectral.grothendieck_weights (Jacobians, the
equilibrated SVD gate and the determinants), and opscheme's scheme stages in
both lanes, with their single-point calls.

The reference functions below are that per-point code, kept verbatim apart
from their names and from the exact branches the stages past the joint
spectrum no longer have; the scheme stages' reference is scheme_reference.
The float cases are the benchmark's four ladder rungs at ten z each, drawn as
cmd_verify draws them (cli._sample_z, seed 0), on both the quotient and the
singular-space spectrum, plus l = 0, n = 2, no point and one point; the
exact cases are stacks of two groups of one (m, l), with E1's and E3's
closed-form points and points h_of_a gives at seeded random a.
"""

from fractions import Fraction
from functools import cache

import re

import numpy as np
import pytest

from gaudinlab import (
    MalformedPairError,
    NotAdmissibleError,
    OffPlaneError,
    ProblemInstance,
    SchemePoint,
    SingularJacobianError,
    VerificationError,
    a_of_h,
    bethe_vector,
    bethe_vectors,
    build_gaudin,
    exponents_at,
    grothendieck_weights,
    h_of_a,
    joint_spectrum,
    match_spectrum_to_scheme,
    operator_from_kernel_pair,
    ptilde_solve,
    residual_system,
    weight_function,
    wronskian_check,
)
from gaudinlab.cli import _sample_z
from gaudinlab.gaudin import GaudinFrame
from gaudinlab.gl2rep import WeightVector, _weight_basis, z_tables
from gaudinlab.numcore import (
    DEFAULT_TOL,
    DomainError,
    InconsistentSystemError,
    max_abs,
    scalar_one,
)
from gaudinlab.opscheme import (
    _a_of_h_raw,
    dh_matrices,
    h_from_numerator,
    p_coefficients,
    p_of_a,
    ptilde_of,
    root_on_marked_point,
    stacked_a_of_h,
    stacked_h_of_a,
    stacked_jacobian,
    stacked_kernel_pair,
    stacked_second_kernel,
)
from gaudinlab.sov import BetheVector, _bump, _eigenline_via_subspace
from gaudinlab.spectral import NonSimplePointError, _equilibrated, _scheme_residuals, _singular

import scheme_reference
from conftest import LADDER, pipeline_spectrum, random_exact_instance
from scheme_reference import DhOperator, UniPoly, constraint_plane
from scheme_reference import _jacobian as reference_jacobian

# Bounds on the differences from the reference.  Measured on these cases:
# the weight vectors 1.3e-14, the residuals 2.8e-14, omega_L 1.2e-14, the
# Jacobians 1.7e-14 and the Grothendieck weights 1.6e-8; the Bethe roots are
# bit-identical.
WEIGHT_VECTOR_REL = 1e-13   # the weight vector, relative to its largest entry
RESIDUAL_ABS = 1e-12        # eigen and E12 residuals (gate 1e-8)
OMEGA_L_REL = 1e-10         # omega_L, relative to its largest entry
JACOBIAN_REL = 1e-13        # each Jacobian, relative to its largest entry
GROTHENDIECK_REL = 2e-7     # the weights: LAPACK pivots where solve_rows does not
SINGLE_POINT_REL = 1e-12    # a scheme stage's P = 1 call against a stack of points


# --- the per-point reference code ------------------------------------------

def reference_weight_function(inst, a):
    """The float branch of weight_function, one point at a time."""
    l, n = inst.l, inst.n
    a = list(a)
    if l == 0:
        return WeightVector.from_dict({(0,) * n: scalar_one(False)}, 0)
    p = scheme_reference.p_of_a([complex(v) for v in a])
    sign = 1 if l % 2 == 0 else -1
    roots = np.roots(list(reversed(p.to_float().coeffs)))
    coeffs = {(0,) * n: 1 + 0j}
    for t in roots.tolist():
        ws = [complex(W(t)) for W in scheme_reference.zpolys(inst)[2]]
        nxt = {}
        for mu, v in coeffs.items():
            for s in range(n):
                if ws[s]:
                    nu = _bump(mu, s, n)
                    nxt[nu] = nxt.get(nu, 0j) + v * ws[s]
        coeffs = nxt
    return WeightVector.from_dict({mu: sign * v for mu, v in coeffs.items()}, l)


def reference_bethe_vector(inst, sys, point, tol=DEFAULT_TOL):
    try:
        return _reference_bethe_vector(inst, sys, point, tol)
    except VerificationError as err:
        cause = root_on_marked_point(inst, point.a, tol)
        if cause is None:
            raise
        raise VerificationError(err.residual, f"{err}; {cause}") from err


def weight_array(wv, n):
    """The coefficients of the weight vector wv on the level basis, as a
    complex array."""
    basis, pos = _weight_basis(n, wv.k)
    arr = np.zeros(len(basis), dtype=complex)
    for j, c in wv.coeffs:
        arr[pos[j]] = c
    return arr


def _reference_bethe_vector(inst, sys, point, tol):
    arr = weight_array(reference_weight_function(inst, point.a), inst.n)
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
    return BetheVector(point=point, weights=arr, omega_L=omega_L,
                       eigen_residuals=tuple(resids), e12_residual=e12r,
                       via_subspace=via_subspace)


def reference_roots(p, l):
    """The Bethe roots as run_pipeline read them off each point, listed as
    the pipeline lists them (real part on the cluster grid, then imaginary
    part)."""
    return sorted(np.roots([1.0] + [complex(v) for v in p.a]).tolist(),
                  key=DEFAULT_TOL.cluster_key) if l else []


def reference_weights(inst, points, tol=DEFAULT_TOL):
    """The float branch of grothendieck_weights, one point at a time."""
    finst = inst.to_float()
    weights = []
    for p in points:
        if p.multiplicity != 1:
            raise NonSimplePointError(
                f"point with multiplicity {p.multiplicity}")
        Jm = np.array(reference_jacobian(finst, [complex(v) for v in p.h], p.a), dtype=complex)
        sv = np.linalg.svd(_equilibrated(Jm), compute_uv=False)
        if sv[0] == 0 or sv[-1] <= tol.residual * sv[0]:
            raise _singular(finst, p, "equilibrated Jacobian condition "
                            f"{sv[-1]:.3e}/{sv[0]:.3e} is numerically singular", tol)
        weights.append(1 / complex(np.linalg.det(Jm)))
    return weights


# --- cases ------------------------------------------------------------------

@cache
def verify_draws(rung):
    """[(finst, fsys, points), ...] at the ten z that cmd_verify draws for the
    ladder rung at seed 0, points being the H_L and then the H_sing spectrum's
    scheme points, each spectrum at run_pipeline's seed."""
    m, l, _ = LADDER[rung]
    rng = np.random.default_rng(0)
    frame = None
    out = []
    for k in range(10):
        inst = ProblemInstance(m, l, _sample_z(rng, len(m), "real" if k % 2 == 0 else "complex"))
        frame = frame or GaudinFrame(inst)
        gsys = build_gaudin(inst, frame)
        points = []
        for mats in (gsys.H_L, gsys.H_sing):
            spec = pipeline_spectrum(list(mats), 1000 * k)
            points += match_spectrum_to_scheme(inst, spec).points
        out.append((inst, gsys, points))
    return out


def small_cases():
    """l = 0 at n = 2 and n = 3, and n = 2 at l = 1 and l = 2, with every
    spectrum point of each, float."""
    for m, l, z in (([2, 1], 0, [0, 1]), ([2, 1, 1], 0, [0, 1, 3]),
                    ([1, 1], 1, [0, 1]), ([2, 2], 2, [0, 1])):
        inst = ProblemInstance(m, l, [complex(v) for v in z])
        gsys = build_gaudin(inst)
        points = []
        for mats in (gsys.H_L, gsys.H_sing):
            points += match_spectrum_to_scheme(inst, joint_spectrum(list(mats), seed=0)).points
        yield inst, gsys, points


def rel(x, y):
    """Largest difference relative to y's largest entry."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    scale = float(np.abs(y).max(initial=0.0))
    d = float(np.abs(x - y).max(initial=0.0))
    return d / scale if scale else d


def outcome(fn, *args):
    try:
        return fn(*args)
    except (VerificationError, SingularJacobianError, InconsistentSystemError,
            NotAdmissibleError, MalformedPairError) as err:
        return err


def assert_same_bethe_vector(got, want, l):
    if isinstance(want, VerificationError):
        assert isinstance(got, VerificationError), str(want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, VerificationError), str(got)
    assert got.via_subspace == want.via_subspace
    assert list(got.roots) == reference_roots(want.point, l)
    assert rel(got.weights, want.weights) <= WEIGHT_VECTOR_REL
    assert np.abs(np.subtract(got.eigen_residuals, want.eigen_residuals)).max() <= RESIDUAL_ABS
    assert abs(got.e12_residual - want.e12_residual) <= RESIDUAL_ABS
    line, ref_line = (np.asarray(v, dtype=complex) for v in (got.omega_L, want.omega_L))
    if got.via_subspace:
        # an eigenline from an SVD is fixed only up to a phase
        line = line * np.exp(-1j * np.angle(np.vdot(ref_line, line)))
    assert rel(line, ref_line) <= OMEGA_L_REL


class TestStackedBetheVectors:
    @pytest.mark.parametrize("rung", range(len(LADDER)))
    def test_verify_draws_equal_reference(self, rung):
        l = LADDER[rung][1]
        for inst, gsys, points in verify_draws(rung):
            got = bethe_vectors(inst, gsys, points)
            assert len(got) == len(points)
            for p, bv in zip(points, got):
                assert_same_bethe_vector(bv, outcome(reference_bethe_vector, inst, gsys, p), l)

    def test_small_cases_and_single_points(self):
        for inst, gsys, points in small_cases():
            want = [outcome(reference_bethe_vector, inst, gsys, p) for p in points]
            for bv, w in zip(bethe_vectors(inst, gsys, points), want):
                assert_same_bethe_vector(bv, w, inst.l)
            for p, w in zip(points, want):
                (bv,) = bethe_vectors(inst, gsys, [p])
                assert_same_bethe_vector(bv, w, inst.l)
                assert_same_bethe_vector(outcome(bethe_vector, inst, gsys, p), w, inst.l)

    def test_no_points(self):
        inst, gsys, _ = next(small_cases())
        assert bethe_vectors(inst, gsys, []) == []

    def test_weight_function_is_the_stacked_one(self):
        for inst, _, points in small_cases():
            for p in points:
                got = dict(weight_function(inst, p.a).coeffs)
                want = dict(reference_weight_function(inst, p.a).coeffs)
                keys = sorted(set(got) | set(want))
                assert rel([got.get(j, 0) for j in keys],
                           [want.get(j, 0) for j in keys]) <= WEIGHT_VECTOR_REL

    def test_exact_points_on_the_exact_system(self):
        # the exact system is rejected, exact points or float ones; on the
        # float twin's system a scheme point of E1, given exactly, passes
        # with zero residuals next to a point that is not one
        inst = ProblemInstance([1, 1], 1, [0, 1])
        good = SchemePoint(h=(Fraction(-2), Fraction(2)), a=(Fraction(-1, 2),), atilde=None,
                           multiplicity=1, residuals={})
        bad = SchemePoint(h=good.h, a=(Fraction(1),), atilde=None, multiplicity=1, residuals={})
        near = SchemePoint(h=(-2 + 0j, 2 + 0j), a=(-0.5 + 0j,), atilde=None, multiplicity=1,
                           residuals={})
        for points in ([good, bad], [good, near]):
            with pytest.raises(DomainError):
                bethe_vectors(inst, build_gaudin(inst), points)
        finst = inst.to_float()
        bv, err = bethe_vectors(finst, build_gaudin(finst), [good, bad])
        assert bv.weights.tolist() == [0.5, -0.5]
        assert bv.eigen_residuals == (0.0, 0.0) and bv.e12_residual == 0.0
        assert bv.roots == (0.5 + 0j,)
        assert isinstance(err, VerificationError)


class TestStackedJacobians:
    @staticmethod
    def check(inst, points):
        simple = [p for p in points if p.multiplicity == 1]
        if simple:
            H = np.array([p.h for p in simple], dtype=complex)
            A = np.array([p.a for p in simple], dtype=complex).reshape(len(simple), inst.l)
            for J, p in zip(stacked_jacobian(inst.tables, [0] * len(H), H, A), simple):
                want = np.array(reference_jacobian(inst, list(p.h), p.a), dtype=complex)
                assert rel(J, want) <= JACOBIAN_REL
        for pts in [simple] + [[p] for p in simple]:
            got = outcome(grothendieck_weights, inst, pts)
            want = outcome(reference_weights, inst, pts)
            if isinstance(want, SingularJacobianError):
                assert isinstance(got, SingularJacobianError), str(want)
                assert str(got) == str(want)
            else:
                assert not isinstance(got, SingularJacobianError), str(got)
                assert rel(got, want) <= GROTHENDIECK_REL

    @pytest.mark.parametrize("rung", range(len(LADDER)))
    def test_verify_draws_equal_reference(self, rung):
        for inst, _, points in verify_draws(rung):
            self.check(inst, points)

    def test_small_cases_and_single_points(self):
        for inst, _, points in small_cases():
            self.check(inst, points)

    def test_no_points(self):
        inst, _, _ = next(small_cases())
        assert grothendieck_weights(inst, []) == []

    def test_non_simple_point_rejected_before_later_points(self):
        inst, _, points = list(small_cases())[2]
        fat = SchemePoint(h=points[0].h, a=points[0].a, atilde=None, multiplicity=2,
                          residuals={})
        with pytest.raises(NonSimplePointError):
            grothendieck_weights(inst, [fat] + points)

    def test_singular_jacobian_at_a_root_on_a_marked_point(self):
        # (1,0,1,2),2: the quotient's one point has p = (x - 5)^2, and
        # z_2 = 5; its smallest singular value is rounding noise, so the
        # message is compared without the numbers
        inst = ProblemInstance([1, 0, 1, 2], 2, [-1.0, 0.5, 5.0, 8.0])
        (p,) = match_spectrum_to_scheme(
            inst, joint_spectrum(list(build_gaudin(inst).H_L), seed=0)).points
        got = outcome(grothendieck_weights, inst, [p])
        want = outcome(reference_weights, inst, [p])
        assert isinstance(got, SingularJacobianError) and isinstance(want, SingularJacobianError)
        number = r"\d\.\d{3}e[+-]\d+"
        assert re.sub(number, "#", str(got)) == re.sub(number, "#", str(want))
        assert str(got).endswith("a Bethe root lies on the marked point z_2 = 5.0")


# --- the scheme stages in the exact lane -----------------------------------

def exact_groups(m, l, zs, rng, closed_form=()):
    """[(inst, H, A), ...]: one exact group per z of zs, of (m, l), with the
    points H h_of_a (the moved reference) gives at seeded random a (the rows
    of A), after closed_form's points (h, a) on the first group."""
    groups = []
    for k, z in enumerate(zs):
        inst = ProblemInstance(m, l, z)
        pts = list(closed_form) if k == 0 else []
        for _ in range(3):
            a = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(l)]
            pts.append((tuple(scheme_reference.h_of_a(inst, a)), tuple(a)))
        groups.append((inst, np.array([h for h, _ in pts], dtype=object),
                       np.array([a for _, a in pts], dtype=object).reshape(len(pts), l)))
    return groups


def exact_cases():
    rng = np.random.default_rng(20)
    half = Fraction(1, 2)
    yield exact_groups((1, 1), 1, [(0, 1), (half, 3)], rng,
                       [((Fraction(-2), Fraction(2)), (Fraction(-1, 2),))])
    yield exact_groups((2, 2), 2, [(0, 1), (-2, half)], rng,
                       [((Fraction(-6), Fraction(6)), (Fraction(-1), Fraction(1, 3)))])
    for m, l, z in (((1,) * 4, 2, (0, 1, 2, 3)), ((2,) * 4, 3, (0, 1, 3, 7)),
                    ((1, 1, 1), 1, (half, 2, -1)), ((3, 1, 2), 2, (0, Fraction(5, 3), -2)),
                    ((2, 1), 0, (0, 1)), ((2, 1, 1), 0, (0, 1, 3)),
                    ((1, 1, 0, 1), 2, (0, 1, 3, -2)),
                    ((1, 0), 3, (0, 1))):
        yield exact_groups(m, l, [z, tuple(v + Fraction(1, 3) for v in z)], rng)
    for _ in range(6):
        inst = random_exact_instance(rng, max_level_dim=20)
        z = inst.z
        yield exact_groups(inst.m, inst.l, [z, tuple(v - half for v in z)], rng)


EXACT_CASES = list(exact_cases())
TINY = Fraction(1, 10 ** 12)    # below every float gate, not zero
ERROR_KEYS = {NotAdmissibleError: "admissible_error", MalformedPairError: "malformed_pair_error"}


def reference_outcome(fn, *args):
    try:
        return fn(*args)
    except (InconsistentSystemError, NotAdmissibleError, MalformedPairError,
            OffPlaneError) as err:
        return type(err)


def as_polys(outcome):
    """An operator triple of ascending coefficients as UniPolys, as the
    reference returns it; an exception type as it is."""
    return tuple(map(UniPoly, outcome)) if isinstance(outcome, tuple) else outcome


def all_fractions(rows):
    return all(type(v) is Fraction for row in rows for v in row)


class TestExactStages:
    """Each stacked stage on exact stacks of several groups against the moved
    single-point reference, Fraction for Fraction."""

    @pytest.mark.parametrize("case", range(len(EXACT_CASES)))
    def test_stages_equal_reference(self, case):
        groups = EXACT_CASES[case]
        inst = groups[0][0]
        l, lt = inst.l, inst.ltilde
        tables = z_tables([f for f, _, _ in groups])
        sample = np.repeat(np.arange(len(groups)), [len(H) for _, H, _ in groups])
        first = sample == 0
        H = np.concatenate([H for _, H, _ in groups])
        A = np.concatenate([A for _, _, A in groups])
        D = np.concatenate([dh_matrices(f, Hg) for f, Hg, _ in groups])
        ops = [DhOperator(f, tuple(h)) for f, Hg, _ in groups for h in Hg.tolist()]
        insts = [op.inst for op in ops]

        a = stacked_a_of_h(inst, D).tolist()
        assert a == [scheme_reference._a_of_h_raw(op) for op in ops] and all_fractions(a)
        h, w = stacked_h_of_a(tables, sample, p_coefficients(A))
        assert h.tolist() == [scheme_reference.h_of_a(f, ai) for f, ai in zip(insts, A.tolist())]
        assert w[:, ::-1].tolist() == [scheme_reference.residual_system(f, ai)
                                       for f, ai in zip(insts, A.tolist())]
        assert all_fractions(h.tolist()) and all_fractions(w.tolist())
        J = stacked_jacobian(tables, sample[first], H[first], np.array(a, dtype=object)[first])
        assert J.tolist() == [scheme_reference._jacobian(inst, hp, ap)
                              for hp, ap in zip(H[first].tolist(), a)]
        if lt <= l:
            return
        _, _, hscale = zip(*(constraint_plane(op.inst, op.h) for op in ops))
        x, pt, err = stacked_second_kernel(inst, D, hscale, DEFAULT_TOL)
        pairs = []
        for op, xi, e, ai, pti in zip(ops, x.tolist(), err, a, pt):
            want = reference_outcome(scheme_reference.ptilde_solve, op)
            assert (e is not None) == (want is InconsistentSystemError), e
            if e is None:
                assert xi == want and all_fractions([xi])
                pairs.append((op.inst, pti, ai))
        # the kernel pairs of the points that have one, as one stack, then
        # with each atilde moved by 1/7 and by 1e-12, which an exact stack
        # rejects: the operator against the reference
        if not pairs:
            return
        fs = [f for f, _, _ in pairs]
        pair_sample = [next(g for g, (f, _, _) in enumerate(groups) if f is fi) for fi in fs]
        A = np.array([ai for _, _, ai in pairs], dtype=object).reshape(len(pairs), l)
        for shift in (0, Fraction(1, 7), TINY):
            PT = np.array([pti for _, pti, _ in pairs], dtype=object).reshape(len(pairs), lt + 1) \
                + np.array([shift] * lt + [0], dtype=object)
            b, hr, _, errs = stacked_kernel_pair(tables, pair_sample, PT, p_coefficients(A),
                                                 DEFAULT_TOL)
            for f, pti, ai, bi, hi, e in zip(fs, PT.tolist(), A.tolist(), b.tolist(), hr, errs):
                want = reference_outcome(scheme_reference.operator_from_kernel_pair, f,
                                         UniPoly(tuple(pti)), scheme_reference.p_of_a(ai))
                if isinstance(want, tuple):
                    assert e is None
                    assert [UniPoly(tuple(r)) for r in bi] == list(want)
                    assert hi.tolist() == scheme_reference.h_from_numerator(f, want[2])
                else:
                    assert e is not None and e[0] == ERROR_KEYS[want]

    @pytest.mark.parametrize("case", range(len(EXACT_CASES)))
    def test_scheme_pass_at_literal_zero(self, case):
        # the exact stages put the closed-form points of E1 and E3, and the
        # points h_of_a gives, on the constraint plane with the exponents
        # {-l, l - 1 - sum(m)} at infinity, at literal zero; 1e-12 off the
        # plane is off it in the exact lane
        for f, H, _ in EXACT_CASES[case]:
            for h in H.tolist():
                qm1, q0, _ = constraint_plane(f, h)
                assert qm1 == q0 == 0
                assert sorted(exponents_at(f, tuple(h), None)) == \
                    sorted([-f.l, f.l - 1 - sum(f.m)])
                with pytest.raises(OffPlaneError):
                    exponents_at(f, (h[0] + TINY, *h[1:]), None)
        # the scheme pass runs on the float twins, in a stack with
        # off-scheme points and a second group: each point as a pass over
        # its group alone gives it, on the plane to rounding
        groups = [(f.to_float(), H.astype(complex)) for f, H, _ in EXACT_CASES[case]]
        stacked = _scheme_residuals(groups, DEFAULT_TOL)
        assert repr(stacked) == repr([_scheme_residuals([g], DEFAULT_TOL)[0] for g in groups])
        for out in stacked:
            for _, _, res in out:
                worst = max(res["q_minus1"], res["q_0"], res["exponents"])
                assert worst <= DEFAULT_TOL.residual
        if case < 2:
            # the closed-form point passes every exact check at literal zero
            f, H, _ = EXACT_CASES[case][0]
            h = tuple(H[0])
            a = a_of_h(f, h)
            assert a == ([Fraction(-1, 2)], [Fraction(-1), Fraction(1, 3)])[case]
            assert not any(residual_system(f, a))
            atilde = ptilde_solve(f, h)
            assert atilde == [Fraction(0)] * (case + 1)
            assert not any(wronskian_check(f, atilde, a))
            b = operator_from_kernel_pair(f, ptilde_of(f, atilde), p_of_a(a))
            assert h_from_numerator(f, b[2]) == list(h)
            assert b[2][f.n - 2] == f.ltilde * f.l

    @pytest.mark.parametrize("case", range(len(EXACT_CASES)))
    def test_single_point_calls_raise_as_the_reference(self, case):
        # perturbed a, atilde and off-plane h through the P = 1 calls: the
        # same values, or the same exception type, as the moved reference
        for f, H, A in EXACT_CASES[case]:
            l, lt = f.l, f.ltilde
            for h, a in zip(H.tolist(), A.tolist()):
                for da in (0, Fraction(1, 7), TINY):
                    ap = [v + da for v in a]
                    hp = scheme_reference.h_of_a(f, ap)
                    assert h_of_a(f, ap) == hp
                    assert residual_system(f, ap) == scheme_reference.residual_system(f, ap)
                    off = [hp[0] + Fraction(1, 7)] + hp[1:]
                    # 1e-12 along the plane, off the scheme: no second kernel
                    z = f.z
                    along = [hp[0] + TINY * (z[1] - z[2]), hp[1] + TINY * (z[2] - z[0]),
                             hp[2] + TINY * (z[0] - z[1])] + hp[3:] if f.n > 2 else hp
                    for hh in (hp, off, along):
                        assert reference_outcome(a_of_h, f, hh) == \
                            reference_outcome(scheme_reference.a_of_h, f, hh)
                        if lt > l:
                            assert reference_outcome(ptilde_solve, f, tuple(hh)) == \
                                reference_outcome(scheme_reference.ptilde_solve,
                                                  DhOperator(f, tuple(hh)))
                if lt > l:
                    atilde = reference_outcome(scheme_reference.ptilde_solve,
                                               DhOperator(f, tuple(h)))
                    if isinstance(atilde, type):
                        atilde = [Fraction(0)] * (lt - 1)
                    for dt in (0, Fraction(1, 7), TINY):
                        pair = (ptilde_of(f, [v + dt for v in atilde]), p_of_a(a))
                        assert as_polys(reference_outcome(operator_from_kernel_pair, f, *pair)) == \
                            reference_outcome(scheme_reference.operator_from_kernel_pair, f,
                                              *map(UniPoly, pair))

    def test_both_polynomials_vanish_at_a_marked_point(self):
        # E1 at z = (0, 1): x^2 and x both vanish at z_0
        inst = ProblemInstance([1, 1], 1, [0, 1])
        pair = (ptilde_of(inst, [Fraction(0)]), p_of_a([Fraction(0)]))
        assert reference_outcome(operator_from_kernel_pair, inst, *pair) is NotAdmissibleError
        assert reference_outcome(scheme_reference.operator_from_kernel_pair, inst,
                                 *map(UniPoly, pair)) is NotAdmissibleError


class TestFloatSinglePointCalls:
    @pytest.mark.parametrize("rung", range(len(LADDER)))
    def test_agree_with_the_stacked_stages(self, rung):
        # the P = 1 calls against the same stages on a stack of every point
        # of two draws: 2-D products can round apart with their row count,
        # so the bound is 1e-12 relative, not bitwise
        draws = verify_draws(rung)[:2]
        inst = draws[0][0]
        l, lt = inst.l, inst.ltilde
        finsts = [f for f, _, points in draws for _ in points]
        tables = z_tables([f for f, _, _ in draws])
        sample = np.repeat(np.arange(len(draws)), [len(points) for _, _, points in draws])
        H = np.array([p.h for _, _, points in draws for p in points], dtype=complex)
        D = np.concatenate([dh_matrices(f, H[sample == g]) for g, (f, _, _) in enumerate(draws)])
        a = stacked_a_of_h(inst, D)
        h, w = stacked_h_of_a(tables, sample, p_coefficients(a))
        x, pt, err = stacked_second_kernel(inst, D, [constraint_plane(f, hi)[2]
                                                     for f, hi in zip(finsts, H)], DEFAULT_TOL)
        b, _, _, pair_err = stacked_kernel_pair(tables, sample, pt, p_coefficients(a),
                                                DEFAULT_TOL)
        for i, f in enumerate(finsts):
            hi = tuple(H[i].tolist())
            assert rel(_a_of_h_raw(f, hi), a[i]) <= SINGLE_POINT_REL
            assert rel(h_of_a(f, a[i]), h[i]) <= SINGLE_POINT_REL
            # the residual cancels: relative to the size of its terms
            terms = np.abs(dh_matrices(f, h[i])).max() * np.abs(p_coefficients(a[i:i + 1])).max()
            assert np.abs(np.subtract(residual_system(f, a[i]), w[i, ::-1])).max(initial=0.0) \
                <= SINGLE_POINT_REL * terms
            if lt <= l:
                continue
            got = outcome(ptilde_solve, f, hi)
            assert isinstance(got, InconsistentSystemError) == (err[i] is not None)
            if err[i] is None:
                assert rel(got, x[i]) <= SINGLE_POINT_REL
                got = outcome(operator_from_kernel_pair, f, ptilde_of(f, x[i]), p_of_a(a[i]))
                assert isinstance(got, tuple) == (pair_err[i] is None)
                if pair_err[i] is None:
                    for coeffs, row in zip(got, b[i]):
                        assert rel(coeffs, row) <= SINGLE_POINT_REL
