"""The pipeline's stacked float stages against the per-point code they
replaced: sov.bethe_vectors (roots, weight vectors, eigen gate and quotient
image) and the float branch of spectral.grothendieck_weights (Jacobians, the
equilibrated SVD gate and the determinants).

The reference functions below are that per-point code, kept verbatim apart
from their names.  The cases are the benchmark's four ladder rungs at ten z
each, drawn as cmd_verify draws them (cli._sample_z, seed 0), on both the
quotient and the singular-space spectrum, plus l = 0, n = 2, no point and
one point.
"""

from fractions import Fraction
from functools import cache

import re

import numpy as np
import pytest

from gaudinlab import (
    ProblemInstance,
    SchemePoint,
    SingularJacobianError,
    VerificationError,
    bethe_vector,
    bethe_vectors,
    build_gaudin,
    grothendieck_weights,
    joint_spectrum,
    match_spectrum_to_scheme,
    weight_function,
)
from gaudinlab.cli import _sample_z
from gaudinlab.gaudin import GaudinFrame
from gaudinlab.gl2rep import WeightVector
from gaudinlab.numcore import (
    DEFAULT_TOL,
    DomainError,
    is_exact_array,
    is_exact_scalar,
    max_abs,
    scalar_one,
    solve_rows,
    to_float_array,
)
from gaudinlab.opscheme import DhOperator, p_of_a, root_on_marked_point
from gaudinlab.sov import BetheVector, _bump, _eigenline_via_subspace
from gaudinlab.spectral import (
    NonSimplePointError,
    _equilibrated,
    _float_jacobians,
    _singular,
)

from conftest import LADDER, pipeline_spectrum

# Bounds on the differences from the reference.  Measured on these cases:
# omega_M 1.3e-14, the residuals 2.8e-14, omega_L 1.2e-14, the Jacobians
# 1.7e-14 and the Grothendieck weights 1.6e-8; the Bethe roots are
# bit-identical.
WEIGHT_VECTOR_REL = 1e-13   # omega_M, relative to its largest entry
RESIDUAL_ABS = 1e-12        # eigen and E12 residuals (gate 1e-8)
OMEGA_L_REL = 1e-10         # omega_L, relative to its largest entry
JACOBIAN_REL = 1e-13        # each Jacobian, relative to its largest entry
GROTHENDIECK_REL = 2e-7     # the weights: LAPACK pivots where solve_rows does not


# --- the per-point reference code ------------------------------------------

def reference_weight_function(inst, a):
    """The float branch of weight_function, one point at a time."""
    l, n = inst.l, inst.n
    a = list(a)
    if l == 0:
        return WeightVector.from_dict({(0,) * n: scalar_one(False)}, 0)
    p = p_of_a([complex(v) for v in a])
    sign = 1 if l % 2 == 0 else -1
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


def reference_bethe_vector(inst, sys, point, tol=DEFAULT_TOL):
    try:
        return _reference_bethe_vector(inst, sys, point, tol)
    except VerificationError as err:
        cause = root_on_marked_point(inst, point.a, tol)
        if cause is None:
            raise
        raise VerificationError(err.residual, f"{err}; {cause}") from err


def _reference_bethe_vector(inst, sys, point, tol):
    point_exact = all(is_exact_scalar(v) for v in point.a) and \
        all(is_exact_scalar(v) for v in point.h)
    if sys.inst.exact and not point_exact:
        raise DomainError("float point on an exact system; pass the float system")
    omega = reference_weight_function(inst, point.a)
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


def reference_roots(p, l):
    """The Bethe roots as run_pipeline read them off each point, listed as
    the pipeline lists them (real part on the cluster grid, then imaginary
    part)."""
    return sorted(np.roots([1.0] + [complex(v) for v in p.a]).tolist(),
                  key=DEFAULT_TOL.cluster_key) if l else []


def reference_jacobian(inst, h, a):
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


def reference_weights(inst, points, tol=DEFAULT_TOL):
    """The float branch of grothendieck_weights, one point at a time."""
    finst = inst.to_float() if inst.exact else inst
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
    except (VerificationError, SingularJacobianError) as err:
        return err


def assert_same_bethe_vector(got, want, l):
    if isinstance(want, VerificationError):
        assert isinstance(got, VerificationError), str(want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, VerificationError), str(got)
    assert got.via_subspace == want.via_subspace
    assert list(got.roots) == reference_roots(want.point, l)
    ref = dict(want.omega_M.coeffs)
    vec = dict(got.omega_M.coeffs)
    keys = sorted(set(ref) | set(vec))
    assert rel([vec.get(j, 0) for j in keys], [ref.get(j, 0) for j in keys]) <= WEIGHT_VECTOR_REL
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
        # the exact lane stacks exact weight vectors: a scheme point of E1
        # passes with zero residuals next to a point that is not one
        inst = ProblemInstance([1, 1], 1, [0, 1])
        gsys = build_gaudin(inst)
        good = SchemePoint(h=(Fraction(-2), Fraction(2)), a=(Fraction(-1, 2),), atilde=None,
                           multiplicity=1, residuals={})
        bad = SchemePoint(h=good.h, a=(Fraction(1),), atilde=None, multiplicity=1, residuals={})
        bv, err = bethe_vectors(inst, gsys, [good, bad])
        assert all(isinstance(c, Fraction) for _, c in bv.omega_M.coeffs)
        assert bv.eigen_residuals == (0.0, 0.0) and bv.e12_residual == 0.0
        assert bv.roots == (0.5 + 0j,)
        assert isinstance(err, VerificationError)
        with pytest.raises(DomainError):
            bethe_vectors(inst, gsys, [good, SchemePoint(h=(-2 + 0j, 2 + 0j), a=(-0.5 + 0j,),
                                                         atilde=None, multiplicity=1,
                                                         residuals={})])


class TestStackedJacobians:
    @staticmethod
    def check(inst, points):
        simple = [p for p in points if p.multiplicity == 1]
        if simple:
            H = np.array([p.h for p in simple], dtype=complex)
            A = np.array([p.a for p in simple], dtype=complex).reshape(len(simple), inst.l)
            for J, p in zip(_float_jacobians(inst, H, A), simple):
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
