from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab import (
    MalformedPairError,
    NotAdmissibleError,
    ProblemInstance,
    a_of_h,
    exponents_at,
    h_of_a,
    operator_from_kernel_pair,
    ptilde_solve,
    residual_system,
    schubert_dimension,
    wronskian_check,
)
from gaudinlab.numcore import (
    InconsistentSystemError,
    Tolerances,
    solve_consistent,
    solve_rows,
)
from gaudinlab.opscheme import (
    h_from_numerator,
    p_of_a,
    ptilde_of,
    root_on_marked_point,
)

from conftest import random_exact_instance
import scheme_reference
from scheme_reference import DhOperator, UniPoly, apply_Dh, image, q_coefficients, q_values, zpolys
from scheme_reference import p_of_a as p_poly, ptilde_of as ptilde_poly
from test_gl2rep import cg_multiplicity_bruteforce


def P(*asc):
    return UniPoly(tuple(F(c) for c in asc))


def from_roots(roots):
    """The monic complex polynomial with the given roots."""
    p = UniPoly.const(1 + 0j)
    for r in roots:
        p = p * UniPoly((-r, 1 + 0j))
    return p.coeffs


H1 = (F(-2), F(2))    # the scheme point of E1
H3 = (F(-6), F(6))    # the scheme point of E3


class TestApplyDh:
    def test_kernel_element(self, E1):
        op = DhOperator(E1, H1)
        assert apply_Dh(op, P(F(-1, 2), 1)).is_zero()

    def test_constant(self, E1):
        op = DhOperator(E1, H1)
        assert apply_Dh(op, P(1)) == P(2)

    def test_second_kernel_element(self, E1):
        op = DhOperator(E1, H1)
        assert apply_Dh(op, P(0, 0, 1)).is_zero()

    def test_degree_drop_on_constraint_plane(self, rng):
        # deg apply_Dh(p) <= l + n - 3 whenever q_{-1} = q_0 = 0
        for _ in range(8):
            inst = random_exact_instance(rng, max_level_dim=20)
            if inst.n < 2:
                continue
            a = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                 for _ in range(inst.l)]
            h = h_of_a(inst, a)   # lands on the constraint plane by construction
            w = apply_Dh(DhOperator(inst, tuple(h)), p_poly(a))
            assert w.degree <= inst.l + inst.n - 3


def _probed_rows(f, k):
    """Rows [M | -f(0)] of the affine map f(x) = M x + f(0) in k exact
    unknowns, found by probing f at 0 and at the unit vectors."""
    base = f([F(0)] * k)
    cols = [[v - b for v, b in zip(f([F(int(i == j)) for i in range(k)]), base)]
            for j in range(k)]
    return [[col[i] for col in cols] + [-b] for i, b in enumerate(base)]


def _probed_a_of_h(op):
    l, n = op.inst.l, op.inst.n
    rows = _probed_rows(lambda a: q_values(apply_Dh(op, p_poly(a)), l, n)[:l], l)
    return [row[0] for row in solve_rows(rows, l)]


def _probed_h_of_a(inst, a):
    l, n = inst.l, inst.n
    A, B, _ = zpolys(inst)
    p = p_poly(a)
    g0 = F(l * inst.ltilde)

    def qhat(grest):
        g = UniPoly(tuple(reversed([g0] + grest)))
        return q_values(A * p.deriv().deriv() + B * p.deriv() + g * p, l, n)[:n - 2]

    grest = [row[0] for row in solve_rows(_probed_rows(qhat, n - 2), n - 2)]
    return h_from_numerator(inst, tuple(reversed([g0] + grest)))


def _probed_residual_system(inst, a):
    op = DhOperator(inst, tuple(_probed_h_of_a(inst, a)))
    return q_values(apply_Dh(op, p_poly(a)), inst.l, inst.n)[inst.n - 2:]


def _probed_ptilde_solve(op):
    inst = op.inst
    rows = _probed_rows(
        lambda at: q_values(apply_Dh(op, ptilde_poly(inst, at)), inst.ltilde, inst.n),
        inst.ltilde - 1)
    if inst.ltilde == 1:
        if any(r[0] for r in rows):
            raise InconsistentSystemError("no second polynomial kernel element")
        return []
    M = np.array([r[:-1] for r in rows], dtype=object)
    return list(solve_consistent(M, np.array([r[-1] for r in rows], dtype=object)))


def _outcome(f, *args):
    try:
        return f(*args)
    except InconsistentSystemError:
        return InconsistentSystemError


class TestOperatorBlocks:
    """The per-point checks read D_h off the z-tables (dh_matrices); apply_Dh
    and the probed affine systems are the reference, compared exactly."""

    def test_columns_are_apply_Dh_of_monomials(self, rng):
        for _ in range(10):
            inst = random_exact_instance(rng)
            h = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                      for _ in range(inst.n))
            op = DhOperator(inst, h)
            rows, cols = op.matrix.shape
            assert cols == max(inst.l, inst.ltilde) + 1 and rows == cols + inst.n - 1
            for k in range(cols):
                want = apply_Dh(op, UniPoly.monomial(k, F(1))).coeffs
                col = op.matrix[:, k].tolist()
                assert col == list(want) + [0] * (rows - len(want)), (inst, h, k)
                assert all(type(v) is F for v in col)
            for d in range(cols):
                u = P(*(int(rng.integers(-5, 6)) for _ in range(d)), 1)
                assert UniPoly(image(op, u.coeffs)) == apply_Dh(op, u)

    def test_reads_equal_probed_reference(self, rng, E1, E3):
        consistent = 0
        for _ in range(16):
            inst = random_exact_instance(rng, max_level_dim=20)
            a = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                 for _ in range(inst.l)]
            h = h_of_a(inst, a)
            assert h == _probed_h_of_a(inst, a)
            assert residual_system(inst, a) == _probed_residual_system(inst, a)
            op = DhOperator(inst, tuple(h))
            assert a_of_h(inst, h) == _probed_a_of_h(op)
            if inst.ltilde > inst.l:
                got = _outcome(ptilde_solve, inst, tuple(h))
                assert got == _outcome(_probed_ptilde_solve, op)
                consistent += got is not InconsistentSystemError
        for inst, h in ((E1, H1), (E3, H3)):
            assert ptilde_solve(inst, h) == _probed_ptilde_solve(DhOperator(inst, h))
        assert consistent


class TestQCoefficients:
    def test_E1(self, E1):
        qm1, q0, qs = q_coefficients(E1, [F(0)], H1)
        assert (qm1, q0) == (0, 0)
        assert qs == [F(1)]                       # q1 = 2a1 + 1
        assert q_coefficients(E1, [F(1)], H1)[2] == [F(3)]

    def test_E3_linear_structure(self, E3):
        base = q_coefficients(E3, [F(0), F(0)], H3)[2]
        c1 = q_coefficients(E3, [F(1), F(0)], H3)[2]
        c2 = q_coefficients(E3, [F(0), F(1)], H3)[2]
        # q1 = 2a1 + 2, q2 = 2a1 + 6a2
        assert base == [F(2), F(0)]
        assert [v - b for v, b in zip(c1, base)] == [F(2), F(2)]
        assert [v - b for v, b in zip(c2, base)] == [F(0), F(6)]

    def test_zero_h(self, E3):
        qm1, q0, _ = q_coefficients(E3, [F(0), F(0)], (F(0), F(0)))
        assert qm1 == 0
        assert q0 == -E3.l * E3.ltilde


class TestQLinearStructure:
    def test_triangular_with_known_diagonal(self, rng):
        # on the constraint plane, q_i is linear in a with zero coefficients
        # on a_j for j > i and diagonal coefficient i(sum(m) - 2l + i + 1)
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=20)
            l = inst.l
            if l == 0:
                continue
            h = h_of_a(inst, [F(0)] * l)
            base = q_coefficients(inst, [F(0)] * l, h)[2][:l]
            for j in range(l):
                a = [F(0)] * l
                a[j] = F(1)
                col = q_coefficients(inst, a, h)[2][:l]
                coeffs = [col[i] - base[i] for i in range(l)]
                for i in range(l):
                    if i + 1 < j + 1:
                        assert coeffs[i] == 0, (inst.m, l, i, j)
                    elif i == j:
                        assert coeffs[i] == (j + 1) * (sum(inst.m) - 2 * l + j + 2)


class TestAOfH:
    def test_E1(self, E1):
        assert a_of_h(E1, H1) == [F(-1, 2)]

    def test_E3(self, E3):
        assert a_of_h(E3, H3) == [F(-1), F(1, 3)]

    def test_l0_empty(self):
        inst = ProblemInstance([1, 1], 0, [0, 1])
        assert a_of_h(inst, (F(0), F(0))) == []

    def test_off_plane_rejected(self, E1):
        with pytest.raises(ValueError):
            a_of_h(E1, (F(1), F(2)))


class TestHOfA:
    def test_E1(self, E1):
        assert h_of_a(E1, [F(-1, 2)]) == [F(-2), F(2)]

    def test_E3(self, E3):
        assert h_of_a(E3, [F(-1), F(1, 3)]) == [F(-6), F(6)]

    def test_roundtrip_h_a_h(self, rng):
        for _ in range(8):
            inst = random_exact_instance(rng, max_level_dim=20)
            a = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                 for _ in range(inst.l)]
            h = h_of_a(inst, a)
            a2 = a_of_h(inst, h) if all(
                v == 0 for v in residual_system(inst, a)) else None
            # exact roundtrip only guaranteed on the scheme; instead check
            # the constraint plane and the reverse direction
            qm1, q0, _ = q_coefficients(inst, a, h)
            assert qm1 == 0 and q0 == 0
            assert h_of_a(inst, a_of_h(inst, h)) == h


class TestResidualSystem:
    def test_E1_values(self, E1):
        assert residual_system(E1, [F(-1, 2)]) == [0]
        assert residual_system(E1, [F(0)]) == [F(1)]

    def test_E3(self, E3):
        assert residual_system(E3, [F(-1), F(1, 3)]) == [0, 0]

    def test_univariate_roots_are_scheme_points(self, rng):
        # l = 1: interpolate the single residual as a polynomial in a_1,
        # root-find, and confirm each root passes every defining equation.
        for _ in range(4):
            while True:
                inst = random_exact_instance(rng, max_level_dim=18)
                if inst.l == 1:
                    break
            nodes = [F(k) for k in range(inst.n + 2)]
            vals = [residual_system(inst, [t])[0] for t in nodes]
            # exact Lagrange interpolation
            poly = UniPoly.zero()
            for i, ti in enumerate(nodes):
                li = UniPoly.const(F(1))
                for j, tj in enumerate(nodes):
                    if i != j:
                        li = li * P(-tj, 1) * F(1, int(ti - tj))
                poly = poly + li * vals[i]
            roots = np.roots([complex(c) for c in reversed(poly.coeffs)])
            finst = inst.to_float()
            for r in roots:
                res = residual_system(finst, [complex(r)])
                assert max(abs(v) for v in res) < 1e-7


class TestPtilde:
    def test_E1(self, E1):
        assert ptilde_solve(E1, H1) == [F(0)]
        assert ptilde_of(E1, [F(0)]) == (0, 0, 1)

    def test_E3(self, E3):
        assert ptilde_solve(E3, H3) == [F(0), F(0)]
        assert ptilde_of(E3, [F(0), F(0)]) == (0, 0, 0, 1)

    def test_off_plane_precondition(self, E1):
        with pytest.raises(ValueError):
            ptilde_solve(E1, (F(0), F(1)))

    def test_x_l_coefficient_pinned(self, rng):
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=18, dominant=True,
                                         min_sing_l=1)
            at = [F(int(rng.integers(-2, 3))) for _ in range(inst.ltilde - 1)]
            assert ptilde_of(inst, at)[inst.l] == 0


class TestExponents:
    def test_E1(self, E1):
        assert exponents_at(E1, H1, 0) == (F(0), F(2))
        assert exponents_at(E1, H1, None) == (F(-1), F(-2))

    def test_E3_finite(self, E3):
        assert exponents_at(E3, H3, 1) == (F(0), F(3))
        assert exponents_at(E3, H3, None) == (F(-2), F(-3))

    def test_any_h_on_plane(self, rng):
        # exponents depend only on the constraint plane, not the point
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=18)
            a = [F(int(rng.integers(-2, 3))) for _ in range(inst.l)]
            h = tuple(h_of_a(inst, a))
            for s in range(inst.n):
                assert exponents_at(inst, h, s) == (F(0), F(inst.m[s] + 1))
            assert exponents_at(inst, h, None) == \
                (F(-inst.l), F(inst.l - 1 - sum(inst.m)))


class TestWronskianCheck:
    def test_E1_zero(self, E1):
        assert not any(wronskian_check(E1, [F(0)], [F(-1, 2)]))

    def test_E3_zero(self, E3):
        assert not any(wronskian_check(E3, [F(0), F(0)], [F(-1), F(1, 3)]))

    def test_E1_off_point(self, E1):
        r = wronskian_check(E1, [F(0)], [F(0)])
        assert r == (0, 1, 0)    # Wr(x^2, x) - x(x-1) = x


class TestKernelPairOperator:
    def test_E1(self, E1):
        b0, b1, b2 = operator_from_kernel_pair(E1, (0, 0, 1), (F(-1, 2), 1))
        assert b0 == (0, -1, 1)
        assert b1 == (1, -2, 0)
        assert b2 == (2, 0, 0)
        assert h_from_numerator(E1, b2) == [F(-2), F(2)]

    def test_E3_leading(self, E3):
        b0, b1, b2 = operator_from_kernel_pair(
            E3, (0, 0, 0, 1), (F(1, 3), -1, 1))
        assert b2 == (6, 0, 0)          # lt * l = 6
        assert b0 == (0, -1, 1)
        assert b1 == (2, -4, 0)

    def test_roundtrip_through_scheme(self, rng):
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=18, dominant=True,
                                         min_sing_l=1)
            finst = inst.to_float()
            # produce a float scheme point via the spectral route oracle-free:
            # use h from h_of_a at a random residual zero is unavailable in
            # closed form, so roundtrip from the two closed-form instances
            # is covered above; here check admissibility and malformed errors
            with pytest.raises((NotAdmissibleError, MalformedPairError)):
                operator_from_kernel_pair(
                    finst,
                    from_roots([complex(z) for z in finst.z] + [0j] * (inst.ltilde - inst.n))
                    if inst.ltilde >= inst.n else (0j, 1 + 0j),
                    from_roots([complex(finst.z[0])] * inst.l))

    def test_malformed_pair(self, E1):
        with pytest.raises(MalformedPairError):
            operator_from_kernel_pair(E1, (0, 0, 1), (1, 1))


class TestCoefficientFormsAgainstUniPoly:
    """wronskian_check, operator_from_kernel_pair and h_from_numerator on
    coefficient sequences against the UniPoly reference, coefficient for
    coefficient, in the exact lane."""

    @staticmethod
    def same(got, want):
        # the reference trims trailing zeros; every coefficient is a Fraction
        assert all(type(v) is F for v in got), got
        assert list(got) == list(want.coeffs) + [0] * (len(got) - len(want.coeffs))

    def test_random_exact_instances(self, rng):
        def rand(k):
            return [F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(k)]

        pairs = 0
        for _ in range(16):
            inst = random_exact_instance(rng, max_level_dim=20)
            g = rand(inst.n - 1)
            got = h_from_numerator(inst, g)
            assert all(type(v) is F for v in got)
            assert got == scheme_reference.h_from_numerator(inst, UniPoly(tuple(g)))
            if inst.ltilde <= inst.l:
                continue
            at, a = rand(inst.ltilde - 1), rand(inst.l)
            want = scheme_reference.wronskian(ptilde_poly(inst, at), p_poly(a)) - \
                scheme_reference.kernel_pair_polys(inst)[0]
            self.same(wronskian_check(inst, at, a), want)
            pair = (ptilde_of(inst, at), p_of_a(a))
            try:
                got = operator_from_kernel_pair(inst, *pair)
            except (NotAdmissibleError, MalformedPairError) as err:
                with pytest.raises(type(err)):
                    scheme_reference.operator_from_kernel_pair(inst, *map(UniPoly, pair))
            else:
                for b, w in zip(got, scheme_reference.operator_from_kernel_pair(
                        inst, *map(UniPoly, pair))):
                    self.same(b, w)
            pairs += 1
        assert pairs

    def test_kernel_pairs_on_their_cycle(self, rng):
        # ptilde = x^lt + k (x - c)^l and p = (x - c)^l have the Wronskian
        # (lt - l) x^{lt-1} (x - c)^{l-1} (x - lt c / (lt - l)): a pair on the
        # cycle of m = (lt - 1, l - 1, 1) at z = (0, c, lt c / (lt - l))
        for _ in range(8):
            l = int(rng.integers(1, 4))
            lt = l + int(rng.integers(1, 3))
            c = F(int(rng.integers(1, 7)), int(rng.integers(1, 4))) * int(rng.choice([-1, 1]))
            k = F(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
            inst = ProblemInstance([lt - 1, l - 1, 1], l, [0, c, lt * c / (lt - l)])
            p = UniPoly.const(F(1))
            for _ in range(l):
                p = p * UniPoly((-c, F(1)))
            pt = UniPoly.monomial(lt, F(1)) + p * k
            want = scheme_reference.operator_from_kernel_pair(inst, pt, p)
            got = operator_from_kernel_pair(inst, pt.coeffs, p.coeffs)
            for b, w in zip(got, want):
                self.same(b, w)
            assert h_from_numerator(inst, got[2]) == \
                scheme_reference.h_from_numerator(inst, want[2])


class TestSchubert:
    def test_examples(self):
        assert schubert_dimension((1, 1), 1) == 1
        assert schubert_dimension((1, 1, 1, 1), 2) == 2
        assert schubert_dimension((1, 2), 2) == 0

    def test_against_bruteforce(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = tuple(int(rng.integers(0, 5)) for _ in range(n))
            l = int(rng.integers(0, 7))
            assert schubert_dimension(m, l) == cg_multiplicity_bruteforce(m, l)


class TestRootOnMarkedPoint:
    INST = ProblemInstance([1, 0, 1, 2], 2, [F(-1), F(1, 2), F(5), F(8)])

    def test_exact(self):
        # p = (x - 5)^2 vanishes at z_2; p = (x - 5)(x - 6) too; x^2 + 1 nowhere
        assert root_on_marked_point(self.INST, (F(-10), F(25))) == \
            "a Bethe root lies on the marked point z_2 = 5"
        assert "z_2" in root_on_marked_point(self.INST, (F(-11), F(30)))
        assert root_on_marked_point(self.INST, (F(0), F(1))) is None

    def test_float_within_the_residual_gate(self):
        finst = self.INST.to_float()
        assert root_on_marked_point(finst, (-10.0, 25.0 + 1e-12)) == \
            "a Bethe root lies on the marked point z_2 = 5.0"
        assert root_on_marked_point(finst, (-10.0, 25.0 + 1e-3)) is None
        assert root_on_marked_point(finst, (-10.0, 25.0 + 1e-3),
                                    Tolerances(residual=1e-4)) is not None
