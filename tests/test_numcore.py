from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab.numcore import (
    InconsistentSystemError,
    SingularMatrixError,
    UniPoly,
    exact_array,
    exact_sqrt,
    identity,
    kernel_basis,
    matmul,
    max_abs,
    rank_of,
    solve_consistent,
    solve_linear,
    to_float_array,
    wronskian,
)


def P(*asc):
    return UniPoly(tuple(F(c) for c in asc))


class TestWronskian:
    def test_x_and_one(self):
        assert wronskian(P(0, 1), P(1)) == P(1)

    def test_antisymmetry_same_poly(self):
        f = P(F(1, 3), -1, 1, 0, 2)
        assert wronskian(f, f).is_zero()

    def test_cubic_pair(self):
        # f = x^3, g = x^2 - x + 1/3; f'g - fg' expanded by hand:
        # 3x^2(x^2 - x + 1/3) - x^3(2x - 1) = x^4 - 2x^3 + x^2
        f = P(0, 0, 0, 1)
        g = P(F(1, 3), -1, 1)
        assert wronskian(f, g) == P(0, 0, 1, -2, 1)

    def test_bilinear_antisymmetric_degree(self, rng):
        for _ in range(20):
            def rand_poly():
                deg = int(rng.integers(0, 5))
                return UniPoly(tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                                     for _ in range(deg + 1)))
            f, g, h = rand_poly(), rand_poly(), rand_poly()
            c = F(int(rng.integers(-3, 4)))
            lhs = wronskian(f + g * c, h)
            rhs = wronskian(f, h) + wronskian(g, h) * c
            assert lhs == rhs
            assert wronskian(f, g) == -wronskian(g, f)
            if not f.is_zero() and not g.is_zero():
                assert wronskian(f, g).degree <= f.degree + g.degree - 1


class TestUniPoly:
    def test_trim_and_degree(self):
        assert P(1, 2, 0, 0).degree == 1
        assert P().is_zero() and P(0, 0).is_zero()

    def test_divmod_exact(self):
        f = P(-1, 0, 1)          # x^2 - 1
        q, r = f.divmod(P(-1, 1))  # / (x - 1)
        assert q == P(1, 1) and r.is_zero()
        q, r = P(1, 1, 1).divmod(P(1, 1))
        assert r == P(0) or r.degree == 0

    def test_eval_horner(self):
        f = P(F(1, 2), 0, -3, 1)
        x = F(2, 3)
        assert f(x) == F(1, 2) - 3 * x * x + x ** 3

    def test_from_roots(self):
        f = UniPoly.from_roots([F(1), F(-2)])
        assert f == P(-2, 1, 1)


class TestKernelBasis:
    def test_identity_trivial(self):
        assert kernel_basis(identity(2)) == []

    def test_zero_matrix(self):
        Z = exact_array([[0, 0], [0, 0]])
        assert len(kernel_basis(Z)) == 2

    def test_rank_one(self):
        M = exact_array([[1, 1], [2, 2]])
        (v,) = kernel_basis(M)
        assert v[0] == -v[1] != 0

    def test_float_rank_one(self):
        M = np.array([[1, 1], [2, 2]], dtype=complex)
        (v,) = kernel_basis(M)
        assert abs(v[0] + v[1]) < 1e-12

    def test_float_residual_bound(self, rng):
        tol = 1e-10

        def check(rows, cols, r):
            A = (rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r)))
            B = (rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols)))
            M = A @ B
            vs = kernel_basis(M, tol)
            assert len(vs) == cols - r
            d = max(rows, cols)
            for v in vs:
                assert np.linalg.norm(M @ v) <= 10 * tol * max_abs(M) * np.linalg.norm(v) * d

        for _ in range(10):
            d = int(rng.integers(2, 7))
            check(d, d, int(rng.integers(1, d)))
        check(300, 5, 3)    # tall: the null space comes from the thin SVD
        check(3, 7, 2)      # wide: the null space needs the full vh

    def test_exact_kernel_is_exact(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            M = exact_array([[F(int(rng.integers(-3, 4))) for _ in range(d)]
                             for _ in range(max(1, d - 2))])
            for v in kernel_basis(M):
                assert max_abs(M @ v) == 0.0


def assert_same_entries(P, Q):
    assert P.shape == Q.shape and P.dtype == Q.dtype
    for x, y in zip(P.flat, Q.flat):
        assert x == y and type(x) is type(y)


class TestMatmul:
    @staticmethod
    def rand(rng, m, n):
        """m x n matrix of Fractions with mixed denominators, 1 among them."""
        A = np.empty((m, n), dtype=object)
        for idx in np.ndindex(m, n):
            A[idx] = F(int(rng.integers(-30, 31)), int(rng.integers(1, 13)))
        return A

    def test_random_exact_matches_matmul(self, rng):
        for _ in range(80):
            m, k, n = (int(v) for v in rng.integers(1, 6, size=3))
            A, B = self.rand(rng, m, k), self.rand(rng, k, n)
            assert_same_entries(matmul(A, B), A @ B)

    def test_python_int_operands_give_equal_fractions(self, rng):
        A = np.array([[int(v) for v in row] for row in rng.integers(-6, 7, size=(3, 4))],
                     dtype=object)
        B = self.rand(rng, 4, 2)
        for P, Q in ((matmul(A, B), A @ B), (matmul(B.T, A.T), B.T @ A.T)):
            assert P.shape == Q.shape and (P == Q).all()
            assert all(type(v) is F for v in P.flat)

    def test_zero_matrices(self, rng):
        Z = exact_array([[0] * 3] * 2)
        B = self.rand(rng, 3, 4)
        assert_same_entries(matmul(Z, B), Z @ B)
        assert_same_entries(matmul(B.T, Z.T), B.T @ Z.T)

    def test_empty_shapes(self, rng):
        for (m, k, n) in ((0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0)):
            A, B = self.rand(rng, m, k), self.rand(rng, k, n)
            assert_same_entries(matmul(A, B), A @ B)

    def test_read_only_operand(self, rng):
        A, B = self.rand(rng, 3, 3), self.rand(rng, 3, 2)
        A.flags.writeable = False
        assert_same_entries(matmul(A, B), A @ B)
        assert_same_entries(matmul(B.T, A), B.T @ A)

    def test_float_operands_bit_identical(self, rng):
        A = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        B = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        P = matmul(A, B)
        assert P.dtype == complex and P.tobytes() == (A @ B).tobytes()


class TestSolveLinear:
    def test_identity(self):
        rhs = exact_array([[3], [4]])[:, 0]
        assert (solve_linear(identity(2), rhs) == rhs).all()

    def test_diagonal(self):
        M = exact_array([[2, 0], [0, 3]])
        rhs = exact_array([[4], [9]])[:, 0]
        assert list(solve_linear(M, rhs)) == [F(2), F(3)]

    def test_singular_raises_with_defect(self):
        M = exact_array([[2, 0], [0, 0]])
        rhs = exact_array([[1], [1]])[:, 0]
        with pytest.raises(SingularMatrixError) as ei:
            solve_linear(M, rhs)
        assert ei.value.defect == 1

    def test_float_singular(self):
        M = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(SingularMatrixError):
            solve_linear(M, np.ones(2, dtype=complex))

    def test_exact_roundtrip_random(self, rng):
        for _ in range(12):
            d = int(rng.integers(1, 13))
            while True:
                M = exact_array([[F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                                  for _ in range(d)] for _ in range(d)])
                if rank_of(M) == d:
                    break
            v = exact_array([[F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))]
                             for _ in range(d)])[:, 0]
            assert (solve_linear(M, M @ v) == v).all()

    def test_solve_consistent_inconsistent(self):
        A = exact_array([[1], [1]])
        b = exact_array([[1], [2]])[:, 0]
        with pytest.raises(InconsistentSystemError):
            solve_consistent(A, b)


class TestScalars:
    def test_exact_sqrt(self):
        assert exact_sqrt(F(9, 4)) == F(3, 2)
        with pytest.raises(ValueError):
            exact_sqrt(F(2))

    def test_to_float_array(self):
        A = exact_array([[F(1, 2)]])
        assert to_float_array(A)[0, 0] == 0.5
