from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab.numcore import (
    DomainError,
    InconsistentSystemError,
    SingularMatrixError,
    as_float,
    exact_array,
    exact_sqrt,
    identity,
    int_array,
    int_bound,
    int_kernel,
    int_matmul,
    int_rref,
    kernel_basis,
    lowest_terms,
    matmul,
    max_abs,
    numerator_array,
    rank_of,
    rref,
    solve_consistent,
    solve_linear,
    to_float_array,
    zeros_like_domain,
)

import scheme_reference
from scheme_reference import UniPoly, wronskian
from conftest import oracle_det
from integer_reference import bareiss_rows


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


def oracle_rref(rows):
    """Plain Gauss-Jordan over the rows' own scalars: the reference for the
    fraction-free elimination, and bit for bit the complex path."""
    M = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(M[0]) if M else 0):
        pr = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


def rand_rational(rng, m, n, rank=None, zero_rows=(), max_den=12, density=1.0):
    """m x n rational rows; rank caps the rank through a product of two
    random factors, zero_rows are set to zero, density is the share of
    nonzero entries in each factor."""
    def entry():
        if rng.random() >= density:
            return F(0)
        return F(int(rng.integers(-30, 31)), int(rng.integers(1, max_den + 1)))

    if rank is None:
        A = [[entry() for _ in range(n)] for _ in range(m)]
    else:
        B = [[entry() for _ in range(rank)] for _ in range(m)]
        C = [[entry() for _ in range(n)] for _ in range(rank)]
        A = [[sum((b * C[k][j] for k, b in enumerate(row)), F(0)) for j in range(n)]
             for row in B]
    for i in zero_rows:
        A[i] = [F(0)] * n
    return A


class TestExactElimination:
    """The fraction-free elimination against a plain Fraction Gauss-Jordan."""

    @staticmethod
    def assert_rref_matches(A):
        R, pivots = rref(exact_array(A))
        want, want_pivots = oracle_rref(A)
        assert pivots == want_pivots
        assert R.shape == (len(A), len(A[0]))
        for got_row, want_row in zip(R.tolist(), want):
            assert got_row == want_row
            assert all(type(v) is F for v in got_row)

    @pytest.mark.parametrize("shape, kw", [
        ((900, 15), {"rank": 11, "density": 0.3}),
        ((40, 15), {}),
        ((6, 20), {}),
        ((12, 9), {"zero_rows": (0, 4, 11)}),
        ((10, 10), {"rank": 6}),
        ((7, 12), {"rank": 3, "zero_rows": (2,)}),
        ((8, 8), {"max_den": 10**12}),
        ((5, 5), {"density": 0.4}),
    ], ids=["tall-annihilator-shape", "tall", "wide", "zero-rows", "rank-deficient",
            "rank-deficient-zero-row", "large-denominators", "sparse"])
    def test_rref_matches_oracle(self, rng, shape, kw):
        self.assert_rref_matches(rand_rational(rng, *shape, **kw))

    def test_natural_pivots_of_triangular_system_kept(self):
        A = [[F(0), F(2), F(1)], [F(0), F(0), F(3)], [F(1), F(1), F(1)]]
        self.assert_rref_matches(A)
        assert rref(exact_array(A))[1] == [0, 1, 2]

    def test_int_rows_reduce_exactly(self):
        R, pivots = rref(exact_array([[2, 4], [1, 3]]))
        assert pivots == [0, 1] and R.tolist() == [[1, 0], [0, 1]]
        assert all(type(v) is F for v in R.flat)

    def test_zero_matrix(self):
        R, pivots = rref(exact_array([[0, 0, 0], [0, 0, 0]]))
        assert pivots == [] and all(type(v) is F and v == 0 for v in R.flat)

    def test_solve_consistent_inconsistent(self, rng):
        A = rand_rational(rng, 8, 3)
        x = rand_rational(rng, 3, 1)
        b = matmul(exact_array(A), exact_array(x))
        b[5, 0] += F(1, 7)
        with pytest.raises(InconsistentSystemError):
            solve_consistent(exact_array(A), b)

    def test_solve_consistent_underdetermined_defect(self, rng):
        A = exact_array(rand_rational(rng, 9, 5, rank=3))
        b = matmul(A, exact_array(rand_rational(rng, 5, 2)))
        with pytest.raises(SingularMatrixError) as ei:
            solve_consistent(A, b)
        assert ei.value.defect == 2

    def test_rank_of_exact_stack(self, rng):
        # one rank per matrix of an exact stack, as a float stack gives them
        ranks = [3, 0, 5, 1]
        A = np.stack([exact_array(rand_rational(rng, 5, 6, rank=r)) if r else
                      exact_array([[0] * 6] * 5) for r in ranks])
        got = rank_of(A)
        assert got.tolist() == ranks == rank_of(to_float_array(A)).tolist()
        assert [rank_of(a) for a in A] == ranks

    @pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (2, 0, 0), (0, 3, 4)],
                             ids=["no-rows", "no-columns", "0x0", "no-matrices"])
    def test_rank_of_empty_stack(self, shape):
        # one rank per matrix in both lanes, also when the matrices are empty
        for exact in (True, False):
            got = rank_of(zeros_like_domain(shape, exact))
            assert isinstance(got, np.ndarray) and got.dtype.kind == "i"
            assert got.tolist() == [0] * shape[0]
            assert rank_of(zeros_like_domain(shape[1:], exact)) == 0

    def test_solve_consistent_tall_roundtrip(self, rng):
        A = rand_rational(rng, 30, 6)
        x = exact_array(rand_rational(rng, 6, 2))
        assert (solve_consistent(exact_array(A), matmul(exact_array(A), x)) == x).all()

    @pytest.mark.parametrize("rank, defect", [(2, 3), (4, 1), (0, 5)])
    def test_solve_rows_defect(self, rng, rank, defect):
        # a square solve of rank-deficient rows [A | B] names the rank defect
        A = rand_rational(rng, 5, 5, rank=rank) if rank else [[F(0)] * 5] * 5
        with pytest.raises(SingularMatrixError) as ei:
            solve_linear(exact_array(A), exact_array([[F(1), F(-2)]] * 5))
        assert ei.value.defect == defect

    def test_solve_rows_matches_oracle(self, rng):
        A, B = rand_rational(rng, 6, 6), rand_rational(rng, 6, 3)
        want, _ = oracle_rref([a + b for a, b in zip(A, B)])
        X = solve_linear(exact_array(A), exact_array(B))
        assert X.tolist() == [r[6:] for r in want]
        assert all(type(v) is F for v in X.flat)

    def test_complex_rows_bit_identical_to_plain_gauss_jordan(self, rng):
        # the float reference bodies' elimination (scheme_reference); the
        # exact one takes rational rows only
        rows = [[complex(*rng.normal(size=2)) for _ in range(7)] for _ in range(5)]
        rows[0][0] = 0j   # forces a row swap
        got = scheme_reference.solve_rows([r[:] for r in rows], 5)
        assert got == [r[5:] for r in oracle_rref(rows)[0]]
        assert all(type(v) is complex for r in got for v in r)
        A = np.array(rows, dtype=object)
        with pytest.raises(DomainError):
            solve_linear(A[:, :5], A[:, 5:])
        with pytest.raises(DomainError):
            rref(A)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_det_matches_oracle(self, rng, n):
        # the fraction-free elimination keeps its entries minors: on a
        # nonsingular integer matrix the last pivot is the determinant up to
        # the sign of the row swaps
        for hi in (12, 10**9):
            N = rng.integers(-hi, hi + 1, size=(n, n)).astype(object)
            if n > 1:
                N[0, 0] = 0     # forces a row swap
            det = oracle_det(N.tolist())
            _, pivots, d = int_rref(N)
            assert len(pivots) == n and abs(d) == abs(det) != 0


def rational_case(rng, m, n, rank=None, zero_rows=(), zero_cols=(), big=False):
    """rand_rational rows with zero_cols set to zero; big scales row i by
    (2^(64 + i) + 1) / (i + 2), so each nonzero row has entries past 2^63."""
    A = rand_rational(rng, m, n, rank=rank, zero_rows=zero_rows)
    for row in A:
        for j in zero_cols:
            row[j] = F(0)
    if big:
        A = [[v * F(2**(64 + i) + 1, i + 2) for v in row] for i, row in enumerate(A)]
    return A


def outcome(f, *args):
    """f's value (shape and entries, each a Fraction), or the type, message
    and rank defect of the error it raises."""
    try:
        X = f(*args)
    except (DomainError, InconsistentSystemError, SingularMatrixError) as e:
        return type(e), str(e), getattr(e, "defect", None)
    assert all(type(v) is F for v in X.flat)
    return X.shape, X.tolist()


class TestExactRouteMatchesReference:
    """rref, rank_of, kernel_basis, solve_linear and solve_consistent against
    the elimination on Fraction rows they replaced (scheme_reference), value
    for value and error for error."""

    CASES = {
        "square": ((6, 6), {}),
        "rank-deficient": ((7, 7), {"rank": 4}),
        "tall": ((9, 5), {}),
        "tall-rank-deficient": ((9, 5), {"rank": 3}),
        "wide": ((4, 8), {}),
        "zero-rows-and-columns": ((7, 7), {"zero_rows": (1, 5), "zero_cols": (0, 4)}),
        "zero": ((4, 5), {"rank": 0}),
        "no-columns": ((4, 0), {}),
        "past-2^63": ((6, 6), {"big": True}),
        "past-2^63-rank-deficient": ((8, 6), {"rank": 4, "big": True, "zero_cols": (2,)}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rref_rank_kernel(self, rng, case):
        shape, kw = self.CASES[case]
        A = exact_array(rational_case(rng, *shape, **kw))
        want, pivots = scheme_reference.rref(A)
        R, got = rref(A)
        assert got == pivots and R.shape == want.shape and R.tolist() == want.tolist()
        assert all(type(v) is F for v in R.flat)
        assert rank_of(A) == len(pivots)
        ker = kernel_basis(A)
        assert [v.tolist() for v in ker] == [
            v.tolist() for v in scheme_reference.rref_kernel(want, pivots)]
        assert all(type(x) is F for v in ker for x in v)

    def test_stacks(self, rng):
        # one rank and one basis per matrix, empty matrices included
        kws = [{}, {"rank": 3}, {"rank": 0}, {"rank": 4, "big": True}, {"zero_cols": (1, 2)}]
        stack = np.stack([exact_array(rational_case(rng, 6, 6, **kw)) for kw in kws])
        for A in (stack, zeros_like_domain((3, 0, 4), True), zeros_like_domain((3, 4, 0), True)):
            want = [scheme_reference.rref(a) for a in A]
            assert rank_of(A).tolist() == [len(pivots) for _, pivots in want]
            assert [[v.tolist() for v in ker] for ker in kernel_basis(A)] == [
                [v.tolist() for v in scheme_reference.rref_kernel(*w)] for w in want]

    def test_solves(self, rng):
        seen = set()
        for shape, kw in self.CASES.values():
            m, n = shape
            A = exact_array(rational_case(rng, m, n, **kw))
            if not n:
                # no unknowns: X is 0 x 2 (the reference built a 0 x 0 array)
                assert solve_consistent(A, zeros_like_domain((m, 2), True)).shape == (0, 2)
                continue
            b = matmul(A, exact_array(rand_rational(rng, n, 2)))
            off = b.copy()
            off[-1, 0] += F(1, 7)     # outside the column space unless rank A = m
            for rhs in (b, b[:, 0], off, off[:, 0]):
                got = outcome(solve_consistent, A, rhs)
                assert got == outcome(scheme_reference.exact_solve_consistent, A, rhs)
                seen.add(got[0] if isinstance(got[0], type) else "solved")
                if m == n:
                    got = outcome(solve_linear, A, rhs)
                    assert got == outcome(scheme_reference.exact_solve_linear, A, rhs)
        assert seen == {"solved", InconsistentSystemError, SingularMatrixError}

    def test_error_order(self, rng):
        # rank deficient, and b outside the column space: solve_consistent
        # names the inconsistency first, solve_linear the rank defect
        A = exact_array(rational_case(rng, 6, 6, rank=4))
        b = exact_array(rand_rational(rng, 6, 1))
        with pytest.raises(InconsistentSystemError):
            solve_consistent(A, b)
        with pytest.raises(SingularMatrixError) as ei:
            solve_linear(A, b)
        assert ei.value.defect == 2
        assert outcome(solve_consistent, A, b) == outcome(
            scheme_reference.exact_solve_consistent, A, b)
        assert outcome(solve_linear, A, b) == outcome(scheme_reference.exact_solve_linear, A, b)
        # consistent but rank deficient: the defect, as an underdetermined system
        b = matmul(A, exact_array(rand_rational(rng, 6, 1)))
        with pytest.raises(SingularMatrixError, match="underdetermined") as ei:
            solve_consistent(A, b)
        assert ei.value.defect == 2

    def test_complex_entry_raises(self, rng):
        A = exact_array(rational_case(rng, 5, 5))
        b = exact_array(rand_rational(rng, 5, 1))
        Ac = A.copy()
        Ac[2, 3] = 1 + 2j
        bc = b.copy()
        bc[4, 0] = 0.5j
        for f, ref, args in [
                (solve_linear, scheme_reference.exact_solve_linear, (Ac, b)),
                (solve_linear, scheme_reference.exact_solve_linear, (A, bc)),
                (solve_consistent, scheme_reference.exact_solve_consistent, (Ac, b)),
                (solve_consistent, scheme_reference.exact_solve_consistent, (A, bc))]:
            assert outcome(f, *args) == outcome(ref, *args) != outcome(f, A, b)
            assert outcome(f, *args)[0] is DomainError
        for f in (rref, scheme_reference.rref, rank_of, kernel_basis):
            with pytest.raises(DomainError):
                f(Ac)
        for f in (rank_of, kernel_basis):
            with pytest.raises(DomainError):
                f(np.stack([A, Ac]))


class TestScalars:
    def test_exact_sqrt(self):
        assert exact_sqrt(F(9, 4)) == F(3, 2)
        with pytest.raises(ValueError):
            exact_sqrt(F(2))

    def test_to_float_array(self):
        A = exact_array([[F(1, 2)]])
        assert to_float_array(A)[0, 0] == 0.5

    def test_huge_parts_round_once(self):
        # numerator and denominator past the float range, the value inside it
        x = F(10**400 + 1, 10**400)
        assert as_float(x) == 1 + 0j
        assert as_float(F(1, 10**400)) == 0j
        got = to_float_array(np.array([[x, F(-3, 10**400)]], dtype=object))
        assert got.tolist() == [[1 + 0j, 0j]]

    def test_to_float_array_bit_identical_to_as_float(self, rng):
        # numerators past 2^53: the quotient rounds once in both
        for bits in (8, 60, 70, 200):
            shift = bits - 62
            vals = [F((int(rng.integers(-2**62, 2**62)) << max(shift, 0) >> max(-shift, 0))
                      + int(rng.integers(-9, 10)), int(rng.integers(1, 2**40)))
                    for _ in range(60)]
            vals += [F(0), F(-3), F(2**bits + 1, 3), 7]
            A = np.empty((8, 8), dtype=object)
            A.reshape(-1)[:] = vals
            want = np.array([as_float(v) for v in vals], dtype=complex).reshape(8, 8)
            got = to_float_array(A)
            assert got.dtype == complex and got.tobytes() == want.tobytes()
        assert to_float_array(np.empty((0, 3), dtype=object)).shape == (0, 3)


class TestIntMatmul:
    @staticmethod
    def python_product(A, B):
        return [[sum(int(a) * int(b) for a, b in zip(row, col)) for col in B.T] for row in A]

    def test_int64_path_when_bounded(self, rng):
        A = rng.integers(-50, 51, size=(6, 7))
        B = rng.integers(-50, 51, size=(7, 3))
        P = int_matmul(A, B.astype(object))
        assert P.dtype == np.int64 and P.tolist() == self.python_product(A, B)

    def test_python_ints_past_the_bound(self, rng):
        # max|A| max|B| k >= 2^63: an int64 product would wrap
        A = rng.integers(2**40, 2**41, size=(3, 4))
        B = rng.integers(2**40, 2**41, size=(4, 2))
        P = int_matmul(A, B)
        assert P.dtype == object and P.tolist() == self.python_product(A, B)
        assert (A @ B).tolist() != P.tolist()

    def test_paths_agree(self, rng):
        # the same product, once below and once past the bound (scaled by 2^40)
        A = rng.integers(-9, 10, size=(5, 5))
        B = rng.integers(-9, 10, size=(5, 5))
        small = int_matmul(A, B)
        big = int_matmul(A.astype(object) * 2**40, B.astype(object) * 2**40)
        assert small.dtype == np.int64 and big.dtype == object
        assert (big == small.astype(object) * 2**80).all()

    @staticmethod
    def assert_object_product(A, B):
        P = int_matmul(A, B)
        assert P.shape == (A @ B).shape
        assert P.tolist() == (A.astype(object) @ B.astype(object)).tolist()
        return P

    def test_float_path_at_the_bound(self, rng):
        # max|A| max|B| k = 2^53 - 2^29 (k = 4) runs as float64 BLAS, exactly
        a, b = 2**27, 2**24 - 1
        for _ in range(5):
            A = rng.integers(-a, a + 1, size=(6, 4))
            B = rng.integers(-b, b + 1, size=(4, 5))
            A[0], B[:, 0] = a, b
            assert self.assert_object_product(A, B).dtype == np.int64

    def test_past_the_float_bound(self, rng):
        # a b k > 2^53: the dot product 3 a b is odd and above 2^53, which a
        # float64 product rounds, so int_matmul must not take that path
        a, b = 2**27 + 1, 2**25 - 1
        A = rng.integers(-a, a + 1, size=(3, 4))
        B = rng.integers(-b, b + 1, size=(4, 3))
        A[0], B[:, 0] = [a, a, a, 0], [b, b, b, 0]
        naive = (A.astype(float) @ B.astype(float)).astype(np.int64)
        assert naive[0, 0] != 3 * a * b
        assert self.assert_object_product(A, B)[0, 0] == 3 * a * b

    def test_zero_next_to_huge_python_ints(self):
        # the bound a b k is 0, but casting the other operand to float64
        # (or int64) overflows
        Z = np.zeros((2, 3), dtype=np.int64)
        H = np.full((3, 2), 2**1100 + 1, dtype=object)
        H[1, 1] = -(2**1030)
        assert self.assert_object_product(Z, H).tolist() == [[0, 0], [0, 0]]
        assert self.assert_object_product(H.T, Z.T).tolist() == [[0, 0], [0, 0]]
        assert self.assert_object_product(np.ones((1, 2), dtype=np.int64), H[:2]).tolist() \
            == [[2**1101 + 2, 2**1100 + 1 - 2**1030]]

    @pytest.mark.parametrize("hi", [9, 2**20, 2**40])
    def test_stacks(self, rng, hi):
        # one bound for the whole stack; 2-D times stack broadcasts too
        A = rng.integers(-hi, hi + 1, size=(5, 4, 6)).astype(object)
        B = rng.integers(-hi, hi + 1, size=(5, 6, 3)).astype(object)
        A[2, 0, 0] = hi**2      # one slice alone decides the path
        P = self.assert_object_product(A, B)
        assert all(P[i].tolist() == self.python_product(A[i], B[i]) for i in range(5))
        self.assert_object_product(A[0], B)
        self.assert_object_product(A, B[0])
        assert self.assert_object_product(A[:, :, :0], B[:, :0]).shape == (5, 4, 3)

    def test_int_array(self):
        assert int_array([1, -2]).dtype == np.int64
        assert int_array([2**63, 1]).dtype == object
        assert int_array(np.array([3, 2**64], dtype=object)).tolist() == [3, 2**64]


class TestIntegerElimination:
    """int_rref and int_kernel against the rref and rref_kernel on Fraction
    rows (scheme_reference), and int_rref against the row-by-row loop it
    replaced (integer_reference.bareiss_rows)."""

    @pytest.mark.parametrize("shape, rank, big", [
        ((6, 9), 4, False), ((9, 6), 6, False), ((7, 7), 3, False), ((5, 8), 5, True),
        ((0, 4), 0, False), ((4, 0), 0, False), ((3, 3), 0, False)])
    def test_matches_fraction_elimination(self, rng, shape, rank, big):
        m, n = shape
        N = (rng.integers(-6, 7, size=(m, rank)) @ rng.integers(-6, 7, size=(rank, n))
             if rank else np.zeros(shape, dtype=np.int64))
        if big:
            N = N.astype(object) * 2**70 + 1
        R, pivots, d = int_rref(N)
        A = exact_array(N.tolist()) if m else np.empty(shape, dtype=object)
        want, want_pivots = scheme_reference.rref(A)
        assert pivots == want_pivots
        assert R.shape == (len(pivots), n)
        assert all(R[i, c] == d for i, c in enumerate(pivots))
        for got_row, want_row in zip(R.tolist(), want.tolist()):
            assert [F(x, d) for x in got_row] == want_row
        K, dk = int_kernel(R, pivots, d)
        ker = scheme_reference.rref_kernel(want, want_pivots)
        assert K.shape == (n, len(ker)) and dk == d
        for j, v in enumerate(ker):
            assert [F(x, dk) for x in K[:, j].tolist()] == v.tolist()

    @staticmethod
    def assert_matches_loop_elimination(N):
        M = N.tolist()
        want, want_d = bareiss_rows(M) if M else ([], 1)
        R, pivots, d = int_rref(N)
        assert pivots == want and d == want_d and type(d) is int
        assert R.shape == (len(pivots), N.shape[1])
        assert R.tolist() == M[:len(pivots)]
        assert R.dtype == int_array(M[:len(pivots)]).dtype
        return R

    @pytest.mark.parametrize("shape, rank", [
        ((6, 9), 4), ((9, 6), 6), ((7, 7), 3), ((8, 8), 8), ((1, 5), 1), ((5, 1), 1),
        ((0, 3), 0), ((3, 0), 0), ((4, 4), 0)])
    def test_matches_loop_elimination(self, rng, shape, rank):
        # the array elimination against the row-by-row loop it replaced:
        # the same pivot rows, pivots and last pivot, rank deficient or not
        m, n = shape
        for hi in (3, 40):
            N = (rng.integers(-hi, hi + 1, size=(m, rank)) @ rng.integers(-hi, hi + 1, size=(rank, n))
                 if rank else np.zeros(shape, dtype=np.int64))
            if m > 1 and n:
                N[0] = 0            # a zero row to swap past
            self.assert_matches_loop_elimination(N)

    @pytest.mark.parametrize("n, rank", [(6, 6), (8, 5)])
    def test_switch_to_python_ints_mid_run(self, rng, n, rank):
        # entries near 2^20 start in int64, and the minors pass 2^63 a few
        # pivots in, so the same steps carry on in Python ints
        N = rng.integers(2**19, 2**20, size=(n, rank)) @ rng.integers(-1, 2, size=(rank, n))
        N[rng.random(N.shape) < 0.2] = 0
        N[0, 0] = 0
        assert int_bound(N) ** 2 * 2 < 2**63
        R = self.assert_matches_loop_elimination(N)
        assert R.dtype == object and int_bound(R) >= 2**63

    def test_python_int_input(self, rng):
        N = rng.integers(-9, 10, size=(5, 7)).astype(object) * 2**70 + 1
        self.assert_matches_loop_elimination(N)
        # Python ints that fit in int64; the array passed in is left as it was
        N = rng.integers(-9, 10, size=(5, 7)).astype(object)
        N[0, 0] = 0
        before = N.copy()
        self.assert_matches_loop_elimination(N)
        assert (N == before).all()

    def test_lowest_terms_is_numerator_array(self, rng):
        for D in (6, -6, 35, -1):
            N = rng.integers(-5, 6, size=(4, 3)) * 3
            A = exact_array([[F(x, D) for x in row] for row in N.tolist()])
            got, g = lowest_terms(N, D)
            want, w = numerator_array(A)
            assert g == w and np.array_equal(got, want)
        got, g = lowest_terms(np.zeros((2, 2), dtype=np.int64), 12)
        assert g == 1 and not got.any()
