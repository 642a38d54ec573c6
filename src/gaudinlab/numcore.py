"""Scalar domains and linear-algebra kernels.

Two scalar domains are supported and never mixed silently:

* exact      -- ``fractions.Fraction`` entries, numpy arrays of dtype object;
* float      -- ``complex`` entries, numpy arrays of dtype complex128.

Conversion between domains is always explicit (``to_float_array``,
``to_float_scalar``).  Exact mode is the default for constructions; the
float domain is entered for eigen-decomposition and root-finding only.

Exact matrix products go through ``matmul``, which multiplies integer
numerators over one common denominator per operand instead of forming a
``Fraction`` for every partial product; ``int_matmul`` multiplies integer
arrays (or stacks of them) as float64 BLAS when max|A| max|B| k < 2^53
proves every partial sum exact, in int64 below 2^63, else on Python ints.
Every exact elimination goes through ``int_rref``: ``rref``, ``rank_of``,
``kernel_basis`` (through ``int_kernel``), ``solve_linear`` and
``solve_consistent`` scale each rational row to integers and hand the array
to it.  Its Gauss-Jordan is fraction-free (Bareiss 1968), one array
expression per pivot, in int64 while a bound rules out overflow: each step
divides exactly by the previous pivot, so no ``Fraction`` arithmetic runs
inside the loop, and ``Fraction`` entries are formed only for the result.
It takes rational rows only; a row holding any other scalar raises
``DomainError``, and float systems go to LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

__all__ = [
    "DomainError",
    "SingularMatrixError",
    "InconsistentSystemError",
    "Tolerances",
    "as_exact",
    "as_float",
    "is_exact_array",
    "exact_array",
    "to_float_array",
    "identity",
    "zeros_like_domain",
    "max_abs",
    "rowmax",
    "integer_numerators",
    "fraction_array",
    "int_array",
    "numerator_array",
    "int_bound",
    "int_matmul",
    "int_rref",
    "int_kernel",
    "lowest_terms",
    "primitive",
    "row_update",
    "matmul",
    "rref",
    "rank_of",
    "kernel_basis",
    "solve_linear",
    "solve_consistent",
]


class DomainError(TypeError):
    """Raised when exact and float scalars are mixed implicitly."""


class SingularMatrixError(ValueError):
    """Square solve hit a rank-deficient matrix; carries the rank defect."""

    def __init__(self, defect, msg=None):
        self.defect = defect
        super().__init__(msg or f"singular matrix (rank defect {defect})")


class InconsistentSystemError(ValueError):
    """An overdetermined linear system admitted no solution."""


@dataclass(frozen=True)
class Tolerances:
    """Float-lane numeric gates; the one instance a run uses reaches every stage."""

    svd_rel: float = 1e-10      # relative singular-value cutoff for rank/kernel
    cluster: float = 1e-7       # eigenvalue clustering, unit max-norm scale
    residual: float = 1e-8      # scheme / eigenvector residual gate

    def cluster_key(self, c: complex) -> tuple:
        """Sort key of a complex value: its real part on a grid of
        self.cluster, then its imaginary part, so a conjugate pair whose
        real parts agree to rounding keeps one order."""
        return (round(c.real / self.cluster), c.imag)


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# scalars

def as_exact(x):
    """Coerce int / Fraction / 'p/q' string to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"cannot coerce {x!r} to an exact rational")


def as_float(x):
    """Explicit conversion to complex; a Fraction is rounded once."""
    return complex(x)


def is_exact_scalar(x) -> bool:
    """Fraction or int (bool excluded)."""
    return isinstance(x, (Fraction, Integral)) and not isinstance(x, bool)


def scalar_one(exact: bool):
    return Fraction(1) if exact else 1 + 0j


def exact_sqrt(x: Fraction) -> Fraction:
    """Square root of a nonnegative rational that is a perfect square."""
    if x < 0:
        raise ValueError("negative radicand")
    a = math.isqrt(x.numerator)
    b = math.isqrt(x.denominator)
    if a * a != x.numerator or b * b != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# matrices: numpy arrays, dtype object (exact) or complex128 (float)

def is_exact_array(A: np.ndarray) -> bool:
    return A.dtype == object


def exact_array(rows) -> np.ndarray:
    A = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            A[i, j] = as_exact(v)
    return A


def to_float_array(A: np.ndarray) -> np.ndarray:
    """Explicit exact -> float conversion, entry for entry as_float.

    Each entry's numerator is divided by its denominator as integers, which
    rounds once; the imaginary parts are +0.0.
    """
    if not is_exact_array(A):
        return np.asarray(A, dtype=complex)
    flat = [v.numerator / v.denominator for v in A.reshape(-1).tolist()]
    return np.array(flat, dtype=complex).reshape(A.shape)


def identity(n: int, exact: bool = True) -> np.ndarray:
    if not exact:
        return np.eye(n, dtype=complex)
    A = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            A[i, j] = Fraction(i == j)
    return A


def zeros_like_domain(shape, exact: bool) -> np.ndarray:
    if exact:
        A = np.empty(shape, dtype=object)
        A[...] = Fraction(0)
        return A
    return np.zeros(shape, dtype=complex)


def max_abs(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    if is_exact_array(A):
        return max(abs(as_float(v)) for v in A.flat)
    return float(np.abs(A).max())


def rowmax(x) -> np.ndarray:
    """Largest modulus in each row; 0 for a row of no entries."""
    return np.abs(x).max(axis=1) if x.shape[1] else np.zeros(len(x))


def integer_numerators(values):
    """(numerators, D) with values[i] = numerators[i] / D, D the lcm of the
    denominators; values is a sequence of Fraction or int."""
    dens = [v.denominator for v in values]
    D = math.lcm(*dens)
    return [v.numerator * (D // d) for v, d in zip(values, dens)], D


def fraction_array(N: np.ndarray, D: int) -> np.ndarray:
    """The exact array N / D of an integer array N, one Fraction per entry."""
    out = np.empty(N.shape, dtype=object)
    out.reshape(-1)[:] = [Fraction(x, D) for x in N.reshape(-1).tolist()]
    return out


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B, entry for entry.

    Two exact (2-D) operands are scaled to Python-int numerators over one
    denominator each and multiplied as integers; every entry comes back as a
    Fraction in lowest terms.  Two exact stacks of one length (S x m x k,
    S x k x n) multiply slice by slice.  Float operands and empty shapes
    use A @ B itself.
    """
    if not (is_exact_array(A) and is_exact_array(B)) or 0 in A.shape + B.shape:
        return A @ B
    if A.ndim == 3:
        return np.stack([matmul(a, b) for a, b in zip(A, B)])
    (m, k), n = A.shape, B.shape[1]
    na, da = integer_numerators(A.reshape(-1).tolist())
    nb, db = integer_numerators(B.reshape(-1).tolist())
    N = (np.array(na, dtype=object).reshape(m, k)
         @ np.array(nb, dtype=object).reshape(k, n))
    return fraction_array(N, da * db)


def int_array(values) -> np.ndarray:
    """Integers (a sequence or an integer array) as an int64 array when every
    entry fits, else as an object array of Python ints."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def numerator_array(A: np.ndarray):
    """(N, D) with the exact array A = N / D: N an int_array, D the lcm of
    the denominators."""
    nums, D = integer_numerators(A.reshape(-1).tolist())
    return int_array(nums).reshape(A.shape), D


def int_bound(A: np.ndarray) -> int:
    """max |A| of an integer array, as a Python int (0 if A is empty)."""
    return max(abs(int(A.max())), abs(int(A.min()))) if A.size else 0


def int_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B of integer arrays or stacks (int64 or Python ints), exactly.

    With a = max|A|, b = max|B| over the whole stack and k = A.shape[-1]:
    when a, b and a b k are below 2^53, every product and partial sum is an
    integer below 2^53, so float64 BLAS is exact in any summation order;
    below 2^63 the product runs in int64, else on Python ints.
    """
    a, b = int_bound(A), int_bound(B)
    bound = max(a, b, a * b * A.shape[-1])
    if bound < 2**53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    if bound < 2**63:
        return A.astype(np.int64) @ B.astype(np.int64)
    return A.astype(object) @ B.astype(object)


def primitive(v: list) -> list:
    """An integer row divided by the gcd of its entries (unchanged if zero)."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def row_update(a: int, v: list, b: int, row: list) -> list:
    """a v - b row on integer rows."""
    return [a * x - b * y for x, y in zip(v, row)]


def _bareiss(M: np.ndarray):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on an integer array.

    The step at pivot p in column c maps M to (p M - M[:, c] (x) prow) / prev
    and restores the pivot row prow: an exact division by the previous
    pivot, so entries stay minors of the matrix.  Each step also scales the
    earlier pivot rows by p / prev, so every pivot row ends with the last
    pivot d in its pivot column, the rows below them are zero, and the rref
    is M / d.  Steps run in int64 while (|p| + max|M[:, c]|) max|M| < 2^63
    bounds p M - M[:, c] (x) prow, then on Python ints.  Returns the reduced
    (M, pivots, d); the rows of the array passed in may be swapped.
    """
    m, n = M.shape
    pivots, prev, r = [], 1, 0
    for c in range(n):
        if r == m:
            break
        nz = M[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        p, col = int(M[r, c]), M[:, c].copy()
        if M.dtype != object and (abs(p) + int_bound(col)) * int_bound(M) >= 2**63:
            M, col = M.astype(object), col.astype(object)
        prow = M[r].copy()
        M = p * M - np.multiply.outer(col, prow)
        if prev != 1:
            M //= prev
        M[r] = prow
        prev = p
        pivots.append(c)
        r += 1
    return M, pivots, prev


def int_rref(N: np.ndarray):
    """rref of an integer array N, kept on integers: (R, pivots, d).

    R (an int_array) holds the pivot rows of the fraction-free elimination
    (_bareiss), so rref(N) is R / d followed by zero rows; d is the last
    pivot, and R is d on its pivot columns.
    """
    M, pivots, d = _bareiss(int_array(N).copy())
    return int_array(M[:len(pivots)]), pivots, d


def int_kernel(R: np.ndarray, pivots: list, d: int):
    """Right null space from int_rref's (R, pivots, d), as (K, d): column j
    of K / d is kernel_basis's j-th vector, 1 at the j-th free column f and
    -R[:, f] / d at the pivots."""
    n = R.shape[1]
    free = [j for j in range(n) if j not in pivots]
    K = np.zeros((n, len(free)), dtype=object)
    K[free, range(len(free))] = d
    K[pivots] = -R[:, free].astype(object)
    return int_array(K), d


def lowest_terms(N: np.ndarray, D: int):
    """(N', D') with N' / D' = N / D and D' the lcm of the denominators of
    N / D's entries (numerator_array's form), for an integer array N."""
    g = math.gcd(D, *N.reshape(-1).tolist())
    if D < 0:
        g = -g
    if g == 1:
        return N, D
    return int_array([x // g for x in N.reshape(-1).tolist()]).reshape(N.shape), D // g


def _exact_rref(A: np.ndarray):
    """int_rref of an exact matrix A, each row scaled to integers first:
    (R, pivots, d), rref(A) being R / d above zero rows.  The pivot is the
    first nonzero entry at or below the current row, so a triangular system
    keeps its natural pivots.  A row holding any scalar other than a
    Fraction or an int raises DomainError."""
    rows = A.tolist()
    if not all(isinstance(v, (Fraction, int)) for row in rows for v in row):
        raise DomainError("the exact elimination takes rational rows only")
    return int_rref(int_array([integer_numerators(row)[0] for row in rows]).reshape(A.shape))


def rref(A: np.ndarray):
    """Reduced row echelon form of an exact matrix; (R, pivot columns)."""
    if not is_exact_array(A):
        raise DomainError("rref is exact-mode only")
    R, pivots, d = _exact_rref(A)
    out = zeros_like_domain(A.shape, True)
    out[:len(pivots)] = fraction_array(R, d)
    return out, pivots


def _exact_solve(A: np.ndarray, B: np.ndarray, consistent: bool = False) -> np.ndarray:
    """X (n x k) with A X = B, exact A (m x n) and B (m x k), from one
    elimination of [A | B].  If B is outside A's column space and consistent
    is set, InconsistentSystemError; then if rank A < n, SingularMatrixError
    with the rank defect."""
    n = A.shape[1]
    R, pivots, d = _exact_rref(np.hstack([A, B]))
    r = sum(p < n for p in pivots)
    if consistent and r < len(pivots):
        raise InconsistentSystemError("exact system has no solution")
    if r < n:
        raise SingularMatrixError(n - r, "underdetermined system" if consistent else None)
    return fraction_array(R[:n, n:], d)


def rank_of(A: np.ndarray, tol: float | None = None):
    """Rank of A; of each matrix of a stack A (S x m x n) too, as an int
    array, a float stack from one batched SVD.  A float rank counts the
    singular values above tol * the largest (default 1e-10 relative)."""
    if is_exact_array(A):
        if A.ndim == 2:
            return len(_exact_rref(A)[1])
        return np.array([len(_exact_rref(a)[1]) for a in A], dtype=int)
    tol = DEFAULT_TOL.svd_rel if tol is None else tol
    if A.ndim == 2:
        return int(_svd_ranks(A[None], tol)[0])
    return _svd_ranks(A, tol)


def _svd_ranks(A: np.ndarray, tol: float) -> np.ndarray:
    s = np.linalg.svd(A, compute_uv=False)
    return np.sum(s > tol * s[:, :1], axis=1)


def kernel_basis(A: np.ndarray, tol: float | None = None) -> list:
    """Basis of the right null space as a list of 1-D vectors.

    Float mode counts singular values below tol * max(singular values) as
    zero (default 1e-10 relative); exact mode is exact, whatever tol.  A
    stack A (S x m x n) gives one basis per matrix, a float stack from one
    batched SVD.
    """
    if A.ndim == 2:
        return kernel_basis(A[None], tol)[0]
    if is_exact_array(A):
        kernels = [int_kernel(*_exact_rref(a)) for a in A]
        return [list(fraction_array(K.T, d)) for K, d in kernels]
    return _svd_kernels(A, DEFAULT_TOL.svd_rel if tol is None else tol)


def _svd_kernels(A: np.ndarray, tol: float) -> list:
    """kernel_basis of each matrix of the float stack A (S x m x n)."""
    m, n = A.shape[1:]
    if n == 0:
        return [[] for _ in A]
    if m == 0:
        return [[np.eye(n, dtype=complex)[:, j] for j in range(n)] for _ in A]
    # a wide A needs the full vh for its null space; the full u of a tall A
    # can run to gigabytes and is never used
    u, s, vh = np.linalg.svd(A, full_matrices=m < n)
    nz = np.sum(s > tol * s[:, :1], axis=1)
    return [list(v[k:].conj()) for v, k in zip(vh, nz)]


def solve_linear(A: np.ndarray, rhs: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Solve a square invertible system; exact in rational mode."""
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("solve_linear expects a square matrix")
    if is_exact_array(A):
        return _exact_solve(A, rhs.reshape(n, -1)).reshape(rhs.shape)
    tol = DEFAULT_TOL.svd_rel if tol is None else tol
    r = rank_of(A, tol)
    if r < n:
        raise SingularMatrixError(n - r)
    return np.linalg.solve(A, rhs)


def solve_consistent(A: np.ndarray, rhs: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Solve a (possibly overdetermined) consistent system A x = rhs.

    Exact mode: Gaussian elimination with a consistency check.  Float mode:
    least squares; residual above tol * scale raises InconsistentSystemError.
    """
    m, n = A.shape
    rhs2 = rhs.reshape(m, -1)
    if is_exact_array(A):
        X = _exact_solve(A, rhs2, consistent=True)
        return X.reshape(n) if rhs.ndim == 1 else X
    tol = DEFAULT_TOL.residual if tol is None else tol
    x, *_ = np.linalg.lstsq(A, rhs2, rcond=None)
    resid = max_abs(A @ x - rhs2)
    scale = max(1.0, max_abs(A) * max(1.0, max_abs(x)))
    if resid > tol * scale:
        raise InconsistentSystemError(f"least-squares residual {resid:.3e} exceeds gate")
    return x.reshape((n,) if rhs.ndim == 1 else (n, rhs2.shape[1]))
