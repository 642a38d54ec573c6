"""Tensor products of highest-weight gl(2)-modules in the monomial model.

The s-th factor with highest-weight parameter m_s is realized on C[x^(s)];
a product of Verma modules becomes C[x^(1),...,x^(n)] via
e21^{j_1} v x ... x e21^{j_n} v  |->  (x^(1))^{j_1} ... (x^(n))^{j_n}.
The action per factor is

    e12 = -x d^2/dx^2 + m d/dx,   e21 = x,
    e11 = -2x d/dx + m,           e22 = 0,

so weights are tracked through e11 eigenvalues and total degree: the weight
space of e11-eigenvalue (sum m_s - 2k) is the span of monomials of total
degree k, and "degree l" encodes the second weight coordinate l.

Monomial bases are ordered graded-reverse-lexicographically, fixed globally,
so every matrix here is deterministic across runs.  The generator, degree
and Gram matrices are integer arrays, the one exact form below the Bethe
algebra; only the singular basis and the Shapovalov quotient (ShQuotient)
are Fraction arrays, formed once from integer numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .numcore import (
    UniPoly,
    as_exact,
    as_float,
    fraction_array,
    int_array,
    int_kernel,
    int_matmul,
    int_rref,
    is_exact_scalar,
    lowest_terms,
    numerator_array,
    scalar_one,
    zeros_like_domain,
)

__all__ = [
    "NonSeparatingError",
    "ProblemInstance",
    "WeightVector",
    "ShQuotient",
    "weight_space_dim",
    "generator_matrix",
    "degree_diagonal",
    "singular_matrix",
    "shapovalov_gram",
    "sh_quotient",
]


class NonSeparatingError(ValueError):
    """Weight data violates: sum(m) - 2l + 1 + i != 0 for i = 1..l."""


def _check_z(z):
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if z[i] == z[j]:
                raise ValueError(f"marked points must be distinct, z[{i}] == z[{j}]")


@dataclass(frozen=True)
class ProblemInstance:
    """Weight data m, level l, and marked points z.

    z entries are either all exact rationals (ints, Fractions, 'p/q'
    strings) or all floats/complex; the choice fixes the scalar domain of
    every matrix built from the instance.  (m, l) must be separating
    (NonSeparatingError otherwise).
    """

    m: tuple
    l: int
    z: tuple

    def __init__(self, m, l, z):
        m = tuple(int(v) for v in m)
        if any(v < 0 for v in m):
            raise ValueError("highest-weight parameters m_s must be >= 0")
        l = int(l)
        if l < 0:
            raise ValueError("l must be >= 0")
        if len(z) != len(m):
            raise ValueError("z and m must have the same length")
        if all(is_exact_scalar(v) or isinstance(v, str) for v in z):
            z = tuple(as_exact(v) for v in z)
        else:
            z = tuple(complex(v) for v in z)
        _check_z(z)
        for i in range(1, l + 1):
            if sum(m) - 2 * l + 1 + i == 0:
                raise NonSeparatingError(
                    f"sum(m) - 2l + 1 + {i} = 0: the pair (m, l) is not separating"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def ltilde(self) -> int:
        return sum(self.m) + 1 - self.l

    @property
    def exact(self) -> bool:
        return bool(self.z) and isinstance(self.z[0], Fraction)

    def zproduct(self, c, powers) -> UniPoly:
        """c * prod_s (x - z_s)^{powers[s]}; the factors multiply onto c in order
        of s, which fixes the float lane's rounding."""
        one = scalar_one(self.exact)
        p = UniPoly.const(c)
        for zs, k in zip(self.z, powers):
            for _ in range(k):
                p = p * UniPoly((-zs, one))
        return p

    @cached_property
    def zpolys(self) -> tuple:
        """(A, B, (A_1, ..., A_n)), built once per instance.

        A = prod_s (x - z_s) and A_s = prod_{r != s} (x - z_r); B = -sum_s m_s A_s.
        A and B lead the operator A d^2/dx^2 + B d/dx + C of both sides.
        """
        one = scalar_one(self.exact)
        A_s = tuple(self.zproduct(one, [int(r != s) for r in range(self.n)])
                    for s in range(self.n))
        B = UniPoly.zero()
        for ms, As in zip(self.m, A_s):
            B = B + As * (-ms)
        return self.zproduct(one, [1] * self.n), B, A_s

    @cached_property
    def dh_blocks(self) -> tuple:
        """(M0, M), built once per instance: D_h u = (M0 + sum_s h_s M[s]) u.

        On ascending coefficient vectors, column k of M0 holds
        A (x^k)'' + B (x^k)' and column k of M[s] holds A_s x^k, for
        k = 0..max(l, lt); D_h of a polynomial of degree d reads the leading
        (d + n) x (d + 1) block.  Entries are Fractions on an exact instance
        and complex otherwise; the arrays are read-only.
        """
        A, B, A_s = self.zpolys
        n, deg = self.n, max(self.l, self.ltilde, 0)
        one = scalar_one(self.exact)
        M0 = zeros_like_domain((deg + n, deg + 1), self.exact)
        M = zeros_like_domain((n, deg + n, deg + 1), self.exact)
        for k in range(deg + 1):
            u = UniPoly.monomial(k, one)
            w = A * u.deriv().deriv() + B * u.deriv()
            M0[:len(w.coeffs), k] = w.coeffs
            for s, As in enumerate(A_s):
                M[s, k:k + len(As.coeffs), k] = As.coeffs
        M0.setflags(write=False)
        M.setflags(write=False)
        return M0, M

    @cached_property
    def kernel_pair_polys(self) -> tuple:
        """(W, den, extra), built once per instance.

        W = (lt - l) prod_s (x - z_s)^{m_s} is the Wronskian of a kernel pair
        on the cycle; den = (lt - l) prod_s (x - z_s)^{max(m_s - 1, 0)}
        divides each coefficient of the pair's operator once it is
        multiplied by extra = prod_{m_s = 0} (x - z_s).
        """
        one = scalar_one(self.exact)
        c = one * (self.ltilde - self.l)
        return (self.zproduct(c, self.m),
                self.zproduct(c, [max(ms - 1, 0) for ms in self.m]),
                self.zproduct(one, [int(ms == 0) for ms in self.m]))

    @cached_property
    def kernel_pair_maps(self) -> tuple:
        """(quo, rem), built once per instance: b -> (b * extra) divmod den.

        On ascending coefficient vectors of b, of degree up to sum(m) (the
        degree of a kernel pair's Wronskian), quo gives the n + 1
        coefficients of the quotient and rem the deg(den) of the remainder
        (den, extra from kernel_pair_polys).  Needs lt > l.
        """
        _, den, extra = self.kernel_pair_polys
        one = scalar_one(self.exact)
        quo = zeros_like_domain((self.n + 1, sum(self.m) + 1), self.exact)
        rem = zeros_like_domain((den.degree, sum(self.m) + 1), self.exact)
        for k in range(sum(self.m) + 1):
            q, r = (UniPoly.monomial(k, one) * extra).divmod(den)
            quo[:len(q.coeffs), k] = q.coeffs
            rem[:len(r.coeffs), k] = r.coeffs
        return quo, rem

    @cached_property
    def partial_fractions(self) -> np.ndarray:
        """n x (n - 1) matrix of g -> (g(z_s) / prod_{r != s}(z_s - z_r))_s on
        ascending coefficients of g (degree up to n - 2), built once."""
        P = zeros_like_domain((self.n, max(self.n - 1, 0)), self.exact)
        for s, zs in enumerate(self.z):
            den = scalar_one(self.exact)
            for r, zr in enumerate(self.z):
                if r != s:
                    den = den * (zs - zr)
            for j in range(self.n - 1):
                P[s, j] = zs ** j / den
        return P

    @cached_property
    def marked_exponents(self) -> tuple:
        """Indicial roots (0, 1 - B(z_s)/A'(z_s)) at each marked point, once
        per instance; they do not depend on h, and B = -sum m_s A_s makes
        them (0, m_s + 1)."""
        A, B, _ = self.zpolys
        dA = A.deriv()
        out = []
        for zs in self.z:
            p0 = B(zs) / dA(zs)
            out.append((0 * p0, 1 - p0))
        return tuple(out)

    def to_float(self) -> "ProblemInstance":
        return ProblemInstance(self.m, self.l, tuple(as_float(v) for v in self.z))


def weight_space_dim(n: int, k: int) -> int:
    if k < 0:
        return 0
    return math.comb(k + n - 1, n - 1)


@cache
def _weight_basis(n: int, k: int):
    """(basis, position of each multi-index) of the level-k weight space of
    n factors, built once per (n, k) and shared: callers must not mutate
    the position map."""
    basis = tuple(sorted(_compositions(k, n), key=lambda j: j[::-1])) if k >= 0 else ()
    return basis, {j: i for i, j in enumerate(basis)}


def _compositions(k, n):
    if n == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


def generator_matrix(inst: ProblemInstance, a: int, b: int, s: int, k: int) -> np.ndarray:
    """Matrix of e_ab^{(s)} from level k to its target level, as int64.

    (1,2) lowers the level by one, (2,1) raises it, diagonal generators
    preserve it; e22 is the zero operator in this model.  Rows are indexed
    by the target-level basis, columns by the level-k basis.
    """
    if (a, b) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
        raise ValueError("generator indices must be in {1,2}")
    if not 0 <= s < inst.n:
        raise ValueError("factor index out of range")
    ms = inst.m[s]
    src, _ = _weight_basis(inst.n, k)
    if (a, b) == (1, 2):
        tgt, tpos = _weight_basis(inst.n, k - 1)
        M = np.zeros((len(tgt), len(src)), dtype=np.int64)
        for c, j in enumerate(src):
            if j[s] == 0:
                continue
            jj = j[:s] + (j[s] - 1,) + j[s + 1:]
            M[tpos[jj], c] = j[s] * (ms - j[s] + 1)
        return M
    if (a, b) == (2, 1):
        tgt, tpos = _weight_basis(inst.n, k + 1)
        M = np.zeros((len(tgt), len(src)), dtype=np.int64)
        for c, j in enumerate(src):
            jj = j[:s] + (j[s] + 1,) + j[s + 1:]
            M[tpos[jj], c] = 1
        return M
    M = np.zeros((len(src), len(src)), dtype=np.int64)
    if (a, b) == (1, 1):
        for c, j in enumerate(src):
            M[c, c] = ms - 2 * j[s]
    return M


def degree_diagonal(inst: ProblemInstance, s: int, k: int) -> np.ndarray:
    """Diagonal matrix of the degree in factor s on the level-k basis, as int64.

    This is the untwisted action of e22^{(s)} (equivalently m_s minus the
    untwisted e11^{(s)}); the model above stores weights in shifted form,
    and operators quadratic in the diagonal generators need this matrix.
    """
    src, _ = _weight_basis(inst.n, k)
    return np.diag(np.array([j[s] for j in src], dtype=np.int64))


@dataclass(frozen=True)
class WeightVector:
    """Element of the level-k weight space as a monomial-coefficient map."""

    coeffs: tuple          # ((multi_index, coefficient), ...)
    k: int

    @staticmethod
    def from_dict(d: dict, k: int) -> "WeightVector":
        items = tuple(sorted(((j, c) for j, c in d.items() if c),
                             key=lambda t: t[0][::-1]))
        for j, _ in items:
            if sum(j) != k:
                raise ValueError("multi-index level mismatch")
        return WeightVector(items, k)

    @staticmethod
    def from_array(v, inst: ProblemInstance, k: int) -> "WeightVector":
        # the level-k basis is already in from_dict's order
        basis = _weight_basis(inst.n, k)[0]
        return WeightVector(tuple((j, c) for j, c in zip(basis, v) if c), k)

    def to_array(self, inst: ProblemInstance) -> np.ndarray:
        basis, pos = _weight_basis(inst.n, self.k)
        exact = all(is_exact_scalar(c) or isinstance(c, Fraction) for _, c in self.coeffs)
        v = zeros_like_domain((len(basis),), exact)
        for j, c in self.coeffs:
            v[pos[j]] = c
        return v


def singular_matrix(inst: ProblemInstance) -> np.ndarray:
    """Columns spanning ker E12 inside the level-l space (exact): the
    rref_kernel basis, found by eliminating the integer E12."""
    E12 = sum(generator_matrix(inst, 1, 2, s, inst.l) for s in range(inst.n))
    return fraction_array(*int_kernel(*int_rref(E12)))


def shapovalov_gram(inst: ProblemInstance, k: int) -> np.ndarray:
    """Gram matrix of the tensor contravariant form on the level-k basis.

    Diagonal in the monomial basis; the entry at multi-index j is
    prod_s [ j_s! * prod_{r=0}^{j_s-1} (m_s - r) ], which is the unique
    normalization making e12 and e21 mutually adjoint with <v, v> = 1
    on the highest-weight vector.  Entries are integers (an int_array).
    """
    vals = [math.prod(math.factorial(js) * math.perm(ms, js) for ms, js in zip(inst.m, j))
            for j in _weight_basis(inst.n, k)[0]]
    return int_array(np.diag(np.array(vals, dtype=object)))


@dataclass(frozen=True)
class ShQuotient:
    """The singular subspace and its quotient by the radical of the Gram form.

    sing holds the level-l coordinates of the singular basis (columns span
    ker E12) and gram the Shapovalov Gram matrix on the level-l basis;
    gram_sing is the Gram form on the singular basis.  sh is the projection
    in singular-basis coordinates (dim_L x dim_SingM); lift is a right
    inverse embedding the quotient back (sh @ lift = I); radical columns
    span ker(sh).  free[j] is the row on which column j of sing is the unit
    vector, so the singular-basis coordinates of v in Sing are v[free].
    numerators maps each array field's name to (N, D): the exact field is
    N / D, N an integer array and D the lcm of the field's denominators
    (numerator_array's form).
    """

    sing: np.ndarray
    gram: np.ndarray
    sh: np.ndarray
    lift: np.ndarray
    radical: np.ndarray
    gram_sing: np.ndarray
    free: np.ndarray
    numerators: dict

    @property
    def dim(self) -> int:
        return self.sh.shape[0]


def sh_quotient(inst: ProblemInstance) -> ShQuotient:
    """The exact ShQuotient of inst's (m, l), computed on integer numerators;
    the Fraction fields are formed once, at the end."""
    S = singular_matrix(inst)
    NG = shapovalov_gram(inst, inst.l)
    NS, DS = numerator_array(S)
    # R = S^T G S = NR / DS^2
    NR = int_matmul(int_matmul(NS.T, NG), NS)
    # R is symmetric, so the nonzero rows of rref(R) vanish on ker R and are
    # the identity on the pivot columns: they are the quotient map
    NP, pivots, d = int_rref(NR)
    NC = np.zeros((NS.shape[1], len(pivots)), dtype=np.int64)
    NC[pivots, range(len(pivots))] = 1
    nums = {"sing": (NS, DS), "gram": (NG, 1), "sh": lowest_terms(NP, d), "lift": (NC, 1),
            "radical": lowest_terms(*int_kernel(NP, pivots, d)),
            "gram_sing": lowest_terms(NR, DS * DS)}
    arrays = {name: fraction_array(N, D) for name, (N, D) in nums.items() if name != "sing"}
    # S is rref_kernel's basis: column j is 1 on its free row, its last nonzero entry
    free = np.array([np.flatnonzero(NS[:, j])[-1] for j in range(NS.shape[1])], dtype=int)
    free.flags.writeable = False
    return ShQuotient(sing=S, free=free, numerators=nums, **arrays)
