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
algebra; the singular basis and the Shapovalov quotient (ShQuotient) are
kept as integer numerators, each field formed in the lane that reads it.

The operator side's z-dependent data, polynomials in prod_s (x - z_s), is
built here too: z_tables forms every table of a stack of instances of one
(m, l) at once (ZTables), and ProblemInstance reads its own at S = 1.  It
runs CPython's scalar arithmetic on object arrays of Fractions or complex,
and float tables become complex128 once, when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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
    every matrix built from the instance, and exact records it.  (m, l) must
    be separating (NonSeparatingError otherwise).  Instances are equal when
    their data and lane are: an exact instance is not its float twin.
    """

    m: tuple
    l: int
    z: tuple
    exact: bool = field(init=False, repr=False)

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
        object.__setattr__(self, "exact", bool(z) and isinstance(z[0], Fraction))

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def ltilde(self) -> int:
        return sum(self.m) + 1 - self.l

    @cached_property
    def tables(self) -> "ZTables":
        """This instance's z-tables (z_tables at S = 1), built on first read;
        the properties below read them."""
        return _build_tables([self])

    @property
    def zpolys(self) -> tuple:
        """(A, B, (A_1, ..., A_n)) as UniPolys: A = prod_s (x - z_s),
        A_s = prod_{r != s} (x - z_r) and B = -sum_s m_s A_s, which lead the
        operator A d^2/dx^2 + B d/dx + C of both sides."""
        t = self.tables
        return UniPoly(t.A[0].tolist()), UniPoly(t.B[0].tolist()), \
            tuple(UniPoly(row) for row in t.A_s[0].tolist())

    @property
    def dh_blocks(self) -> tuple:
        """(M0, M): D_h u = (M0 + sum_s h_s M[s]) u (ZTables.M0, ZTables.M)."""
        return self.tables.M0[0], self.tables.M[0]

    @property
    def kernel_pair_polys(self) -> tuple:
        """(W, den, extra) as UniPolys (ZTables.W, .den, .extra)."""
        t = self.tables
        return tuple(UniPoly(c[0].tolist()) for c in (t.W, t.den, t.extra))

    @property
    def partial_fractions(self) -> np.ndarray:
        """g -> (g(z_s) / prod_{r != s}(z_s - z_r))_s (ZTables.partial_fractions)."""
        return self.tables.partial_fractions[0]

    @property
    def marked_exponents(self) -> tuple:
        """Indicial roots (0, m_s + 1) at each marked point, as computed
        (ZTables.marked_exponents)."""
        return tuple(map(tuple, self.tables.marked_exponents[0].tolist()))

    def to_float(self) -> "ProblemInstance":
        return ProblemInstance(self.m, self.l, tuple(as_float(v) for v in self.z))


def _zeros(shape, exact: bool) -> np.ndarray:
    """An object array of the lane's zero, Fraction(0) or 0j."""
    X = np.empty(shape, dtype=object)
    X[...] = Fraction(0) if exact else 0j
    return X


def _gather(X, index, exact: bool):
    """X (S x k) at the positions index (any shape) along its last axis, and
    0 where index is -1."""
    return np.concatenate([X, _zeros((len(X), 1), exact)], axis=1)[:, index]


def _products(Z, c, powers, exact: bool):
    """Row i: c[i] * prod_s (x - z_s)^{powers[i][s]} at each row of Z
    (S x n), as ascending coefficients (S x rows x (1 + max degree)).

    The factors multiply onto c in order of s, every row that takes a
    factor in one step, and each product adds its terms as UniPoly does:
    from 0, in ascending order of the left factor's coefficients.  A row's
    zero coefficients above its degree change nothing.
    """
    powers, one = np.array(powers), scalar_one(exact)
    P = _zeros((len(Z), len(c), 1 + powers.sum(axis=1).max()), exact)
    P[:, :, 0] = np.array(c, dtype=object)
    deg = np.zeros(len(c), dtype=int)
    for s in range(Z.shape[1]):
        for rep in range(powers[:, s].max(initial=0)):
            grow = powers[:, s] > rep
            deg += grow
            w = deg.max()
            Q, out = P[:, :, :w], _zeros((len(Z), len(c), w + 1), exact)
            out[:, :, 1:] = out[:, :, 1:] + Q * one
            out[:, :, :w] = out[:, :, :w] + Q * -Z[:, s, None, None]
            P[:, :, :w + 1] = np.where(grow[:, None], out, P[:, :, :w + 1])
    return P


def _power(x, j: int, exact: bool):
    """x ** j for an integer j >= 0, by CPython's binary powering (c_powi),
    one product at a time: a product that overflows is inf, where complex
    ** raises OverflowError."""
    r, mask = scalar_one(exact), 1
    while mask <= j:
        if j & mask:
            r = x * r
        mask <<= 1
        x = x * x
    return r


def _horner(C, x, exact: bool):
    """The polynomials of ascending coefficients C (S x k) at each column of
    x (S x n), by Horner's rule from 0, as UniPoly evaluates them."""
    acc = _zeros(x.shape, exact)
    for j in range(C.shape[1] - 1, -1, -1):
        acc = acc * x + C[:, j, None]
    return acc


@dataclass(frozen=True, eq=False, repr=False)
class ZTables:
    """Every z-dependent table of a stack of S instances of one (m, l) and
    one lane, each array with a leading sample axis (ascending coefficient
    vectors along its last axis):

    * z (S x n); A = prod_s (x - z_s) (S x (n + 1)); A_s = prod_{r != s}
      (x - z_r) (S x n x n, row s; also sov's W_s rows); B = -sum_s m_s A_s
      (S x n).  A and B lead the operator A d^2/dx^2 + B d/dx + C of both
      sides.
    * M0 and M, D_h u = (M0 + sum_s h_s M[s]) u on ascending coefficient
      vectors: column k of M0 holds A (x^k)'' + B (x^k)' and column k of
      M[s] holds A_s x^k, k = 0..max(l, lt) (S x (deg + n) x (deg + 1) and
      S x n x (deg + n) x (deg + 1)); D_h of a polynomial of degree d reads
      the leading (d + n) x (d + 1) block.
    * W = (lt - l) prod_s (x - z_s)^{m_s}, the Wronskian of a kernel pair on
      the cycle; den = (lt - l) prod_s (x - z_s)^{max(m_s - 1, 0)}, which
      divides each coefficient of the pair's operator once it is multiplied
      by extra = prod_{m_s = 0} (x - z_s).
    * quo and rem, b -> (b * extra) divmod den on ascending coefficients of
      b of degree up to sum(m): the n + 1 coefficients of the quotient and
      the deg(den) of the remainder (S x (n + 1) x (sum(m) + 1) and
      S x deg(den) x (sum(m) + 1)); None unless lt > l.
    * partial_fractions (S x n x (n - 1)): g -> (g(z_s) / prod_{r != s}
      (z_s - z_r))_s on ascending coefficients of g (degree up to n - 2).
    * marked_exponents (S x n x 2): the indicial roots (0 * p, 1 - p),
      p = B(z_s) / A'(z_s), at each marked point; B = -sum m_s A_s makes
      them (0, m_s + 1), and they do not depend on h.

    Entries are Fractions (object arrays) in the exact lane and complex128
    otherwise, each formed by CPython's scalar arithmetic, as UniPoly forms
    it; the arrays are read-only, and tables are not compared.
    """

    m: tuple
    l: int
    exact: bool
    z: np.ndarray
    A: np.ndarray
    B: np.ndarray
    A_s: np.ndarray
    M0: np.ndarray
    M: np.ndarray
    W: np.ndarray
    den: np.ndarray
    extra: np.ndarray
    quo: np.ndarray | None
    rem: np.ndarray | None
    partial_fractions: np.ndarray
    marked_exponents: np.ndarray

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def ltilde(self) -> int:
        return sum(self.m) + 1 - self.l

    def __len__(self) -> int:
        return len(self.z)

    def take(self, index) -> "ZTables":
        """The tables of the samples index (a sequence of sample positions)."""
        return replace(self, **{f.name: v[index] for f in fields(self)
                                if isinstance(v := getattr(self, f.name), np.ndarray)})


def z_tables(insts) -> ZTables:
    """The ZTables of insts (one (m, l), one lane), sample i holding
    insts[i]'s; each distinct instance is built once, one instance alone
    reads its own cached tables (ProblemInstance.tables)."""
    pos = {}
    for f in insts:
        pos.setdefault(id(f), (len(pos), f))
    distinct = [f for _, f in pos.values()]
    tables = distinct[0].tables if len(distinct) == 1 else _build_tables(distinct)
    return tables if len(distinct) == len(insts) else \
        tables.take([pos[id(f)][0] for f in insts])


def _build_tables(insts) -> ZTables:
    """The one builder of the z-tables: every table of every instance of
    insts at once, each step one array operation over the stack."""
    f = insts[0]
    m, l, n, lt, exact = f.m, f.l, f.n, f.ltilde, f.exact
    if any((g.m, g.l, g.exact) != (m, l, exact) for g in insts):
        raise ValueError("one table stack holds instances of one (m, l) and one lane")
    S, one, deg = len(insts), scalar_one(exact), max(l, lt, 0)
    Z = np.array([g.z for g in insts], dtype=object).reshape(S, n)

    # A, the A_s, W, den and extra, as one stack of products
    c = one * (lt - l)
    nz = sum(ms > 0 for ms in m)
    rows = [[1] * n] + [[int(r != s) for r in range(n)] for s in range(n)] + \
        [list(m), [max(ms - 1, 0) for ms in m], [int(ms == 0) for ms in m]]
    P = _products(Z, [one] * (n + 1) + [c, c, one], rows, exact)
    A, A_s, W = P[:, 0, :n + 1], P[:, 1:n + 1, :n], P[:, n + 1, :sum(m) + 1]
    den, extra = P[:, n + 2, :sum(m) - nz + 1], P[:, n + 3, :n - nz + 1]
    B = _zeros((S, n), exact)
    for s, ms in enumerate(m):
        B = B + A_s[:, s] * -ms

    # column k of M0: A (x^k)'' + B (x^k)', (x^k)'' = k(k-1) x^{k-2}, each
    # product added to 0
    t, k = np.arange(deg + n)[:, None], np.arange(deg + 1)[None, :]
    ia, ib = t - k + 2, t - k + 1
    M0 = (0 + _gather(A, np.where((k >= 2) & (ia >= 0) & (ia <= n), ia, -1), exact)
          * (k * (k - 1))) + \
        (0 + _gather(B, np.where((ib >= 0) & (ib < n), ib, -1), exact) * k)

    quo = rem = None
    if lt > l:
        # long division of x^k extra by den for every k at once; a row
        # shorter than the longest meets zero leading coefficients first,
        # which change nothing
        K, dd, e = sum(m) + 1, sum(m) - nz, n - nz + 1
        t, k = np.arange(K - 1 + e)[None, :], np.arange(K)[:, None]
        R = 0 + _gather(extra, np.where((t >= k) & (t < k + e), t - k, -1), exact) * one
        quo = _zeros((S, n + 1, K), exact)
        for kk in range(K - 2 + e, dd - 1, -1):
            q = R[:, :, kk] / den[:, dd, None]
            quo[:, kk - dd] = q
            R[:, :, kk - dd:kk + 1] = R[:, :, kk - dd:kk + 1] - q[:, :, None] * den[:, None, :]
        rem = R[:, :, :dd]

    # prod_{r != s} (z_s - z_r), multiplied in order of r, at every s
    d, cols = one, np.arange(n)
    for r in range(n):
        d = np.where(cols != r, (Z - Z[:, r, None]) * d, d)
    P = _zeros((S, n, max(n - 1, 0)), exact)
    for j in range(n - 1):
        P[:, :, j] = _power(Z, j, exact) / d
    dA = _zeros((S, n), exact)
    for j in range(1, n + 1):
        dA[:, j - 1] = A[:, j] * j
    p0 = _horner(B, Z, exact) / _horner(dA, Z, exact)
    marked = (p0 * 0, 1 - p0)

    def final(X):
        return None if X is None else np.ascontiguousarray(X, dtype=None if exact else complex)

    out = {name: final(X) for name, X in (
        ("z", Z), ("A", A), ("B", B), ("A_s", A_s), ("M0", M0), ("W", W), ("den", den),
        ("extra", extra), ("quo", quo), ("partial_fractions", P))}
    out["rem"] = None if rem is None else np.ascontiguousarray(final(rem).transpose(0, 2, 1))
    out["marked_exponents"] = np.stack([final(X) for X in marked], axis=2)
    # column k of M[s]: A_s x^k
    out["M"] = zeros_like_domain((S, n, deg + n, deg + 1), exact)
    for k in range(deg + 1):
        out["M"][:, :, k:k + n, k] = out["A_s"]
    for X in out.values():
        if X is not None:
            X.flags.writeable = False
    return ZTables(m=m, l=l, exact=exact, **out)


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


def _singular_numerators(inst: ProblemInstance):
    """(N, D), N / D the rref_kernel basis of ker E12 inside the level-l space
    in numerator_array's form, found by eliminating the integer E12."""
    E12 = sum(generator_matrix(inst, 1, 2, s, inst.l) for s in range(inst.n))
    return lowest_terms(*int_kernel(*int_rref(E12)))


def singular_matrix(inst: ProblemInstance) -> np.ndarray:
    """Columns spanning ker E12 inside the level-l space (exact): the
    rref_kernel basis."""
    return fraction_array(*_singular_numerators(inst))


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


class _NumeratorField:
    """An array field of ShQuotient, formed from its integer numerators the
    first time it is read and kept, read-only: N / D as Fractions in the
    exact lane, else each entry's N / D divided as integers, which rounds
    once (as to_float_array rounds a Fraction)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, q, owner=None):
        if q is None:
            return self
        if self.name not in q.__dict__:
            N, D = q.numerators[self.name]
            A = fraction_array(N, D) if q.exact else \
                np.array([x / D for x in N.reshape(-1).tolist()], dtype=complex).reshape(N.shape)
            A.flags.writeable = False
            q.__dict__[self.name] = A
        return q.__dict__[self.name]


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
    (numerator_array's form).  The array fields are formed from numerators
    when first read (_NumeratorField): Fraction arrays if exact, complex
    arrays otherwise.
    """

    numerators: dict
    free: np.ndarray
    exact: bool = True

    sing, gram, sh, lift, radical, gram_sing = (_NumeratorField() for _ in range(6))

    @property
    def dim(self) -> int:
        return self.numerators["sh"][0].shape[0]


def sh_quotient(inst: ProblemInstance) -> ShQuotient:
    """The exact ShQuotient of inst's (m, l), computed on integer numerators."""
    NS, DS = _singular_numerators(inst)
    NG = shapovalov_gram(inst, inst.l)
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
    # S is rref_kernel's basis: column j is 1 on its free row, its last nonzero entry
    free = np.array([np.flatnonzero(NS[:, j])[-1] for j in range(NS.shape[1])], dtype=int)
    free.flags.writeable = False
    return ShQuotient(numerators=nums, free=free)
