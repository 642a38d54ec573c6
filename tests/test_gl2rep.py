from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab import (
    NonSeparatingError,
    ProblemInstance,
    generator_matrix,
    sh_quotient,
    shapovalov_gram,
    weight_space_dim,
)
from gaudinlab.gl2rep import WeightVector, _weight_basis, degree_diagonal, singular_matrix
from gaudinlab.numcore import (
    fraction_array,
    kernel_basis,
    matmul,
    max_abs,
    numerator_array,
    rank_of,
    rref,
    rref_kernel,
    zeros_like_domain,
)

from conftest import load_perfbench, random_exact_instance, random_rational_z


def cg_multiplicity_bruteforce(m, l):
    """Independent oracle: multiplicity of the top-weight w = sum(m) - 2l
    component, counted as (# weight-w states) - (# weight-(w+2) states)
    over all tuples of single-factor weights."""
    target = sum(m) - 2 * l

    def count(w):
        acc = {0: 1}
        for ms in m:
            nxt = {}
            for tot, c in acc.items():
                for ws in range(-ms, ms + 1, 2):
                    nxt[tot + ws] = nxt.get(tot + ws, 0) + c
            acc = nxt
        return acc.get(w, 0)

    if target < 0:
        return 0
    return count(target) - count(target + 2)


class TestProblemInstance:
    def test_distinct_z_enforced(self):
        with pytest.raises(ValueError):
            ProblemInstance([1, 1], 1, [0, 0])

    def test_separating_enforced(self):
        # sum(m) - 2l + 1 + i = 0 at i = 1 for m=(1,1), l=2
        with pytest.raises(NonSeparatingError):
            ProblemInstance([1, 1], 2, [0, 1])

    def test_ltilde_and_dominant(self, E3):
        # lt - l = sum(m) - 2l + 1: lt > l exactly on dominant weights
        assert E3.ltilde == 3 > E3.l
        nondominant = ProblemInstance([1, 2], 2, [0, 1])
        assert nondominant.ltilde == 2 == nondominant.l

    def test_domains(self, E1):
        assert E1.exact
        assert not E1.to_float().exact

    def test_float_twin_of_a_float_instance_is_itself(self, E1):
        # one object per float instance, which z_tables dedupes by identity
        twin = E1.to_float()
        assert twin.to_float() is twin
        assert twin.z == (0j, 1 + 0j) and E1.to_float() is not twin

    def test_equality_and_hash_keep_the_lane(self):
        # Fraction(k) == complex(k) and their hashes agree, so comparing z
        # alone would make an exact instance equal to its float twin
        exact = ProblemInstance([1, 1], 1, [0, 1])
        twin = exact.to_float()
        assert exact != twin and hash(exact) != hash(twin)
        assert {exact: "exact"}.get(twin) is None
        assert exact == ProblemInstance([1, 1], 1, ["0", F(1)])
        assert hash(exact) == hash(ProblemInstance([1, 1], 1, ["0", F(1)]))
        assert twin == ProblemInstance([1, 1], 1, [0.0, 1 + 0j])
        assert "exact" not in repr(exact)


class TestWeightBasis:
    def test_examples(self, E1, E2):
        assert _weight_basis(E1.n, 1)[0] == ((1, 0), (0, 1))
        assert _weight_basis(E1.n, 0)[0] == ((0, 0),)
        assert len(_weight_basis(E2.n, 1)[0]) == 3

    def test_count_and_order_deterministic(self, rng):
        for _ in range(8):
            n, k = int(rng.integers(2, 6)), int(rng.integers(0, 5))
            inst = ProblemInstance([1] * n, 0, random_rational_z(rng, n))
            basis = _weight_basis(inst.n, k)[0]
            assert len(basis) == weight_space_dim(n, k)
            assert all(sum(j) == k for j in basis)
            assert list(basis) == sorted(basis, key=lambda j: j[::-1])


class TestGenerators:
    def test_e21_on_vacuum(self, E1):
        M = generator_matrix(E1, 2, 1, 0, 0)
        assert M.shape == (2, 1) and M[0, 0] == 1 and M[1, 0] == 0

    def test_e12_on_x1(self, E1):
        M = generator_matrix(E1, 1, 2, 0, 1)
        assert M[0, 0] == F(1) and M[0, 1] == 0

    def test_e11_on_x1(self, E1):
        M = generator_matrix(E1, 1, 1, 0, 1)
        assert M[0, 0] == F(-1)

    def test_e22_is_zero(self, E3):
        assert max_abs(generator_matrix(E3, 2, 2, 1, 2)) == 0.0

    def test_commutation_e12_e21(self, rng):
        # [e12, e21] = e11 per factor, level by level
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=15)
            k = inst.l
            for s in range(inst.n):
                up = generator_matrix(inst, 2, 1, s, k)
                dn = generator_matrix(inst, 1, 2, s, k + 1)
                dn0 = generator_matrix(inst, 1, 2, s, k)
                up0 = generator_matrix(inst, 2, 1, s, k - 1)
                comm = dn @ up - (up0 @ dn0 if k > 0 else 0 * (dn @ up))
                assert max_abs(comm - generator_matrix(inst, 1, 1, s, k)) == 0.0

    def test_total_e11_eigenvalue(self, rng):
        # sum_s e11^(s) acts on level l as (sum m - 2l) Id, and the factor
        # degrees sum to l: the weight bookkeeping of the model.
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=15)
            l, d = inst.l, weight_space_dim(inst.n, inst.l)
            tot = sum(generator_matrix(inst, 1, 1, s, l) for s in range(inst.n))
            degs = sum(degree_diagonal(inst, s, l) for s in range(inst.n))
            for i in range(d):
                assert tot[i, i] == sum(inst.m) - 2 * l
                assert degs[i, i] == l


def singular_vectors(inst):
    """The columns of singular_matrix, as WeightVectors."""
    S = singular_matrix(inst)
    return [WeightVector.from_array(S[:, j], inst, inst.l) for j in range(S.shape[1])]


class TestSingularBasis:
    def test_E1_span(self, E1):
        (v,) = singular_vectors(E1)
        c = dict(v.coeffs)
        assert c[(1, 0)] == -c[(0, 1)] != 0

    def test_l0(self):
        inst = ProblemInstance([2, 1], 0, [0, 1])
        (v,) = singular_vectors(inst)
        assert dict(v.coeffs) == {(0, 0): F(1)}

    def test_E2_dim(self, E2):
        assert len(singular_vectors(E2)) == 2

    def test_dimension_count_sampled(self, rng):
        # dim = C(l+n-1, n-1) - C(l+n-2, n-1) across the desk-scale box
        seen = 0
        while seen < 12:
            n = int(rng.integers(2, 6))
            m = [int(rng.integers(0, 5)) for _ in range(n)]
            l = int(rng.integers(0, 7))
            if weight_space_dim(n, l) > 60:
                continue
            try:
                inst = ProblemInstance(m, l, random_rational_z(rng, n))
            except NonSeparatingError:
                continue
            seen += 1
            expect = weight_space_dim(n, l) - weight_space_dim(n, l - 1)
            assert singular_matrix(inst).shape[1] == expect

    def test_dimension_top_corner(self):
        inst = ProblemInstance([4, 4, 4, 4, 4], 6, [0, 1, 2, 3, 4])
        assert singular_matrix(inst).shape[1] == \
            weight_space_dim(5, 6) - weight_space_dim(5, 5)


def monomial_image(inst, a, b, s, j):
    """{multi-index: Fraction} of e_ab^(s) on the monomial x^j, read off the
    model's differential operators on factor s: e12 = -x d^2/dx^2 + m d/dx,
    e21 = x, e11 = -2x d/dx + m, e22 = 0."""
    m, js = F(inst.m[s]), j[s]

    def shifted(d):
        return j[:s] + (js + d,) + j[s + 1:]

    if (a, b) == (1, 2):
        return {shifted(-1): -js * (js - 1) + m * js} if js else {}
    if (a, b) == (2, 1):
        return {shifted(1): F(1)}
    if (a, b) == (1, 1):
        return {j: -2 * js + m}
    return {}


def gram_entry(inst, j):
    """<x^j, x^j> as a Fraction: prod_s prod_{r < j_s} (r + 1) (m_s - r),
    which is 0 once j_s > m_s."""
    out = F(1)
    for ms, js in zip(inst.m, j):
        for r in range(js):
            out *= F((r + 1) * (ms - r))
    return out


def assert_integers_equal(M, want):
    assert M.shape == want.shape
    assert all(type(x) is int for x in M.reshape(-1).tolist())
    assert all(x == y for x, y in zip(M.reshape(-1).tolist(), want.reshape(-1).tolist()))


class TestIntegerBuilders:
    """Each builder's integers against a Fraction formula, entry for entry."""

    @pytest.mark.parametrize("m, l", [((1, 1), 1), ((2, 0, 3), 2), ((3, 1, 2, 1), 3)])
    def test_generator_and_degree_matrices(self, m, l):
        inst = ProblemInstance(m, l, list(range(len(m))))
        for k in range(l + 2):
            src = _weight_basis(inst.n, k)[0]
            for s in range(inst.n):
                for a, b in ((1, 2), (2, 1), (1, 1), (2, 2)):
                    tgt, pos = _weight_basis(inst.n, k + {(1, 2): -1, (2, 1): 1}.get((a, b), 0))
                    want = np.full((len(tgt), len(src)), F(0), dtype=object)
                    for c, j in enumerate(src):
                        for jj, v in monomial_image(inst, a, b, s, j).items():
                            want[pos[jj], c] = v
                    M = generator_matrix(inst, a, b, s, k)
                    assert M.dtype == np.int64
                    assert_integers_equal(M, want)
                D = degree_diagonal(inst, s, k)
                assert D.dtype == np.int64
                assert_integers_equal(D, np.diag([F(j[s]) for j in src]))

    @pytest.mark.parametrize("m, l", [((2, 0, 3), 2), ((3, 1, 2, 1), 3), ((30, 30), 30)])
    def test_shapovalov_gram(self, m, l):
        # at (30, 30), l = 30 the entries reach 30!^2, past int64
        inst = ProblemInstance(m, l, list(range(len(m))))
        for k in range(l + 2):
            want = [gram_entry(inst, j) for j in _weight_basis(inst.n, k)[0]]
            G = shapovalov_gram(inst, k)
            assert_integers_equal(G, np.diag(want))
            assert G.dtype == (np.int64 if max(want) < 2**63 else object)


class TestShapovalov:
    def test_examples(self):
        i1 = ProblemInstance([2], 0, [0])
        assert shapovalov_gram(i1, 0)[0, 0] == 1
        assert shapovalov_gram(i1, 1)[0, 0] == 2
        assert shapovalov_gram(i1, 3)[0, 0] == 0

    def test_adjointness_recursion(self, rng):
        # Gram(k+1) e21 = e12^T Gram(k): the defining contravariance, an
        # independent check of the closed diagonal formula.
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=20)
            for s in range(inst.n):
                for k in range(inst.l + 2):
                    lhs = shapovalov_gram(inst, k + 1) @ generator_matrix(inst, 2, 1, s, k)
                    rhs = generator_matrix(inst, 1, 2, s, k + 1).T @ shapovalov_gram(inst, k)
                    assert max_abs(lhs - rhs) == 0.0


class TestShQuotient:
    def test_E1_injective(self, E1):
        q = sh_quotient(E1)
        assert q.dim == 1 and q.radical.shape[1] == 0

    def test_nondominant_killed(self):
        q = sh_quotient(ProblemInstance([1, 2], 2, [0, 1]))
        assert q.dim == 0 and q.radical.shape[1] == 1

    def test_four_spins(self):
        q = sh_quotient(ProblemInstance([1, 1, 1, 1], 2, [0, 1, 2, 3]))
        assert q.dim == 2

    def test_projection_section(self, rng):
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=20)
            q = sh_quotient(inst)
            if q.dim:
                assert max_abs(q.sh @ q.lift - np.diag([F(1)] * q.dim)) == 0.0
            if q.radical.shape[1]:
                assert max_abs(q.sh @ q.radical) == 0.0

    def test_radical_spans_kernel_of_gram(self, rng):
        # the radical is read off the same elimination as the quotient map
        for _ in range(8):
            inst = random_exact_instance(rng, max_level_dim=20)
            q = sh_quotient(inst)
            k = q.radical.shape[1]
            assert q.dim + k == q.gram_sing.shape[0]
            if k:
                assert max_abs(q.gram_sing @ q.radical) == 0.0
                assert rank_of(q.radical) == k

    @pytest.mark.parametrize("m, l", [((1,) * 5, 2), ((2,) * 4, 3)])
    def test_gram_sing_equals_object_product(self, m, l):
        # the integer-numerator product against object @ with a Fraction per term
        q = sh_quotient(ProblemInstance(m, l, list(range(len(m)))))
        want = q.sing.T @ q.gram @ q.sing
        assert q.gram_sing.shape == want.shape
        for got, ref in zip(q.gram_sing.flat, want.flat):
            assert got == ref and type(got) is F

    def test_matches_tensor_multiplicity_oracle(self, rng):
        for _ in range(10):
            inst = random_exact_instance(rng, max_level_dim=24)
            assert sh_quotient(inst).dim == cg_multiplicity_bruteforce(inst.m, inst.l)


def fraction_sh_quotient(inst):
    """Reference: the ShQuotient fields by Fraction arithmetic, from the
    integer generator and Gram matrices, taken as Fractions, through
    kernel_basis, matmul and rref."""
    E12 = fraction_array(sum(generator_matrix(inst, 1, 2, s, inst.l) for s in range(inst.n)), 1)
    cols = kernel_basis(E12)
    S = np.empty((weight_space_dim(inst.n, inst.l), len(cols)), dtype=object)
    for j, v in enumerate(cols):
        S[:, j] = v
    G = fraction_array(shapovalov_gram(inst, inst.l), 1)
    R = matmul(matmul(S.T, G), S)
    Rr, pivots = rref(R)
    ker = rref_kernel(Rr, pivots)
    lift = zeros_like_domain((S.shape[1], len(pivots)), True)
    for c, p in enumerate(pivots):
        lift[p, c] = F(1)
    radical = np.empty((S.shape[1], len(ker)), dtype=object)
    for c, v in enumerate(ker):
        radical[:, c] = v
    return {"sing": S, "gram": G, "sh": Rr[:len(pivots)], "lift": lift,
            "radical": radical, "gram_sing": R}


class TestIntegerShQuotient:
    def test_matches_fraction_reference_on_sweep_universe(self):
        # every 7th instance of the benchmark's exact-sweep universe; the
        # quotient does not read z
        universe = load_perfbench("workloads").sweep_universe()
        for m, l in universe[::7]:
            inst = ProblemInstance(m, l, list(range(len(m))))
            q, want = sh_quotient(inst), fraction_sh_quotient(inst)
            assert set(q.numerators) == set(want)
            for name, ref in want.items():
                got = getattr(q, name)
                assert got.shape == ref.shape, (m, l, name)
                for x, y in zip(got.flat, ref.flat):
                    assert x == y and type(x) is F, (m, l, name)
                N, D = q.numerators[name]
                N_ref, D_ref = numerator_array(ref)
                assert D == D_ref and np.array_equal(N, N_ref), (m, l, name)


class TestWeightVector:
    def test_roundtrip(self, E2):
        # from_array keeps the nonzero coefficients, each at its basis
        # multi-index, as from_dict does
        arr = np.array([F(1), F(-2), F(0)], dtype=object)
        wv = WeightVector.from_array(arr, E2, 1)
        basis, pos = _weight_basis(E2.n, 1)
        assert wv == WeightVector.from_dict(dict(zip(basis, arr)), 1)
        back = np.array([F(0)] * len(basis), dtype=object)
        for j, c in wv.coeffs:
            back[pos[j]] = c
        assert (back == arr).all()

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            WeightVector.from_dict({(1, 0): F(1), (2, 0): F(1)}, 1)


class TestWeightSpaceBasis:
    def test_shared_basis_is_immutable(self, E2):
        # one basis per (n, k), shared by every caller: a tuple, which no
        # caller can reorder under the coordinates of another
        basis, pos = _weight_basis(E2.n, 2)
        assert isinstance(basis, tuple) and _weight_basis(E2.n, 2)[0] is basis
        assert [pos[j] for j in basis] == list(range(len(basis)))
        v = np.arange(len(basis))
        coeffs = WeightVector.from_array(v, E2, 2).coeffs
        assert [(pos[j], c) for j, c in coeffs] == list(enumerate(v.tolist()))[1:]

    def test_negative_level_is_empty(self, E2):
        assert _weight_basis(E2.n, -1)[0] == ()
