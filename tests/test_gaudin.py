from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from gaudinlab import (
    ProblemInstance,
    annihilator_ideal,
    bethe_algebra_basis,
    bethe_vector,
    build_gaudin,
    induced_map_kernel,
    joint_spectrum,
    match_spectrum_to_scheme,
    polynomial_valued_kernel,
)
from gaudinlab import gaudin
from gaudinlab.cli import _sample_z, run_pipeline
from gaudinlab.gaudin import (
    IDENTITIES,
    GaudinFrame,
    _ExactReducer,
    _FloatReducer,
    _acting,
    _annihilators,
    _cyclic_block,
    _reduce,
    build_gaudins,
    span_closure,
    stacked_algebra_dims,
    apply_universal_operator,
)
from gaudinlab.numcore import (
    InconsistentSystemError,
    Tolerances,
    exact_array,
    identity,
    is_exact_array,
    kernel_basis,
    matmul,
    max_abs,
    solve_linear,
    to_float_array,
    zeros_like_domain,
)

import conftest
from conftest import LADDER, random_exact_instance, random_float_z
from integer_reference import frame_certificate
from scheme_reference import zpolys


def exact_vec(vals):
    v = np.empty(len(vals), dtype=object)
    for i, x in enumerate(vals):
        v[i] = F(x)
    return v


class TestBuildGaudin:
    def test_E1_closed_form(self, E1):
        # two linear constraints (sum H = 0, sum z_s H_s = l*lt) pin the
        # n = 2 restriction: H_1 = l*lt/(z_1 - z_2) = -2
        s = build_gaudin(E1)
        assert s.H_sing[0][0, 0] == F(-2)
        assert s.H_sing[1][0, 0] == F(2)

    def test_E3_closed_form(self, E3):
        s = build_gaudin(E3)
        assert s.H_sing[0][0, 0] == F(-6)

    def test_sum_zero_everywhere(self, rng):
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            assert max_abs(sum(s.H_big[1:], s.H_big[0])) == 0.0

    def test_commutativity_exact(self, rng):
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            for i in range(inst.n):
                for j in range(i + 1, inst.n):
                    comm = s.H_big[i] @ s.H_big[j] - s.H_big[j] @ s.H_big[i]
                    assert max_abs(comm) == 0.0

    def test_weighted_sum_identity_on_sing(self, rng):
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            if not s.dim_sing_m:
                continue
            acc = sum((s.H_sing[k] * inst.z[k] for k in range(1, inst.n)),
                      s.H_sing[0] * inst.z[0])
            tgt = identity(s.dim_sing_m) * F(inst.l * inst.ltilde)
            assert max_abs(acc - tgt) == 0.0

    def test_g0_identity(self, rng):
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            if s.dim_sing_m:
                tgt = identity(s.dim_sing_m) * F(inst.l * inst.ltilde)
                A_s = inst.tables.A_s[0]
                g0 = sum(H * A_s[k][inst.n - 2] for k, H in enumerate(s.H_sing))
                assert max_abs(g0 - tgt) == 0.0

    def test_shapovalov_symmetry(self, rng):
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            for H in s.H_big:
                assert max_abs(s.shq.gram @ H - H.T @ s.shq.gram) == 0.0
            for H in s.H_sing:
                assert max_abs(s.shq.gram_sing @ H - H.T @ s.shq.gram_sing) == 0.0

    def test_quotient_well_defined(self, rng):
        # Hamiltonians preserve the radical, so the quotient action exists
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            W = s.shq.radical
            if W.shape[1] and s.dim_sing_l:
                for H in s.H_sing:
                    assert max_abs(s.shq.sh @ (H @ W)) == 0.0

    def test_float_matches_exact(self, E2):
        se = build_gaudin(E2)
        sf = build_gaudin(E2.to_float())
        from gaudinlab.numcore import to_float_array
        for A, B in zip(se.H_big, sf.H_big):
            assert np.abs(to_float_array(A) - B).max() < 1e-12


class TestHBigAssembly:
    """H_big[s] = sum_r (m_s m_r I - Omega_sr) / (z_s - z_r), term by term."""

    INST = ProblemInstance([1, 2, 1, 1], 2, [0, F(1, 2), F(-3, 7), F(5, 3)])

    @staticmethod
    def term_by_term(inst, frame, eye):
        out = []
        for s in range(inst.n):
            acc = eye * 0
            for r in range(inst.n):
                if r != s:
                    W = frame.omega[s, r].astype(eye.dtype)
                    acc = acc + (inst.m[s] * inst.m[r] * eye - W) * (1 / (inst.z[s] - inst.z[r]))
            out.append(acc)
        return out

    def test_exact_equals_fraction_sum(self):
        inst = self.INST
        sysd = build_gaudin(inst)
        d = sysd.H_big[0].shape[0]
        want = self.term_by_term(inst, sysd.frame, identity(d))
        for got, ref in zip(sysd.H_big, want, strict=True):
            assert got.shape == ref.shape
            for x, y in zip(got.flat, ref.flat):
                assert type(x) is F and x == y

    def test_float_bit_identical_to_term_by_term_sum(self):
        finst = self.INST.to_float()
        sysd = build_gaudin(finst)
        d = sysd.H_big[0].shape[0]
        want = self.term_by_term(finst, sysd.frame, np.eye(d, dtype=complex))
        for got, ref in zip(sysd.H_big, want, strict=True):
            assert got.dtype == complex and got.tobytes() == ref.tobytes()


def least_squares_restrictions(sysd):
    """H_sing by least squares from S H_sing = H_big S, and H_L = P H_sing C."""
    S, P, C = sysd.shq.sing, sysd.shq.sh, sysd.shq.lift
    H_sing = [np.linalg.lstsq(S, Hb @ S, rcond=None)[0] for Hb in sysd.H_big]
    return H_sing, [P @ H @ C for H in H_sing]


class TestFloatRestrictions:
    """The float H_sing and H_L read off the frame agree with the least-squares
    restriction of H_big."""

    @staticmethod
    def assert_close(got, want):
        for G, W in zip(got, want, strict=True):
            assert G.shape == W.shape
            if G.size:
                assert max_abs(G - W) <= 1e-12 * max(1.0, max_abs(W))

    def check(self, finst):
        sysd = build_gaudin(finst)
        H_sing, H_L = least_squares_restrictions(sysd)
        self.assert_close(sysd.H_sing, H_sing)
        self.assert_close(sysd.H_L, H_L)

    @pytest.mark.parametrize("m, l, z", LADDER, ids=lambda v: str(v))
    def test_ladder(self, m, l, z):
        self.check(ProblemInstance(m, l, [complex(v) for v in z]))

    @pytest.mark.parametrize("m, l, z", LADDER, ids=lambda v: str(v))
    def test_bethe_coordinates_read_off_free_rows(self, m, l, z):
        # a weight vector in Sing has its singular-basis coordinates on the
        # free rows of S, where S is the identity; the float weight vector
        # lies in Sing only to rounding, and the two readings differ by no
        # more than its distance from Sing
        finst = ProblemInstance(m, l, [complex(v) for v in z])
        sysd = build_gaudin(finst)
        S, free = sysd.shq.sing, sysd.shq.free
        assert np.array_equal(S[free], np.eye(S.shape[1]))
        spec = joint_spectrum(list(sysd.H_L), seed=0)
        points = match_spectrum_to_scheme(finst, spec).points
        assert points
        for p in points:
            bv = bethe_vector(finst, sysd, p)
            omega = bv.weights
            coords = np.linalg.lstsq(S, omega, rcond=None)[0]
            off = max_abs(omega - S @ coords)
            assert off <= 1e-8 * max_abs(omega)
            assert max_abs(omega[free] - coords) <= off + 1e-12 * max(1.0, max_abs(coords))
            assert not bv.via_subspace
            assert np.array_equal(bv.omega_L, sysd.shq.sh @ omega[free])

    @pytest.mark.parametrize("real", [True, False])
    def test_random_float_instances(self, rng, real):
        for _ in range(4):
            inst = random_exact_instance(rng, max_level_dim=20)
            self.check(ProblemInstance(inst.m, inst.l, random_float_z(rng, inst.n, real)))


class TestGaudinFrame:
    FIELDS = ("H_big", "H_sing", "H_L")

    def assert_same_system(self, a, b):
        for f in self.FIELDS:
            for A, B in zip(getattr(a, f), getattr(b, f), strict=True):
                assert A.shape == B.shape and np.array_equal(A, B)

    @pytest.mark.parametrize("lane", ["exact", "float"])
    def test_shared_frame_matches_fresh_build(self, E1, E2, E3, lane):
        insts = [E1, E2, E3]
        if lane == "float":
            insts = [inst.to_float() for inst in insts]
        for inst in insts:
            frame = GaudinFrame(inst)
            build_gaudin(inst, frame)  # the build below reuses this lane
            self.assert_same_system(build_gaudin(inst, frame), build_gaudin(inst))

    def test_float_instances_share_one_frame(self, E2):
        a = ProblemInstance(E2.m, E2.l, [0.5, -1.25, 2.0])
        b = ProblemInstance(E2.m, E2.l, [1j, 3.0, -0.75 + 0.5j])
        frame = GaudinFrame(E2)
        sa, sb = build_gaudin(a, frame), build_gaudin(b, frame)
        assert sa.frame is frame and sb.frame is frame
        self.assert_same_system(sa, build_gaudin(a))
        self.assert_same_system(sb, build_gaudin(b))

    def test_frame_for_other_m_l_rejected(self, E1, E2):
        with pytest.raises(ValueError):
            build_gaudin(E2, GaudinFrame(E1))
        with pytest.raises(ValueError):
            build_gaudin(ProblemInstance([1, 1], 0, [0, 1]), GaudinFrame(E1))

    @pytest.mark.parametrize("to_float", [False, True])
    def test_shared_arrays_read_only(self, E1, to_float):
        s = build_gaudin(E1.to_float() if to_float else E1)
        with pytest.raises(ValueError):
            s.shq.sing[0, 0] = 0
        with pytest.raises(ValueError):
            s.shq.sh[0, 0] = 0


class TestFrameCertificate:
    """The z-independent identities are certified once per frame in integer
    arithmetic; every system's Hamiltonians are the frame's combinations."""

    FOUR_SPINS = ProblemInstance([1, 1, 1, 1], 2, [F(v) for v in range(4)])

    @staticmethod
    def corrupt_omega(frame, i, j):
        Om = frame.omega[0, 1].copy()
        Om[i, j] += 1
        frame.omega[0, 1] = frame.omega[1, 0] = Om

    def test_zero_on_random_instances(self, rng):
        for _ in range(8):
            frame = GaudinFrame(random_exact_instance(rng, max_level_dim=20))
            assert set(frame.certificate) == set(IDENTITIES)
            assert all(v == 0 for v in frame.certificate.values())

    def test_restrictions_read_off_the_frame(self, rng):
        # S Omega_hat = Omega S, and Omega_tilde = P Omega_hat C
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20)
            frame = GaudinFrame(inst)
            shq, DS, DP = frame.lane(True).shq, frame._DS, frame._DP
            for (s, r), Om in frame.omega.items():
                hat = frame.omega_sing[s, r].astype(object) * F(1, DS)
                tilde = frame.omega_L[s, r].astype(object) * F(1, DP * DS)
                assert np.array_equal(shq.sing @ hat, Om.astype(object) @ shq.sing)
                assert np.array_equal(shq.sh @ hat @ shq.lift, tilde)

    def test_omega_corruption_fails_both_lanes(self):
        # (2,2,2), l = 3: no singular vector involves monomial j, so a wrong
        # Omega[i, j] leaves Sing (and the float restriction) alone but breaks
        # the Shapovalov symmetry on the level-l space
        inst = ProblemInstance([2, 2, 2], 3, [F(0), F(1), F(3)])
        frame = GaudinFrame(inst)
        j = next(j for j in range(frame._NS.shape[0]) if not frame._NS[j].any())
        i = next(i for i in range(frame._NS.shape[0]) if frame.lane(True).shq.gram[i, i])
        self.corrupt_omega(frame, i, j)
        assert frame.certificate["shapovalov_symmetry"] > 0
        for x in (inst, inst.to_float()):
            rep, fails, _ = run_pipeline(build_gaudin(x, frame), 0, Tolerances())
            assert "shapovalov_symmetry" in fails
            assert rep["global_checks"]["shapovalov_symmetry"] >= 1

    def test_asymmetric_pair_fails_hamiltonian_sum(self):
        frame = GaudinFrame(self.FOUR_SPINS)
        Om = frame.omega[1, 0].copy()
        Om[0, 0] += 1
        frame.omega[1, 0] = Om
        assert frame.certificate["hamiltonian_sum"] == 1

    def test_omega_corruption_on_sing_fails_every_identity(self):
        frame = GaudinFrame(self.FOUR_SPINS)
        self.corrupt_omega(frame, 0, 0)
        assert all(v > 0 for v in frame.certificate.values())
        _, fails, _ = run_pipeline(build_gaudin(self.FOUR_SPINS, frame), 0, Tolerances())
        assert set(IDENTITIES) <= set(fails)

    @pytest.mark.parametrize("family", ["H_sing", "H_L"])
    @pytest.mark.parametrize("lane", ["exact", "float"])
    def test_assembled_matrix_corruption_fails(self, family, lane):
        # a wrong Omega_hat or Omega_tilde, which H_sing or H_L is assembled
        # from, breaks Omega S = S Omega_hat or P Omega_hat = Omega_tilde P,
        # which every identity carries
        inst = self.FOUR_SPINS if lane == "exact" else self.FOUR_SPINS.to_float()
        frame = GaudinFrame(inst)
        omega = {"H_sing": frame.omega_sing, "H_L": frame.omega_L}[family]
        W = omega[0, 1].copy()
        W[0, 0] += 1
        omega[0, 1] = omega[1, 0] = W
        sysd = build_gaudin(inst, frame)
        assert not np.array_equal(getattr(sysd, family)[0], getattr(build_gaudin(inst), family)[0])
        rep, fails, _ = run_pipeline(sysd, 0, Tolerances())
        for name in ("commutators", "shapovalov_symmetry"):
            assert name in fails and rep["global_checks"][name] > 0

    def test_exact_build_solves_nothing(self, monkeypatch):
        # both lanes read every family off the frame: no least squares and no
        # consistent-system solve
        import importlib
        calls = []
        spy = lambda *args, **kwargs: calls.append(args)  # noqa: E731
        for layer in ("numcore", "gl2rep", "gaudin", "opscheme"):
            module = importlib.import_module(f"gaudinlab.{layer}")
            if hasattr(module, "solve_consistent"):
                monkeypatch.setattr(module, "solve_consistent", spy)
        monkeypatch.setattr(np.linalg, "lstsq", spy)
        for inst in (self.FOUR_SPINS, self.FOUR_SPINS.to_float()):
            sysd = build_gaudin(inst)
            for family in (sysd.H_big, sysd.H_sing, sysd.H_L):
                assert len(family) == inst.n
        assert calls == []

    def test_exact_pipeline_never_forms_H_big(self):
        sysd = build_gaudin(self.FOUR_SPINS)
        _, fails, _ = run_pipeline(sysd, 0, Tolerances())
        assert fails == []
        assert "H_big" not in vars(sysd) and "H_sing" in vars(sysd)

    def test_certified_once_per_frame(self, monkeypatch):
        calls = []
        real = GaudinFrame._certify

        def spy(frame):
            calls.append(frame)
            return real(frame)

        monkeypatch.setattr(GaudinFrame, "_certify", spy)
        frame = GaudinFrame(self.FOUR_SPINS)
        for z in ([0, 1, 2, 3], [F(1, 2), 5, -1, 2]):
            inst = ProblemInstance([1, 1, 1, 1], 2, z)
            run_pipeline(build_gaudin(inst, frame), 0, Tolerances())
        assert calls == [frame]


class TestStackedCertificate:
    """The stacked certificate against the per-pair loop it replaced
    (integer_reference.frame_certificate): the five defects are equal on
    sound frames and with one entry of one family corrupted after the
    build, under one key of its pair or both."""

    def test_sound_frames(self, rng):
        for _ in range(6):
            frame = GaudinFrame(random_exact_instance(rng, max_level_dim=20))
            assert frame.certificate == frame_certificate(frame)

    @pytest.mark.parametrize("keys", ["one", "both"])
    @pytest.mark.parametrize("family", ["omega", "omega_sing", "omega_L"])
    def test_one_corrupt_entry(self, rng, family, keys):
        checked = 0
        while checked < 5:
            frame = GaudinFrame(random_exact_instance(rng, max_level_dim=20))
            W = getattr(frame, family)
            s, r = (int(v) for v in rng.choice(len(frame.m), 2, replace=False))
            if W[s, r].size == 0:
                continue
            bad = W[s, r].copy()
            bad[tuple(rng.integers(bad.shape))] += int(rng.choice([-3, -1, 1, 2]))
            W[s, r] = bad
            if keys == "both":
                W[r, s] = bad
            want = frame_certificate(frame)
            assert frame.certificate == want
            assert want["hamiltonian_sum"] > 0 or keys == "both"
            checked += 1

    @pytest.mark.parametrize("n, l", [(4, 2), (5, 2), (6, 3)])
    def test_bracket_stack_holds_each_bracket_once(self, monkeypatch, n, l):
        # the largest defect cannot tell a certificate that skips a bracket,
        # so read the bracket product's operands [A | B] and [B; -A]: they
        # must hold [Omega_sr, Omega_sk + Omega_rk] for each pair s < r and
        # each k outside it, and [Omega_p, Omega_q] for each two disjoint
        # pairs, each once
        frame = GaudinFrame(ProblemInstance([1] * n, l, list(range(n))))
        om, d = frame.omega, frame.omega[0, 1].shape[0]
        pairs = list(combinations(range(n), 2))

        def key(W):
            return np.asarray(W, dtype=np.int64).tobytes()

        name = {key(om[p]): p for p in pairs}
        assert len(name) == len(pairs)
        products = []
        real = gaudin.int_matmul
        monkeypatch.setattr(gaudin, "int_matmul",
                            lambda A, B: products.append(A) or real(A, B))
        frame._certify()
        (stack,) = [A for A in products if A.shape[1:] == (d, 2 * d)
                    and all(key(a) in name for a in A[:, :, :d])]
        got = Counter()
        for a, b in zip(stack[:, :, :d], stack[:, :, d:]):
            s, r = name[key(a)]
            yb = {key(om[s, k] + om[r, k]): (s, r, k) for k in range(n) if k not in (s, r)}
            got[yb.get(key(b)) or frozenset([(s, r), name.get(key(b))])] += 1
        want = Counter([(s, r, k) for s, r in pairs for k in range(n) if k not in (s, r)] +
                       [frozenset(pq) for pq in combinations(pairs, 2)
                        if not set(pq[0]) & set(pq[1])])
        assert got == want


def reference_space_mats(sys, space: str):
    if space == "sing_m":
        return list(sys.H_sing)
    if space == "sing_l":
        return list(sys.H_L)
    raise ValueError("space must be 'sing_m' or 'sing_l'")


def reference_matrix_numerator_for(inst: ProblemInstance, mats):
    """Coefficients N_k of sum_s mats[s] * prod_{r != s}(x - z_r)."""
    d = mats[0].shape[0]
    exact = inst.exact
    N = [zeros_like_domain((d, d), exact) for _ in range(inst.n)]
    for s, w in enumerate(zpolys(inst)[2]):
        for k in range(w.degree + 1):
            if w[k]:
                N[k] = N[k] + mats[s] * w[k]
    return N


def reference_universal_operator(sys, space: str, coeffs):
    """Coefficient vectors of  A v'' + B v' + N v  for a vector polynomial,
    coefficient by coefficient of A, B and N (the loop apply_universal_operator
    replaced by its read of the z-tables' M0 and M).

    coeffs lists the vector coefficients of v(x) in descending powers
    (v = coeffs[0] x^deg + ... + coeffs[deg]); the result is ascending.
    """
    inst = sys.inst
    mats = reference_space_mats(sys, space)
    d = mats[0].shape[0] if mats[0].size else 0
    exact = inst.exact
    deg = len(coeffs) - 1
    A, B, _ = zpolys(inst)
    N = reference_matrix_numerator_for(inst, mats)
    top = deg + inst.n - 1
    out = [zeros_like_domain((d,), exact) for _ in range(top + 1)]
    for j, vj in enumerate(coeffs):
        pj = deg - j
        for k in range(A.degree + 1):
            if pj >= 2 and A[k]:
                out[k + pj - 2] = out[k + pj - 2] + (pj * (pj - 1) * A[k]) * vj
        for k in range(B.degree + 1):
            if pj >= 1 and B[k]:
                out[k + pj - 1] = out[k + pj - 1] + (pj * B[k]) * vj
        for k in range(len(N)):
            out[k + pj] = out[k + pj] + N[k] @ vj
    return out


class TestUniversalOperator:
    """apply_universal_operator is D U = U M0^T + sum_s H_s U M[s]^T on the
    block U of ascending coefficients, read off the z-tables' M0 and M; the loop
    over the coefficients of A, B and the A_s is its reference."""

    def test_matches_loop_reference(self, rng):
        checked = 0
        while checked < 8:
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            fs = build_gaudin(inst.to_float())
            for space, d in (("sing_m", s.dim_sing_m), ("sing_l", s.dim_sing_l)):
                for deg in sorted({inst.l, inst.ltilde}) if d else ():
                    coeffs = [exact_vec([F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                                         for _ in range(d)]) for _ in range(deg + 1)]
                    want = reference_universal_operator(s, space, coeffs)
                    got = apply_universal_operator(s, space, coeffs)
                    assert len(got) == len(want) == deg + inst.n
                    for x, y in zip(got, want):
                        assert x.shape == y.shape == (d,)
                        assert all(a == b and type(a) is type(b) for a, b in zip(x, y))
                    fc = [c.astype(complex) for c in coeffs]
                    fwant = reference_universal_operator(fs, space, fc)
                    fgot = apply_universal_operator(fs, space, fc)
                    scale = max(1.0, max(max_abs(c) for c in fwant))
                    assert max(max_abs(x - y) for x, y in zip(fgot, fwant)) <= 1e-12 * scale
                    checked += 1

    def test_bad_space_rejected(self, E1):
        with pytest.raises(ValueError, match="space must be"):
            apply_universal_operator(build_gaudin(E1), "big", [exact_vec([1])])


class TestPolynomialKernel:
    def test_E1_unique_coefficients(self, E1):
        s = build_gaudin(E1)
        (v1,) = polynomial_valued_kernel(s, "sing_m", exact_vec([1]), 1)
        assert v1[0] == F(-1, 2)

    def test_E1_degree_lt_on_quotient(self, E1):
        s = build_gaudin(E1)
        v1, v2 = polynomial_valued_kernel(s, "sing_l", exact_vec([1]), 2)
        assert v1[0] == 0 and v2[0] == 0

    def test_deg_zero(self):
        inst = ProblemInstance([1, 1], 0, [0, 1])
        s = build_gaudin(inst)
        assert polynomial_valued_kernel(s, "sing_m", exact_vec([1]), 0) == []

    def test_solution_annihilated(self, rng):
        # the defining property, checked coefficient by coefficient
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20)
            s = build_gaudin(inst)
            d = s.dim_sing_m
            if not d:
                continue
            v0 = exact_vec([int(rng.integers(-3, 4)) for _ in range(d)])
            if max_abs(v0) == 0:
                v0[0] = F(1)
            vs = polynomial_valued_kernel(s, "sing_m", v0, inst.l)
            out = apply_universal_operator(s, "sing_m", [v0] + vs)
            assert max(max_abs(c) for c in out) == 0.0

    def test_quotient_pair_annihilated(self, rng):
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20, dominant=True,
                                         min_sing_l=1)
            s = build_gaudin(inst)
            d = s.dim_sing_l
            v0 = exact_vec([int(rng.integers(-3, 4)) for _ in range(d)])
            if max_abs(v0) == 0:
                v0[0] = F(1)
            for deg in (inst.l, inst.ltilde):
                vs = polynomial_valued_kernel(s, "sing_l", v0, deg)
                out = apply_universal_operator(s, "sing_l", [v0] + vs)
                assert max(max_abs(c) for c in out) == 0.0

    def test_bad_degree_rejected(self, E1):
        s = build_gaudin(E1)
        with pytest.raises(ValueError):
            polynomial_valued_kernel(s, "sing_m", exact_vec([1]), 3)

    def test_second_degree_inconsistent_outside_full_scheme(self):
        # m=(1,3), l=2: the singular-space point admits no degree-lt kernel
        # element, so the pinned-coefficient equation cannot be satisfied
        inst = ProblemInstance([1, 3], 2, [0, 1])
        s = build_gaudin(inst)
        with pytest.raises(InconsistentSystemError):
            polynomial_valued_kernel(s, "sing_m", exact_vec([1]), inst.ltilde)

    def test_l0_second_kernel_constant_pinned(self):
        # for l = 0 the pinned coefficient is the constant term
        inst = ProblemInstance([2, 1], 0, [0, 1])
        s = build_gaudin(inst)
        vs = polynomial_valued_kernel(s, "sing_l", exact_vec([1]), inst.ltilde)
        assert vs[-1][0] == 0
        out = apply_universal_operator(s, "sing_l", [exact_vec([1])] + vs)
        assert max(max_abs(c) for c in out) == 0.0

    def test_midsize_exact_identities(self):
        # a 15-dim weight space: the identities stay literal zeros
        inst = ProblemInstance([3, 3, 3], 4, ["0", "1", "-2/3"])
        s = build_gaudin(inst)
        assert (s.dim_sing_m, s.dim_sing_l) == (5, 2)
        assert max_abs(sum(s.H_big[1:], s.H_big[0])) == 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                assert max_abs(s.H_big[i] @ s.H_big[j]
                               - s.H_big[j] @ s.H_big[i]) == 0.0
        tgt = identity(5) * F(inst.l * inst.ltilde)
        acc = sum((s.H_sing[k] * inst.z[k] for k in range(1, 3)),
                  s.H_sing[0] * inst.z[0])
        assert max_abs(acc - tgt) == 0.0
        assert len(bethe_algebra_basis(list(s.H_L))) == 2


class TestBetheAlgebra:
    def test_single_scalar(self):
        m = np.empty((1, 1), dtype=object)
        m[0, 0] = F(5)
        assert len(bethe_algebra_basis([m])) == 1

    def test_E2_quotient_dim(self, E2):
        s = build_gaudin(E2)
        assert len(bethe_algebra_basis(list(s.H_L))) == 2

    def test_E3_sing_dim(self, E3):
        s = build_gaudin(E3)
        assert len(bethe_algebra_basis(list(s.H_sing))) == 1

    def test_dim_equals_sing_l_dominant(self, rng):
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=20, dominant=True,
                                         min_sing_l=1)
            s = build_gaudin(inst)
            assert len(bethe_algebra_basis(list(s.H_L))) == s.dim_sing_l

    def test_dim_equals_sing_m_separating(self, rng):
        for _ in range(5):
            inst = random_exact_instance(rng, max_level_dim=18)
            s = build_gaudin(inst)
            if s.dim_sing_m:
                assert len(bethe_algebra_basis(list(s.H_sing))) == s.dim_sing_m


class TestAnnihilator:
    def test_zero_kernel_gives_whole_algebra(self, E1):
        s = build_gaudin(E1)
        alg = bethe_algebra_basis(list(s.H_sing))
        ker = induced_map_kernel(alg, s.shq.sh)
        assert ker == []
        assert len(annihilator_ideal(alg, ker)) == len(alg)

    def test_dead_quotient(self):
        inst = ProblemInstance([1, 2], 2, [0, 1])
        s = build_gaudin(inst)
        alg = bethe_algebra_basis(list(s.H_sing))
        ker = induced_map_kernel(alg, s.shq.sh)
        assert len(annihilator_ideal(alg, ker)) == 0 == s.dim_sing_l

    def test_E2(self, E2):
        s = build_gaudin(E2)
        alg = bethe_algebra_basis(list(s.H_sing))
        ker = induced_map_kernel(alg, s.shq.sh)
        assert len(annihilator_ideal(alg, ker)) == 2

    def test_dim_matches_sing_l(self, rng):
        for _ in range(6):
            inst = random_exact_instance(rng, max_level_dim=18)
            s = build_gaudin(inst)
            if not s.dim_sing_m:
                continue
            alg = bethe_algebra_basis(list(s.H_sing))
            ker = induced_map_kernel(alg, s.shq.sh)
            J = annihilator_ideal(alg, ker)
            assert len(J) == s.dim_sing_l
            # J really annihilates the kernel
            for f in J:
                for g in ker:
                    assert max_abs(f @ g) == 0.0


class TestQuotientAlgebraDimension:
    """run_pipeline reports dim B_L as dim B - dim ker: the frame certifies
    P Omega_hat = Omega_tilde P, so f -> f~ (P f = f~ P) maps the algebra on
    Sing onto the algebra of the H_L, with kernel induced_map_kernel.  The
    closure of the H_L is the reference."""

    @staticmethod
    def assert_rank_nullity(s):
        alg = bethe_algebra_basis(list(s.H_sing)) if s.dim_sing_m else []
        ker = induced_map_kernel(alg, s.shq.sh) if alg else []
        want = len(bethe_algebra_basis(list(s.H_L))) if s.dim_sing_l else 0
        assert len(alg) - len(ker) == want

    def test_ladder(self):
        for m, l, z in conftest.LADDER:
            self.assert_rank_nullity(build_gaudin(ProblemInstance(m, l, z)))

    def test_random_exact(self, rng):
        for _ in range(8):
            self.assert_rank_nullity(build_gaudin(random_exact_instance(rng, max_level_dim=20)))

    def test_random_float(self, rng):
        for k in range(8):
            inst = random_exact_instance(rng, max_level_dim=20)
            z = random_float_z(rng, inst.n, real=k % 2 == 0)
            self.assert_rank_nullity(build_gaudin(ProblemInstance(inst.m, inst.l, z)))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_one_closure_per_pipeline(self, monkeypatch, mode):
        import gaudinlab.gaudin as gaudin
        calls = []

        def counted(mats, *args):
            calls.append(len(mats))
            return bethe_algebra_basis(mats, *args)

        monkeypatch.setattr(gaudin, "bethe_algebra_basis", counted)
        z = [0, 1, 2, 3] if mode == "exact" else [0.0, 1.0, 2.0, 3.0]
        rep, fails, _ = run_pipeline(build_gaudin(ProblemInstance([1] * 4, 2, z)), 0,
                                     Tolerances())
        assert calls == [4] and fails == []
        assert rep["dims"]["bethe_algebra_sing_l"] == rep["dims"]["sing_l"] == 2


class _FractionReducer:
    """Reference: incremental row reduction over Fractions, pivots scaled to 1."""

    def __init__(self):
        self.rows = []

    def add(self, v) -> bool:
        v = list(v)
        for p, row in self.rows:
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = 1 / v[piv]
        self.rows.append((piv, [a * inv for a in v]))
        return True


class _LoopReducer:
    """Reference: the per-vector float reducer, modified Gram-Schmidt one
    np.vdot at a time, applied twice, with the same relative gate."""

    def __init__(self, tol):
        self.tol = tol
        self.Q = []

    def add(self, v) -> bool:
        v = np.asarray(v, dtype=complex)
        norm0 = np.linalg.norm(v)
        if norm0 == 0:
            return False
        for _ in range(2):
            for q in self.Q:
                v = v - np.vdot(q, v) * q
        norm = np.linalg.norm(v)
        if norm <= self.tol * norm0:
            return False
        self.Q.append(v / norm)
        return True


def loop_closure(start, mats, act, red):
    """span_closure's breadth-first closure, one candidate at a time through
    red.add."""
    basis = [start] if red.add(start.reshape(-1)) else []
    frontier = list(basis)
    while frontier:
        nxt = []
        for v in frontier:
            for H in mats:
                w = act(v, H)
                if red.add(w.reshape(-1)):
                    basis.append(w)
                    nxt.append(w)
        frontier = nxt
    return basis


def reference_algebra(mats):
    """The closure of bethe_algebra_basis with plain @ and Fraction reduction."""
    return loop_closure(identity(mats[0].shape[0]), mats, lambda M, H: M @ H,
                        _FractionReducer())


def reference_vanishing(algebra, images, tol=None):
    """sum_j c_j algebra[j] for each kernel vector c of the stacked images
    (a float kernel cut at tol relative), summed term by term."""
    out = []
    for c in kernel_basis(np.stack(images, axis=1), tol):
        acc = algebra[0] * c[0]
        for M, x in zip(algebra[1:], c[1:]):
            acc = acc + M * x
        out.append(acc)
    return out


def assert_same_matrices(got, want):
    assert len(got) == len(want)
    for P, Q in zip(got, want):
        assert P.shape == Q.shape
        for x, y in zip(P.flat, Q.flat):
            assert x == y and type(x) is type(y)


# E1-E3 and the largest exact-ladder rung; (3^4),4 has denominators 2, 3, 6, 7
REFERENCE_INSTANCES = (
    ([1, 1], 1, [0, 1]),
    ([1, 1, 1], 1, [0, 1, 2]),
    ([2, 2], 2, [0, 1]),
    ([3, 3, 3, 3], 4, [0, 1, 3, 7]),
)


@pytest.fixture(scope="module")
def references():
    """(system, {space: reference algebra}, reference kernel, reference ideal)."""
    out = []
    for m, l, z in REFERENCE_INSTANCES:
        s = build_gaudin(ProblemInstance(m, l, z))
        alg = {"sing_m": reference_algebra(list(s.H_sing)),
               "sing_l": reference_algebra(list(s.H_L))}
        ker = reference_vanishing(alg["sing_m"],
                                  [(s.shq.sh @ M).reshape(-1) for M in alg["sing_m"]])
        ann = reference_vanishing(alg["sing_m"], [
            np.concatenate([(M @ K).reshape(-1) for K in ker]) for M in alg["sing_m"]]) \
            if ker else list(alg["sing_m"])
        out.append((s, alg, ker, ann))
    return out


class TestFractionFree:
    def test_reducer_matches_fraction_reducer(self, rng):
        decisions = []
        for _ in range(25):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(1, n))

            def rational():
                return F(int(rng.integers(-20, 21)), int(rng.integers(1, 10)))

            base = [[rational() for _ in range(n)] for _ in range(r)]
            vecs = []
            for _ in range(3 * n):
                kind = int(rng.integers(4))
                if kind == 0:
                    v = [F(0)] * n
                elif kind == 1 and vecs:
                    v = list(vecs[int(rng.integers(len(vecs)))])
                else:
                    cs = [rational() if rng.random() < 0.7 else F(0) for _ in range(r)]
                    v = [sum((c * b[i] for c, b in zip(cs, base)), F(0)) for i in range(n)]
                vecs.append(exact_vec(v))
            ref, red = _FractionReducer(), _ExactReducer()
            want = [ref.add(v) for v in vecs]
            assert [red.add(v) for v in vecs] == want
            decisions += want
        assert any(decisions) and not all(decisions)

    def test_bethe_algebra_basis_matches_reference(self, references):
        for s, alg, _, _ in references:
            assert_same_matrices(bethe_algebra_basis(list(s.H_sing)), alg["sing_m"])
            assert_same_matrices(bethe_algebra_basis(list(s.H_L)), alg["sing_l"])

    def test_induced_map_kernel_matches_reference(self, references):
        for s, alg, ker, _ in references:
            assert_same_matrices(induced_map_kernel(alg["sing_m"], s.shq.sh), ker)

    def test_annihilator_ideal_matches_reference(self, references):
        for _, alg, ker, ann in references:
            assert_same_matrices(annihilator_ideal(alg["sing_m"], ker), ann)

    def test_annihilator_ideal_matches_per_kernel_concatenation(self, rng):
        # one product per algebra element against the side-by-side kernel
        # columns, and the images of every kernel element concatenated, have
        # the same null space, so the same RREF and the same elements
        seen = 0
        while seen < 6:
            s = build_gaudin(random_exact_instance(rng, max_level_dim=20))
            alg = bethe_algebra_basis(list(s.H_sing)) if s.dim_sing_m else []
            ker = induced_map_kernel(alg, s.shq.sh) if alg else []
            if not ker:
                continue
            images = [np.concatenate([matmul(F_, K).reshape(-1) for K in ker]) for F_ in alg]
            assert_same_matrices(annihilator_ideal(alg, ker), reference_vanishing(alg, images))
            seen += 1


def matrix_image_induced_map_kernel(algebra, sh: np.ndarray, tol: Tolerances = Tolerances()):
    """induced_map_kernel on the matrices sh F: the earlier code, kept
    verbatim but for its name, this line, its default tol and its
    reduction, now reference_vanishing.

    Elements of span(algebra) whose composition with sh vanishes.

    These are exactly the operators mapping the singular subspace into the
    radical, i.e. the kernel of the quotient-algebra map.
    """
    if not algebra:
        return []
    return reference_vanishing(algebra, [matmul(sh, F).reshape(-1) for F in algebra],
                               tol.svd_rel)


def matrix_image_annihilator_ideal(algebra, kernel, tol: Tolerances = Tolerances()):
    """annihilator_ideal on the matrices F [g_1 | ... | g_c]: the earlier
    code, kept verbatim but for its name, this line, its default tol and
    its reduction, now reference_vanishing.

    Basis of J = { f in span(algebra) : f g = 0 for every g in kernel }."""
    if not algebra:
        return []
    if not kernel:
        return list(algebra)
    # f g = 0 for every g in kernel exactly when f kills every column of each g
    K = np.hstack(kernel)
    return reference_vanishing(algebra, [matmul(F, K).reshape(-1) for F in algebra], tol.svd_rel)


def block_width(alg, tol=Tolerances()) -> int:
    """The columns of alg's _cyclic_block, as the adapters search it."""
    one = identity(alg[0].shape[0], is_exact_array(alg[0]))
    return _cyclic_block(_acting(np.stack(alg)[None]), one, tol)[0].shape[1]


class TestCyclicBlock:
    """induced_map_kernel and annihilator_ideal reduce the vectors F V,
    V the block _cyclic_block finds (block_width), where the matrix-image
    references reduce matrices.  In the exact lane both reduce images with
    the same null space, whose rref basis is unique, so the results are the
    same matrices (and so the same spans); in the float lane they have the
    same dimensions."""

    @staticmethod
    def assert_matches_reference(alg, sh):
        """(k, dim kernel, dim annihilator), k the columns of V."""
        tol = Tolerances()
        ker = induced_map_kernel(alg, sh, tol)
        ann = annihilator_ideal(alg, ker, tol)
        ref_ker = matrix_image_induced_map_kernel(alg, sh, tol)
        ref_ann = matrix_image_annihilator_ideal(alg, ref_ker, tol)
        if is_exact_array(alg[0]):
            assert_same_matrices(ker, ref_ker)
            assert_same_matrices(ann, ref_ann)
        else:
            assert (len(ker), len(ann)) == (len(ref_ker), len(ref_ann))
        return block_width(alg, tol), len(ker), len(ann)

    def check_system(self, s):
        alg = bethe_algebra_basis(list(s.H_sing)) if s.dim_sing_m else []
        if not alg:
            return None
        k, _, dim_ann = self.assert_matches_reference(alg, s.shq.sh)
        assert dim_ann == s.dim_sing_l
        return k

    @pytest.mark.parametrize("exact", [True, False])
    def test_ladder_one_column(self, exact):
        # the all-ones vector is cyclic on every rung
        for m, l, z in conftest.LADDER:
            z = list(z) if exact else [float(v) for v in z]
            assert self.check_system(build_gaudin(ProblemInstance(m, l, z))) == 1

    def test_random_exact(self, rng):
        ks = [self.check_system(build_gaudin(random_exact_instance(rng, max_level_dim=20)))
              for _ in range(10)]
        assert sum(k is not None for k in ks) >= 5

    def test_random_float(self, rng):
        ks = []
        for k in range(10):
            inst = random_exact_instance(rng, max_level_dim=20)
            z = random_float_z(rng, inst.n, real=k % 2 == 0)
            ks.append(self.check_system(build_gaudin(ProblemInstance(inst.m, inst.l, z))))
        assert sum(k is not None for k in ks) >= 5

    @staticmethod
    def eigenvector_family(lams, keep):
        """(H_1, H_2, sh): H_s = P diag(lams[s]) P^-1 with the all-ones
        vector as P's first column, so it is a common eigenvector and A 1
        is one line; sh the rows keep of P^-1, which intertwine every H_s
        (sh H_s = diag(lams[s][keep]) sh)."""
        P = exact_array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 2, 1, 0], [1, 3, 4, 1]])
        Pinv = solve_linear(P, identity(4))
        Hs = [matmul(matmul(P, exact_array(np.diag(lam).tolist())), Pinv) for lam in lams]
        return Hs, Pinv[keep]

    @pytest.mark.parametrize("lams, keep, dims", [
        # four joint eigenvalues: the algebra is all functions on them
        (([1, 2, 3, 4], [0, 5, -1, 2]), [0, 2], (4, 2, 2)),
        # a repeated joint eigenvalue: no cyclic vector exists at all
        (([1, 1, 2, 3], [5, 5, 7, 0]), [1, 2], (3, 1, 2)),
    ])
    @pytest.mark.parametrize("exact", [True, False])
    def test_block_grows_past_one_column(self, lams, keep, dims, exact):
        Hs, sh = self.eigenvector_family(lams, keep)
        if not exact:
            Hs, sh = [to_float_array(H) for H in Hs], to_float_array(sh)
        alg = bethe_algebra_basis(Hs)
        assert len(alg) == dims[0]
        k, dim_ker, dim_ann = self.assert_matches_reference(alg, sh)
        assert k >= 2 and (dim_ker, dim_ann) == dims[1:]


def per_family_dims(family, sh, tol=Tolerances()):
    """(dim B, dim kernel, dim annihilator) of one family on its own: its
    closure, then the adapters' quotient kernel and annihilator."""
    alg = bethe_algebra_basis(list(family), tol)
    ker = induced_map_kernel(alg, sh, tol)
    return len(alg), len(ker), len(annihilator_ideal(alg, ker, tol))


def count_calls(monkeypatch, name, record):
    """Spy on gaudin.name: record(args) is appended to the returned list at
    each call."""
    calls, real = [], getattr(gaudin, name)
    monkeypatch.setattr(gaudin, name,
                        lambda *args: calls.append(record(*args)) or real(*args))
    return calls


class TestStackedAlgebraDims:
    """stacked_algebra_dims closes the first open family of each round and
    certifies its words at every other open family; its dimensions are
    each family's own (per_family_dims)."""

    # the shapes of the verify comparison: two float-verify rungs, n = 5, a
    # mixed m, and (1^6),3
    SHAPES = (((2,) * 4, 3), ((3,) * 4, 4), ((1,) * 5, 2), ((1, 2, 3), 2), ((1,) * 6, 3))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_verify_draws_match_per_family(self, shape, seed):
        m, l = self.SHAPES[shape]
        rng = np.random.default_rng(seed)
        insts = [ProblemInstance(m, l, _sample_z(rng, len(m), "real" if k % 2 == 0 else "complex"))
                 for k in range(4)]
        systems = build_gaudins(insts, GaudinFrame(insts[0]))
        sh = systems[0].shq.sh
        assert stacked_algebra_dims([s.H_sing for s in systems], sh) == \
            [per_family_dims(s.H_sing, sh) for s in systems]

    def test_exact_families(self, monkeypatch):
        # the exact lane takes the same loop: the first family's words
        # certify the second, exactly, so one closure serves both
        m, l = (2,) * 4, 3
        insts = [ProblemInstance(m, l, z) for z in ([0, 1, 3, 7], [F(-1, 2), 2, 5, F(7, 3)])]
        systems = build_gaudins(insts, GaudinFrame(insts[0]))
        sh = systems[0].shq.sh
        want = [per_family_dims(s.H_sing, sh) for s in systems]
        closures = count_calls(monkeypatch, "bethe_algebra_basis", lambda mats, *args: len(mats))
        got = stacked_algebra_dims([s.H_sing for s in systems], sh)
        assert got == want == [(10, 4, 6)] * 2
        assert closures == [4]

    @staticmethod
    def families(exact):
        """A diagonal family, on which the all-ones vector is cyclic, then
        a family with the all-ones vector as a common eigenvector, then a
        second diagonal family, and e_0^T, which intertwines all three; each
        has four joint eigenvalues.  The first family's words, 1, H_1, H_2
        and H_2 H_1, take the all-ones vector to a basis at the third
        family, and to one line at the second."""
        Hs, sh = TestCyclicBlock.eigenvector_family(([1, 2, 3, 4], [0, 5, -1, 2]), [0])
        diag, diag2 = ([exact_array(np.diag(lam).tolist()) for lam in lams]
                       for lams in (([4, 3, 2, 1], [1, 0, 2, 7]), ([1, 2, 3, 4], [2, -1, 0, 3])))
        families = [diag, Hs, diag2]
        if not exact:
            families = [[to_float_array(H) for H in f] for f in families]
            sh = to_float_array(sh)
        return families, sh

    @pytest.mark.parametrize("exact", [True, False])
    def test_uncertified_family_opens_a_round(self, monkeypatch, exact):
        families, sh = self.families(exact)
        want = [per_family_dims(f, sh) for f in families]
        closures = count_calls(monkeypatch, "bethe_algebra_basis", lambda mats, *args: len(mats))
        got = stacked_algebra_dims(families, sh)
        # the first round closes the first family and certifies the third;
        # the second closes the second family on its own
        assert closures == [2, 2]
        assert got == want == [(4, 3, 1)] * 3

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_family_certifies_another(self, monkeypatch, exact):
        # copies of the eigenvector family, whose all-ones vector is one line:
        # one round, and one closure, per family, from one call
        families, sh = self.families(exact)
        copies = [families[1]] * 4
        want = per_family_dims(copies[0], sh)
        closures = count_calls(monkeypatch, "bethe_algebra_basis", lambda mats, *args: len(mats))
        entries = count_calls(monkeypatch, "stacked_algebra_dims", lambda *args: len(args[0]))
        assert gaudin.stacked_algebra_dims(copies, sh) == [want] * 4
        assert closures == [2] * 4 and entries == [4]

    def test_stacked_calls_match_per_sample_calls(self):
        # one float stack whose samples need blocks of widths 1 and 2: the
        # search gives the first sample's block and which samples one column
        # serves, the wider block serves both, and each sample's kernel and
        # annihilator are the ones its own one-sample stack and the adapters
        # give
        families, sh = self.families(False)
        algebras = [bethe_algebra_basis(f) for f in families[:2]]
        assert [block_width(alg) for alg in algebras] == [1, 2]
        images_of = _acting(np.stack([np.stack(alg) for alg in algebras]))
        V, _, cyclic = _cyclic_block(_acting(np.stack([np.stack(alg) for alg in algebras[::-1]])),
                                     identity(4, False))
        assert V.shape[1] == 2 and cyclic.tolist() == [False, True]
        U = images_of(V[None])
        got = _reduce(U, images_of, sh, Tolerances())
        for alg, (c, a) in zip(algebras, got):
            one = _acting(np.stack(alg)[None])
            ((c1, a1),) = _reduce(_cyclic_block(one, identity(4, False))[1], one, sh, Tolerances())
            ker = induced_map_kernel(alg, sh)
            assert (len(c), len(a)) == (len(c1), len(a1)) == (3, 1) == \
                (len(ker), len(annihilator_ideal(alg, ker)))
            # the coefficient vectors name elements that really vanish
            g = [sum(x * F_ for x, F_ in zip(v, alg)) for v in c]
            f = sum(x * F_ for x, F_ in zip(a[0], alg))
            assert max(max_abs(sh @ g_) for g_ in g) < 1e-12
            assert max(max_abs(f @ g_) for g_ in g) < 1e-12 < max_abs(f)
        # a sample whose blocks are zero (no kernel): the whole algebra
        X = np.zeros((2, 4, 3 * 2), dtype=complex)
        X[0] = np.hstack([np.tensordot(v, U[0], 1) for v in got[0][0]])
        assert [len(a) for a in _annihilators(images_of, X, Tolerances())] == [1, 4]

    def test_empty_spaces(self):
        assert stacked_algebra_dims([], np.zeros((0, 0))) == []
        empty = (np.zeros((0, 0), dtype=complex),) * 2
        assert stacked_algebra_dims([empty] * 2, np.zeros((0, 0))) == [(0, 0, 0)] * 2
        # Sing_L = 0: the whole algebra is the kernel, and its annihilator is 0
        insts = [ProblemInstance([1, 1, 1], 2, random_float_z(np.random.default_rng(k), 3))
                 for k in range(2)]
        systems = build_gaudins(insts, GaudinFrame(insts[0]))
        sh = systems[0].shq.sh
        assert sh.shape == (0, 3)
        assert stacked_algebra_dims([s.H_sing for s in systems], sh) == \
            [per_family_dims(s.H_sing, sh) for s in systems] == [(3, 3, 0)] * 2


# the exact-ladder rungs, (m, l)
LADDER = (((1,) * 4, 2), ((1,) * 5, 2), ((2,) * 4, 3), ((3,) * 4, 4))


class TestBlockReducer:
    """The float span closure projects each breadth-first level as one block.
    It accepts exactly the candidates the per-vector loop accepts, so the
    basis (the products themselves) is the same, array for array."""

    @staticmethod
    def assert_same_closure(start, mats, act):
        tol = Tolerances()
        want = loop_closure(start, mats, act, _LoopReducer(tol.svd_rel))
        got = span_closure(start, mats, act, tol)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        return got

    def test_ladder_families_at_seeded_z(self, rng):
        for m, l in LADDER:
            for real in (True, False):
                s = build_gaudin(ProblemInstance(m, l, random_float_z(rng, len(m), real)))
                for mats in (list(s.H_sing), list(s.H_L)):
                    d = mats[0].shape[0]
                    alg = self.assert_same_closure(np.eye(d, dtype=complex), mats, matmul)
                    assert len(alg) == d
                    # the cyclic span of one vector, as sov's eigenline search takes it
                    v = rng.normal(size=d) + 1j * rng.normal(size=d)
                    self.assert_same_closure(v, mats, lambda u, H: H @ u)

    def test_nearly_dependent_candidate(self, rng):
        # H2 is H1^2 up to delta, so a level-2 candidate lies within about
        # delta of the span; as delta crosses the gate the decisions change,
        # and the two reducers still agree on every one
        d = 6
        P = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        lam, mu = rng.normal(size=d), rng.normal(size=d)
        sizes = set()
        for delta in (0.0, 1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6):
            H1 = P @ np.diag(lam) @ P.conj().T
            H2 = P @ np.diag(lam ** 2 + delta * mu) @ P.conj().T
            alg = self.assert_same_closure(np.eye(d, dtype=complex), [H1, H2], matmul)
            if delta == 0.0:
                assert len(alg) == d
            sizes.add(len(alg))
        assert len(sizes) > 1

    def test_levels_match_the_loop(self, rng):
        # candidates near the span of earlier ones, on both sides of the
        # gate, fed to the block reducer in levels of random size
        base = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
        cands = [np.zeros(12, dtype=complex)]
        for delta in (0.0, 1e-13, 1e-11, 1e-9, 1e-6, 1.0) * 4:
            noise = rng.normal(size=12) + 1j * rng.normal(size=12)
            cands.append(rng.normal(size=4) @ base + delta * noise)
        order = rng.permutation(len(cands))
        cands = [cands[i] for i in order]
        cuts = sorted(rng.choice(np.arange(1, len(cands)), size=6, replace=False))
        red, ref = _FloatReducer(1e-10), _LoopReducer(1e-10)
        got = [keep for level in np.split(np.array(cands), cuts)
               for keep in red.add_level(list(level))]
        want = [ref.add(v) for v in cands]
        assert got == want
        assert any(want) and not all(want)
        # the basis array grows by doubling, not to its largest possible size
        assert red.k == sum(want) and len(red.Q) < 2 * red.k
