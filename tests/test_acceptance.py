"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see them
on success).  Tolerances are pinned here, not configured elsewhere:
exact checks demand literal zero residuals; float gates are 1e-8 except
the coordinate-model consistency gate of 1e-10.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from gaudinlab import (
    ClusterAmbiguityError,
    ProblemInstance,
    a_of_h,
    annihilator_ideal,
    bethe_algebra_basis,
    bethe_vector,
    build_gaudin,
    diagonalizability_check,
    induced_map_kernel,
    joint_spectrum,
    match_spectrum_to_scheme,
    ptilde_solve,
    schubert_dimension,
    separated_form_value,
    weight_function,
    wronskian_check,
)
from gaudinlab.gl2rep import weight_space_dim
from gaudinlab.numcore import Tolerances, identity, max_abs
from gaudinlab.opscheme import operator_from_kernel_pair, p_of_a, ptilde_of
from scheme_reference import UniPoly, wronskian

from conftest import (
    random_dominant_float_instance,
    random_exact_instance,
    random_float_z,
)
from test_sov import evaluate_monomial_form

EXACT_SEED = 1001
FLOAT_SEED = 2002
REAL_SEED = 3003
GATE = 1e-8
CONSISTENCY_GATE = 1e-10


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def exact_instances():
    rng = np.random.default_rng(EXACT_SEED)
    return [random_exact_instance(rng, max_level_dim=21) for _ in range(20)]


@pytest.fixture(scope="module")
def float_suite():
    """10 dominant instances with their systems and quotient spectra."""
    rng = np.random.default_rng(FLOAT_SEED)
    out = []
    for _ in range(10):
        inst = random_dominant_float_instance(rng, max_level_dim=21,
                                              real=bool(rng.integers(0, 2)))
        sysd = build_gaudin(inst)
        spec = _spectrum_with_reseed(list(sysd.H_L), seed=int(rng.integers(1 << 16)))
        rep = match_spectrum_to_scheme(inst, spec)
        out.append((inst, sysd, spec, rep))
    return out


@pytest.fixture(scope="module")
def real_suite():
    rng = np.random.default_rng(REAL_SEED)
    out = []
    for _ in range(10):
        inst = random_dominant_float_instance(rng, max_level_dim=21, real=True)
        sysd = build_gaudin(inst)
        out.append((inst, sysd))
    return out


def _spectrum_with_reseed(mats, seed):
    for attempt in range(8):
        try:
            return joint_spectrum(mats, seed=seed + attempt)
        except ClusterAmbiguityError:
            continue
    raise ClusterAmbiguityError("no seed separated the clusters")


def test_criterion_1_exact_algebra(exact_instances):
    bad = []
    for inst in exact_instances:
        s = build_gaudin(inst)
        r = max_abs(sum(s.H_big[1:], s.H_big[0]))
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                r = max(r, max_abs(s.H_big[i] @ s.H_big[j]
                                   - s.H_big[j] @ s.H_big[i]))
        if s.dim_sing_m:
            acc = sum((s.H_sing[k] * inst.z[k] for k in range(1, inst.n)),
                      s.H_sing[0] * inst.z[0])
            r = max(r, max_abs(acc - identity(s.dim_sing_m) *
                               F(inst.l * inst.ltilde)))
        for H in s.H_big:
            r = max(r, max_abs(s.shq.gram @ H - H.T @ s.shq.gram))
        for H in s.H_sing:
            r = max(r, max_abs(s.shq.gram_sing @ H - H.T @ s.shq.gram_sing))
        if r != 0.0:
            bad.append((inst.m, inst.l, r))
    _report(1, not bad,
            f"commutators, sum rule, weighted sum, Shapovalov symmetry exact "
            f"on {len(exact_instances)} instances" + (f"; violations {bad}" if bad else ""))


def test_criterion_2_dimensions(exact_instances):
    bad = []
    for inst in exact_instances:
        s = build_gaudin(inst)
        expect_m = weight_space_dim(inst.n, inst.l) - weight_space_dim(inst.n, inst.l - 1)
        schub = schubert_dimension(inst.m, inst.l)
        alg_l = bethe_algebra_basis(list(s.H_L)) if s.dim_sing_l else []
        alg_m = bethe_algebra_basis(list(s.H_sing)) if s.dim_sing_m else []
        ker = induced_map_kernel(alg_m, s.shq.sh) if alg_m else []
        ann = annihilator_ideal(alg_m, ker) if alg_m else []
        if not (s.dim_sing_m == expect_m and s.dim_sing_l == schub
                and len(alg_l) == s.dim_sing_l and len(ann) == s.dim_sing_l):
            bad.append((inst.m, inst.l,
                        (s.dim_sing_m, expect_m, s.dim_sing_l, schub,
                         len(alg_l), len(ann))))
    _report(2, not bad,
            f"singular dimension count, tensor-multiplicity dimension, "
            f"algebra dimension, annihilator dimension on "
            f"{len(exact_instances)} instances" + (f"; violations {bad}" if bad else ""))


def test_criterion_3_closed_form_instances():
    E1 = ProblemInstance([1, 1], 1, [0, 1])
    E3 = ProblemInstance([2, 2], 2, [0, 1])
    ok = True
    notes = []

    s1 = build_gaudin(E1)
    ok &= s1.H_sing[0][0, 0] == F(-2) and s1.H_sing[1][0, 0] == F(2)
    h1 = (F(-2), F(2))
    ok &= a_of_h(E1, h1) == [F(-1, 2)]
    ok &= ptilde_solve(E1, h1) == [F(0)]                      # ptilde = x^2
    wr1 = UniPoly((F(0), F(-1), F(1)))                        # x(x-1)
    ok &= wronskian(UniPoly(ptilde_of(E1, [F(0)])), UniPoly(p_of_a([F(-1, 2)]))) == wr1
    ok &= not any(wronskian_check(E1, [F(0)], [F(-1, 2)]))

    s3 = build_gaudin(E3)
    ok &= s3.H_sing[0][0, 0] == F(-6) and s3.H_sing[1][0, 0] == F(6)
    h3 = (F(-6), F(6))
    ok &= a_of_h(E3, h3) == [F(-1), F(1, 3)]
    ok &= ptilde_solve(E3, h3) == [F(0), F(0)]                # ptilde = x^3
    wr3 = UniPoly((F(0), F(0), F(1), F(-2), F(1)))            # x^2 (x-1)^2
    ok &= wronskian(UniPoly(ptilde_of(E3, [F(0), F(0)])),
                    UniPoly(p_of_a([F(-1), F(1, 3)]))) == wr3
    _, _, b2 = operator_from_kernel_pair(E3, ptilde_of(E3, [F(0), F(0)]),
                                         p_of_a([F(-1), F(1, 3)]))
    ok &= b2[E3.n - 2] == 6 == E3.ltilde * E3.l and not any(b2[E3.n - 1:])
    _report(3, ok, "closed-form instances match exactly in rational mode")


def test_criterion_4_spectrum_scheme(float_suite):
    bad = []
    rng = np.random.default_rng(FLOAT_SEED + 1)
    for inst, sysd, spec, rep in float_suite:
        worst = max((v for p in rep.points for v in p.residuals.values()
                     if isinstance(v, float)), default=0.0)
        pair_ok = all(p.atilde is not None for p in rep.points)
        wr_ok = rep.residual_summary.get("wronskian", 0.0) < GATE
        total_ok = rep.total_multiplicity == sysd.dim_sing_l
        counts = {rep.total_multiplicity}
        for _ in range(2):
            z2 = random_float_z(rng, inst.n, real=bool(rng.integers(0, 2)))
            inst2 = ProblemInstance(inst.m, inst.l, z2)
            s2 = build_gaudin(inst2)
            sp2 = _spectrum_with_reseed(list(s2.H_L), seed=int(rng.integers(1 << 16)))
            counts.add(sum(m for _, m, _ in sp2))
        if not (worst < GATE and pair_ok and wr_ok and total_ok
                and len(counts) == 1):
            bad.append((inst.m, inst.l, worst, pair_ok, total_ok, counts))
    _report(4, not bad,
            f"all scheme residuals < {GATE}, kernel pairs exist, multiplicity "
            f"totals match across z-samples on {len(float_suite)} instances"
            + (f"; violations {bad}" if bad else ""))


def test_criterion_5_bethe_vectors(float_suite):
    bad = []
    for inst, sysd, spec, rep in float_suite:
        vecs = []
        for p in rep.points:
            bv = bethe_vector(inst, sysd, p, tol=Tolerances(residual=GATE))
            if max(bv.eigen_residuals, default=0.0) >= GATE or \
                    bv.e12_residual >= GATE:
                bad.append((inst.m, inst.l, max(bv.eigen_residuals),
                            bv.e12_residual))
            vecs.append(np.asarray(bv.omega_L, dtype=complex))
        if rep.all_simple and sysd.dim_sing_l:
            W = np.stack(vecs, axis=1)
            sv = np.linalg.svd(W, compute_uv=False)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            if rank != sysd.dim_sing_l:
                bad.append((inst.m, inst.l, "rank", rank, sysd.dim_sing_l))
    _report(5, not bad,
            f"eigenvector and raising-operator residuals < {GATE}; simple "
            f"spectra span the quotient" + (f"; violations {bad}" if bad else ""))


def test_criterion_6_real_z_multiplicity_one(real_suite):
    bad = []
    for inst, sysd in real_suite:
        spec = _spectrum_with_reseed(list(sysd.H_L), seed=5)
        simple = all(m == 1 for _, m, _ in spec)
        ok, worst = diagonalizability_check(list(sysd.H_L), spec,
                                            tol=Tolerances(residual=GATE))
        if not (simple and ok):
            bad.append((inst.m, inst.l, simple, ok, worst))
    _report(6, not bad,
            f"real distinct z gives simple, diagonalizable spectra on "
            f"{len(real_suite)} instances" + (f"; violations {bad}" if bad else ""))


def test_criterion_7_trace_identity(float_suite, real_suite):
    bad = []
    systems = [(inst, sysd) for inst, sysd, _, _ in float_suite] + list(real_suite)
    for inst, sysd in systems:
        for mats, dim in ((sysd.H_L, sysd.dim_sing_l),
                          (sysd.H_sing, sysd.dim_sing_m)):
            if dim == 0:
                continue
            spec = _spectrum_with_reseed(list(mats), seed=9)
            for s in range(inst.n):
                tr = sum(complex(mats[s][i, i]) for i in range(dim))
                acc = sum(m * h[s] for h, m, _ in spec)
                if abs(acc - tr) > GATE * dim * max(1.0, max_abs(mats[s])):
                    bad.append((inst.m, inst.l, s, abs(acc - tr)))
    _report(7, not bad,
            f"multiplicity-weighted spectra match traces within {GATE}*dim*|H| "
            f"on {len(systems)} instances" + (f"; violations {bad}" if bad else ""))


def test_criterion_8_coordinate_model_consistency(float_suite):
    bad = []
    rng = np.random.default_rng(FLOAT_SEED + 2)
    for inst, sysd, spec, rep in float_suite:
        for p in rep.points[:2]:
            wv = weight_function(inst, p.a)
            for _ in range(50):
                x = rng.normal(size=inst.n) + 1j * rng.normal(size=inst.n)
                mono = evaluate_monomial_form(wv, x)
                sep = separated_form_value(inst, p.a, x)
                if abs(mono - sep) > CONSISTENCY_GATE * max(1.0, abs(sep)):
                    bad.append((inst.m, inst.l, abs(mono - sep)))
    _report(8, not bad,
            f"monomial and separated forms agree within {CONSISTENCY_GATE} "
            f"at 50 points per instance" + (f"; violations {bad}" if bad else ""))
