"""verify's stacked float stages against the one-family code they replaced:
spectral.joint_spectra (every family's joint spectrum in one pass) and
stacked_diagonalizability_checks against that code, and the stacked Bethe
vectors and Grothendieck weights against their one-group calls; one pass per
stage per command; and the degenerate points whose checks fail by name.

reference_joint_spectrum and reference_diagonalizability_check below are
the one-family code, kept verbatim apart from their names.  A family's
spectrum and check must equal theirs to the bit (h, multiplicities and
bases), whatever else shares its stack.
"""

import json
import warnings

import numpy as np
import pytest

from gaudinlab import cli, opscheme, sov, spectral
from gaudinlab.cli import GaudinFrame, _sample_z, cmd_spectrum, cmd_verify, load_config
from gaudinlab.gaudin import build_gaudin, build_gaudins
from gaudinlab.gl2rep import ProblemInstance
from gaudinlab.numcore import DEFAULT_TOL, DomainError, Tolerances, max_abs, to_float_array
from gaudinlab.opscheme import dh_matrices
from gaudinlab.sov import (
    VerificationError,
    _eigenline_via_subspace,
    bethe_vectors,
    stacked_bethe_vectors,
)
from gaudinlab.spectral import (
    ClusterAmbiguityError,
    SingularJacobianError,
    _schur_bases,
    grothendieck_weights,
    joint_spectra,
    joint_spectrum,
    match_spectra_to_scheme,
    stacked_diagonalizability_checks,
    stacked_grothendieck_weights,
)

from conftest import LADDER, load_perfbench

FOUR_SPINS = {"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1", "2", "3"], "seed": 0}


# --- the one-family reference code -----------------------------------------

def reference_joint_spectrum(mats, seed: int, tol: Tolerances = DEFAULT_TOL):
    """[(h, multiplicity, orthonormal invariant basis), ...] of the family.

    mats must commute (checked exactly upstream); exact input is converted
    here, the one sanctioned entry into float mode.  The combination is
    diagonalised once (np.linalg.eig); eigenvalues closer than tol.cluster
    share a cluster.  A cluster of size 1 takes its unit eigenvector as
    basis, and h is the Rayleigh quotient of each generator on it.  Only a
    spectrum with a larger cluster factors the combination as a complex
    Schur form, and reads each such cluster's basis off it (_schur_bases).
    Raises ClusterAmbiguityError when two clusters run closer than
    10 * tol.cluster, or when a cluster is not one joint eigenvalue (two
    eigenvalues of some Q^H H_s Q / max(1, max|H_s|) lie 10 * tol.cluster or
    more apart), in which case the caller should reseed.  Clusters are
    listed by the real part of their centers on a grid of tol.cluster, then
    by the imaginary part, so a conjugate pair whose real parts agree to
    rounding keeps one order.
    """
    mats = [to_float_array(M) for M in mats]
    n = len(mats)
    d = mats[0].shape[0]
    if d == 0:
        return []
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 998, size=n)
    T = sum(int(cs) * H for cs, H in zip(c, mats))
    scale = max(1.0, float(np.abs(T).max()))
    eigs, vecs = np.linalg.eig(T / scale)

    # single-linkage clustering at distance tol.cluster
    order = sorted(range(d), key=lambda i: (eigs[i].real, eigs[i].imag))
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ii in range(d):
        for jj in range(ii + 1, d):
            if abs(eigs[order[ii]] - eigs[order[jj]]) <= tol.cluster:
                ri, rj = find(order[ii]), find(order[jj])
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    mean = {r: complex(np.mean([eigs[i] for i in g])) for r, g in groups.items()}
    roots = sorted(groups, key=lambda r: tol.cluster_key(mean[r]))
    clusters = [groups[r] for r in roots]
    centers = [mean[r] for r in roots]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol.cluster:
                raise ClusterAmbiguityError(
                    f"cluster centers {centers[i]:.6g} and {centers[j]:.6g} "
                    f"within 10*tol; reseed")

    # a simple cluster's basis is its unit eigenvector, and every simple h
    # is one stacked Rayleigh quotient
    simple = [g[0] for g in clusters if len(g) == 1]
    Vs = vecs[:, simple]
    hs = dict(zip(simple, np.einsum("ij,sij->js", Vs.conj(), np.stack(mats) @ Vs)))
    if len(simple) < len(clusters):
        schur = _schur_bases(T / scale, centers, clusters, mats, tol)
    out = []
    for idx, g in enumerate(clusters):
        if len(g) == 1:
            out.append((tuple(complex(v) for v in hs[g[0]]), 1, vecs[:, g]))
        else:
            out.append(schur[idx])
    assert sum(m for _, m, _ in out) == d
    return out


def reference_diagonalizability_check(mats, spectrum, tol=DEFAULT_TOL):
    """(all eigenspaces genuine, worst residual) for the commuting family.

    spectrum is the family's joint_spectrum.  True iff every generalized
    eigenspace carries a full basis of true eigenvectors: the restriction
    of each generator to each cluster subspace must be scalar within
    tol.residual * |H|.  A spectrum whose multiplicities do not add up to
    the matrix size gives (False, inf).
    """
    mats = [to_float_array(M) for M in mats]
    if sum(mult for _, mult, _ in spectrum) != mats[0].shape[0]:
        return False, float("inf")
    worst = 0.0
    for h, mult, Q in spectrum:
        for s, H in enumerate(mats):
            dev = H @ Q - h[s] * Q
            worst = max(worst, max_abs(dev) / max(max_abs(H), 1e-30))
    return worst < tol.residual, worst


# --- the families ----------------------------------------------------------

def bits(spectrum):
    """A spectrum or its rejection, every float bit of h and of the bases
    told apart."""
    if isinstance(spectrum, ClusterAmbiguityError):
        return ("rejected", str(spectrum))
    return [(repr(h), mult, Q.shape, Q.dtype, np.ascontiguousarray(Q).tobytes())
            for h, mult, Q in spectrum]


def reference_bits(mats, seed, tol=DEFAULT_TOL):
    try:
        return bits(reference_joint_spectrum(mats, seed, tol))
    except ClusterAmbiguityError as err:
        return bits(err)


def assert_stack_equals_reference(families, seeds, tol=DEFAULT_TOL):
    """One joint_spectra pass over every family gives each its reference
    spectrum; returns the pass's spectra."""
    spectra = joint_spectra(families, seeds, tol)
    assert len(spectra) == len(families)
    for mats, seed, spectrum in zip(families, seeds, spectra):
        assert bits(spectrum) == reference_bits(mats, seed, tol)
    return spectra


def ladder_families():
    """Both spaces of the four ladder rungs, in both lanes."""
    out = []
    for m, l, z in LADDER:
        for zz in (list(z), [complex(v) for v in z]):
            sysd = build_gaudin(ProblemInstance(m, l, zz))
            out += [list(sysd.H_L), list(sysd.H_sing)]
    return out


def verify_draws(seed):
    """For each of the benchmark's float-verify calls at seed, each
    sample's float system with its seed, drawn as cmd_verify draws them."""
    out = []
    for call in load_perfbench("workloads").float_verify(seed):
        inst0, _, s0, _ = load_config(call.config)
        rng = np.random.default_rng(s0)
        frame = GaudinFrame(inst0)
        out.append([])
        for k in range(call.samples):
            z = _sample_z(rng, inst0.n, "real" if k % 2 == 0 else "complex")
            out[-1].append((build_gaudin(ProblemInstance(inst0.m, inst0.l, z), frame),
                            s0 + 1000 * k))
    return out


def conjugated(vals, rng):
    """The commuting family diag(vals[:, s]) in a random basis."""
    d, n = vals.shape
    V = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return [V @ np.diag(vals[:, s]) @ np.linalg.inv(V) for s in range(n)]


def odd_families():
    """Families of one shape (two 5 x 5 generators): simple ones and ones
    with a cluster of size 2, 3 or 4; then 3 x 3 families of one generator
    whose two nearest eigenvalues lie 9.9, 10.5, 0 and 3 cluster tolerances
    apart; and the seed-202 families whose one cluster splits under a
    generator."""
    rng = np.random.default_rng(11)
    out = []
    for repeat in (0, 1, 2, 0, 3, 0):
        vals = rng.integers(-9, 10, size=(5, 2)).astype(complex)
        vals[1:1 + repeat] = vals[0]
        out.append(conjugated(vals, rng))
    for gap in (9.9, 10.5, 0.0, 3.0):
        out.append([np.diag([0.5, 0.5 + gap * 1e-7, 1.0]).astype(complex)])
    for m, l, z in (((1, 3, 0), 1, (2, -2, -4)), ((1, 2, 2), 3, (5, -1, -4))):
        out.append(list(build_gaudin(ProblemInstance(m, l, z)).H_sing))
    return out


# --- one stack of Hamiltonians ---------------------------------------------

class TestStackedHamiltonians:
    @pytest.mark.parametrize("lane", ["exact", "float"])
    def test_equal_build_gaudin(self, lane):
        m, l, _ = LADDER[2]
        rng = np.random.default_rng(3)
        zs = [_sample_z(rng, 4, kind) for kind in ("real", "complex", "real")]
        if lane == "exact":
            zs = [[int(round(v.real * 8)) for v in z] for z in zs]
        insts = [ProblemInstance(m, l, z) for z in zs]
        frame = GaudinFrame(insts[0])
        for got, inst in zip(build_gaudins(insts, frame), insts):
            want = build_gaudin(inst, frame)
            for space in ("H_big", "H_sing", "H_L"):
                assert [H.tobytes() if lane == "float" else H.tolist()
                        for H in getattr(got, space)] == \
                    [H.tobytes() if lane == "float" else H.tolist() for H in getattr(want, space)]


# --- one pass of joint spectra ---------------------------------------------

class TestJointSpectra:
    def test_ladder_rungs_in_both_lanes(self):
        families = ladder_families()
        for seed in (0, 202):
            assert_stack_equals_reference(families, [seed] * len(families))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_verify_draws(self, seed):
        draws = [draw for call in verify_draws(seed) for draw in call]
        families = [list(mats) for sysd, _ in draws for mats in (sysd.H_L, sysd.H_sing)]
        seeds = [s for _, s in draws for _ in range(2)]
        spectra = assert_stack_equals_reference(families, seeds)
        assert all(not isinstance(sp, ClusterAmbiguityError) for sp in spectra)

    def test_clusters_and_ambiguous_pairs_mixed_with_simple_families(self):
        families = odd_families() + ladder_families()[:4] + [[np.zeros((0, 0), complex)] * 2]
        spectra = assert_stack_equals_reference(families, [202] * len(families))
        rejected = [isinstance(sp, ClusterAmbiguityError) for sp in spectra]
        sizes = [max((mult for _, mult, _ in sp), default=0) for sp, r in zip(spectra, rejected)
                 if not r]
        # the gaps of 9.9 and 3 tolerances and the seed-202 splits are
        # rejected; clusters of size 2 and 3 and the simple families stand
        assert rejected[6:12] == [True, False, False, True, True, True]
        assert sum(rejected) == 4
        assert {2, 3} <= set(sizes) and 1 in sizes and spectra[-1] == []

    def test_joint_spectrum_is_the_one_family_call(self):
        for mats in odd_families():
            want = reference_bits(mats, 202)
            try:
                got = bits(joint_spectrum(mats, seed=202))
            except ClusterAmbiguityError as err:
                got = bits(err)
            assert got == want

    def test_cluster_tolerance_reaches_the_stack(self):
        tol = Tolerances(cluster=1e-5)
        families = odd_families()
        assert_stack_equals_reference(families, [0] * len(families), tol)


# --- the stacked back stages -----------------------------------------------

def quotient_points(draws):
    """(inst, system, quotient-spectrum points) of each draw, from one scheme
    pass as the pipeline runs it."""
    spectra = [joint_spectrum(list(sysd.H_L), seed) for sysd, seed in draws]
    reports = match_spectra_to_scheme([(sysd.inst, sp) for (sysd, _), sp in zip(draws, spectra)])
    return [(sysd.inst, sysd, rep.points) for (sysd, _), rep in zip(draws, reports)]


def vector_bits(bv):
    if isinstance(bv, VerificationError):
        return str(bv)
    return (bv.weights.tobytes(), np.asarray(bv.omega_L).tobytes(),
            repr(bv.eigen_residuals), repr(bv.e12_residual), bv.via_subspace, repr(bv.roots))


def weight_bits(ws):
    return (type(ws).__name__, str(ws)) if isinstance(ws, Exception) else repr(ws)


class TestStackedBack:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bethe_vectors_equal_one_group_calls(self, seed):
        for draws in verify_draws(seed):
            groups = quotient_points(draws)
            stacked = stacked_bethe_vectors(groups)
            assert [len(g) for g in stacked] == [len(points) for _, _, points in groups]
            for (inst, sysd, points), got in zip(groups, stacked):
                want = bethe_vectors(inst, sysd, points)
                assert [vector_bits(b) for b in got] == [vector_bits(b) for b in want]

    def test_bethe_vectors_keep_one_lane(self):
        # the float lane only: an exact system is rejected, with points or
        # without, alone or beside a float one
        inst = ProblemInstance([1] * 4, 2, range(4))
        exact, fl = build_gaudin(inst), build_gaudin(inst.to_float())
        for groups in ([(inst, exact, [])], [(inst, exact, []), (inst.to_float(), fl, [])]):
            with pytest.raises(DomainError, match="exact system"):
                stacked_bethe_vectors(groups)
        assert stacked_bethe_vectors([(inst.to_float(), fl, [])]) == [[]]

    def test_scheme_and_weights_take_float_twins(self):
        # an exact instance is rejected; the one-group calls pass its twin
        inst = ProblemInstance([1] * 4, 2, range(4))
        for stage in (match_spectra_to_scheme, stacked_grothendieck_weights):
            with pytest.raises(DomainError, match="float twin"):
                stage([(inst, [])])
        assert stacked_grothendieck_weights([(inst.to_float(), [])]) == [[]]
        assert grothendieck_weights(inst, []) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grothendieck_weights_equal_one_group_calls(self, seed):
        for draws in verify_draws(seed):
            groups = [(inst, points) for inst, _, points in quotient_points(draws)]
            for (inst, points), got in zip(groups, stacked_grothendieck_weights(groups)):
                try:
                    want = grothendieck_weights(inst, points)
                except SingularJacobianError as err:
                    want = err
                assert weight_bits(got) == weight_bits(want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_diagonalizability_equals_reference(self, seed):
        groups = [(list(mats), joint_spectrum(list(mats), s)) for call in verify_draws(seed)
                  for sysd, s in call for mats in (sysd.H_L, sysd.H_sing)]
        # clusters of size 2 and 3, a spectrum short of its size and an empty family
        for mats in odd_families()[:6]:
            groups.append((mats, joint_spectrum(mats, 0)))
        groups.append((groups[0][0], groups[0][1][1:]))
        groups.append(([np.zeros((0, 0), complex)] * 2, []))
        got = stacked_diagonalizability_checks(groups)
        assert [repr(g) for g in got] == \
            [repr(reference_diagonalizability_check(m, sp)) for m, sp in groups]
        assert got[-2] == (False, float("inf")) and got[-1] == (True, 0.0)


class TestOnePassPerStage:
    def test_verify(self, monkeypatch):
        # cmd_verify(FOUR_SPINS, 4): one batched SVD per algebra reduction
        # (the cyclic block, the quotient kernel, the annihilator), one
        # batched eig per space, each sample's Bethe span rank, and one SVD
        # of every Jacobian
        eigs, svds = [], []
        real_eig, real_svd = np.linalg.eig, np.linalg.svd

        def eig(a):
            eigs.append(np.shape(a))
            return real_eig(a)

        def svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                svds.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", eig)
        monkeypatch.setattr(np.linalg, "svd", svd)
        report, _ = cmd_verify(FOUR_SPINS, 4)
        sysd = build_gaudin(ProblemInstance([1] * 4, 2, range(4)))
        assert eigs == [(4,) + (sysd.dim_sing_l,) * 2, (4,) + (sysd.dim_sing_m,) * 2]
        points = [s["distinct_points"]["sing_l"] for s in report["samples"]]
        dm, dl = sysd.dim_sing_m, sysd.dim_sing_l
        assert svds == [(4, dm, dm), (4, dl, dm), (4, dm * (dm - dl), dm)] + \
            [(1, dl, p) for p in points] + [(sum(points), 4, 4)]

    def test_each_stage_once(self, monkeypatch):
        calls = []
        for name in ("joint_spectra", "stacked_bethe_vectors", "stacked_grothendieck_weights",
                     "stacked_diagonalizability_checks"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda groups, *args, _n=name, _f=real:
                                calls.append((_n, len(groups))) or _f(groups, *args))
        cmd_verify(FOUR_SPINS, 4)
        assert calls == [("joint_spectra", 8), ("stacked_bethe_vectors", 4),
                         ("stacked_grothendieck_weights", 4),
                         ("stacked_diagonalizability_checks", 2)]


# --- degenerate points fail their checks by name ---------------------------

class TestDegeneratePoints:
    def test_empty_closure_fails_the_bethe_vector(self):
        sysd = build_gaudin(ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0]))
        zero = np.zeros(sysd.dim_sing_m, dtype=complex)
        with pytest.raises(VerificationError, match="closure of the weight vector is empty"):
            _eigenline_via_subspace(sysd.shq.sh, sysd.H_sing, sysd.H_L, zero, (0j,) * 4,
                                    DEFAULT_TOL)

    @pytest.mark.parametrize("m, l, z, failed, message", [
        ([1, 1, 1], 1, ["0", "1e-100", "2e-100"], "bethe_vector",
         "algebra closure of the weight vector is empty"),
        ([2, 2, 2, 2], 3, ["0", "1e-50", "2e-50", "3e-50"], "grothendieck_jacobian",
         "Jacobian determinant underflows to 0"),
        ([1, 1, 1, 1], 2, ["0", "1e-80", "2e-80", "3e-80"], "grothendieck_jacobian",
         "Jacobian SVD did not converge"),
    ])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fails_by_name(self, m, l, z, failed, message, mode):
        rep, fails = cmd_spectrum({"m": m, "l": l, "z": z, "mode": mode, "seed": 0})
        assert failed in fails
        errors = [b.get("error", "") for b in rep["bethe_vectors"]] + \
            [(rep["grothendieck"] or {}).get("error", "")]
        assert any(e.startswith(message) for e in errors)

    def test_unconverged_svd_warns_nothing(self):
        # a Jacobian row maximum underflows, so the equilibrated Jacobian is
        # not finite: its SVD fails by name, and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, fails = cmd_spectrum({"m": [1, 1, 1, 1], "l": 2,
                                       "z": ["0", "1e-80", "2e-80", "3e-80"], "seed": 0})
        assert fails == ["sing_l_kernel_pair_roundtrip", "bethe_vector", "bethe_vector",
                         "grothendieck_jacobian"]
        assert rep["grothendieck"] == {"error": "Jacobian SVD did not converge"}

    def test_overflowing_closure_warns_nothing(self):
        # float (1,1,1),1 at z about 1e-100 apart: level-2 products of the
        # Hamiltonians reach 1e200, whose squared norms overflow in the
        # algebra closure; the gates fail by name, and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, fails = cmd_spectrum({"m": [1, 1, 1], "l": 1, "z": ["0", "1e-100", "2e-100"],
                                       "mode": "float", "seed": 0})
        assert fails == ["bethe_dim_vs_sing_l", "annihilator_dim_vs_sing_l",
                         "sing_l_kernel_pair_roundtrip", "bethe_vector", "bethe_vector",
                         "grothendieck_jacobian"]
        assert rep["failures"] == fails

    @pytest.mark.parametrize("mode, dims", [
        ("exact", []), ("float", ["bethe_dim_vs_sing_l", "annihilator_dim_vs_sing_l"])])
    def test_non_finite_residuals_fail_as_inf(self, mode, dims):
        # (1^4),2 at z about 1e60 apart: W_s(t) overflows, so a weight vector
        # and the scheme residuals are NaN; each is recorded as inf and fails
        # by name, the report is valid JSON, and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, fails = cmd_spectrum({"m": [1, 1, 1, 1], "l": 2,
                                       "z": ["0", "1e60", "2e60", "3e60"], "mode": mode,
                                       "seed": 0})
        assert fails == dims + ["sing_l_scheme", "sing_l_ptilde", "sing_m_scheme",
                                "bethe_vector"]
        assert rep["bethe_vectors"][0]["error"] == "eigen-relation residual inf"
        json.dumps(rep, allow_nan=False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_scheme_residual_is_reported_as_inf(self):
        # float (1^4),2 at z about 1e100 apart: the scheme residual is NaN
        rep, fails = cmd_spectrum({"m": [1, 1, 1, 1], "l": 2, "mode": "float", "seed": 0,
                                   "z": ["0", "1e100", "2e100", "3e100"]})
        assert {"sing_l_scheme", "sing_m_scheme"} <= set(fails)
        assert rep["spectrum_sing_l"]["residual_summary"]["scheme"] == "inf"
        assert {p["residuals"]["scheme"] for p in rep["spectrum_sing_m"]["points"]} == {"inf"}
        json.dumps(rep, allow_nan=False)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("far", ["1e100", "1e150"])
    def test_far_apart_points_fail_by_name_without_warnings(self, far, mode):
        # (1^4),2 at z about 1e100 and 1e150 apart: the z-tables and the
        # products on D_h overflow.  At 1e150 the stacked SVD of the second
        # kernel's least squares does not converge: each point takes its own,
        # the unconverged ones fail ptilde, and their NaN a have NaN Bethe
        # roots, which fail bethe_vector.  numpy warns of nothing
        z = ["0", far] + [f"{k}{far[1:]}" for k in (2, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, fails = cmd_spectrum({"m": [1, 1, 1, 1], "l": 2, "z": z, "mode": mode,
                                       "seed": 0})
        assert {"sing_l_scheme", "sing_l_ptilde", "sing_m_scheme", "bethe_vector"} <= set(fails)
        assert rep["failures"] == fails
        errors = {p["residuals"].get("ptilde_error") for p in rep["spectrum_sing_l"]["points"]}
        assert all(e.startswith("least-squares residual") for e in errors)
        assert rep["bethe_vectors"][0]["error"] == "eigen-relation residual inf"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_non_finite_values_are_strict_json(self, mode):
        # (1^4),2 at z about 1e150 apart: every point's a is NaN, and the
        # report writes it (and any other non-finite float) as a string
        import jsonschema
        from pathlib import Path
        rep, _ = cmd_spectrum({"m": [1, 1, 1, 1], "l": 2,
                               "z": ["0", "1e150", "2e150", "3e150"], "mode": mode, "seed": 0})
        text = json.dumps(rep, allow_nan=False)
        assert all(v == ["nan", "nan"] for p in rep["spectrum_sing_l"]["points"] for v in p["a"])
        schema = json.loads((Path(__file__).parent.parent / "docs" / "report_schema.json")
                            .read_text())
        jsonschema.validate(json.loads(text), schema)

    def test_unconverged_least_squares_fails_its_point_only(self, monkeypatch):
        # a second kernel stack whose pinv fails as a whole and then at one
        # matrix: that point fails ptilde, the others keep their solutions
        ((inst, _, points),) = quotient_points(verify_draws(0)[0][:1])
        D = dh_matrices(inst, [p.h for p in points])
        hscale = [1.0] * len(D)
        want = opscheme.stacked_second_kernel(inst, D, hscale, DEFAULT_TOL)
        real = np.linalg.pinv

        def flaky(A):
            if A.ndim == 3 or np.array_equal(A, bad):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(A)

        lt, l = inst.ltilde, inst.l
        bad = D[1][lt + inst.n - 3::-1][:, opscheme._atilde_columns(lt, l)]
        monkeypatch.setattr(np.linalg, "pinv", flaky)
        x, pt, err = opscheme.stacked_second_kernel(inst, D, hscale, DEFAULT_TOL)
        assert err[1] == "least-squares residual nan exceeds gate"
        assert np.isnan(x[1]).all()
        keep = [i for i in range(len(D)) if i != 1]
        assert [err[i] for i in keep] == [want[2][i] for i in keep]
        assert x[keep].tobytes() == want[0][keep].tobytes()

    def test_non_finite_a_has_nan_roots(self):
        # a row of a with a NaN has NaN roots; the finite row keeps its own
        A = np.array([[1 + 0j, -2 + 0j], [np.nan, 1 + 0j]])
        roots = sov._roots(A)
        assert np.isnan(roots[1]).all()
        assert roots[0].tobytes() == sov._roots(A[:1])[0].tobytes()
        assert sorted(roots[0].real.round(12)) == [-2, 1]

    def test_nan_residual_is_recorded_as_inf(self):
        run = cli._Run(build_gaudin(ProblemInstance([1, 1], 1, [0, 1])), 0, DEFAULT_TOL)
        assert [run.check("a", float("nan")), run.check("b", 0.0)] == ["inf", 0.0]
        assert run.failures == ["a"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_unconverged_svd_leaves_the_rest(self, monkeypatch):
        # three (2^4),3 draws of verify, a NaN in one Jacobian: that
        # group's weights fail and the others keep theirs
        groups = [(inst, points) for inst, _, points in quotient_points(verify_draws(0)[0][:3])]
        want = stacked_grothendieck_weights(groups)
        real = spectral.stacked_jacobian

        def poisoned(tables, sample, H, A):
            J = real(tables, sample, H, A)
            J[np.flatnonzero(np.asarray(sample) == 1)[0], 0, 0] = np.nan
            return J

        monkeypatch.setattr(spectral, "stacked_jacobian", poisoned)
        got = stacked_grothendieck_weights(groups)
        assert isinstance(got[1], SingularJacobianError)
        assert str(got[1]).startswith("Jacobian SVD did not converge")
        assert [weight_bits(got[0]), weight_bits(got[2])] == \
            [weight_bits(want[0]), weight_bits(want[2])]
