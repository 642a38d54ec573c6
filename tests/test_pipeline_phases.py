"""run_pipeline and cmd_verify, which run the pipeline in phases with one
stacked scheme pass per command, against the one-system pipeline they
replaced, and the stacked scheme pass against one pass per spectrum.

reference_run_pipeline and reference_cmd_verify below are that pipeline
and its per-sample verify loop, kept verbatim apart from their names: each
sample runs the whole pipeline, with one scheme pass per spectrum.
"""

import json
import time

import numpy as np
import pytest

from gaudinlab import cli, gaudin, spectral
from gaudinlab.cli import (
    ConfigError,
    _sample_z,
    _ser,
    _ser_seq,
    cmd_spectrum,
    cmd_verify,
    load_config,
    run_pipeline,
)
from gaudinlab.gaudin import (
    IDENTITIES,
    GaudinFrame,
    GaudinSystem,
    annihilator_ideal,
    bethe_algebra_basis,
    build_gaudin,
    induced_map_kernel,
)
from gaudinlab.gl2rep import ProblemInstance, weight_space_dim
from gaudinlab.numcore import Tolerances, max_abs, rank_of
from gaudinlab.opscheme import schubert_dimension
from gaudinlab.sov import VerificationError, bethe_vectors
from gaudinlab.spectral import (
    ClusterAmbiguityError,
    SingularJacobianError,
    _scheme_residuals,
    diagonalizability_check,
    grothendieck_weights,
    joint_spectrum,
    match_spectrum_to_scheme,
)

from conftest import LADDER, load_perfbench, pipeline_spectrum

E1_CONFIG = {"m": [1, 1], "l": 1, "z": ["0", "1"], "mode": "exact", "seed": 0}
FOUR_SPINS = {"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1", "2", "3"], "seed": 0}


# --- the one-system pipeline and per-sample verify loop --------------------

def reference_run_pipeline(sysd: GaudinSystem, seed: int, tol: Tolerances):
    """Check everything for one built system; returns (report dict, failures,
    spec_l), spec_l being H_L's joint spectrum ([] if no seed separated it)."""
    t0 = time.perf_counter()
    failures = []
    inst = sysd.inst
    exact = inst.exact

    def check(name, residual, gate=tol.residual):
        residual = float(residual)
        if residual > gate:
            failures.append(name)
        return residual

    n, l = inst.n, inst.l
    dim_m, dim_l = sysd.dim_sing_m, sysd.dim_sing_l
    schub = schubert_dimension(inst.m, l)

    alg_m = bethe_algebra_basis(list(sysd.H_sing), tol) if dim_m else []
    ker = induced_map_kernel(alg_m, sysd.shq.sh, tol) if alg_m else []
    ann = annihilator_ideal(alg_m, ker, tol) if alg_m else []
    # the certified P Omega_hat = Omega_tilde P makes f -> f~ (P f = f~ P) a map
    # of the algebra onto B_L with kernel ker: dim B_L = dim B - dim ker
    dim_bethe_l = len(alg_m) - len(ker)

    dim_checks = {
        "dim_sing_m_vs_count":
            abs(dim_m - (weight_space_dim(n, l) - weight_space_dim(n, l - 1))),
        "dim_sing_l_vs_schubert": abs(dim_l - schub),
        "bethe_dim_vs_sing_l": abs(dim_bethe_l - dim_l),
        "annihilator_dim_vs_sing_l": abs(len(ann) - dim_l),
    }
    # Every H_s is the frame's combination at this z, so the identities hold
    # for every z once the frame certificate (integer, computed once per
    # frame) holds; a certificate defect fails at literal zero in both lanes.
    cert = sysd.frame.certificate
    global_checks = {k: check(k, cert[k], 0.0) for k in IDENTITIES}
    global_checks.update((k, check(k, v)) for k, v in dim_checks.items())

    # spectral side (float lane)
    def draw(mats):
        """(joint spectrum, its seed) at the first of six seeds that separates it, or None."""
        for s in range(seed, seed + 6):
            try:
                return joint_spectrum(list(mats), seed=s, tol=tol), s
            except ClusterAmbiguityError:
                continue

    drawn = [draw(sysd.H_L), draw(sysd.H_sing)]
    if None in drawn:
        failures.append("cluster_separation")
    (spec_l, seed_l), (spec_m, seed_m) = (d or ([], seed) for d in drawn)

    # one float twin, so its operator blocks are built once per pipeline
    finst = inst.to_float() if exact else inst
    report_l = match_spectrum_to_scheme(finst, spec_l, tol=tol)
    report_m = match_spectrum_to_scheme(finst, spec_m, tol=tol)
    check("spectrum_total_sing_l", abs(report_l.total_multiplicity - dim_l))
    check("spectrum_total_sing_m", abs(report_m.total_multiplicity - dim_m))
    for rep, tag in ((report_l, "sing_l"), (report_m, "sing_m")):
        for k, v in rep.residual_summary.items():
            if k in ("ptilde", "wronskian", "kernel_pair_roundtrip") and tag == "sing_m":
                continue  # guaranteed only on the quotient side
            check(f"{tag}_{k}", v)

    # trace identity on both spaces
    trace_resid = 0.0
    for mats, rep, dim in ((sysd.H_L, report_l, dim_l), (sysd.H_sing, report_m, dim_m)):
        if dim == 0:
            continue
        for s in range(n):
            tr = sum(complex(mats[s][i, i]) for i in range(dim))
            acc = sum(p.multiplicity * p.h[s] for p in rep.points)
            trace_resid = max(trace_resid,
                              abs(acc - tr) / (dim * max(1.0, max_abs(mats[s]))))
    check("trace_identity", trace_resid)

    # Bethe vectors on the quotient spectrum
    bethe_entries = []
    bmax = 0.0
    omega_ls = []
    fsys = build_gaudin(finst, sysd.frame) if (exact and report_l.points) else sysd
    for p, bv in zip(report_l.points, bethe_vectors(finst, fsys, report_l.points, tol=tol)):
        if isinstance(bv, VerificationError):
            failures.append("bethe_vector")
            bethe_entries.append({"h": _ser_seq(p.h), "error": str(bv)})
            continue
        bmax = max(bmax, max(bv.eigen_residuals, default=0.0), bv.e12_residual)
        omega_ls.append(np.asarray(bv.omega_L, dtype=complex))
        bethe_entries.append({
            "h": _ser_seq(p.h),
            "bethe_roots": _ser_seq(bv.roots),
            "eigen_residuals": _ser_seq(bv.eigen_residuals),
            "e12_residual": _ser(bv.e12_residual),
            "via_subspace": bv.via_subspace,
        })
    check("bethe_eigen_residual", bmax)
    span_rank = 0
    if omega_ls and dim_l:
        span_rank = rank_of(np.stack(omega_ls, axis=1), tol.svd_rel)
        if report_l.all_simple:
            check("bethe_span_rank", abs(span_rank - dim_l))

    groth = None
    if report_l.all_simple and report_l.points:
        try:
            ws = grothendieck_weights(finst, report_l.points, tol=tol)
            funcs = [[1.0] * len(report_l.points)] + \
                [[complex(p.h[s]) for p in report_l.points] for s in range(n)]
            gram = np.array([[sum(w * (fi * fj) for w, fi, fj in zip(ws, f1, f2))
                              for f2 in funcs] for f1 in funcs])
            sym = float(np.abs(gram - gram.T).max())
            groth = {"weights": _ser_seq(ws),
                     "form_symmetry": check("grothendieck_symmetry", sym)}
        except SingularJacobianError as err:
            failures.append("grothendieck_jacobian")
            groth = {"error": str(err)}

    def point_dict(p):
        return {
            "h": _ser_seq(p.h),
            "a": _ser_seq(p.a),
            "atilde": _ser_seq(p.atilde) if p.atilde is not None else None,
            "multiplicity": p.multiplicity,
            "residuals": {k: _ser(v) for k, v in p.residuals.items()},
        }

    report = {
        "dims": {
            "weight_space": weight_space_dim(n, l),
            "sing_m": dim_m,
            "sing_l": dim_l,
            "schubert": schub,
            "bethe_algebra_sing_m": len(alg_m),
            "bethe_algebra_sing_l": dim_bethe_l,
            "annihilator": len(ann),
        },
        "global_checks": global_checks,
        "spectrum_sing_l": {
            "seed": seed_l,
            "total_multiplicity": report_l.total_multiplicity,
            "all_simple": report_l.all_simple,
            "points": [point_dict(p) for p in report_l.points],
            "residual_summary": {k: _ser(v) for k, v in
                                 report_l.residual_summary.items()},
        },
        "spectrum_sing_m": {
            "seed": seed_m,
            "total_multiplicity": report_m.total_multiplicity,
            "all_simple": report_m.all_simple,
            "points": [point_dict(p) for p in report_m.points],
        },
        "trace_identity": trace_resid,
        "bethe_vectors": bethe_entries,
        "bethe_span_rank": span_rank,
        "grothendieck": groth,
        "timing": time.perf_counter() - t0,
    }
    return report, failures, spec_l


def reference_cmd_verify(config: dict, samples: int):
    """Re-run the pipeline across seeded random z draws (real and complex).

    Checks that the multiplicity-weighted point counts are constant across
    draws and equal the space dimensions, and that real draws produce a
    simple, honestly diagonalizable spectrum.  Every draw is built on one
    frame; a gate that fails in one draw is listed in that draw's entry.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    inst0, mode, seed, tol = load_config(config)
    rng = np.random.default_rng(seed)
    runs = []
    failures = []
    counts = []
    frame = GaudinFrame(inst0)
    for k in range(samples):
        kind = "real" if k % 2 == 0 else "complex"
        z = _sample_z(rng, inst0.n, kind)
        inst = ProblemInstance(inst0.m, inst0.l, z)
        sysd = build_gaudin(inst, frame)
        rep, fails, spec_l = reference_run_pipeline(sysd, seed + 1000 * k, tol)
        entry = {
            "z": _ser_seq(inst.z),
            "kind": kind,
            "totals": {"sing_m": rep["spectrum_sing_m"]["total_multiplicity"],
                       "sing_l": rep["spectrum_sing_l"]["total_multiplicity"]},
            "distinct_points": {
                "sing_m": len(rep["spectrum_sing_m"]["points"]),
                "sing_l": len(rep["spectrum_sing_l"]["points"])},
            "all_simple": rep["spectrum_sing_l"]["all_simple"],
            "failures": fails,
        }
        counts.append((entry["totals"]["sing_m"], entry["totals"]["sing_l"]))
        if fails:
            failures.append(f"sample_{k}:" + ",".join(fails))
        if kind == "real":
            ok_l, worst = diagonalizability_check(list(sysd.H_L), spec_l, tol=tol)
            entry["diagonalizable"] = bool(ok_l)
            entry["diagonalizability_residual"] = _ser(worst)
            if not (ok_l and entry["all_simple"]):
                failures.append(f"sample_{k}:real_z_multiplicity_one")
        runs.append(entry)
    if len(set(counts)) != 1:
        failures.append("counts_vary_across_z")
    report = {
        "instance": {"m": list(inst0.m), "l": inst0.l, "mode": mode, "seed": seed},
        "samples": runs,
        "counts_constant": len(set(counts)) == 1,
        "failures": failures,
    }
    return report, failures


# --- the phased pipeline against the reference -----------------------------

def dumps(report) -> str:
    return json.dumps(report, sort_keys=True)


def without_timing(report) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


VERIFY_CASES = [(call.config, call.samples) for seed in (0, 1)
                for call in load_perfbench("workloads").float_verify(seed)] + \
    [(config, k) for config in (E1_CONFIG, FOUR_SPINS) for k in (1, 4)] + \
    [({"m": list(m), "l": l, "z": [str(v) for v in range(len(m))], "mode": "float",
       "seed": seed}, 2)
     for m, l in (((2,) * 4, 3), ((3,) * 4, 4), ((1,) * 5, 2), ((1, 2, 3), 2), ((1,) * 6, 3))
     for seed in range(6)]

SPECTRUM_CASES = [
    E1_CONFIG, FOUR_SPINS, {**FOUR_SPINS, "mode": "float"},
    # the float annihilator case, a Bethe root on a marked point (a failed
    # Grothendieck Jacobian, then a failed Bethe vector too) and a reseed
    {"m": [3, 2, 3, 1], "l": 2, "z": ["7", "1/4", "0", "8/3"], "mode": "float", "seed": 0},
    {"m": [1, 0, 1, 2], "l": 2, "z": ["-1", "1/2", "5", "8"], "seed": 0},
    {"m": [0, 3, 0, 2], "l": 1, "z": ["2", "5", "-1", "0"], "seed": 0},
    {"m": [1, 3, 0], "l": 1, "z": ["2", "-2", "-4"], "seed": 202},
] + [{"m": list(m), "l": l, "z": [str(v) for v in z], "mode": mode, "seed": 0}
     for m, l, z in LADDER for mode in ("exact", "float")]


def assert_same_pipeline(got, want):
    (rep, fails, spec), (ref, ref_fails, ref_spec) = got, want
    assert dumps(without_timing(rep)) == dumps(without_timing(ref))
    assert fails == ref_fails
    assert len(spec) == len(ref_spec)
    for (h, mult, Q), (rh, rmult, rQ) in zip(spec, ref_spec):
        assert (h, mult) == (rh, rmult) and np.array_equal(Q, rQ)


class TestPhasesEqualReference:
    @pytest.mark.parametrize("case", range(len(VERIFY_CASES)))
    def test_verify(self, case):
        config, samples = VERIFY_CASES[case]
        report, failures = cmd_verify(config, samples)
        ref, ref_failures = reference_cmd_verify(config, samples)
        assert dumps(report) == dumps(ref)
        assert failures == ref_failures

    @pytest.mark.parametrize("case", range(len(SPECTRUM_CASES)))
    def test_pipeline(self, case):
        inst, _, seed, tol = load_config(SPECTRUM_CASES[case])
        assert_same_pipeline(run_pipeline(build_gaudin(inst), seed, tol),
                             reference_run_pipeline(build_gaudin(inst), seed, tol))

    def test_corrupted_frame(self):
        # the off-plane Sing M points of a corrupted frame fail by name in
        # both pipelines
        frame = off_plane_frame()
        finst = ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])
        got = run_pipeline(build_gaudin(finst, frame), 0, Tolerances())
        assert "sing_m_q_0" in got[1]
        assert_same_pipeline(got, reference_run_pipeline(build_gaudin(finst, frame), 0,
                                                          Tolerances()))


# --- one stacked scheme pass against one pass per spectrum -----------------

def off_plane_frame():
    """The (1^4),2 frame with one diagonal entry of Omega_hat_{0,1} raised
    by 1, which puts a float Sing M point at q_0 = -3.5e-3."""
    frame = GaudinFrame(ProblemInstance([1] * 4, 2, range(4)))
    W = frame.omega_sing[0, 1].copy()
    W[0, 0] += 1
    frame.omega_sing[0, 1] = frame.omega_sing[1, 0] = W
    return frame


def spectrum_group(finst, mats, seed):
    """(finst, H): the points of mats' joint spectrum as run_pipeline draws it."""
    hs = [h for h, _, _ in pipeline_spectrum(list(mats), seed)]
    return finst, np.array(hs, dtype=complex).reshape(len(hs), finst.n)


def sampled_groups(m, l, draws):
    """Both spectra's groups at each of draws z, drawn as cmd_verify draws
    them (real, then complex, ...) and built on one frame."""
    rng = np.random.default_rng(0)
    frame = GaudinFrame(ProblemInstance(m, l, list(range(len(m)))))
    groups = []
    for k in range(draws):
        inst = ProblemInstance(m, l, _sample_z(rng, len(m), "real" if k % 2 == 0 else "complex"))
        sysd = build_gaudin(inst, frame)
        groups += [spectrum_group(inst, mats, 1000 * k) for mats in (sysd.H_L, sysd.H_sing)]
    return groups


def assert_stacked_equals_single(groups, tol=Tolerances()):
    """One pass over every group gives each group's one-group pass, bit for
    bit (repr tells every float bit apart), keys and error texts included."""
    stacked = _scheme_residuals(groups, tol)
    assert [len(out) for out in stacked] == [len(H) for _, H in groups]
    assert repr(stacked) == repr([_scheme_residuals([g], tol)[0] for g in groups])
    return stacked


# the ladder rungs; n = 2, with one point per spectrum at (2, 2), 2, where
# a one-row product can round apart from a many-row one; l = 0; lt <= l;
# a Sing M point without ptilde
STACK_CASES = [(m, l) for m, l, _ in LADDER] + \
    [((2, 1), 1), ((2, 2), 2), ((2, 1), 0), ((1, 1, 1), 2), ((2, 0, 1), 1)]


class TestStackedSchemePass:
    @pytest.mark.parametrize("case", range(len(STACK_CASES)))
    def test_equals_one_pass_per_group(self, case):
        m, l = STACK_CASES[case]
        groups = sampled_groups(m, l, 4)
        groups.insert(1, (groups[0][0], np.zeros((0, len(m)), dtype=complex)))
        assert_stacked_equals_single(groups)

    def test_off_plane_point(self):
        finst = ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])
        bad = spectrum_group(finst, build_gaudin(finst, off_plane_frame()).H_sing, 0)
        groups = sampled_groups([1] * 4, 2, 2)
        stacked = assert_stacked_equals_single(groups[:1] + [bad] + groups[1:])
        errors = [res.get("ptilde_error", "") for _, _, res in stacked[1]]
        assert any("off the constraint plane" in e for e in errors)

    @pytest.mark.parametrize("gate, key", [(1.0, "admissible_error"),
                                           (2e-15, "malformed_pair_error")])
    def test_kernel_pair_failures(self, gate, key):
        m, l, _ = LADDER[3]
        stacked = assert_stacked_equals_single(sampled_groups(m, l, 2), Tolerances(residual=gate))
        assert any(key in res for out in stacked for _, _, res in out)

    def test_no_points(self):
        inst = ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])
        assert _scheme_residuals([], Tolerances()) == []
        empty = (inst, np.zeros((0, 4), dtype=complex))
        assert _scheme_residuals([empty, empty], Tolerances()) == [[], []]


class TestFloatTwinBoundary:
    """The stages past the joint spectrum (scheme matching, Bethe vectors,
    Grothendieck weights) see only float instances and float systems, also
    in an exact run."""

    @pytest.mark.parametrize("config", [
        FOUR_SPINS,
        # Sing_L = 0: no quotient point, so no Grothendieck weights
        {"m": [1, 1, 1], "l": 2, "z": ["0", "1", "2"], "seed": 0},
    ])
    def test_exact_spectrum(self, monkeypatch, config):
        seen = {}

        def spy(name, lanes):
            real = getattr(cli, name)

            def wrapped(groups, *args):
                groups = list(groups)
                seen.setdefault(name, []).extend(lanes(groups))
                return real(groups, *args)
            monkeypatch.setattr(cli, name, wrapped)

        spy("match_spectra_to_scheme", lambda gs: [inst.exact for inst, _ in gs])
        spy("stacked_grothendieck_weights", lambda gs: [inst.exact for inst, _ in gs])
        spy("stacked_bethe_vectors",
            lambda gs: [x.exact for inst, sysd, _ in gs for x in (inst, sysd.inst)])
        assert load_config(config)[1] == "exact"
        report, failures = cmd_spectrum(config)
        assert failures == []
        points = report["spectrum_sing_l"]["points"]
        assert seen["match_spectra_to_scheme"] == [False, False]
        assert seen["stacked_bethe_vectors"] == [False, False]
        assert seen.get("stacked_grothendieck_weights", []) == ([False] if points else [])
        assert (report["grothendieck"] is None) == (not points)


class TestOnePassPerCommand:
    @pytest.fixture
    def passes(self, monkeypatch):
        """The number of groups of each stacked scheme pass."""
        calls = []
        real = spectral._scheme_residuals

        def spy(groups, tol, tables=None):
            calls.append(len(groups))
            return real(groups, tol, tables)

        monkeypatch.setattr(spectral, "_scheme_residuals", spy)
        return calls

    def test_verify(self, passes):
        cmd_verify(FOUR_SPINS, 4)
        assert passes == [8]

    def test_spectrum(self, passes):
        cmd_spectrum(FOUR_SPINS)
        assert passes == [2]

    def test_cyclic_block_only_on_the_per_system_path(self, monkeypatch):
        # spectrum searches its system's block once; a verify whose samples
        # all pass the all-ones certificate searches none
        calls = []
        real = gaudin._cyclic_block

        def spy(algebra, tol):
            calls.append(len(algebra))
            return real(algebra, tol)

        monkeypatch.setattr(gaudin, "_cyclic_block", spy)
        cmd_spectrum(FOUR_SPINS)
        assert len(calls) == 1
        cmd_verify(FOUR_SPINS, 4)
        assert len(calls) == 1

    def test_algebra_stage_forms_no_matrices(self, monkeypatch):
        # the kernel and annihilator are counted from coefficient vectors,
        # on the per-system path (spectrum) and the certified stack (verify)
        calls = []
        real = gaudin._combinations
        monkeypatch.setattr(gaudin, "_combinations",
                            lambda algebra, combos: calls.append(len(combos)) or
                            real(algebra, combos))
        cmd_spectrum(FOUR_SPINS)
        cmd_verify(FOUR_SPINS, 4)
        assert calls == []

    @pytest.mark.parametrize("config", [FOUR_SPINS, {**FOUR_SPINS, "m": [3] * 4, "l": 4}])
    def test_closure_once_per_command(self, monkeypatch, config):
        calls = []
        real = gaudin.bethe_algebra_basis
        monkeypatch.setattr(gaudin, "bethe_algebra_basis",
                            lambda mats, *args: calls.append(len(mats)) or real(mats, *args))
        _, failures = cmd_verify(config, 6)
        assert calls == [4] and failures == []
