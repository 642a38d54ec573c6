import dataclasses
import importlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from gaudinlab.cli import (
    CONFIG_SCHEMA,
    SCHEMA_KEYWORDS,
    ConfigError,
    _sample_z,
    cmd_schubert,
    cmd_spectrum,
    cmd_verify,
    load_config,
    main,
    run_pipeline,
    schema_violation,
)
from gaudinlab import gaudin
from gaudinlab.gaudin import build_gaudin
from gaudinlab.gl2rep import ProblemInstance
from gaudinlab.numcore import Tolerances
from gaudinlab.spectral import ClusterAmbiguityError


E1_CONFIG = {"m": [1, 1], "l": 1, "z": ["0", "1"], "mode": "exact", "seed": 0}
FOUR_SPINS = {"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1", "2", "3"], "seed": 0}
FLOAT_2_4 = {"m": [2, 2, 2, 2], "l": 3, "z": ["0", "1", "3", "7"], "mode": "float",
             "seed": 0}
LAYERS = ("cli", "gaudin", "gl2rep", "numcore", "opscheme", "spectral", "sov")


def count_calls(monkeypatch, names):
    """{name: calls so far}, counting each named function under every name a
    gaudinlab module holds it by."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for layer in LAYERS:
        module = importlib.import_module(f"gaudinlab.{layer}")
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


class TestConfig:
    def test_duplicate_z_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"m": [1, 1], "l": 1, "z": ["0", "0"]})
        # distinct rationals whose float twins coincide
        with pytest.raises(ConfigError, match="also as floats"):
            load_config({"m": [1, 1], "l": 1, "z": ["1", "1.00000000000000000001"]})

    def test_schema_violation(self):
        with pytest.raises(ConfigError):
            load_config({"m": [1, 1], "l": -1, "z": ["0", "1"]})
        with pytest.raises(ConfigError):
            load_config({"m": [1, 1], "z": ["0", "1"]})
        with pytest.raises(ConfigError):    # accepted keys: svd_rel, cluster, residual
            load_config({"m": [1, 1], "l": 1, "z": ["0", "1"],
                         "tolerances": {"consistency": 1e-10}})

    def test_exact_mode_needs_rational_z(self):
        with pytest.raises(ConfigError):
            load_config({"m": [1, 1], "l": 1, "z": [0.25, 1.1], "mode": "exact"})

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("bad", ["1/0", "abc", "1e400"])
    def test_malformed_z_string_exits_2(self, mode, bad, tmp_path, capsys):
        # 1/0 divides by zero, abc is no number, and 1e400 has no float twin
        with pytest.raises(ConfigError, match="z entries must be finite rationals"):
            load_config({"m": [1, 1], "l": 1, "z": ["0", bad], "mode": mode})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"m": [1, 1], "l": 1, "z": ["0", bad], "mode": mode}))
        assert main(["spectrum", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: z entries")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_marked_products_underflowing_exit_2(self, mode, tmp_path, capsys):
        # z about 1e-150 apart: prod_{r != s} (z_s - z_r) underflows to 0 as
        # floats, which the z-tables' partial fractions would divide by
        config = {"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1e-150", "2e-150", "3e-150"],
                  "mode": mode}
        with pytest.raises(ConfigError, match="underflows to 0 as floats"):
            load_config(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["spectrum", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: marked points z too close")
        # 1e-100 apart the products are about 1e-300, and the config loads
        load_config({**config, "z": ["0", "1e-100", "2e-100", "3e-100"]})

    def test_tiny_z_has_a_float_twin(self):
        # 1e-400 = 1/10^400: both parts overflow a float, the value rounds to 0
        inst, _, _, _ = load_config({"m": [1, 1], "l": 1, "z": ["1", "1e-400"]})
        assert inst.z == (1, Fraction(1, 10**400))
        assert inst.to_float().z == (1 + 0j, 0j)

    def test_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("GAUDINLAB_TOL_RESIDUAL", "1e-5")
        _, _, _, tol = load_config(E1_CONFIG)
        assert tol.residual == 1e-5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_config_tolerance_must_be_finite(self, bad):
        # json.load reads NaN and Infinity; neither is a JSON number
        with pytest.raises(ConfigError, match="config.tolerances.residual"):
            load_config({**E1_CONFIG, "tolerances": {"residual": bad}})

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_nonfinite_config_text_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"m": [1, 1], "l": 1, "z": ["0", "1"], '
                        f'"tolerances": {{"cluster": {text}}}}}')
        assert main(["spectrum", "--config", str(path)]) == 2
        assert "config.tolerances.cluster" in capsys.readouterr().err

    @pytest.mark.parametrize("value, why", [("nan", "not of type number"),
                                            ("-1", "not above 0"),
                                            ("abc", "not a number")])
    def test_env_tolerance_checked(self, monkeypatch, value, why):
        monkeypatch.setenv("GAUDINLAB_TOL_RESIDUAL", value)
        with pytest.raises(ConfigError, match=f"GAUDINLAB_TOL_RESIDUAL: .*{why}"):
            load_config(E1_CONFIG)

    def test_schema_checker_agrees_with_jsonschema(self):
        import jsonschema
        validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
        base = {"m": [1, 2], "l": 1, "z": ["0", 1.5], "mode": "float", "seed": 3,
                "tolerances": {"svd_rel": 1e-9, "cluster": 1e-6, "residual": 1e-7}}
        cases = [base, {"m": [1, 1], "l": 1, "z": ["0", "1"]}, {**base, "l": 2.0},
                 {**base, "m": [0, 3.0]}, {**base, "tolerances": {}}]
        for key, bad in (("m", [1]), ("m", [1, -1]), ("m", [1, True]), ("m", [1, 1.5]),
                         ("m", {"a": 1}), ("l", -1), ("l", 1.5), ("l", True), ("l", "1"),
                         ("z", ["0"]), ("z", ["0", None]), ("z", ["0", True]), ("z", "01"),
                         ("mode", "fast"), ("mode", None), ("seed", 1.5), ("seed", "0"),
                         ("tolerances", {"consistency": 1}), ("tolerances", {"residual": 0}),
                         ("tolerances", {"residual": -1e-9}), ("tolerances", {"svd_rel": True}),
                         ("tolerances", []), ("extra", 1)):
            cases.append({**base, key: bad})
        cases += [{k: v for k, v in base.items() if k != key} for key in ("m", "l", "z")]
        cases += [[], "config", None, 3]
        for config in cases:
            assert (schema_violation(config, CONFIG_SCHEMA) is None) == validator.is_valid(config), config

    def test_schema_checker_knows_every_keyword(self):
        def keywords(schema):
            yield from schema
            for sub in (schema.get("items"), *schema.get("properties", {}).values()):
                if isinstance(sub, dict):
                    yield from keywords(sub)

        assert set(keywords(CONFIG_SCHEMA)) <= SCHEMA_KEYWORDS

    def test_schema_tolerances_are_the_tolerance_fields(self):
        keys = CONFIG_SCHEMA["properties"]["tolerances"]["properties"]
        assert set(keys) == {f.name for f in dataclasses.fields(Tolerances)}


class TestToleranceReach:
    """An override reaches every decision its field names, not just one."""

    @pytest.fixture(scope="class")
    def default_dims(self):
        return cmd_spectrum(FLOAT_2_4)[0]["dims"]

    def test_config_svd_rel_reaches_algebra_ranks(self, default_dims):
        rep, fails = cmd_spectrum({**FLOAT_2_4, "tolerances": {"svd_rel": 0.5}})
        assert rep["dims"] != default_dims
        assert "bethe_dim_vs_sing_l" in fails

    def test_env_svd_rel_reaches_algebra_ranks(self, default_dims, monkeypatch):
        monkeypatch.setenv("GAUDINLAB_TOL_SVD_REL", "0.5")
        rep, _ = cmd_spectrum(FLOAT_2_4)
        assert rep["dims"] != default_dims

    @pytest.fixture
    def bethe_vector_tols(self, monkeypatch):
        """The residual gate of every Bethe vector check the run makes, once
        per gated point: the weight vector must lie in Sing (E12 kills it)
        and be an eigenvector."""
        import gaudinlab.sov as sov
        seen = []
        real = sov._eigen_gate

        def spy(sys, V, H, tol):
            seen.extend([tol.residual] * len(V))
            return real(sys, V, H, tol)

        monkeypatch.setattr(sov, "_eigen_gate", spy)
        return seen

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_config_residual_reaches_bethe_vector_gate(self, bethe_vector_tols, mode):
        # the exact run checks its Bethe vectors on its float twin
        cmd_spectrum({**FOUR_SPINS, "mode": mode, "tolerances": {"residual": 3e-7}})
        assert bethe_vector_tols and set(bethe_vector_tols) == {3e-7}

    def test_env_residual_reaches_bethe_vector_gate(self, bethe_vector_tols, monkeypatch):
        monkeypatch.setenv("GAUDINLAB_TOL_RESIDUAL", "2e-6")
        cmd_verify({**FOUR_SPINS, "mode": "float"}, 2)
        assert len(bethe_vector_tols) == 2 * 2 and set(bethe_vector_tols) == {2e-6}

    def test_exact_identities_gated_at_literal_zero(self):
        # Omega_{1,0} one off Omega_{0,1}: a certificate defect of 1, which
        # fails although it is under the residual gate
        inst = ProblemInstance([1, 1, 1, 1], 2, [Fraction(v) for v in range(4)])
        frame = gaudin.GaudinFrame(inst)
        W = frame.omega[1, 0].copy()
        W[0, 0] += 1
        frame.omega[1, 0] = W
        rep, fails, _ = run_pipeline(build_gaudin(inst, frame), 0, Tolerances(residual=2.0))
        assert rep["global_checks"]["hamiltonian_sum"] == 1.0
        assert "hamiltonian_sum" in fails


class TestSpectrumCommand:
    def test_E1_golden(self):
        rep, fails = cmd_spectrum(E1_CONFIG)
        assert fails == []
        assert rep["dims"] == {"weight_space": 2, "sing_m": 1, "sing_l": 1,
                               "schubert": 1, "bethe_algebra_sing_m": 1,
                               "bethe_algebra_sing_l": 1, "annihilator": 1}
        (pt,) = rep["spectrum_sing_l"]["points"]
        assert pt["h"] == [[-2.0, 0.0], [2.0, 0.0]]
        assert pt["a"] == [[-0.5, -0.0]]
        (bv,) = rep["bethe_vectors"]
        assert bv["bethe_roots"] == [[0.5, 0.0]]
        assert all(v == 0.0 for v in rep["global_checks"].values())

    def test_E2_two_points(self):
        rep, fails = cmd_spectrum(
            {"m": [1, 1, 1], "l": 1, "z": ["0", "1", "2"], "seed": 0})
        assert fails == []
        assert len(rep["spectrum_sing_l"]["points"]) == 2
        assert rep["spectrum_sing_l"]["all_simple"] is True

    def test_float_annihilator_keeps_every_element(self):
        # the matrix images F K once lost one element of the float ideal
        # here (annihilator 4 against sing_l 5); the vectors F K V keep it
        rep, fails = cmd_spectrum({"m": [3, 2, 3, 1], "l": 2, "z": ["7", "1/4", "0", "8/3"],
                                   "mode": "float", "seed": 0})
        assert rep["dims"]["annihilator"] == rep["dims"]["sing_l"] == 5
        assert fails == []

    def test_exact_report_deterministic(self):
        rep1, _ = cmd_spectrum(E1_CONFIG)
        rep2, _ = cmd_spectrum(E1_CONFIG)
        for r in (rep1, rep2):
            r.pop("timing")     # wall time is the one nondeterministic field
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_reports_validate_against_shipped_schema(self):
        import jsonschema
        from pathlib import Path
        schema = json.loads((Path(__file__).parent.parent / "docs"
                             / "report_schema.json").read_text())
        for cfg in (E1_CONFIG,
                    {"m": [1, 3], "l": 2, "z": ["0", "1"], "seed": 0},
                    {"m": [2, 2], "l": 2, "z": [0.3, -1.7], "mode": "float",
                     "seed": 9}):
            rep, _ = cmd_spectrum(cfg)
            jsonschema.validate(json.loads(json.dumps(rep)), schema)

    def test_off_plane_point_is_a_named_failure(self):
        # one diagonal entry of Omega_hat_{0,1} raised by 1 puts a float Sing M
        # point at q_0 = -3.5e-3, far off the constraint plane; its checks
        # fail by name and the spectrum still validates
        import jsonschema
        from pathlib import Path
        frame = gaudin.GaudinFrame(ProblemInstance([1] * 4, 2, range(4)))
        W = frame.omega_sing[0, 1].copy()
        W[0, 0] += 1
        frame.omega_sing[0, 1] = frame.omega_sing[1, 0] = W
        finst = ProblemInstance([1] * 4, 2, [0.0, 1.0, 2.0, 3.0])
        rep, fails, _ = run_pipeline(build_gaudin(finst, frame), 0, Tolerances())
        assert {"sing_m_q_0", "sing_m_exponents", "sing_m_scheme"} <= set(fails)
        errors = [p["residuals"]["ptilde_error"] for p in rep["spectrum_sing_m"]["points"]
                  if "ptilde_error" in p["residuals"]]
        assert any("off the constraint plane" in e for e in errors)
        schema = json.loads((Path(__file__).parent.parent / "docs"
                             / "report_schema.json").read_text())
        spectrum = {"$ref": "#/definitions/spectrum", "definitions": schema["definitions"]}
        jsonschema.validate(json.loads(json.dumps(rep["spectrum_sing_m"])), spectrum)

    @pytest.mark.parametrize("m, l, z, s, failed", [
        ([1, 0, 1, 2], 2, ["-1", "1/2", "5", "8"], 2, ["grothendieck_jacobian"]),
        ([0, 3, 0, 2], 1, ["2", "5", "-1", "0"], 0, ["bethe_vector", "grothendieck_jacobian"]),
    ])
    def test_root_on_marked_point_named(self, m, l, z, s, failed):
        # p = (x - 5)^2 and p = x - 2: a Bethe root on a marked point, where
        # the weight formula does not apply; the failures stay and say why
        rep, fails = cmd_spectrum({"m": m, "l": l, "z": z, "seed": 0})
        assert fails == failed
        cause = f"a Bethe root lies on the marked point z_{s} = {float(z[s])}"
        errors = [rep["grothendieck"]["error"]] + \
            [b["error"] for b in rep["bethe_vectors"] if "error" in b]
        assert len(errors) == len(failed)
        assert all(e.endswith("; " + cause) for e in errors)

    def test_each_spectrum_reseeds_alone(self, monkeypatch):
        # at seed 202 the H_sing draw does not separate its points and is
        # redrawn at 203; the H_L spectrum drawn at 202 stands, and each
        # block reports the seed its points came from
        import gaudinlab.cli as cli
        calls = []
        real = cli.joint_spectra
        sysd = build_gaudin(ProblemInstance([1, 3, 0], 1, ["2", "-2", "-4"]))

        def spy(families, seeds, tol):
            out = real(families, seeds, tol)
            for mats, seed, spectrum in zip(families, seeds, out):
                name = "H_L" if mats[0] is sysd.H_L[0] else "H_sing"
                rejected = isinstance(spectrum, ClusterAmbiguityError)
                calls.append((name, seed, "rejected") if rejected else (name, seed))
            return out

        monkeypatch.setattr(cli, "joint_spectra", spy)
        rep, fails, _ = run_pipeline(sysd, 202, Tolerances())
        assert calls == [("H_L", 202), ("H_sing", 202, "rejected"), ("H_sing", 203)]
        assert (rep["spectrum_sing_l"]["seed"], rep["spectrum_sing_m"]["seed"]) == (202, 203)
        assert fails == []

    @pytest.mark.parametrize("m, l, z, dim", [([1, 3, 0], 1, ["2", "-2", "-4"], 2),
                                              ([1, 2, 2], 3, ["5", "-1", "-4"], 4)])
    def test_seed_202_sing_m_points_stay_apart(self, m, l, z, dim):
        # the seed-202 draw gives every sing_m point one combination value;
        # the pipeline rejects it and reseeds, so each point stands alone
        rep, fails = cmd_spectrum({"m": m, "l": l, "z": z, "seed": 202})
        assert fails == []
        assert rep["dims"]["sing_m"] == dim
        assert [p["multiplicity"] for p in rep["spectrum_sing_m"]["points"]] == [1] * dim

    def test_shipped_config_schema_in_sync(self):
        from pathlib import Path
        from gaudinlab.cli import CONFIG_SCHEMA
        shipped = json.loads((Path(__file__).parent.parent / "docs"
                              / "config_schema.json").read_text())
        assert shipped == CONFIG_SCHEMA


class TestSchubertCommand:
    def test_values(self):
        assert cmd_schubert([1, 1], 1) == 1
        assert cmd_schubert([1, 1, 1, 1], 2) == 2
        assert cmd_schubert([1, 2], 2) == 0


class TestVerifyCommand:
    def test_E1_family(self):
        rep, fails = cmd_verify(E1_CONFIG, 3)
        assert fails == []
        assert rep["counts_constant"]
        assert [s["totals"]["sing_l"] for s in rep["samples"]] == [1, 1, 1]

    def test_mode_reaches_only_the_report(self):
        # every draw's z is complex, so both modes run the float lane
        reps = {mode: cmd_verify({**FLOAT_2_4, "mode": mode}, 2) for mode in ("exact", "float")}
        for mode, (rep, _) in reps.items():
            assert rep["instance"].pop("mode") == mode
        assert json.dumps(reps["exact"], sort_keys=True) == json.dumps(reps["float"], sort_keys=True)

    def test_three_spins(self):
        rep, fails = cmd_verify(
            {"m": [1, 1, 1], "l": 1, "z": ["0", "1", "2"], "seed": 5}, 3)
        assert fails == []
        assert [s["totals"]["sing_l"] for s in rep["samples"]] == [2, 2, 2]
        for s in rep["samples"]:
            if s["kind"] == "real":
                assert s["diagonalizable"] and s["all_simple"]

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            cmd_verify(E1_CONFIG, 0)

    @pytest.mark.parametrize("n", [12, 16])
    def test_sample_z_ends_for_many_points(self, n):
        # the box widens past n = 6, so a draw is kept about one time in 20
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        for kind in ("real", "complex"):
            z = _sample_z(rng, n, kind)
            assert len(z) == n and all(isinstance(v, complex) for v in z)
            assert min(abs(z[i] - z[j]) for i in range(n) for j in range(i)) > 0.5
        assert time.perf_counter() - t0 < 5.0

    def test_sample_z_draws_kept_up_to_six_points(self):
        # up to n = 6 the box is [-3, 3] (and [-1.5, 1.5] imaginary), as before
        for n in (2, 4, 6):
            for kind in ("real", "complex"):
                rng, ref = np.random.default_rng(n), np.random.default_rng(n)
                while True:
                    want = [complex(v) for v in ref.uniform(-3.0, 3.0, size=n)] if kind == "real" \
                        else [complex(a, b) for a, b in zip(ref.uniform(-3.0, 3.0, size=n),
                                                            ref.uniform(-1.5, 1.5, size=n))]
                    if min(abs(want[i] - want[j]) for i in range(n) for j in range(i)) > 0.5:
                        break
                assert _sample_z(rng, n, kind) == want

    def test_real_z_check_reuses_pipeline_spectrum(self, monkeypatch):
        # one H_L and one H_sing spectrum per sample, none drawn for the check
        import gaudinlab.cli as cli
        families = []
        real = cli.joint_spectra
        monkeypatch.setattr(cli, "joint_spectra", lambda fams, seeds, tol:
                            families.append(len(fams)) or real(fams, seeds, tol))
        calls = count_calls(monkeypatch, ("stacked_diagonalizability_checks",))
        cmd_verify(FOUR_SPINS, 2)
        assert families == [4]
        assert calls == {"stacked_diagonalizability_checks": 1}

    def test_unseparated_spectrum_not_diagonalizable(self, monkeypatch):
        import gaudinlab.cli as cli

        def never_separates(families, seeds, tol):
            return [ClusterAmbiguityError("clusters too close") for _ in families]

        monkeypatch.setattr(cli, "joint_spectra", never_separates)
        rep, fails = cmd_verify(E1_CONFIG, 1)
        (sample,) = rep["samples"]
        assert "cluster_separation" in sample["failures"]
        assert sample["diagonalizable"] is False
        assert sample["diagonalizability_residual"] == "inf"
        assert "sample_0:real_z_multiplicity_one" in fails

    def test_counts_varying_across_z_fail(self, monkeypatch):
        # one draw's sing_l total off by one: the totals differ across z
        import gaudinlab.cli as cli
        real = cli._check_schemes

        def shifted(runs, tol):
            real(runs, tol)
            runs[1].report_l = dataclasses.replace(
                runs[1].report_l, total_multiplicity=runs[1].report_l.total_multiplicity + 1)

        monkeypatch.setattr(cli, "_check_schemes", shifted)
        rep, fails = cmd_verify(E1_CONFIG, 2)
        assert [s["totals"]["sing_l"] for s in rep["samples"]] == [1, 2]
        assert rep["counts_constant"] is False
        assert "counts_vary_across_z" in fails and rep["failures"] == fails
        assert "spectrum_total_sing_l" in rep["samples"][1]["failures"]

    def test_frame_certified_once(self, monkeypatch):
        calls = []
        real = gaudin.GaudinFrame._certify
        monkeypatch.setattr(gaudin.GaudinFrame, "_certify",
                            lambda frame: calls.append(frame) or real(frame))
        cmd_verify(FOUR_SPINS, 4)
        assert len(calls) == 1
        calls.clear()
        cmd_spectrum(FOUR_SPINS)
        assert len(calls) == 1


class TestFrameSharing:
    """Each command builds one GaudinFrame and keeps none afterwards; the
    frame's quotient builds the Gram matrix once and reads the singular
    basis as integers, never as singular_matrix's Fraction array."""

    ONCE = ("sh_quotient", "shapovalov_gram")
    NEVER = ("singular_matrix",)
    COUNTED = ONCE + NEVER + ("generator_matrix",)

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, self.COUNTED)

    def test_verify_builds_one_frame(self, calls):
        cmd_verify(FOUR_SPINS, 1)
        one_sample = dict(calls)
        assert all(one_sample[name] == 1 for name in self.ONCE), one_sample
        assert all(one_sample[name] == 0 for name in self.NEVER), one_sample
        # one frame's generator matrices: the four families for Omega, one
        # matrix per factor; the singular basis reads the frame's E12
        assert one_sample["generator_matrix"] == 4 * 4
        calls.update(dict.fromkeys(self.COUNTED, 0))
        cmd_verify(FOUR_SPINS, 4)
        assert calls == one_sample

    def test_exact_spectrum_builds_one_frame(self, calls):
        rep, _ = cmd_spectrum(E1_CONFIG)
        assert rep["spectrum_sing_l"]["points"]  # so the float twin is built
        assert all(calls[name] == 1 for name in self.ONCE), calls
        assert all(calls[name] == 0 for name in self.NEVER), calls
        assert calls["generator_matrix"] == 4 * 2

    def test_no_frame_kept_between_commands(self, calls):
        cmd_verify(FOUR_SPINS, 4)
        cmd_verify(FOUR_SPINS, 4)
        assert calls["sh_quotient"] == 2


class TestMainEntry:
    def run_cli(self, *args, config=None, tmp_path=None):
        argv = [sys.executable, "-m", "gaudinlab.cli", *args]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        return subprocess.run(argv, capture_output=True, text=True)

    def test_import_leaves_scipy_unloaded(self):
        # scipy.linalg loads only for a spectrum with a cluster of size > 1,
        # never at start-up
        code = "import sys, gaudinlab.cli; assert 'scipy' not in sys.modules"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_simple_float_spectrum_leaves_scipy_linalg_unloaded(self):
        code = ("import sys; from gaudinlab.cli import cmd_spectrum; "
                f"rep, fails = cmd_spectrum({FLOAT_2_4!r}); "
                "assert rep['spectrum_sing_l']['all_simple'] and fails == []; "
                "assert 'scipy.linalg' not in sys.modules")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_schubert_cli(self):
        out = self.run_cli("schubert", "--m", "1,1,1,1", "--l", "2")
        assert out.returncode == 0 and out.stdout.strip() == "2"

    def test_spectrum_cli_roundtrip(self, tmp_path):
        out = self.run_cli("spectrum", config=E1_CONFIG, tmp_path=tmp_path)
        assert out.returncode == 0
        rep = json.loads(out.stdout)
        assert rep["failures"] == []

    def test_config_error_exit_code(self, tmp_path):
        out = self.run_cli("spectrum", config={"m": [1, 1], "l": 1,
                                               "z": ["0", "0"]},
                           tmp_path=tmp_path)
        assert out.returncode == 2
        assert "config error" in out.stderr

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        out = self.run_cli("spectrum", "--out", str(path), config=E1_CONFIG,
                           tmp_path=tmp_path)
        assert out.returncode == 0
        assert json.loads(path.read_text())["failures"] == []

    def test_failed_gates_exit_1_and_list_names(self, tmp_path):
        # an impossible residual gate forces float-lane checks to fail
        import os
        argv = [sys.executable, "-m", "gaudinlab.cli", "spectrum"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"m": [1, 1, 1], "l": 1, "z": [0.0, 1.37, 2.91],
             "mode": "float", "seed": 0}))
        env = dict(os.environ, GAUDINLAB_TOL_RESIDUAL="1e-30")
        out = subprocess.run(argv + ["--config", str(path)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 1
        assert "failed checks:" in out.stderr
