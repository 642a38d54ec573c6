"""Contracts with the code around the package: the benchmark's traced names
and the demos."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_perfbench

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_resolve():
    # the traced benchmark run looks each function up by name in its layer
    tracing = load_perfbench("tracing")
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"gaudinlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gaudinlab.{layer}.{name}"


def test_module_exports_resolve():
    # every name a layer module exports is defined there, once
    tracing = load_perfbench("tracing")
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"gaudinlab.{layer}")
        assert len(set(module.__all__)) == len(module.__all__), layer
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], layer


def test_traced_verify_runs_clean():
    # the benchmark's traced run, on one small verify command
    from gaudinlab import cli
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.cmd_verify({"m": [1, 1, 1, 1], "l": 2, "z": ["0", "1", "2", "3"],
                        "seed": 0}, 2)
    finally:
        tracer.uninstall()
    metrics = tracing.pass_metrics(tracer.spans)
    # the pipeline calls the stacked stages (joint_spectra and
    # stacked_diagonalizability_checks), which TRACED does not list, so the
    # one-family names read no call
    assert metrics["spectral.joint_spectrum.calls"] == 0
    assert metrics["spectral.diagonalizability_check.calls"] == 0
    assert metrics["gl2rep.sh_quotient.calls"] == 1
    assert metrics["spectral.reseeds"] == 0
    # no traced call raises, and every family is read off the frame
    assert [s for s in tracer.spans if s[tracing.ERROR]] == []
    assert metrics["numcore.solve_consistent.calls"] == 0


def test_small_exact_ladder_matches_reference():
    # the certified content of every rung of the benchmark's exact ladder
    # (dimensions, exact check values, multiplicities) against its reference
    from gaudinlab import cli
    outputs = load_perfbench("outputs")
    workloads = load_perfbench("workloads")
    reference = outputs.load_reference()
    calls = workloads.exact_ladder(0)
    assert len(calls) == 4
    for call in calls:
        report, failures = cli.cmd_spectrum(call.config)
        assert failures == []
        assert outputs.check(call, json.loads(json.dumps(report)), reference) is None


def test_float_verify_matches_reference():
    # the benchmark's float-verify calls: certified content (dimensions,
    # multiplicity totals, count stability) against the reference, and no
    # failure; the Jacobian gate reads the equilibrated Jacobian, so the
    # rows' spread in scale at (3^4),4 no longer reads as singular
    from gaudinlab import cli
    outputs = load_perfbench("outputs")
    workloads = load_perfbench("workloads")
    reference = outputs.load_reference()
    calls = workloads.float_verify(0)
    assert [call.samples for call in calls] == [8, 4]
    failures = []
    for call in calls:
        report, fails = cli.cmd_verify(call.config, call.samples)
        failures.append(fails)
        assert outputs.check(call, json.loads(json.dumps(report)), reference) is None
    assert failures == [[], []]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # a RuntimeWarning (overflow, invalid value) fails the demo
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(ROOT / "demos" / demo)], cwd=ROOT,
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    # demos that print exact values only (demo 01's single-point solves,
    # demo 04's kernel and annihilator) have their stdout pinned: it is the
    # same on every platform
    pinned = ROOT / "tests" / "demo_stdout" / demo.replace(".py", ".txt")
    if pinned.exists():
        assert out.stdout == pinned.read_text()
