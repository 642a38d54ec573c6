"""Contracts with the code around the package: the benchmark's traced names
and the demos."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_resolve():
    # the traced benchmark run looks each function up by name in its layer
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"gaudinlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gaudinlab.{layer}.{name}"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
