"""Shared seeded instance samplers for the suites.

Everything is deterministic: samplers take a numpy Generator and the tests
fix their seeds, so failures replay exactly.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaudinlab import (
    ClusterAmbiguityError,
    NonSeparatingError,
    ProblemInstance,
    joint_spectrum,
    schubert_dimension,
)
from gaudinlab.gl2rep import weight_space_dim


def load_perfbench(name):
    """The benchmark module perfbench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# the benchmark's exact ladder rungs, (m, l, z)
LADDER = [((1,) * 4, 2, range(4)), ((1,) * 5, 2, range(5)),
          ((2,) * 4, 3, (0, 1, 3, 7)), ((3,) * 4, 4, (0, 1, 3, 7))]


def oracle_det(M):
    """Determinant of a square list of rows by Laplace expansion along the
    first row: exact on Fractions, and independent of the package."""
    if not M:
        return Fraction(1)
    return sum((-1) ** j * M[0][j] * oracle_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def pipeline_spectrum(mats, seed):
    """joint_spectrum at the first of seed, seed + 1, ... whose draw it
    accepts, as run_pipeline reseeds."""
    for attempt in range(6):
        try:
            return joint_spectrum(mats, seed=seed + attempt)
        except ClusterAmbiguityError:
            continue
    raise ClusterAmbiguityError(f"no draw from seed {seed} separates")


def random_rational_z(rng, n):
    z = []
    while len(z) < n:
        c = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
        if c not in z:
            z.append(c)
    return z


def random_exact_instance(rng, max_level_dim=24, dominant=False, min_sing_l=0):
    """One separating instance with rational z inside the desk-scale box."""
    while True:
        n = int(rng.integers(2, 5))
        m = [int(rng.integers(0, 4)) for _ in range(n)]
        l = int(rng.integers(0, 4))
        if weight_space_dim(n, l + 1) > max_level_dim:
            continue
        if dominant and sum(m) - 2 * l < 0:
            continue
        if schubert_dimension(m, l) < min_sing_l:
            continue
        try:
            return ProblemInstance(m, l, random_rational_z(rng, n))
        except NonSeparatingError:
            continue


def random_float_z(rng, n, real=True):
    while True:
        if real:
            z = [complex(v) for v in rng.uniform(-3, 3, size=n)]
        else:
            z = [complex(a, b) for a, b in zip(rng.uniform(-3, 3, size=n),
                                               rng.uniform(-1.5, 1.5, size=n))]
        if min(abs(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)) > 0.5:
            return z


def random_dominant_float_instance(rng, max_level_dim=24, real=True):
    while True:
        n = int(rng.integers(2, 5))
        m = [int(rng.integers(1, 4)) for _ in range(n)]
        l = int(rng.integers(1, 4))
        if sum(m) - 2 * l < 0 or schubert_dimension(m, l) < 1:
            continue
        if weight_space_dim(n, l + 1) > max_level_dim:
            continue
        return ProblemInstance(m, l, random_float_z(rng, n, real=real))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# the two closed-form worked instances used throughout
@pytest.fixture
def E1():
    return ProblemInstance([1, 1], 1, [0, 1])


@pytest.fixture
def E2():
    return ProblemInstance([1, 1, 1], 1, [0, 1, 2])


@pytest.fixture
def E3():
    return ProblemInstance([2, 2], 2, [0, 1])
