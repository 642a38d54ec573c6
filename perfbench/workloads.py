"""The benchmark's workloads: the calls each one makes, generated from the seed.

A workload is a list of calls into the `gaudinlab` command line (`spectrum`
or `verify --samples k`).  The program receives only the configs built
here; every config carries the workload seed as its `seed`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from gaudinlab.gl2rep import NonSeparatingError, ProblemInstance, weight_space_dim


@dataclass(frozen=True)
class Call:
    """One entry-point call; `samples` is None for `spectrum`."""

    label: str
    config: dict
    samples: int | None = None


def _config(m, l, z, mode, seed):
    return {"m": list(m), "l": l, "z": [str(v) for v in z], "mode": mode,
            "seed": seed}


def _label(m, l):
    if len(set(m)) == 1:
        return f"({m[0]}^{len(m)}),{l}"
    return f"({','.join(map(str, m))}),{l}"


# The ROADMAP instance ladder, smallest rung first.
LADDER = (
    ((1,) * 4, 2, (0, 1, 2, 3)),
    ((1,) * 5, 2, (0, 1, 2, 3, 4)),
    ((2,) * 4, 3, (0, 1, 3, 7)),
    ((3,) * 4, 4, (0, 1, 3, 7)),
)


def exact_ladder(seed: int) -> list:
    return [Call(_label(m, l), _config(m, l, z, "exact", seed))
            for m, l, z in LADDER]


def float_verify(seed: int) -> list:
    return [Call(f"verify {_label(m, l)} x{k}", _config(m, l, z, "float", seed), k)
            for (m, l, z), k in ((LADDER[2], 8), (LADDER[3], 4))]


def float_top(seed: int) -> list:
    m, l = (1,) * 6, 3
    return [Call(_label(m, l), _config(m, l, range(6), "float", seed))]


SWEEP_CALLS = 120
# Fixed point sets per (m, l).  The spectrum's multiplicities can change
# with z, so the reference records every set the sweep can draw.
SWEEP_Z_SETS = 2


def sweep_universe() -> list:
    """Every separating (m, l) the sweep may draw, ordered by size.

    n in {2, 3, 4}, m_s in {0..3}, l in {1..3}, and the level-(l+1) weight
    space has dimension at most 24.
    """
    out = []
    for n in (2, 3, 4):
        for l in (1, 2, 3):
            if weight_space_dim(n, l + 1) > 24:
                continue
            for m in itertools.product(range(4), repeat=n):
                try:
                    ProblemInstance(m, l, list(range(n)))
                except NonSeparatingError:
                    continue
                out.append((m, l))
    out.sort(key=lambda ml: (len(ml[0]), ml[1], sum(ml[0]), sorted(ml[0]), ml[0]))
    return out


def sweep_z(m, l, k: int) -> list:
    """The k-th fixed set of distinct points p/q, |p| <= 8, 1 <= q <= 4."""
    rng = random.Random(f"{m}|{l}|{k}")
    while True:
        z = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in m]
        if len(set(z)) == len(z):
            return z


def sweep_call(m, l, k: int, seed: int) -> Call:
    return Call(_label(m, l), _config(m, l, sweep_z(m, l, k), "exact", seed))


def exact_sweep(seed: int) -> list:
    """SWEEP_CALLS distinct (m, l), one from each equal slice of the universe.

    Drawing one instance per slice of the size-ordered universe keeps the
    mix of sizes, and so the pass time, nearly the same for every seed.
    """
    rng = random.Random(seed)
    universe = sweep_universe()
    cuts = [round(i * len(universe) / SWEEP_CALLS) for i in range(SWEEP_CALLS + 1)]
    calls = []
    for lo, hi in zip(cuts, cuts[1:]):
        m, l = universe[rng.randrange(lo, hi)]
        calls.append(sweep_call(m, l, rng.randrange(SWEEP_Z_SETS), seed))
    return calls


WORKLOADS = {
    "exact-ladder": exact_ladder,
    "float-verify": float_verify,
    "exact-sweep": exact_sweep,
    "float-top": float_top,
}
