"""Command-line front end: spectrum, schubert, and verify subcommands.

Configs and reports are JSON; exact rationals travel as "p/q" strings and
complex numbers as [re, im] pairs, so exact data round-trips losslessly.
Exit code 0 means every per-point and global residual passed its gate;
otherwise the failed check names are listed on standard error.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from .gaudin import (
    IDENTITIES,
    GaudinFrame,
    GaudinSystem,
    build_gaudin,
    build_gaudins,
    stacked_algebra_dims,
)
from .gl2rep import ProblemInstance, marked_products, weight_space_dim, z_tables
from .numcore import Tolerances, as_float, max_abs, rank_of
from .opscheme import schubert_dimension
from .sov import VerificationError, stacked_bethe_vectors
from .spectral import (
    ClusterAmbiguityError,
    SingularJacobianError,
    joint_spectra,
    match_spectra_to_scheme,
    stacked_diagonalizability_checks,
    stacked_grothendieck_weights,
)

__all__ = ["CONFIG_SCHEMA", "cmd_spectrum", "cmd_schubert", "cmd_verify", "main"]


CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["m", "l", "z"],
    "additionalProperties": False,
    "properties": {
        "m": {"type": "array", "minItems": 2,
              "items": {"type": "integer", "minimum": 0}},
        "l": {"type": "integer", "minimum": 0},
        "z": {"type": "array", "minItems": 2,
              "items": {"type": ["string", "number"]}},
        "mode": {"enum": ["exact", "float"]},
        "seed": {"type": "integer"},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "svd_rel": {"type": "number", "exclusiveMinimum": 0},
                "cluster": {"type": "number", "exclusiveMinimum": 0},
                "residual": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

_ENV_PREFIX = "GAUDINLAB_TOL_"


class ConfigError(ValueError):
    pass


def _tolerances(config) -> Tolerances:
    """The config's tolerances, each overridden by its GAUDINLAB_TOL_* variable
    if set; an override is held to the same schema as the config."""
    vals = dict(config.get("tolerances", {}))
    schema = CONFIG_SCHEMA["properties"]["tolerances"]["properties"]
    for f in dataclasses.fields(Tolerances):
        name = _ENV_PREFIX + f.name.upper()
        env = os.environ.get(name)
        if env is None:
            continue
        try:
            vals[f.name] = float(env)
        except ValueError:
            raise ConfigError(f"{name}: {env!r} is not a number") from None
        why = schema_violation(vals[f.name], schema[f.name], name)
        if why:
            raise ConfigError(why)
    return Tolerances(**vals)


# The draft-07 keywords CONFIG_SCHEMA uses, checked here rather than by a
# general validator: jsonschema costs every process 39 modules and 4.6 MB.
SCHEMA_KEYWORDS = {"$schema", "type", "enum", "minimum", "exclusiveMinimum", "minItems",
                   "items", "required", "properties", "additionalProperties"}


def _is_number(value) -> bool:
    # json.load also reads NaN and Infinity, which no numeric bound can hold
    return isinstance(value, int) and not isinstance(value, bool) or \
        isinstance(value, float) and math.isfinite(value)


JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,   # JSON numbers exclude booleans
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def schema_violation(value, schema: dict, where: str = "config"):
    """Why value breaks schema, or None; schema uses only SCHEMA_KEYWORDS."""
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(JSON_TYPES[t](value) for t in types):
            return f"{where}: {value!r} is not of type {' or '.join(types)}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{where}: {value!r} is not one of {schema['enum']!r}"
    if _is_number(value):
        if value < schema.get("minimum", value):
            return f"{where}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return f"{where}: {value!r} is not above {schema['exclusiveMinimum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{where}: {value!r} has fewer than {schema['minItems']} items"
        for i, item in enumerate(value):
            why = schema_violation(item, schema.get("items", {}), f"{where}[{i}]")
            if why:
                return why
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f"{where}: {key!r} is a required property"
        for key, item in value.items():
            if key in props:
                why = schema_violation(item, props[key], f"{where}.{key}")
                if why:
                    return why
            elif schema.get("additionalProperties") is False:
                return f"{where}: additional property {key!r} is not allowed"
    return None


def load_config(config: dict):
    why = schema_violation(config, CONFIG_SCHEMA)
    if why:
        raise ConfigError(f"config schema violation: {why}")
    mode = config.get("mode", "exact")
    z = config["z"]
    if mode == "exact" and any(isinstance(v, float) and not v.is_integer() for v in z):
        raise ConfigError("exact mode needs rational z entries ('p/q' strings or integers)")
    try:
        if mode == "exact":
            zz = [Fraction(v) if isinstance(v, str) else Fraction(int(v)) for v in z]
            twin = [as_float(v) for v in zz]   # the z of the float twin
        else:
            zz = twin = [complex(Fraction(v)) if isinstance(v, str) else complex(v) for v in z]
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise ConfigError(f"z entries must be finite rationals: {err}") from None
    if len(set(zz)) != len(zz) or len(set(twin)) != len(twin):
        raise ConfigError("marked points z must be pairwise distinct, also as floats")
    if not np.all(marked_products(np.array([twin], dtype=object), 1 + 0j) != 0):
        raise ConfigError("marked points z too close: a product prod_{r != s} (z_s - z_r) "
                          "underflows to 0 as floats")
    inst = ProblemInstance(config["m"], config["l"], zz)
    return inst, mode, int(config.get("seed", 0)), _tolerances(config)


def _ser(v):
    """v as the report carries it: a Fraction as "p/q", a complex as
    [re, im], and a float that is not finite (inf, -inf, nan; in a complex
    part too) as that string, so every report is strict JSON."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag] if cmath.isfinite(v) else [_ser(v.real), _ser(v.imag)]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _ser_seq(seq):
    return [_ser(v) for v in seq]


class _Run:
    """One system between the phases of the pipeline (run_pipeline): what
    the later phases read, the gates' failures and the values the report
    carries."""

    def __init__(self, sysd: GaudinSystem, seed: int, tol: Tolerances):
        self.sysd, self.seed, self.tol = sysd, seed, tol
        # one float twin, whose z-tables are sample `sample` of `tables`
        self.finst = sysd.inst.to_float()
        self.tables, self.sample = None, 0
        self.failures = []

    def check(self, name, residual, gate=None):
        """Gate residual at gate (tol.residual if None) and return it as the
        report carries it; a NaN residual is recorded as inf, and fails."""
        residual = float(residual)
        if math.isnan(residual):
            residual = math.inf
        if residual > (self.tol.residual if gate is None else gate):
            self.failures.append(name)
        return _ser(residual)


def _front(systems, seeds, tol: Tolerances) -> list:
    """The pipeline's front over systems of one frame and one lane: the
    algebra side of every system in one stage (stacked_algebra_dims: one
    loop, each system reduced on a closure's word walk, no matrix), then
    each system's run with its dimensions and its gates."""
    algebra = stacked_algebra_dims([sysd.H_sing for sysd in systems], systems[0].shq.sh, tol)
    return [_gates(sysd, seed, tol, dims) for sysd, seed, dims in zip(systems, seeds, algebra)]


def _gates(sysd: GaudinSystem, seed: int, tol: Tolerances, algebra) -> _Run:
    """A system's run, its dims and its certificate and dimension gates, from
    the dimensions (B, kernel, annihilator) of its algebra on Sing."""
    run = _Run(sysd, seed, tol)
    inst = sysd.inst
    n, l = inst.n, inst.l
    dim_m, dim_l = sysd.dim_sing_m, sysd.dim_sing_l
    schub = schubert_dimension(inst.m, l)
    dim_bethe_m, dim_ker, dim_ann = algebra
    # the certified P Omega_hat = Omega_tilde P makes f -> f~ (P f = f~ P) a map
    # of the algebra onto B_L with kernel ker: dim B_L = dim B - dim ker
    dim_bethe_l = dim_bethe_m - dim_ker
    run.dims = {
        "weight_space": weight_space_dim(n, l),
        "sing_m": dim_m,
        "sing_l": dim_l,
        "schubert": schub,
        "bethe_algebra_sing_m": dim_bethe_m,
        "bethe_algebra_sing_l": dim_bethe_l,
        "annihilator": dim_ann,
    }

    dim_checks = {
        "dim_sing_m_vs_count":
            abs(dim_m - (weight_space_dim(n, l) - weight_space_dim(n, l - 1))),
        "dim_sing_l_vs_schubert": abs(dim_l - schub),
        "bethe_dim_vs_sing_l": abs(dim_bethe_l - dim_l),
        "annihilator_dim_vs_sing_l": abs(dim_ann - dim_l),
    }
    # Every H_s is the frame's combination at this z, so the identities hold
    # for every z once the frame certificate (integer, computed once per
    # frame) holds; a certificate defect fails at literal zero in both lanes.
    cert = sysd.frame.certificate
    run.global_checks = {k: run.check(k, cert[k], 0.0) for k in IDENTITIES}
    run.global_checks.update((k, run.check(k, v)) for k, v in dim_checks.items())
    return run


def _draw_spectra(runs, tol: Tolerances):
    """Both joint spectra of every run (float lane), each at the first of six
    seeds from the run's seed that separates it: one joint_spectra pass per
    seed over every spectrum still undrawn."""
    wanted = [(run, mats) for run in runs for mats in (run.sysd.H_L, run.sysd.H_sing)]
    drawn = [None] * len(wanted)
    for attempt in range(6):
        todo = [i for i, d in enumerate(drawn) if d is None]
        if not todo:
            break
        seeds = [wanted[i][0].seed + attempt for i in todo]
        spectra = joint_spectra([list(wanted[i][1]) for i in todo], seeds, tol)
        for i, seed, spectrum in zip(todo, seeds, spectra):
            if not isinstance(spectrum, ClusterAmbiguityError):
                drawn[i] = (spectrum, seed)
    for run, pair in zip(runs, zip(drawn[::2], drawn[1::2])):
        if None in pair:
            run.failures.append("cluster_separation")
        (run.spec_l, run.seed_l), (run.spec_m, run.seed_m) = (d or ([], run.seed) for d in pair)


def _share_tables(runs):
    """One z-table stack of every run's float instance, built once, which
    the scheme pass and the back read."""
    tables = z_tables([run.finst for run in runs])
    for k, run in enumerate(runs):
        run.tables, run.sample = tables, k


def _tables_of(runs):
    """The z-tables of runs, one sample per run (None for no run)."""
    return runs[0].tables.take([run.sample for run in runs]) if runs else None


def _check_schemes(runs, tol: Tolerances):
    """Both spectra of every run against the scheme, in one stacked pass."""
    reports = iter(match_spectra_to_scheme(
        [(run.finst, spec) for run in runs for spec in (run.spec_l, run.spec_m)], tol,
        _tables_of([run for run in runs for _ in (0, 1)])))
    for run in runs:
        run.report_l, run.report_m = next(reports), next(reports)


def _back(runs, tol: Tolerances):
    """The pipeline's back, after the scheme pass: each run's totals and
    trace identity, then the Bethe vectors and the Grothendieck weights of
    every run, one stacked pass each, and their gates."""
    for run in runs:
        _totals(run)
    bethe = stacked_bethe_vectors(
        [(run.finst, build_gaudin(run.finst, run.sysd.frame) if run.sysd.inst.exact
          else run.sysd, run.report_l.points) for run in runs], tol, _tables_of(runs))
    for run, vectors in zip(runs, bethe):
        _bethe_gates(run, vectors)
    simple = [run for run in runs if run.report_l.all_simple and run.report_l.points]
    weights = stacked_grothendieck_weights([(run.finst, run.report_l.points) for run in simple],
                                           tol, _tables_of(simple))
    for run in runs:
        run.groth = None
    for run, ws in zip(simple, weights):
        _grothendieck_gates(run, ws)


def _totals(run: _Run):
    """A run's totals, scheme residuals and trace identity, and their gates."""
    sysd, check = run.sysd, run.check
    report_l, report_m = run.report_l, run.report_m
    n, dim_m, dim_l = sysd.inst.n, sysd.dim_sing_m, sysd.dim_sing_l
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
    run.trace_identity = check("trace_identity", trace_resid)


def _bethe_gates(run: _Run, vectors):
    """The gates on a run's Bethe vectors, on its quotient spectrum."""
    run.bethe = vectors
    dim_l = run.sysd.dim_sing_l
    bmax = 0.0
    omega_ls = []
    for bv in run.bethe:
        if isinstance(bv, VerificationError):
            run.failures.append("bethe_vector")
            continue
        bmax = max(bmax, max(bv.eigen_residuals, default=0.0), bv.e12_residual)
        omega_ls.append(np.asarray(bv.omega_L, dtype=complex))
    run.check("bethe_eigen_residual", bmax)
    run.span_rank = 0
    if omega_ls and dim_l:
        run.span_rank = rank_of(np.stack(omega_ls, axis=1), run.tol.svd_rel)
        if run.report_l.all_simple:
            run.check("bethe_span_rank", abs(run.span_rank - dim_l))


def _grothendieck_gates(run: _Run, ws):
    """The Grothendieck form of a run's simple quotient spectrum from its
    weights ws, or its failure when ws is the SingularJacobianError."""
    if isinstance(ws, SingularJacobianError):
        run.failures.append("grothendieck_jacobian")
        run.groth = {"error": str(ws)}
        return
    if isinstance(ws, Exception):
        raise ws
    points = run.report_l.points
    funcs = [[1.0] * len(points)] + \
        [[complex(p.h[s]) for p in points] for s in range(run.sysd.inst.n)]
    gram = np.array([[sum(w * (fi * fj) for w, fi, fj in zip(ws, f1, f2))
                      for f2 in funcs] for f1 in funcs])
    sym = float(np.abs(gram - gram.T).max())
    run.groth = {"weights": _ser_seq(ws),
                 "form_symmetry": run.check("grothendieck_symmetry", sym)}


def _point_dict(p) -> dict:
    return {
        "h": _ser_seq(p.h),
        "a": _ser_seq(p.a),
        "atilde": _ser_seq(p.atilde) if p.atilde is not None else None,
        "multiplicity": p.multiplicity,
        "residuals": {k: _ser(v) for k, v in p.residuals.items()},
    }


def _bethe_dict(p, bv) -> dict:
    if isinstance(bv, VerificationError):
        return {"h": _ser_seq(p.h), "error": str(bv)}
    return {
        "h": _ser_seq(p.h),
        "bethe_roots": _ser_seq(bv.roots),
        "eigen_residuals": _ser_seq(bv.eigen_residuals),
        "e12_residual": _ser(bv.e12_residual),
        "via_subspace": bv.via_subspace,
    }


def _report(run: _Run) -> dict:
    """The pipeline's report of one checked system, without its timing."""
    report_l, report_m = run.report_l, run.report_m
    return {
        "dims": run.dims,
        "global_checks": run.global_checks,
        "spectrum_sing_l": {
            "seed": run.seed_l,
            "total_multiplicity": report_l.total_multiplicity,
            "all_simple": report_l.all_simple,
            "points": [_point_dict(p) for p in report_l.points],
            "residual_summary": {k: _ser(v) for k, v in
                                 report_l.residual_summary.items()},
        },
        "spectrum_sing_m": {
            "seed": run.seed_m,
            "total_multiplicity": report_m.total_multiplicity,
            "all_simple": report_m.all_simple,
            "points": [_point_dict(p) for p in report_m.points],
        },
        "trace_identity": run.trace_identity,
        "bethe_vectors": [_bethe_dict(p, bv) for p, bv in zip(report_l.points, run.bethe)],
        "bethe_span_rank": run.span_rank,
        "grothendieck": run.groth,
    }


def run_pipeline(sysd: GaudinSystem, seed: int, tol: Tolerances):
    """Check everything for one built system; returns (report dict, failures,
    spec_l), spec_l being H_L's joint spectrum ([] if no seed separated it).

    The pipeline computes in phases, then serialises: the front (_front:
    the algebra stage, here one round of its loop: the closure, its words'
    walk, cyclic block, kernel and annihilator, then the gates), the joint
    spectra (_draw_spectra), the scheme pass over both spectra
    (_check_schemes) and the back (_back), these two on the float
    instance's z-tables (_share_tables).  cmd_verify runs the same phases,
    each a single pass over every sample; this is its one-system case.
    """
    t0 = time.perf_counter()
    (run,) = _front([sysd], [seed], tol)
    _draw_spectra([run], tol)
    _share_tables([run])
    _check_schemes([run], tol)
    _back([run], tol)
    report = _report(run)
    report["timing"] = time.perf_counter() - t0
    return report, run.failures, run.spec_l


def cmd_spectrum(config: dict):
    inst, mode, seed, tol = load_config(config)
    report, failures, _ = run_pipeline(build_gaudin(inst), seed, tol)
    report = {
        "instance": {
            "m": list(inst.m), "l": inst.l, "z": _ser_seq(inst.z),
            "mode": mode, "seed": seed,
        },
        **report,
        "failures": failures,
    }
    return report, failures


def cmd_schubert(m, l: int) -> int:
    return schubert_dimension(tuple(m), l)


def _sample_z(rng, n: int, kind: str):
    """n points more than 0.5 apart, drawn uniformly with |Re z| <= w (and
    |Im z| <= 1.5 for kind "complex") until they are: w = 3 up to n = 6 and
    3 (n/6)^2 beyond, which keeps the chance that a real draw is kept
    between 4% and 5% for every n >= 6, where a fixed w lets it fall
    exponentially in n."""
    w = 3.0 * max(1.0, n / 6) ** 2
    while True:
        if kind == "real":
            z = [complex(v) for v in rng.uniform(-w, w, size=n)]
        else:
            z = [complex(a, b) for a, b in
                 zip(rng.uniform(-w, w, size=n), rng.uniform(-1.5, 1.5, size=n))]
        if min(abs(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)) > 0.5:
            return z


def cmd_verify(config: dict, samples: int):
    """Re-run the pipeline across seeded random z draws (real and complex).

    Checks that the multiplicity-weighted point counts are constant across
    draws and equal the space dimensions, and that real draws produce a
    simple, honestly diagonalizable spectrum.  Every draw is built on one
    frame, its Hamiltonians formed for every draw at once (build_gaudins);
    a gate that fails in one draw is listed in that draw's entry.  The
    draws run run_pipeline's phases, each one pass over every draw: the
    front (stacked_algebra_dims: one closure's words certify and reduce
    the draws as one stack), the joint spectra, the scheme checks and the
    back, which read one stack of every draw's z-tables (_share_tables),
    then one diagonalizability pass over the real draws; no point or
    Bethe-vector report is built.  Every draw's z is complex, so the
    samples run in the float lane; the config's mode sets only instance.mode.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    inst0, mode, seed, tol = load_config(config)
    rng = np.random.default_rng(seed)
    kinds = ["real" if k % 2 == 0 else "complex" for k in range(samples)]
    insts = [ProblemInstance(inst0.m, inst0.l, _sample_z(rng, inst0.n, kind)) for kind in kinds]
    runs = _front(build_gaudins(insts, GaudinFrame(inst0)),
                  [seed + 1000 * k for k in range(samples)], tol)
    _draw_spectra(runs, tol)
    _share_tables(runs)
    _check_schemes(runs, tol)
    _back(runs, tol)
    real = iter(stacked_diagonalizability_checks(
        [(run.sysd.H_L, run.spec_l) for run, kind in zip(runs, kinds) if kind == "real"], tol))
    entries = []
    failures = []
    for k, (run, kind) in enumerate(zip(runs, kinds)):
        entry = {
            "z": _ser_seq(run.sysd.inst.z),
            "kind": kind,
            "totals": {"sing_m": run.report_m.total_multiplicity,
                       "sing_l": run.report_l.total_multiplicity},
            "distinct_points": {"sing_m": len(run.report_m.points),
                                "sing_l": len(run.report_l.points)},
            "all_simple": run.report_l.all_simple,
            "failures": run.failures,
        }
        if run.failures:
            failures.append(f"sample_{k}:" + ",".join(run.failures))
        if kind == "real":
            ok_l, worst = next(real)
            entry["diagonalizable"] = bool(ok_l)
            entry["diagonalizability_residual"] = _ser(worst)
            if not (ok_l and entry["all_simple"]):
                failures.append(f"sample_{k}:real_z_multiplicity_one")
        entries.append(entry)
    counts = {(e["totals"]["sing_m"], e["totals"]["sing_l"]) for e in entries}
    if len(counts) != 1:
        failures.append("counts_vary_across_z")
    report = {
        "instance": {"m": list(inst0.m), "l": inst0.l, "mode": mode, "seed": seed},
        "samples": entries,
        "counts_constant": len(counts) == 1,
        "failures": failures,
    }
    return report, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gaudinlab",
        description="Commuting spectra of Gaudin Hamiltonians versus schemes "
                    "of second-order operators with polynomial kernels")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("spectrum", help="full verification pipeline for one instance")
    ps.add_argument("--config", required=True, help="JSON config file")
    ps.add_argument("--out", help="write the JSON report here instead of stdout")

    pb = sub.add_parser("schubert", help="tensor-multiplicity dimension count")
    pb.add_argument("--m", required=True, help="comma-separated weights, e.g. 1,1,1")
    pb.add_argument("--l", required=True, type=int)

    pv = sub.add_parser("verify", help="re-run the pipeline across random z draws")
    pv.add_argument("--config", required=True)
    pv.add_argument("--samples", required=True, type=int)
    pv.add_argument("--out")

    args = ap.parse_args(argv)
    try:
        if args.command == "schubert":
            print(cmd_schubert([int(v) for v in args.m.split(",")], args.l))
            return 0
        with open(args.config) as fh:
            config = json.load(fh)
        if args.command == "spectrum":
            report, failures = cmd_spectrum(config)
        else:
            report, failures = cmd_verify(config, args.samples)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
