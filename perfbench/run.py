"""Run one benchmark workload against gaudinlab and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's calls go through the
public entry points `gaudinlab.cli.cmd_spectrum` and `cmd_verify`, and each
report is serialised as `gaudinlab.cli.main` does.  The workload's first
call runs once as a warm-up; then passes repeat until the next one would
end after S seconds, with at least two.  Each call's wall time is
corrected for the host's speed (hostspeed.py); a call is timed by the
median of its corrected repeats, and a pass by the sum of those times.
Every output is checked against perfbench/reference.json.

With --trace 0 the last line carries the end-to-end metrics.  With --trace 1,
untraced and traced passes alternate and the last line carries the
per-layer metrics; the spans are written to perfbench/out/.  Earlier lines
give the run record, the seconds of each pass and call, and the failed
checks.
"""

import os

# BLAS threads are pinned before numpy loads, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from gaudinlab import cli  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from outputs import check, load_reference  # noqa: E402
from tracing import Tracer, pass_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
MIN_PASSES = 2
# Address-space cap for this process.  The float (1^6),3 instance asks
# numpy for a 20 GiB SVD; the cap makes that a MemoryError on any machine
# instead of a swap storm on a shared one.
ADDRESS_SPACE_BYTES = 4 << 30


@dataclass
class Result:
    call: object
    seconds: float
    corrected: float | None  # host-speed-corrected seconds; None when traced
    text: str | None        # the serialised report; None if the call raised
    failures: list
    error: str | None


def timed_setup(workload: str, seed: int) -> float:
    """Host-corrected seconds of one fresh-process set-up (see setup_probe.py)."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                         check=True, cwd=ROOT, capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    probed = json.loads(out.splitlines()[-1])
    return (wall - probed["probe_s"]) * probed["scale"]


def serialize(report):
    return json.dumps(report, indent=2, sort_keys=True)


def run_pass(calls, tracer=None, speed=None):
    """Run every call once; returns (wall seconds, [Result])."""
    results = []
    t_pass = time.perf_counter()
    for i, call in enumerate(calls):
        since = speed.mark() if speed else 0
        t0 = time.perf_counter()

        def result(text, failures, error):
            wall = time.perf_counter() - t0
            return Result(call, wall, speed.corrected(wall, since) if speed else None,
                          text, failures, error)
        try:
            if tracer:
                tracer.call_id = i
            if call.samples is None:
                report, failures = cli.cmd_spectrum(call.config)
            else:
                report, failures = cli.cmd_verify(call.config, call.samples)
            text = tracer.run("cli.serialize", serialize, report) if tracer \
                else serialize(report)
            results.append(result(text, failures, None))
        except Exception as err:  # a crash is a measured outcome, not the benchmark's
            results.append(result(None, [], f"{type(err).__name__}: {err}"))
    return time.perf_counter() - t_pass, results


def gate_count(failures) -> int:
    """Failed gate names in a report; verify lists them as 'sample_k:name,name'."""
    return sum(len(entry.rpartition(":")[2].split(",")) for entry in failures)


def assess(passes, reference) -> dict:
    """Outcome of every call in every pass, warm-up included.

    A call fails (`failed_frac`) if it raised, reported failed gates, or
    its output differs from the reference.  It is unanswered (the result's
    `failed`) if it raised or its output differs: gate failures are the
    program's verdict on a correct answer, not a failed operation.
    """
    attempted = unanswered = mismatched = failed = 0
    problems = {}
    checks_per_pass = []
    for results in passes:
        checks = 0
        for r in results:
            attempted += 1
            why = r.error
            if r.text is not None:
                why = check(r.call, json.loads(r.text), reference)
                mismatched += why is not None
            unanswered += why is not None
            if why or r.failures:
                failed += 1
                seen = problems.setdefault(r.call.label, [])
                seen.extend(x for x in [why, *r.failures] if x and x not in seen)
            checks += gate_count(r.failures)
        checks_per_pass.append(checks)
    return {"attempted": attempted, "unanswered": unanswered, "mismatched": mismatched,
            "failed_frac": failed / attempted, "failed_checks": median(checks_per_pass),
            "problems": problems}


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.startswith("call_s.") or name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", ".per_point", "_per_pipeline", ".frame_reuse")):
        return "ratio"
    return "count"


def commit() -> str:
    """HEAD of the checkout, marked '+dirty' if the tree has changes; else 'unknown'."""
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip()
        except OSError:
            return ""
    head = git("rev-parse", "HEAD")
    if not head:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain") else "")


def median(values):
    return statistics.median(values) if values else None


def percentile(values, p):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "commit": commit(),
    }
    print(json.dumps({"run": record}), flush=True)

    setup_s = None if args.trace else median(
        [timed_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])
    calls = WORKLOADS[args.workload](args.seed)
    for call in calls:
        cli.load_config(call.config)
    reference = load_reference()

    # Warm-up: one call loads what the program imports lazily.  A pass that
    # starts slow moves little, since times are medians of repeats.
    warm_s, warm = run_pass(calls[:1])
    passes = []          # (wall seconds, results, per-layer metrics or None)
    spans = []
    # Traced passes are timed by wall clock alone, so spans hold no probes.
    speed = None if args.trace else HostSpeed()
    if speed:
        speed.start()
    start = time.perf_counter()
    try:
        while True:
            tracer = Tracer() if args.trace and len(passes) % 2 else None
            if tracer:
                tracer.install()
                try:
                    wall, results = run_pass(calls, tracer)
                finally:
                    tracer.uninstall()
                passes.append((wall, results, pass_metrics(tracer.spans)))
                spans.extend([len(passes) - 1, *s] for s in tracer.spans)
            else:
                passes.append(run_pass(calls, speed=speed) + (None,))
            typical = median([p[0] for p in passes])
            if len(passes) >= MIN_PASSES and \
                    time.perf_counter() - start + typical > args.seconds:
                break
    finally:
        if speed:
            speed.stop()

    outcome = assess([warm] + [p[1] for p in passes], reference)
    plain = [p for p in passes if p[2] is None]
    # Each call is timed by the median of its repeats, and a pass by the
    # sum of those times.
    per_call = [[results[i] for _, results, _ in plain] for i in range(len(calls))]
    call_s = sorted(median([r.corrected for r in rs]) for rs in per_call
                    if all(r.error is None for r in rs)) if speed else []
    print(json.dumps({"warm_up_s": warm_s, "pass_seconds": [p[0] for p in passes]}))
    print(json.dumps({"call_seconds": {calls[i].label: median([r.seconds for r in rs])
                                       for i, rs in enumerate(per_call)}}))
    if speed:
        print(json.dumps({"corrected_call_seconds": {
            calls[i].label: median([r.corrected for r in rs])
            for i, rs in enumerate(per_call)},
            "probe_s.p50": median(speed.probes), "probes": len(speed.probes)}))
    print(json.dumps({"failed_frac": outcome["failed_frac"],
                      "failed_checks": outcome["failed_checks"],
                      "failures": outcome["problems"]}), flush=True)

    if args.trace:
        # Every per-layer figure comes from the one traced pass of median wall
        # time, so a workload's layer self times sum to at most its pass time.
        traced = sorted((p for p in passes if p[2] is not None), key=lambda p: p[0])
        wall, _, metrics = traced[(len(traced) - 1) // 2]
        metrics["trace.pass_s"] = wall
        metrics["trace.overhead_s"] = wall - median([p[0] for p in plain])
        metrics["failed_frac"] = outcome["failed_frac"]
        metrics["failed_checks"] = outcome["failed_checks"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
            {"run": record,
             "fields": ["pass", "name", "start", "end", "parent", "call", "size", "error"],
             "spans": spans}))
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": sum(call_s) if len(call_s) == len(calls) else None,
            "call_s.p50": percentile(call_s, 50),
            "call_s.p90": percentile(call_s, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps({
        "correct": outcome["mismatched"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["unanswered"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()
                    if v is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
