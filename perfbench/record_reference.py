"""Record perfbench/reference.json from the program at the current commit.

The reference holds the certified content (see outputs.py) of every call a
workload can make: the ladder, both verify calls, every (m, l, z) the sweep
can draw, and float (1^6),3.  The float lane of (1^6),3 raises MemoryError
at the commit that recorded the reference, so its dimensions and totals come
from the exact lane of the same instance, which takes about four minutes.

usage: python3 perfbench/record_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gaudinlab import cli  # noqa: E402
from outputs import certified, reference_key, save_reference  # noqa: E402
import workloads as w  # noqa: E402

SEED = 0


def main() -> int:
    calls = w.exact_ladder(SEED) + w.float_verify(SEED)
    calls += [w.sweep_call(m, l, k, SEED)
              for m, l in w.sweep_universe() for k in range(w.SWEEP_Z_SETS)]
    entries = {}
    for call in calls:
        if call.samples is None:
            report, _ = cli.cmd_spectrum(call.config)
        else:
            report, _ = cli.cmd_verify(call.config, call.samples)
        entries[reference_key(call)] = certified(call, report)
    for call in w.float_top(SEED):
        report, _ = cli.cmd_spectrum({**call.config, "mode": "exact"})
        entries[reference_key(call)] = certified(call, report)
    save_reference(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
